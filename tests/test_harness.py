import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import types
import weakref
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covsum
from covsum import embedding, harness, rouge, selection
from covsum.corpus import build_vocabulary, load_corpus, save_corpus
from covsum.harness import (
    ConfigError,
    ExperimentConfig,
    build_experiment_config,
    cmd_evaluate,
    cmd_summarize,
    cmd_train,
    config_to_pairs,
    load_experiment_config,
    parse_config_file,
)
from covsum.selection import METHODS, REPRESENTATIONS
from covsum.selfcheck import load_bundled_corpus

from conftest import make_doc


def corpus_on_disk(tmp_path, docs, name="corpus.jsonl"):
    path = tmp_path / name
    save_corpus(docs, path)
    return str(path)


def grid_docs():
    return [
        make_doc(
            "ga",
            [["alpha", "beta"], ["gamma", "delta"], ["alpha", "gamma"]],
            refs=[[["alpha", "beta"]]],
        ),
        make_doc(
            "gb",
            [["red", "blue"], ["green", "blue"], ["red", "green", "blue"]],
            refs=[[["red", "blue"]], [["green", "blue"]]],
        ),
        make_doc(
            "gc",
            [["one", "two", "three"], ["four", "five"]],
            refs=[[["one", "two", "three"]]],
        ),
    ]


# --- config parsing ----------------------------------------------------------


def test_parse_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# a comment\n"
        "corpus = docs.jsonl\n"
        "alpha = 2.5   # trailing comment\n"
        "\n"
        "embed.dim = 32\n"
    )
    pairs = parse_config_file(cfg)
    assert pairs == {"corpus": "docs.jsonl", "alpha": "2.5", "embed.dim": "32"}


def test_parse_config_refuses_a_repeated_key(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("seed = 1\nalpha = 2.0\n# seed = 3\nseed = 2\n")
    with pytest.raises(ConfigError, match=r"exp.cfg:4: key 'seed' repeats line 1"):
        parse_config_file(cfg)
    with pytest.raises(ConfigError, match="repeats line 1"):
        load_experiment_config(cfg)
    # a CLI override still replaces a file key
    cfg.write_text("seed = 1\nalpha = 2.0\n")
    assert load_experiment_config(cfg, {"seed": "2"}).embed.seed == 2


def test_parse_config_rejects_bad_lines(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("just some words\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_file(cfg)
    cfg.write_text("alpha =\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg)


def test_build_config_defaults_and_types():
    config = build_experiment_config({"corpus": "x.jsonl", "alpha": "0.5", "seed": "9"})
    assert config.corpus_path == "x.jsonl"
    assert config.alpha == 0.5
    assert config.ratio == 0.10
    assert config.embed.seed == 9  # the seed key sets the one seed field
    assert config.methods == ("RELEVANCE_ONLY", "MMR", "XDTD", "JXDTD")


def test_embed_seed_is_an_unknown_key():
    # ``seed`` is the one seed setting; a second key for it is refused
    with pytest.raises(ConfigError, match="unknown config key.*embed.seed"):
        build_experiment_config({"seed": "9", "embed.seed": "4"})


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="alpa.*rato"):
        build_experiment_config({"alpa": "1", "rato": "0.2"})


def test_bad_values_are_reported():
    with pytest.raises(ConfigError, match="alpha"):
        build_experiment_config({"alpha": "lots"})
    with pytest.raises(ConfigError, match="alpha must be finite"):
        build_experiment_config({"alpha": "nan"})
    with pytest.raises(ConfigError, match=r"alpha must be finite and >= 0"):
        build_experiment_config({"alpha": "-0.5"})
    with pytest.raises(ConfigError, match="seed"):
        build_experiment_config({"seed": "-1"})
    with pytest.raises(ConfigError, match="boolean"):
        build_experiment_config({"per_document_training": "maybe"})
    with pytest.raises(ConfigError, match="ratio"):
        build_experiment_config({"ratio": "0"})
    with pytest.raises(ConfigError, match="method"):
        build_experiment_config({"methods": "MMR,BOGUS"})
    with pytest.raises(ConfigError, match="methods lists a value twice"):
        build_experiment_config({"methods": "XDTD,MMR,XDTD"})
    with pytest.raises(ConfigError, match="representations lists a value twice"):
        build_experiment_config({"representations": "BOW,BOW"})
    with pytest.raises(ConfigError):
        build_experiment_config({"embed.dim": "0"})


def test_overrides_beat_file_keys(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("alpha = 1.0\nratio = 0.2\n")
    config = load_experiment_config(cfg, {"alpha": "3.0"})
    assert config.alpha == 3.0
    assert config.ratio == 0.2


def test_config_to_pairs_round_trips():
    config = build_experiment_config(
        {"corpus": "c.jsonl", "methods": "MMR,XDTD", "alpha": "2.0", "embed.dim": "7",
         "seed": "5"}
    )
    pairs = config_to_pairs(config)
    assert pairs["seed"] == "5" and "embed.seed" not in pairs
    assert build_experiment_config(pairs) == config
    assert config.embed.seed == 5


def test_config_to_pairs_writes_the_training_seed():
    # A config built in code has one seed field, and its dump trains at it.
    config = ExperimentConfig(embed=embedding.TrainConfig(seed=9))
    pairs = config_to_pairs(config)
    assert pairs["seed"] == "9"
    assert build_experiment_config(pairs) == config


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(methods=())
    with pytest.raises(ConfigError, match=r"representation must be one of .*got 'LSA'"):
        ExperimentConfig(representations=("LSA",))
    with pytest.raises(ConfigError):
        ExperimentConfig(split=-1)
    # selection's own rules, raised as config errors
    with pytest.raises(ConfigError, match=r"method must be one of .*got 'BOGUS'"):
        ExperimentConfig(methods=("MMR", "BOGUS"))
    with pytest.raises(ConfigError, match="alpha must be finite and >= 0"):
        ExperimentConfig(alpha=-1.0)
    with pytest.raises(ConfigError, match=r"ratio must be in \(0, 1\]"):
        ExperimentConfig(ratio=1.5)


_CONFIG_KEYS = tuple(config_to_pairs(ExperimentConfig()))
_LINE_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r")
_VALUE_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r#")


@st.composite
def _config_texts(draw):
    """Config file text: ``key = value`` lines over real and made-up keys,
    with values that are numbers, special floats, lists or any text, mixed
    with arbitrary lines."""
    value = st.one_of(
        st.sampled_from(["nan", "-inf", "inf", "1e500", "0", "-1", "1_000", " 3 ", "yes",
                         "MMR, XDTD", "BOW+DM,DBOW", "JXDTD,JXDTD", "", "="]),
        st.integers(-3, 10**6).map(str),
        st.floats().map(repr),
        st.text(_VALUE_CHARS, max_size=12),
    )
    key = st.one_of(st.sampled_from(_CONFIG_KEYS), st.text(_VALUE_CHARS, max_size=8))
    line = st.one_of(
        st.tuples(key, value).map(" = ".join),
        st.text(_LINE_CHARS, max_size=20),
    )
    return "\n".join(draw(st.lists(line, max_size=8)))


@settings(max_examples=300, deadline=None)
@given(_config_texts())
def test_config_text_is_refused_or_round_trips(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.cfg"
        path.write_text(text, encoding="utf-8")
        try:
            config = build_experiment_config(parse_config_file(path))
        except ConfigError:
            return
        pairs = config_to_pairs(config)
        assert build_experiment_config(pairs) == config
        path.write_text("".join(f"{k} = {v}\n" for k, v in pairs.items()), encoding="utf-8")
        assert build_experiment_config(parse_config_file(path)) == config


# --- pipeline commands -------------------------------------------------------


def run_config(tmp_path, docs, **extra):
    pairs = {
        "corpus": corpus_on_disk(tmp_path, docs),
        "out": str(tmp_path / "out"),
        "methods": "RELEVANCE_ONLY,JXDTD",
        "representations": "BOW,DBOW",
        "embed.dim": "4",
        "embed.epochs": "1",
        "embed.negatives": "2",
        "seed": "3",
    }
    pairs.update(extra)
    return build_experiment_config(pairs)


def test_train_writes_only_needed_kinds(tmp_path):
    config = run_config(tmp_path, grid_docs())
    saved = cmd_train(config)
    assert [p.name for p in saved] == ["dbow.cvem"]

    bow_only = run_config(tmp_path, grid_docs(), representations="BOW")
    assert cmd_train(bow_only) == []


def trained_through_train(monkeypatch):
    """Record each ``harness.train`` call, as the benchmark's tracer counts
    fits, and each walk over a group's paragraphs."""
    calls, walks = [], []
    validate = embedding._validate_paragraphs

    def counted(paragraphs, cfg, kind, vocab_size=None, *, trained=None):
        calls.append((kind, len(paragraphs), trained is not None))
        return embedding.train(paragraphs, cfg, kind, vocab_size, trained=trained)

    def validated(paragraphs, vocab_size):
        walks.append(len(paragraphs))
        return validate(paragraphs, vocab_size)

    monkeypatch.setattr(harness, "train", counted)
    monkeypatch.setattr(embedding, "_validate_paragraphs", validated)
    return calls, walks


def assert_saved_as_separate_fits(tmp_path, config, saved, fits):
    """Each saved file holds the bytes of one separate ``train`` call, one
    per (kind, documents) pair of ``fits``."""
    vocab = build_vocabulary(load_corpus(config.corpus_path))
    assert len(saved) == len(fits)
    for path, (kind, group) in zip(saved, fits):
        paragraphs = embedding.build_training_paragraphs(group, vocab)
        model = embedding.train(paragraphs, config.embed, kind, vocab.size)
        embedding.save_model(model, tmp_path / "want.cvem")
        assert path.read_bytes() == (tmp_path / "want.cvem").read_bytes()


def test_train_writes_both_kinds_as_separate_fits_would(tmp_path, monkeypatch):
    calls, walks = trained_through_train(monkeypatch)
    config = run_config(tmp_path, grid_docs(), representations="DM,DBOW")
    saved = cmd_train(config)
    paragraphs = sum(1 + len(doc.sentences) for doc in grid_docs())
    assert calls == [("dm", paragraphs, True), ("dbow", paragraphs, True)]
    assert walks == [paragraphs]  # the corpus is validated once
    assert [p.name for p in saved] == ["dm.cvem", "dbow.cvem"]
    docs = load_corpus(config.corpus_path)
    assert_saved_as_separate_fits(tmp_path, config, saved, [("dm", docs), ("dbow", docs)])


def test_per_document_train_takes_every_model_through_train(tmp_path, monkeypatch):
    # One train call per (kind, document) in save order, each handed the
    # pass, so a traced run times and counts every per-document fit.
    calls, walks = trained_through_train(monkeypatch)
    config = run_config(
        tmp_path, grid_docs(), representations="DBOW", per_document_training="true"
    )
    saved = cmd_train(config)
    paragraphs = [1 + len(doc.sentences) for doc in grid_docs()]
    assert calls == [("dbow", n, True) for n in paragraphs]
    assert walks == paragraphs  # each document is validated once
    assert [p.name for p in saved] == ["ga.cvem", "gb.cvem", "gc.cvem"]
    docs = load_corpus(config.corpus_path)
    assert_saved_as_separate_fits(tmp_path, config, saved, [("dbow", [doc]) for doc in docs])


def test_summarize_then_evaluate(tmp_path):
    config = run_config(tmp_path, grid_docs())
    cmd_train(config)
    written = cmd_summarize(config)
    assert len(written) == 4  # 2 methods x 2 representations

    cell = tmp_path / "out" / "summaries" / "BOW__JXDTD.jsonl"
    records = [json.loads(line) for line in cell.read_text().splitlines()]
    assert [r["id"] for r in records] == ["ga", "gb", "gc"]
    assert all(r["representation"] == "BOW" for r in records)
    assert all(r["words_used"] >= r["budget_words"] for r in records)

    tsv = cmd_evaluate(config)
    lines = tsv.read_text().splitlines()
    assert lines[0] == "method\trepresentation\trouge1_f\trouge2_f\trougeL_f"
    assert len(lines) == 1 + 4  # header + full grid
    per_doc = tmp_path / "out" / "evaluation" / "per_document.jsonl"
    assert len(per_doc.read_text().splitlines()) == 4 * 3  # cells x documents


def test_evaluate_perfect_summary_scores_one(tmp_path):
    docs = [
        make_doc("p0", [["whole", "story"]], refs=[[["whole", "story"]]]),
        make_doc("p1", [["other", "news"]], refs=[[["other", "news"]]]),
    ]
    config = run_config(
        tmp_path, docs, representations="BOW", methods="RELEVANCE_ONLY", ratio="1.0"
    )
    cmd_summarize(config)
    tsv = cmd_evaluate(config)
    row = tsv.read_text().splitlines()[1].split("\t")
    assert row[2:] == ["1.0000", "1.0000", "1.0000"]


def test_summarize_without_model_names_it(tmp_path):
    config = run_config(tmp_path, grid_docs(), representations="BOW+DM")
    with pytest.raises(FileNotFoundError, match="BOW\\+DM.*dm model"):
        cmd_summarize(config)
    # a cell is written whole or not at all
    config = run_config(tmp_path, grid_docs(), representations="BOW,BOW+DM")
    with pytest.raises(FileNotFoundError):
        cmd_summarize(config)
    assert not list((tmp_path / "out" / "summaries").glob("*.jsonl"))


def test_evaluate_requires_references(tmp_path):
    docs = grid_docs() + [make_doc("norefs", [["plain", "text"]])]
    config = run_config(tmp_path, docs, representations="BOW")
    cmd_summarize(config)
    with pytest.raises(ConfigError, match="norefs"):
        cmd_evaluate(config)


def test_evaluate_requires_summaries(tmp_path):
    config = run_config(tmp_path, grid_docs(), representations="BOW")
    with pytest.raises(FileNotFoundError, match="summarize"):
        cmd_evaluate(config)


def test_split_holds_out_prefix(tmp_path):
    config = run_config(tmp_path, grid_docs(), representations="BOW", split="2")
    cmd_summarize(config)
    cell = tmp_path / "out" / "summaries" / "BOW__RELEVANCE_ONLY.jsonl"
    records = [json.loads(line) for line in cell.read_text().splitlines()]
    assert [r["id"] for r in records] == ["gc"]

    too_big = run_config(tmp_path, grid_docs(), representations="BOW", split="3")
    with pytest.raises(ConfigError, match="split"):
        cmd_summarize(too_big)


def test_per_document_training(tmp_path):
    config = run_config(
        tmp_path, grid_docs(), representations="DBOW", methods="XDTD",
        per_document_training="true",
    )
    saved = cmd_train(config)
    assert sorted(p.name for p in saved) == ["ga.cvem", "gb.cvem", "gc.cvem"]
    cmd_summarize(config)
    tsv = cmd_evaluate(config)
    assert len(tsv.read_text().splitlines()) == 2


def test_per_document_model_name_collision_names_both_ids(tmp_path):
    docs = [
        make_doc("a/b", [["alpha", "beta"], ["gamma", "delta"]]),
        make_doc("a_b", [["red", "blue"], ["green", "blue"]]),
    ]
    config = run_config(
        tmp_path, docs, representations="DBOW", methods="XDTD",
        per_document_training="true",
    )
    with pytest.raises(ConfigError, match="'a/b' and 'a_b'.*a_b.cvem"):
        cmd_train(config)
    with pytest.raises(ConfigError, match="'a/b' and 'a_b'.*a_b.cvem"):
        cmd_summarize(config)
    assert not (tmp_path / "out" / "models").exists()


def test_per_document_bow_only_needs_no_model_names(tmp_path):
    docs = [
        make_doc("a/b", [["alpha", "beta"], ["gamma", "delta"]], refs=[[["alpha", "beta"]]]),
        make_doc("a_b", [["red", "blue"], ["green", "blue"]], refs=[[["red", "blue"]]]),
    ]
    config = run_config(
        tmp_path, docs, representations="BOW", methods="XDTD",
        per_document_training="true",
    )
    assert cmd_train(config) == []
    (cell,) = cmd_summarize(config)
    assert [json.loads(line)["id"] for line in cell.read_text().splitlines()] == ["a/b", "a_b"]
    assert len(cmd_evaluate(config).read_text().splitlines()) == 2
    assert not (tmp_path / "out" / "models").exists()


def test_per_document_models_load_once_one_per_kind(tmp_path, monkeypatch):
    config = run_config(
        tmp_path, grid_docs(), representations="BOW,DM,DBOW,BOW+DBOW",
        per_document_training="true",
    )
    saved = cmd_train(config)
    loads = Counter()
    alive = {"dm": [], "dbow": []}
    earlier_alive = []
    real_load = harness.load_model

    def tracking_load(path):
        loads[path] += 1
        model = real_load(path)
        refs = alive[model.kind]
        earlier_alive.append(sum(1 for ref in refs if ref() is not None))
        refs.append(weakref.ref(model))
        return model

    monkeypatch.setattr(harness, "load_model", tracking_load)
    cmd_summarize(config)
    assert loads == Counter(saved)  # every per-document model exactly once
    # while a model loads, at most the previous document's of that kind is alive
    assert len(earlier_alive) == 6 and max(earlier_alive) == 1


def test_per_document_split_loads_only_evaluated_models(tmp_path, monkeypatch):
    config = run_config(
        tmp_path, grid_docs(), representations="DBOW", methods="XDTD",
        per_document_training="true", split="1",
    )
    cmd_train(config)
    loaded = []
    real_load = harness.load_model

    def recording_load(path):
        loaded.append(path)
        return real_load(path)

    monkeypatch.setattr(harness, "load_model", recording_load)
    cmd_summarize(config)
    models = tmp_path / "out" / "models" / "dbow"
    assert loaded == [models / "gb.cvem", models / "gc.cvem"]


def snapshot(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_per_document_outputs_do_not_depend_on_the_waves(tmp_path, monkeypatch):
    config = run_config(
        tmp_path, grid_docs(), methods=",".join(METHODS), representations="DM,BOW+DBOW",
        per_document_training="true",
    )
    waves = Counter()
    real_lockstep = embedding._lockstep

    def counted(groups, *args):
        waves[embedding._WAVE_VALUES] += 1
        return real_lockstep(groups, *args)

    monkeypatch.setattr(embedding, "_lockstep", counted)
    trees = []
    # the defaults, one wave per document, and one step per segment of negatives
    default = (embedding._WAVE_VALUES, embedding._SEGMENT)
    for wave_values, segment in (default, (1, default[1]), (default[0], 1)):
        monkeypatch.setattr(embedding, "_WAVE_VALUES", wave_values)
        monkeypatch.setattr(embedding, "_SEGMENT", segment)
        shutil.rmtree(tmp_path / "out", ignore_errors=True)
        cmd_train(config)
        cmd_summarize(config)
        trees.append(snapshot(tmp_path / "out"))
    assert sorted(waves.values()) == [4, 6]  # one wave per kind, or one per document
    assert trees[0] == trees[1] == trees[2]


def test_summarize_refuses_a_model_of_another_corpus(tmp_path):
    docs = grid_docs()
    renamed = [make_doc("ga", [["alpha", "omega"], ["gamma", "delta"], ["alpha", "gamma"]],
                        refs=[[["alpha", "beta"]]]), *docs[1:]]
    longer = [make_doc("ga", [["alpha", "beta"], ["gamma", "delta"], ["alpha", "gamma"],
                              ["alpha", "beta"]], refs=[[["alpha", "beta"]]]), *docs[1:]]
    models = tmp_path / "out" / "models"
    for other, extra, path, problem in (
        (renamed, {}, models / "dbow.cvem", "vocab_size is 12 but the corpus needs 13"),
        (longer, {}, models / "dbow.cvem", "num_paragraphs is 11 but the corpus needs 12"),
        (longer, {"per_document_training": "true"}, models / "dbow" / "ga.cvem",
         "num_paragraphs is 4 but the corpus needs 5"),
    ):
        cmd_train(run_config(tmp_path, docs, **extra))
        config = run_config(tmp_path, other, **extra)
        with pytest.raises(ConfigError, match=re.escape(f"{path}: model {problem}")):
            cmd_summarize(config)
        assert not list((tmp_path / "out" / "summaries").iterdir())


def test_full_grid_summaries_equal_one_run_per_representation(tmp_path):
    # one run shares each document's part tables across representations
    grid = {"methods": ",".join(METHODS), "representations": ",".join(REPRESENTATIONS)}
    cmd_train(run_config(tmp_path, grid_docs(), **grid))
    cmd_summarize(run_config(tmp_path, grid_docs(), **grid))
    summaries = tmp_path / "out" / "summaries"
    together = snapshot(summaries)
    assert len(together) == len(METHODS) * len(REPRESENTATIONS)
    shutil.rmtree(summaries)
    for representation in REPRESENTATIONS:
        single = dict(grid, representations=representation)
        cmd_summarize(run_config(tmp_path, grid_docs(), **single))
    assert snapshot(summaries) == together


def test_bow_cells_equal_one_docview_per_document(tmp_path, monkeypatch):
    # summarize builds BOW Grams run by run; every record of a cell holding BOW
    # is what the document's own build_docview and greedy_select give
    docs = load_bundled_corpus()
    grid = {"methods": ",".join(METHODS), "representations": "BOW,BOW+DM,BOW+DBOW", "split": "2"}
    config = run_config(tmp_path, docs, **grid)
    cmd_train(config)
    runs = []
    real_runs = selection._run_grams

    def recorded(run, vocab):
        runs.append(len(run))
        return real_runs(run, vocab)

    monkeypatch.setattr(selection, "_run_grams", recorded)
    monkeypatch.setattr(selection, "_PAIR_BLOCK", 5000)  # runs of a few documents each
    cmd_summarize(config)
    assert len(runs) > 1 and max(runs) > 1 and sum(runs) == len(docs) - 2

    vocab = build_vocabulary(docs)
    index = embedding.paragraph_index(docs)
    models = {kind: embedding.load_model(tmp_path / "out" / "models" / f"{kind}.cvem")
              for kind in ("dm", "dbow")}
    for representation in config.representations:
        kind = selection.parse_representation(representation)[1]
        for method in config.methods:
            cell = tmp_path / "out" / "summaries" / f"{representation}__{method}.jsonl"
            want = []
            for doc in docs[2:]:
                view = selection.build_docview(
                    doc, representation, vocab, models.get(kind), index[doc.id]
                )
                summary = selection.greedy_select(view, selection.SelectorConfig(method))
                want.append(json.dumps({"representation": representation, **summary.to_dict()}))
            assert cell.read_text().splitlines() == want


def test_evaluate_scores_each_distinct_summary_once(tmp_path, monkeypatch):
    grid = {"methods": ",".join(METHODS), "representations": "BOW,DBOW,BOW+DBOW"}
    config = run_config(tmp_path, grid_docs(), **grid)
    cmd_train(config)
    cmd_summarize(config)
    out = tmp_path / "out"
    by_id = {doc.id: doc for doc in grid_docs()}

    # the definition: every record scored on its own, cell by cell
    lines, rows = [], ["method\trepresentation\trouge1_f\trouge2_f\trougeL_f"]
    distinct = set()
    for method in config.methods:
        for representation in config.representations:
            cell = out / "summaries" / f"{representation}__{method}.jsonl"
            totals = [0.0, 0.0, 0.0]
            records = [json.loads(line) for line in cell.read_text().splitlines()]
            for record in records:
                doc = by_id[record["id"]]
                distinct.add((doc.id, tuple(record["selected"])))
                picked = [doc.sentences[s].tokens for s in record["selected"]]
                report = rouge.evaluate(picked, doc.references)
                scores = (report.rouge1.f, report.rouge2.f, report.rougeL.f)
                lines.append(json.dumps({
                    "id": doc.id, "method": method, "representation": representation,
                    "rouge1_f": scores[0], "rouge2_f": scores[1], "rougeL_f": scores[2],
                }))
                totals = [t + f for t, f in zip(totals, scores)]
            means = (f"{t / len(records):.4f}" for t in totals)
            rows.append("\t".join((method, representation, *means)))
    assert len(distinct) < len(lines)  # cells do repeat summaries

    calls = Counter()
    real_evaluate = harness.evaluate

    def counting_evaluate(summary_sentences, references):
        calls[tuple(summary_sentences), references] += 1
        return real_evaluate(summary_sentences, references)

    monkeypatch.setattr(harness, "evaluate", counting_evaluate)
    tsv = cmd_evaluate(config)
    assert len(calls) == len(distinct) and set(calls.values()) == {1}
    per_doc = out / "evaluation" / "per_document.jsonl"
    assert per_doc.read_text() == "\n".join(lines) + "\n"
    assert tsv.read_text() == "\n".join(rows) + "\n"


def _drop(key):
    return lambda record: json.dumps({k: v for k, v in record.items() if k != key})


def _set(key, value):
    return lambda record: json.dumps(dict(record, **{key: value}))


@pytest.mark.parametrize(
    "edit, problem",
    [
        (_set("selected", [-1, -2]), "selected \\[-1, -2\\] is not a list of distinct"),
        (_set("selected", [0, 0, 0]), "selected \\[0, 0, 0\\] is not a list of distinct"),
        (_set("selected", [999]), "selected \\[999\\] is not .* in \\[0, 3\\)"),
        (_set("selected", [0.0]), "selected \\[0.0\\] is not"),
        (_set("selected", [True]), "selected \\[True\\] is not"),
        (_set("selected", "0"), "selected '0' is not"),
        (_drop("selected"), "missing selected"),
        (_drop("method"), "missing method"),
        (_set("representation", "DBOW"), "representation is 'DBOW', not the cell's 'BOW'"),
        (_set("method", "MMR"), "method is 'MMR', not the cell's 'JXDTD'"),
        (lambda record: "not json", "not a JSON record"),
        (lambda record: json.dumps([record]), "not a JSON object"),
    ],
    ids=["negative", "repeated", "out-of-range", "float", "bool", "not-a-list",
         "no-selected", "no-method", "other-representation", "other-method",
         "not-json", "not-an-object"],
)
def test_evaluate_refuses_malformed_records(tmp_path, edit, problem):
    config = run_config(tmp_path, grid_docs(), representations="BOW")
    cmd_summarize(config)
    cell = tmp_path / "out" / "summaries" / "BOW__JXDTD.jsonl"
    lines = cell.read_text().splitlines()
    lines[1] = edit(json.loads(lines[1]))  # document gb, 3 sentences
    cell.write_text("\n".join(lines) + "\n")
    if not problem.startswith("not a JSON"):  # a line that is no object names no document
        problem = f"document 'gb': {problem}"
    with pytest.raises(ConfigError, match=f"BOW__JXDTD.jsonl:2: {problem}"):
        cmd_evaluate(config)
    assert not (tmp_path / "out" / "results.tsv").exists()


def test_evaluate_refuses_a_document_twice_in_a_cell(tmp_path):
    config = run_config(tmp_path, grid_docs(), representations="BOW")
    cmd_summarize(config)
    cell = tmp_path / "out" / "summaries" / "BOW__JXDTD.jsonl"
    lines = cell.read_text().splitlines()
    cell.write_text("\n".join([*lines, lines[0]]) + "\n")
    with pytest.raises(ConfigError, match="BOW__JXDTD.jsonl:4: document 'ga' repeats line 1"):
        cmd_evaluate(config)
    assert not (tmp_path / "out" / "evaluation" / "per_document.jsonl").exists()


def test_evaluate_skips_documents_summarized_before_a_stricter_split(tmp_path):
    # cells summarized at split 0 hold records of the documents split 2 holds
    # out; evaluating them at split 2 writes what a split-2 run writes
    outputs = []
    for summarized_at in ("0", "2"):
        root = tmp_path / summarized_at
        root.mkdir()
        cmd_summarize(run_config(root, grid_docs(), representations="BOW", split=summarized_at))
        cmd_evaluate(run_config(root, grid_docs(), representations="BOW", split="2"))
        outputs.append({name: (root / "out" / name).read_bytes()
                        for name in ("results.tsv", "evaluation/per_document.jsonl")})
    assert outputs[0] == outputs[1]


def test_summarize_missing_per_document_model_writes_nothing(tmp_path):
    config = run_config(tmp_path, grid_docs(), per_document_training="true")
    saved = cmd_train(config)
    saved[-1].unlink()
    with pytest.raises(FileNotFoundError, match="DBOW needs a trained dbow model.*gc.cvem"):
        cmd_summarize(config)
    assert not (tmp_path / "out" / "summaries").exists()


def test_failed_summarize_keeps_earlier_summaries(tmp_path):
    config = run_config(tmp_path, grid_docs(), per_document_training="true")
    saved = cmd_train(config)
    cmd_summarize(config)
    summaries = tmp_path / "out" / "summaries"
    before = snapshot(summaries)
    saved[-1].write_bytes(b"not a model")  # fails after the first documents
    with pytest.raises(ValueError, match="not a model"):
        cmd_summarize(config)
    assert snapshot(summaries) == before  # no .part file, cells untouched


def test_failed_evaluate_keeps_earlier_outputs(tmp_path):
    config = run_config(tmp_path, grid_docs(), representations="BOW")
    cmd_summarize(config)
    cmd_evaluate(config)
    out = tmp_path / "out"
    before = snapshot(out)
    cell = out / "summaries" / "BOW__JXDTD.jsonl"  # the last cell evaluated
    cell.unlink()
    with pytest.raises(FileNotFoundError, match="BOW/JXDTD"):
        cmd_evaluate(config)
    cell.write_text("")  # fails after the other cell's rows are written
    with pytest.raises(ConfigError, match="holds no summaries"):
        cmd_evaluate(config)
    cell.write_bytes(before[cell.relative_to(out)])
    assert snapshot(out) == before


def failing_mid_write(fail_at=1):
    """A save_model whose ``fail_at``-th call fails after it has opened its
    ``.part`` file and written the header and paragraph rows; the other
    calls save as usual."""
    calls = []

    def save(model, path):
        calls.append(path)
        if len(calls) != fail_at:
            return embedding.save_model(model, path)
        part = path.with_name(path.name + ".part")

        class WordRows:  # written after the header and the paragraph rows
            shape = model.word_out.shape

            def __array__(self, *args, **kwargs):
                if not part.exists():
                    raise AssertionError("save_model failed before writing its part file")
                raise OSError("disk full")

        embedding.save_model(dataclasses.replace(model, word_out=WordRows()), path)

    return save


def test_failed_train_keeps_earlier_models(tmp_path, monkeypatch):
    config = run_config(tmp_path, grid_docs(), representations="DBOW")
    cmd_train(config)
    models = tmp_path / "out" / "models"
    before = snapshot(models)

    monkeypatch.setattr(harness, "save_model", failing_mid_write())
    with pytest.raises(OSError, match="disk full"):
        cmd_train(run_config(tmp_path, grid_docs(), representations="DBOW", seed="4"))
    assert snapshot(models) == before  # no .part file either


def test_per_document_train_renames_each_model_once(tmp_path, monkeypatch):
    config = run_config(
        tmp_path, grid_docs(), representations="DBOW", per_document_training="true"
    )
    renames = []
    replace = Path.replace

    def counted(self, target):
        renames.append((self.name, Path(target).name))
        return replace(self, target)

    monkeypatch.setattr(Path, "replace", counted)
    saved = cmd_train(config)
    assert sorted(renames) == sorted((p.name + ".part", p.name) for p in saved)
    models = tmp_path / "out" / "models"
    assert sorted(p.name for p in models.rglob("*") if p.is_file()) == [
        "ga.cvem", "gb.cvem", "gc.cvem"
    ]
    before = snapshot(models)

    # The second model fails mid-write; the first is rewritten with the same bytes.
    monkeypatch.setattr(harness, "save_model", failing_mid_write(fail_at=2))
    with pytest.raises(OSError, match="disk full"):
        cmd_train(config)
    assert snapshot(models) == before  # no .part or .part.part file, no changed model


def test_missing_corpus_errors_with_path(tmp_path):
    config = build_experiment_config({"corpus": str(tmp_path / "absent.jsonl")})
    with pytest.raises(FileNotFoundError, match="absent.jsonl"):
        cmd_train(config)
    with pytest.raises(ConfigError, match="corpus"):
        cmd_train(build_experiment_config({}))


def test_public_names_are_listed_once_and_resolve():
    assert len(covsum.__all__) == len(set(covsum.__all__))
    for name in covsum.__all__:
        assert not isinstance(getattr(covsum, name), types.ModuleType), name
    assert {"train", "cmd_train", "evaluate", "CheckResult", "run_all"} <= set(covsum.__all__)


def test_pipeline_imports_leave_the_diagnostics_unloaded():
    # selfcheck, oracles and synthetic serve only `covsum selftest`; the
    # package still exports their public names, loaded on first use.
    code = (
        "import sys, covsum.harness\n"
        "loaded = {'covsum.selfcheck', 'covsum.oracles', 'covsum.synthetic'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "from covsum import CheckResult, cmd_selftest, load_bundled_corpus, run_all\n"
        "names = (CheckResult, cmd_selftest, load_bundled_corpus, run_all)\n"
        "assert {n.__module__ for n in names} == {'covsum.selfcheck'}\n"
    )
    src = str(Path(covsum.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr

"""Experiment runner behind the CLI.

An experiment is described by a flat ``key = value`` config file (dotted
keys reach the embedding hyperparameters, e.g. ``embed.dim = 50``) plus CLI
overrides, and runs in three stages that share one output directory:

    train      models/<kind>.cvem            (or models/<kind>/<doc>.cvem)
    summarize  summaries/<repr>__<method>.jsonl, one record per document
    evaluate   results.tsv + evaluation/per_document.jsonl

``results.tsv`` holds corpus-mean ROUGE-1/2/L F per grid cell, one row per
(method, representation). Everything downstream of the corpus file and the
seed is deterministic, byte for byte.

Each stage does a document's work once, not once per grid cell.
``summarize`` hands one dict of Grams per document to ``build_docview``,
the BOW one built with a run of documents by ``bow_grams``, so each part's
Gram (BOW, DM, DBOW) is built once for every representation holding it.
``evaluate`` checks every summary record against its cell and its
document, then scores each distinct (document, ordered picks) pair once
with ROUGE; every cell that made the same picks reuses those scores.
Stages run in one process on an unchanged corpus file share one parse of
it and one vocabulary (see :func:`corpus.load_corpus`); each CLI command
is its own process and parses the file itself.

Documents share models by group (:func:`_model_groups`): all of them, or one
each with ``per_document_training``. One ``embedding.fit`` pass trains every
model: both kinds of a corpus model at once, per-document models in
lockstep, each bit-identical to one ``train`` call on its group
(``tests/test_embedding.py::test_fit_of_several_groups_matches_separate_fits``).
Output files are written as ``.part``
files and renamed when complete; a failed stage deletes its ``.part`` files,
so it leaves no half-written file and the previous outputs as they were.
"""

from __future__ import annotations

import json
import re
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Document, build_vocabulary, load_corpus
from .embedding import (
    KINDS,
    EmbeddingModel,
    TrainConfig,
    build_training_paragraphs,
    fit,
    load_model,
    paragraph_index,
    save_model,
    train,
)
from .files import written as _written
from .rouge import evaluate
from .selection import (
    METHODS,
    REPRESENTATIONS,
    SelectorConfig,
    bow_grams,
    build_docview,
    greedy_select,
    parse_representation,
)


class ConfigError(ValueError):
    """Raised for unknown config keys or unusable values."""


@dataclass(frozen=True)
class ExperimentConfig:
    corpus_path: str = ""
    output_dir: str = "out"
    methods: tuple[str, ...] = METHODS
    representations: tuple[str, ...] = REPRESENTATIONS
    alpha: float = 1.0
    ratio: float = 0.10
    split: int = 0  # hold out the first `split` documents as a dev set
    per_document_training: bool = False
    embed: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self) -> None:
        for name in ("methods", "representations"):
            values = getattr(self, name)
            if not values:
                raise ConfigError(f"{name} must be non-empty")
            if len(set(values)) != len(values):
                raise ConfigError(f"{name} lists a value twice: {', '.join(values)}")
        try:  # each value is checked by the code that reads it
            for method in self.methods:
                SelectorConfig(method, self.alpha, self.ratio)
            for representation in self.representations:
                parse_representation(representation)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.split < 0:
            raise ConfigError("split must be >= 0")


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _parse_list(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


_TOP_KEYS = {
    "corpus": ("corpus_path", str),
    "out": ("output_dir", str),
    "methods": ("methods", _parse_list),
    "representations": ("representations", _parse_list),
    "alpha": ("alpha", float),
    "ratio": ("ratio", float),
    "split": ("split", int),
    "per_document_training": ("per_document_training", _parse_bool),
}

# Keys of TrainConfig fields, ``seed`` included: it seeds training, the one seeded stage.
_EMBED_KEYS = {
    "seed": ("seed", int),
    "embed.dim": ("dim", int),
    "embed.context_size": ("context_size", int),
    "embed.epochs": ("epochs", int),
    "embed.learning_rate": ("learning_rate", float),
    "embed.negatives": ("negatives", int),
    "embed.unigram_power": ("unigram_power", float),
}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read ``key = value`` lines; ``#`` starts a comment, blanks ignored.
    A key given twice is refused, naming both lines."""
    pairs: dict[str, str] = {}
    lines: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            key, value = (part.strip() for part in stripped.split("=", 1))
            if not key or not value:
                raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
            if key in lines:
                raise ConfigError(f"{path}:{line_no}: key {key!r} repeats line {lines[key]}")
            lines[key] = line_no
            pairs[key] = value
    return pairs


def build_experiment_config(pairs: dict[str, str]) -> ExperimentConfig:
    """Turn raw key/value strings into a validated ExperimentConfig.

    Unknown keys are an error that names every offender. ``seed`` sets
    ``config.embed.seed``, the one seed field; there is no ``embed.seed`` key.
    """
    unknown = sorted(k for k in pairs if k not in _TOP_KEYS and k not in _EMBED_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    top: dict = {}
    embed: dict = {}
    for key, raw in pairs.items():
        table, dest = (_TOP_KEYS, top) if key in _TOP_KEYS else (_EMBED_KEYS, embed)
        name, convert = table[key]
        try:
            dest[name] = convert(raw)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"config key {key}: bad value {raw!r} ({exc})") from exc

    try:
        return ExperimentConfig(embed=TrainConfig(**embed), **top)
    except ValueError as exc:  # TrainConfig validation
        raise ConfigError(str(exc)) from exc


def load_experiment_config(
    config_path: str | Path | None = None, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    """File keys first, CLI overrides on top, then validate."""
    pairs = parse_config_file(config_path) if config_path else {}
    pairs.update(overrides or {})
    return build_experiment_config(pairs)


# ---------------------------------------------------------------------------
# shared plumbing


def _load_docs(config: ExperimentConfig) -> list[Document]:
    if not config.corpus_path:
        raise ConfigError("no corpus configured; set 'corpus' or pass --corpus")
    return load_corpus(config.corpus_path)


def _eval_docs(config: ExperimentConfig, docs: list[Document]) -> list[Document]:
    kept = docs[config.split :]
    if not kept:
        raise ConfigError(
            f"split={config.split} leaves no documents out of {len(docs)}"
        )
    return kept


def _required_kinds(representations: tuple[str, ...]) -> list[str]:
    needed = {parse_representation(rep)[1] for rep in representations}
    return [kind for kind in KINDS if kind in needed]


def _safe_name(doc_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", doc_id)


def _check_model_names(docs: list[Document]) -> None:
    """Refuse ids whose per-document model files would overwrite each other."""
    owner: dict[str, str] = {}
    for doc in docs:
        name = _safe_name(doc.id)
        other = owner.setdefault(name, doc.id)
        if other != doc.id:
            raise ConfigError(
                f"document ids {other!r} and {doc.id!r} both map to the model file "
                f"{name}.cvem; rename one for per_document_training"
            )


def _model_groups(
    config: ExperimentConfig, docs: list[Document], kinds: list[str]
) -> list[tuple[str | None, list[Document]]]:
    """(owner, documents) pairs of documents sharing a model: ``[(None, docs)]``
    for a corpus model, one ``(doc.id, [doc])`` per document otherwise.
    Per-document model file names are checked only when ``kinds`` needs a
    model."""
    if not config.per_document_training:
        return [(None, docs)]
    if kinds:
        _check_model_names(docs)
    return [(doc.id, [doc]) for doc in docs]


def _model_path(out_dir: Path, kind: str, owner: str | None = None) -> Path:
    if owner is None:
        return out_dir / "models" / f"{kind}.cvem"
    return out_dir / "models" / kind / f"{_safe_name(owner)}.cvem"


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(config: ExperimentConfig) -> list[Path]:
    """Train every embedding kind the configured grid needs and persist it.

    One ``fit`` pass trains every model, and each is taken through
    ``train``, one call per (kind, group), in the pass's order: kind-major,
    then group. The pass trains a single group's kinds together and several
    groups in lockstep (README, training).
    """
    docs = _load_docs(config)
    vocab = build_vocabulary(docs)
    kinds = _required_kinds(config.representations)
    out_dir = Path(config.output_dir)
    saved: list[Path] = []
    if not kinds:
        print("no embedding representations configured; nothing to train")
        return saved

    groups = _model_groups(config, docs, kinds)
    paragraphs = [build_training_paragraphs(group, vocab) for _, group in groups]
    models = fit(paragraphs, config.embed, kinds, vocab.size)
    for kind in kinds:
        for (owner, _), group_paragraphs in zip(groups, paragraphs):
            model = train(group_paragraphs, config.embed, kind, vocab.size, trained=models)
            path = _model_path(out_dir, kind, owner)
            path.parent.mkdir(parents=True, exist_ok=True)
            save_model(model, path)
            saved.append(path)
            del model  # unless the pass holds it, freed before the next model is built
    for path in saved:
        print(f"wrote {path}")
    return saved


def _cell_path(out_dir: Path, representation: str, method: str) -> Path:
    return out_dir / "summaries" / f"{representation}__{method}.jsonl"


def _checked_model(path: Path, vocab_size: int, num_paragraphs: int) -> EmbeddingModel:
    """The model at ``path``, refused unless its header fits the corpus: the
    corpus vocabulary size, and one paragraph per document and sentence of
    its group. A model that fails either was trained on another corpus, and
    the group's row spans would read wrong rows of it without a word."""
    model = load_model(path)
    for name, have, want in (
        ("vocab_size", model.vocab_size, vocab_size),
        ("num_paragraphs", model.num_paragraphs, num_paragraphs),
    ):
        if have != want:
            raise ConfigError(
                f"{path}: model {name} is {have} but the corpus needs {want}; "
                "it was trained on another corpus, so run the train subcommand again"
            )
    return model


def cmd_summarize(config: ExperimentConfig) -> list[Path]:
    """Summarize every document under the full method x representation grid.

    Model groups are the outer loop, with every grid cell's file open: a
    group's models are loaded once and replace the previous group's, so at
    most two models per kind are alive, and only while one is loading. Only
    groups holding an evaluated document are loaded, and every model file is
    checked to exist before any cell is opened. A model whose header does
    not fit the corpus is refused (:func:`_checked_model`). Loading reads
    only a model's paragraph rows, the only rows a DocView uses.
    """
    docs = _load_docs(config)
    vocab = build_vocabulary(docs)
    evaluated = _eval_docs(config, docs)
    targets = {doc.id for doc in evaluated}
    kinds = _required_kinds(config.representations)
    out_dir = Path(config.output_dir)
    bow = bow_grams(evaluated, vocab)  # in the order the loop below visits them
    needs_bow = any("BOW" in parse_representation(rep)[0] for rep in config.representations)
    groups = [
        (owner, group)
        for owner, group in _model_groups(config, docs, kinds)
        if any(doc.id in targets for doc in group)
    ]
    for owner, _ in groups:
        for representation in config.representations:
            kind = parse_representation(representation)[1]
            path = _model_path(out_dir, kind, owner) if kind else None
            if path is not None and not path.is_file():
                raise FileNotFoundError(
                    f"representation {representation} needs a trained {kind} model "
                    f"at {path}; run the train subcommand first"
                )
    selectors = [
        SelectorConfig(method=method, alpha=config.alpha, ratio=config.ratio)
        for method in config.methods
    ]
    cells = {
        (representation, method): _cell_path(out_dir, representation, method)
        for representation in config.representations
        for method in config.methods
    }
    (out_dir / "summaries").mkdir(parents=True, exist_ok=True)
    with ExitStack() as stack:
        files = {
            cell: stack.enter_context(
                open(stack.enter_context(_written(path)), "w", encoding="utf-8")
            )
            for cell, path in cells.items()
        }
        for owner, group in groups:
            # Replaces the previous group's models only once these are loaded:
            # freeing them first made every load fault in fresh pages.
            index = paragraph_index(group)
            num_paragraphs = sum(1 + len(doc.sentences) for doc in group)
            models = {
                kind: _checked_model(_model_path(out_dir, kind, owner), vocab.size, num_paragraphs)
                for kind in kinds
            }
            for doc in (d for d in group if d.id in targets):
                parts = {}  # each part's Gram, shared by the representations holding it
                if needs_bow:  # the previous run's Grams are dropped before this is built
                    parts["BOW"] = next(bow)
                for representation in config.representations:
                    kind = parse_representation(representation)[1]
                    view = build_docview(
                        doc,
                        representation,
                        vocab,
                        model=models.get(kind),
                        para_row=index[doc.id],
                        parts=parts,
                    )
                    for cfg in selectors:
                        record = {"representation": representation}
                        record.update(greedy_select(view, cfg).to_dict())
                        files[representation, cfg.method].write(json.dumps(record) + "\n")
                    del view  # its table is freed before the next one is built
    written = list(cells.values())
    print(f"wrote {len(written)} grid cells x {len(targets)} documents")
    return written


# ROUGE-1/2/L F: keys of per_document.jsonl records, columns of results.tsv
_SCORE_COLUMNS = ("rouge1_f", "rouge2_f", "rougeL_f")
# Keys of a summary record that evaluate reads
_RECORD_KEYS = ("id", "representation", "method", "selected")


def _summary_record(
    line: str, where: str, representation: str, method: str, by_id: dict[str, Document]
) -> tuple[Document, tuple[int, ...]] | None:
    """The document and the ordered picks of one summaries line, or None
    for a document not evaluated. Raises ConfigError, naming ``where``
    (``path:line``), for a record that is not one of this cell's summaries."""
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise ConfigError(f"{where}: not a JSON record ({exc})") from exc
    if not isinstance(record, dict):
        raise ConfigError(f"{where}: not a JSON object")
    missing = [key for key in _RECORD_KEYS if key not in record]
    if missing:
        raise ConfigError(f"{where}: document {record.get('id')!r}: missing {', '.join(missing)}")
    doc_id = record["id"]
    for key, want in (("representation", representation), ("method", method)):
        if record[key] != want:
            raise ConfigError(
                f"{where}: document {doc_id!r}: {key} is {record[key]!r}, not the cell's {want!r}"
            )
    doc = by_id.get(doc_id) if isinstance(doc_id, str) else None
    if doc is None:
        return None  # summarized before a stricter split
    selected = record["selected"]
    n = len(doc.sentences)
    if not (
        isinstance(selected, list)
        and all(type(s) is int and 0 <= s < n for s in selected)
        and len(set(selected)) == len(selected)
    ):
        raise ConfigError(
            f"{where}: document {doc_id!r}: selected {selected!r} is not a list of "
            f"distinct sentence indices in [0, {n})"
        )
    return doc, tuple(selected)


def cmd_evaluate(config: ExperimentConfig) -> Path:
    """Score every stored summary and write the corpus-mean ROUGE table.

    Every cell is checked to exist before anything is written, and every
    record must be a summary of its cell (see :func:`_summary_record`) and
    the only one of its evaluated document there.
    Cells often pick the same sentences for a document, so each distinct
    (document, ordered picks) pair is scored once and its scores reused.
    The documents, and so their reference objects, live while their corpus
    stays the last one loaded, so :func:`evaluate` builds each reference's
    ROUGE table once, and a later stage on the same corpus reuses it.
    """
    docs = _load_docs(config)
    targets = _eval_docs(config, docs)
    by_id = {doc.id: doc for doc in targets}
    for doc in targets:
        if not doc.references:
            raise ConfigError(f"document {doc.id!r} has no reference summaries")

    out_dir = Path(config.output_dir)
    cells = [
        (method, representation, _cell_path(out_dir, representation, method))
        for method in config.methods
        for representation in config.representations
    ]
    for method, representation, path in cells:
        if not path.is_file():
            raise FileNotFoundError(
                f"no summaries for {representation}/{method} at {path}; "
                "run the summarize subcommand first"
            )
    per_doc_path = out_dir / "evaluation" / "per_document.jsonl"
    per_doc_path.parent.mkdir(parents=True, exist_ok=True)
    rows = []
    scored_once: dict[tuple[str, tuple[int, ...]], tuple[float, float, float]] = {}
    with _written(per_doc_path) as part, open(part, "w", encoding="utf-8") as fh:
        for method, representation, path in cells:
            totals = [0.0, 0.0, 0.0]
            first_line: dict[str, int] = {}  # evaluated id -> its line in the cell
            with open(path, encoding="utf-8") as cell:
                for line_no, line in enumerate(cell, start=1):
                    found = _summary_record(
                        line, f"{path}:{line_no}", representation, method, by_id
                    )
                    if found is None:
                        continue
                    doc, selected = found
                    seen = first_line.setdefault(doc.id, line_no)
                    if seen != line_no:
                        raise ConfigError(
                            f"{path}:{line_no}: document {doc.id!r} repeats line {seen}"
                        )
                    scores = scored_once.get((doc.id, selected))
                    if scores is None:
                        picked = [doc.sentences[s].tokens for s in selected]
                        report = evaluate(picked, doc.references)
                        scores = (report.rouge1.f, report.rouge2.f, report.rougeL.f)
                        scored_once[doc.id, selected] = scores
                    scored = {"id": doc.id, "method": method, "representation": representation}
                    scored.update(zip(_SCORE_COLUMNS, scores))
                    fh.write(json.dumps(scored) + "\n")
                    totals = [t + f for t, f in zip(totals, scores)]
            if not first_line:
                raise ConfigError(f"{path} holds no summaries for the evaluated documents")
            rows.append((method, representation, *(t / len(first_line) for t in totals)))

    tsv_path = out_dir / "results.tsv"
    with _written(tsv_path) as part, open(part, "w", encoding="utf-8") as fh:
        fh.write("\t".join(("method", "representation", *_SCORE_COLUMNS)) + "\n")
        for method, representation, *means in rows:
            fh.write("\t".join((method, representation, *(f"{m:.4f}" for m in means))) + "\n")
    print(f"wrote {tsv_path}")
    return tsv_path


def config_to_pairs(config: ExperimentConfig) -> dict[str, str]:
    """Flatten a config back to its file representation (for provenance dumps).

    A key whose value is empty (no corpus) is left out: a config file has no
    empty values, and a missing key means the same default.
    """

    def text(value) -> str:
        if isinstance(value, tuple):
            return ",".join(value)
        return str(value).lower() if isinstance(value, bool) else str(value)

    pairs = {key: text(getattr(config, name)) for key, (name, _) in _TOP_KEYS.items()}
    for key, (name, _) in _EMBED_KEYS.items():
        pairs[key] = text(getattr(config.embed, name))
    return {key: value for key, value in pairs.items() if value}

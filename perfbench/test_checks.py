"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest -q perfbench/test_checks.py

Runs a tiny workload through the same round runner the benchmark uses, then
shows that the checks pass on its outputs and that each corruption below
makes them report a failure.
"""

from __future__ import annotations

import json
import random
import shutil
import struct
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import REPRESENTATIONS, Workload  # noqa: E402
from zipf_corpus import CorpusShape, generate, write_corpus  # noqa: E402

SEED = 5
TINY = Workload(
    name="tiny",
    corpus=CorpusShape(docs=4, sentences=(8, 12), tokens=(4, 10), vocab=300, topic_terms=10),
    representations=REPRESENTATIONS,
    ratio=0.2,
    per_document_training=False,
    dim=8,
    epochs=3,
)


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """Two plain rounds and one traced round of the tiny workload."""
    base = tmp_path_factory.mktemp("rounds")
    records = generate(TINY.corpus, SEED)
    corpus = base / "docs.jsonl"
    write_corpus(records, corpus)
    figures = [run.run_round(ROOT, TINY, corpus, base / f"round{i}", SEED,
                             traced=i == 2, timeout=120) for i in range(3)]
    return base, records, figures


def _all_checks(base: Path, records) -> list[checks.Check]:
    found = checks.check_round(base / "round0" / "out", records, TINY)
    digests = [checks.tree_digest(base / f"round{i}" / "out") for i in range(2)]
    return found + checks.check_hashes(digests)


def _failed(found) -> set[str]:
    return {c.name.split(":")[0] for c in found if not c.ok}


def test_lcs_matches_dynamic_programming():
    rng = random.Random(0)
    for _ in range(300):  # lengths past 64 take the bit vector over a machine word
        a = [rng.choice("abcd") for _ in range(rng.randrange(0, 90))]
        b = [rng.choice("abcd") for _ in range(rng.randrange(0, 90))]
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                table[i + 1][j + 1] = table[i][j] + 1 if x == y else max(
                    table[i][j + 1], table[i + 1][j])
        assert checks.lcs_length(a, b) == table[len(a)][len(b)]


def test_clean_outputs_pass(rounds):
    base, records, figures = rounds
    found = _all_checks(base, records)
    assert [c for c in found if not c.ok] == []
    cells = len(TINY.representations) * len(TINY.methods)
    # files, 2 headers, 2 losses, 2 summary and 2 ROUGE checks per cell, 1 hash
    assert len(found) == 1 + 2 + 2 + 4 * cells + 1


def test_tracing_keeps_outputs_and_reports_every_layer(rounds):
    base, _, figures = rounds
    assert len({f["digest"] for f in figures}) == 1
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in declared["per_layer"]}
    assert names == set(figures[2]["layers"]) | {"trace.overhead_s", "machine.probe_s"}
    assert {m["name"] for m in declared["end_to_end"]} == set(run.END_TO_END)
    layers = figures[2]["layers"]
    assert layers["embedding.fits"] == 2
    assert layers["selection.picks"] > 0 and layers["rouge.lcs_cells"] > 0


def _edit_jsonl(path: Path, edit) -> None:
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    rows = edit(rows)
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")


def swap_pick(out: Path) -> None:
    def edit(rows):
        row = next(r for r in rows if len(r["selected"]) >= 2)
        row["selected"][:2] = row["selected"][1::-1]
        return rows

    _edit_jsonl(out / "summaries" / "BOW__MMR.jsonl", edit)


def edit_budget(out: Path) -> None:
    def edit(rows):
        rows[-1]["budget_words"] += 1
        return rows

    _edit_jsonl(out / "summaries" / "BOW+DM__XDTD.jsonl", edit)


def edit_rouge_value(out: Path) -> None:
    def edit(rows):
        rows[0]["rouge1_f"] += 0.01
        return rows

    _edit_jsonl(out / "evaluation" / "per_document.jsonl", edit)


def edit_rouge_mean(out: Path) -> None:
    path = out / "results.tsv"
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[1].split("\t")
    fields[2] = f"{float(fields[2]) + 0.001:.4f}"
    lines[1] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def truncate_summaries(out: Path) -> None:
    """Cut a summaries file to one record, then evaluate again as the CLI would."""
    import contextlib
    import io

    import covsum.harness as harness

    path = out / "summaries" / "DBOW__JXDTD.jsonl"
    path.write_text(path.read_text(encoding="utf-8").splitlines()[0] + "\n", encoding="utf-8")
    config = harness.load_experiment_config(out.parent / "exp.cfg")
    with contextlib.redirect_stdout(io.StringIO()):
        harness.cmd_evaluate(config)  # accepts the truncated file


def change_model_byte(out: Path) -> None:
    path = out / "models" / "dbow.cvem"
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0x01
    path.write_bytes(bytes(raw))


def untrain_model(out: Path) -> None:
    """Zero the out-vectors, as at initialisation; the header stays valid."""
    path = out / "models" / "dbow.cvem"
    raw = bytearray(path.read_bytes())
    vocab, dim = struct.unpack_from("<I", raw, 10)[0], struct.unpack_from("<I", raw, 18)[0]
    raw[len(raw) - vocab * dim * 8 :] = bytes(vocab * dim * 8)
    path.write_bytes(bytes(raw))


def change_model_header(out: Path) -> None:
    path = out / "models" / "dm.cvem"
    raw = bytearray(path.read_bytes())
    raw[10] ^= 0x01  # low byte of the vocabulary size
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("corrupt, expected", [
    (swap_pick, "summaries.replay"),
    (edit_budget, "summaries.budget"),
    (edit_rouge_value, "rouge.per_document"),
    (edit_rouge_mean, "rouge.means"),
    (truncate_summaries, "summaries.budget"),
    (change_model_byte, "hashes.round1"),
    (untrain_model, "models.loss"),
    (change_model_header, "models.header"),
])
def test_corruption_is_reported(rounds, tmp_path, corrupt, expected):
    base, records, _ = rounds
    for i in range(2):
        shutil.copytree(base / f"round{i}", tmp_path / f"round{i}")
    # a byte changed in a later round shows only in the hash comparison;
    # every other corruption hits the round the checks read
    target = tmp_path / ("round1" if corrupt is change_model_byte else "round0")
    exp = (target / "exp.cfg").read_text(encoding="utf-8")
    (target / "exp.cfg").write_text(exp.replace(str(base / target.name), str(target)),
                                    encoding="utf-8")
    corrupt(target / "out")
    assert expected in _failed(_all_checks(tmp_path, records))

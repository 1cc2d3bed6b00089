"""Acceptance gate: one test per shipped guarantee, one printed line each.

Criteria 1-8 reuse the library's own diagnostics (covsum.selfcheck), which
carry their tolerances and runtime bounds internally. Criterion 9 checks
determinism at every boundary: the in-process pipeline, the installed CLI's
selftest output, and a full train/summarize/evaluate grid run twice into
separate directories.
"""

import subprocess
import sys
from pathlib import Path

from covsum import selfcheck
from covsum.corpus import save_corpus
from covsum.harness import build_experiment_config, cmd_evaluate, cmd_summarize, cmd_train
from covsum.selfcheck import CheckResult, load_bundled_corpus

from conftest import ACCEPTANCE_LINES


def _record(num: int, result: CheckResult) -> None:
    status = "PASS" if result.passed else "FAIL"
    line = f"criterion {num} {status} [{result.name}] {result.detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert result.passed, line


def test_criterion_1_greedy_matches_oracle():
    _record(1, selfcheck.check_greedy_matches_oracle())


def test_criterion_2_first_pick_reduction():
    _record(2, selfcheck.check_first_pick_reduction())


def test_criterion_3_probability_invariants():
    _record(3, selfcheck.check_probability_invariants())


def test_criterion_4_rouge_golden_and_lcs():
    _record(4, selfcheck.check_rouge_golden())


def test_criterion_5_embedding_gradients():
    _record(5, selfcheck.check_gradients())


def test_criterion_6_dbow_invariances():
    _record(6, selfcheck.check_dbow_invariances())


def test_criterion_7_duplicate_suppression():
    _record(7, selfcheck.check_duplicate_suppression())


def test_criterion_8_coverage_beats_relevance():
    _record(8, selfcheck.check_coverage_beats_relevance())


def _run_selftest() -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "covsum", "selftest"],
        capture_output=True,
        timeout=300,
    )


def _run_grid(corpus: str, out: Path) -> dict:
    config = build_experiment_config(
        {
            "corpus": corpus,
            "out": str(out),
            "seed": "17",
            "embed.dim": "8",
            "embed.epochs": "2",
            "embed.negatives": "2",
        }
    )
    cmd_train(config)
    cmd_summarize(config)
    cmd_evaluate(config)
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


def test_criterion_9_determinism(tmp_path):
    problems = []

    in_process = selfcheck.check_determinism()
    if not in_process.passed:
        problems.append(f"pipeline reruns differ ({in_process.detail})")

    first, second = _run_selftest(), _run_selftest()
    if first.returncode != 0 or second.returncode != 0:
        problems.append(f"selftest exited {first.returncode}/{second.returncode}")
    if first.stdout != second.stdout:
        problems.append("selftest stdout differs between runs")

    corpus = str(tmp_path / "corpus.jsonl")
    save_corpus(load_bundled_corpus(), corpus)
    grid_a = _run_grid(corpus, tmp_path / "run_a")
    grid_b = _run_grid(corpus, tmp_path / "run_b")
    if set(grid_a) != set(grid_b):
        problems.append("grid runs produced different file sets")
    else:
        diff = [name for name in grid_a if grid_a[name] != grid_b[name]]
        if diff:
            problems.append(f"grid files differ: {', '.join(diff)}")

    detail = (
        f"selftest x2 and a {len(grid_a)}-file grid x2 are byte-identical"
        if not problems
        else "; ".join(problems)
    )
    _record(9, CheckResult("determinism-everywhere", not problems, detail))

"""covsum benchmark: seeded train -> summarize -> evaluate, end to end and per layer.

    python3 perfbench/run.py --workload embed-grid --seed 1 --seconds 30 --trace 0

Run from the root of a covsum source tree; covsum is imported from ``src``.
The run generates its workload's corpus from ``--seed``, then repeats rounds
until ``--seconds`` have passed (at least MIN_ROUNDS). A round is one fresh
process running the whole pipeline, with BLAS pools held to one thread; a
machine-speed probe (probe.py) runs before the first round and after every
round. Every round's outputs must hash the same, and the first round's
outputs go through checks.py.

Times are scaled to the reference machine speed: each round's times are
multiplied by PROBE_REF_S over the mean of the probes on either side of
it. The unscaled means are printed on the line before the result.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones: stage times as the mean over rounds,
``setup_s`` as the median over rounds, sizes as the median. With
``--trace 1`` every other round is traced and the metrics are the per-layer
means over traced rounds, plus ``trace.overhead_s``, the traced minus the
untraced mean ``pipeline_s``, and ``machine.probe_s``, the mean unscaled
probe time. Exits 1 if a check failed, 2 if covsum's source is missing.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from tracing import layer_metrics, layer_unit, self_time_table  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from zipf_corpus import generate, write_corpus  # noqa: E402

OUT_DIR = ".perfbench-out"  # under the source tree; listed in .gitignore
MIN_ROUNDS = 3
DEADLINE_S = 140.0  # start no round that would not end by then; checks follow

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "summarize_s": "s",
    "evaluate_s": "s",
    "pipeline_s": "s",
    "peak_rss_mb": "MiB",
    "output_mb": "MB",
}
# On a shared 2-vCPU virtual machine, CPU speed was seen to drift by a quarter
# to a half in spells of seconds to minutes. Scaling each round by the probes
# around it takes out most of that; the mean over rounds (total scaled stage
# time / rounds) then spread less across runs than the median did.
STAGE_TIMES = ("train_s", "summarize_s", "evaluate_s", "pipeline_s")
PROBE_REF_S = 0.3  # probe.py's spawn-to-exit time at the reference speed


class RoundFailed(RuntimeError):
    pass


def _spawn(root: Path, args: list[str], timeout: float) -> float:
    """Run ``python3 perfbench/<args>`` to its end; returns its spawn time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH)])
    spawn = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / args[0]), *args[1:]], cwd=root,
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RoundFailed(proc.stderr.strip().splitlines()[-1] if proc.stderr.strip()
                          else f"{args[0]} exit code {proc.returncode}")
    return spawn


def probe(root: Path) -> float:
    """Spawn-to-exit seconds of one probe.py process."""
    spawn = _spawn(root, ["probe.py"], timeout=60)
    return time.monotonic() - spawn


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def run_round(root: Path, workload, corpus: Path, round_dir: Path, seed: int,
              traced: bool, timeout: float) -> dict:
    """One pipeline process; returns its unscaled figures."""
    round_dir.mkdir(parents=True)
    out = round_dir / "out"
    config = round_dir / "exp.cfg"
    config.write_text(workload.config_text(str(corpus), str(out), seed), encoding="utf-8")
    result = round_dir / "result.json"
    spans_path = round_dir / "spans.json"
    args = ["pipeline.py", "--config", str(config), "--result", str(result)]
    spawn = _spawn(root, args + (["--trace", str(spans_path)] if traced else []), timeout)
    child = json.loads(result.read_text(encoding="utf-8"))
    stamps = child["stamps"]
    size = _tree_bytes(out)
    figures = {
        "setup_s": stamps["setup"] - spawn,
        "train_s": stamps["train"][1] - stamps["train"][0],
        "summarize_s": stamps["summarize"][1] - stamps["summarize"][0],
        "evaluate_s": stamps["evaluate"][1] - stamps["evaluate"][0],
        "pipeline_s": stamps["evaluate"][1] - spawn,
        "peak_rss_mb": child["peak_rss_kib"] / 1024.0,
        "output_mb": size / 1e6,
        "digest": checks.tree_digest(out),
        "traced": traced,
    }
    if traced:
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        figures["layers"] = layer_metrics(spans, size)
        figures["self_times"] = self_time_table(spans)
    return figures


def scaled(figures: dict, factor: float) -> dict:
    """A round's figures with every time multiplied by ``factor``."""
    out = dict(figures)
    for name in ("setup_s", *STAGE_TIMES):
        out[name] = figures[name] * factor
    if "layers" in figures:
        units = {name: layer_unit(name) for name in figures["layers"]}
        out["layers"] = {name: v * factor if units[name] == "s" else
                         v / factor if units[name] == "1/s" else v
                         for name, v in figures["layers"].items()}
        out["self_times"] = {name: v * factor for name, v in figures["self_times"].items()}
    return out


def round_operations(workload, n_docs: int) -> int:
    """Model fits + one summary and one evaluation per (document, grid cell)."""
    fits = len(workload.kinds()) * (n_docs if workload.per_document_training else 1)
    cells = len(workload.representations) * len(workload.methods)
    return fits + 2 * n_docs * cells


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    """Stage times as the mean over rounds, set-up time and sizes as the median."""
    values = {name: statistics.median(r[name] for r in rounds)
              for name in ("setup_s", "peak_rss_mb", "output_mb")}
    values.update({name: statistics.fmean(r[name] for r in rounds) for name in STAGE_TIMES})
    return {name: values[name] for name in END_TO_END}


def _mean_of(rounds: list[dict], key: str) -> dict[str, float]:
    names = rounds[0][key]
    return {name: statistics.fmean(r[key][name] for r in rounds) for name in names}


def run(root: Path, workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; see the module docstring."""
    workload = WORKLOADS[workload_name]
    records = generate(workload.corpus, seed)
    run_dir = root / OUT_DIR / f"{workload_name}-{seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        corpus = run_dir / "docs.jsonl"
        write_corpus(records, corpus)
        rounds: list[dict] = []  # scaled to the reference speed
        unscaled: list[dict] = []
        failures: list[str] = []
        kept: Path | None = None  # the first successful round's outputs, for the checks
        attempts = 0
        start = time.monotonic()
        last = 0.0
        probes = [probe(root)]
        while True:
            elapsed = time.monotonic() - start
            if attempts >= MIN_ROUNDS + trace and elapsed >= seconds:
                break
            if attempts and elapsed + last > DEADLINE_S:
                break
            round_dir = run_dir / f"round{attempts}"
            begin = time.monotonic()
            try:
                figures = run_round(root, workload, corpus, round_dir, seed,
                                    traced=trace and attempts % 2 == 1,
                                    timeout=DEADLINE_S + 20 - elapsed)
            except (RoundFailed, subprocess.TimeoutExpired) as exc:
                figures = None
                failures.append(f"round {attempts}: {exc}")
            probes.append(probe(root))
            if figures is not None:
                unscaled.append(figures)
                rounds.append(scaled(figures, PROBE_REF_S / statistics.fmean(probes[-2:])))
                if kept is None:
                    kept = round_dir
            if round_dir != kept:
                shutil.rmtree(round_dir, ignore_errors=True)
            last = time.monotonic() - begin
            attempts += 1
        if kept is None:
            raise RoundFailed("every round failed: " + "; ".join(failures))

        results = checks.check_round(kept / "out", records, workload)
        results += checks.check_hashes([r["digest"] for r in rounds])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    bad = [c for c in results if not c.ok]
    per_round = round_operations(workload, len(records))
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if trace:
        if not plain or not traced:
            raise RoundFailed("a traced run needs a traced and an untraced round")
        values = _mean_of(traced, "layers")
        values["trace.overhead_s"] = (statistics.fmean(r["pipeline_s"] for r in traced)
                                      - statistics.fmean(r["pipeline_s"] for r in plain))
        values["machine.probe_s"] = statistics.fmean(probes)
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end(rounds).items()}
    return {
        "correct": not bad,
        "attempted": attempts * per_round + len(results),
        "failed": (attempts - len(rounds)) * per_round + len(bad),
        "metrics": metrics,
        "problems": failures + [f"{c.name}: {c.detail}" for c in bad],
        "rounds": len(rounds),
        "unscaled": end_to_end(unscaled),
        "probe_s": statistics.median(probes),
        "pipeline_plain_s": statistics.fmean(r["pipeline_s"] for r in plain),
        "self_times": _mean_of(traced, "self_times") if traced else {},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "covsum" / "__init__.py").is_file():
        print(f"error: no covsum source under {root / 'src'}; run from the source tree",
              file=sys.stderr)
        return 2
    try:
        result = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in result["problems"]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {result['rounds']} rounds, "
          f"{result['attempted']} operations, {result['failed']} failed")
    print(f"unscaled: probe median {result['probe_s']:.4f} s (reference {PROBE_REF_S} s); "
          + ", ".join(f"{k} {v:.4f}" for k, v in result["unscaled"].items()))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

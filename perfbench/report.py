"""Traced-run report: per-layer metrics, self times and tracing overhead per workload.

    python3 perfbench/report.py --seed 1 --seconds 30 [--workload long-docs ...]

Makes one ``--trace 1`` run of each workload (every other round traced) and
prints a Markdown report. Self time is a span's duration minus its wrapped
children; the overhead is the traced minus the untraced mean pipeline_s.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from pathlib import Path

import run  # first: it pins the BLAS pools to one thread before numpy loads
import numpy as np
from workloads import WORKLOADS


def _fmt(value: float, unit: str) -> str:
    if unit in ("s", "1/s"):
        return f"{value:.4g}"
    return f"{value:.0f}"


def report(root: Path, names: list[str], seed: int, seconds: float) -> str:
    lines = [
        f"# covsum traced-run report (seed {seed}, {seconds:g} s per workload)",
        "",
        f"Python {platform.python_version()}, numpy {np.__version__}, "
        f"{os.cpu_count()} CPUs, BLAS pools at one thread.",
    ]
    for name in names:
        result = run.run(root, name, seed, seconds, trace=True)
        metrics = result["metrics"]
        overhead = metrics["trace.overhead_s"]["value"]
        plain = result["pipeline_plain_s"]
        lines += [
            "",
            f"## {name}",
            "",
            f"{result['rounds']} rounds, {result['attempted']} operations, "
            f"{result['failed']} failed, correct: {str(result['correct']).lower()}. "
            f"Untraced pipeline_s mean {plain:.3f} s; tracing overhead "
            f"{overhead:+.3f} s ({100 * overhead / plain:+.1f}%).",
            "",
            "| per-layer metric | value | unit |",
            "| --- | ---: | --- |",
        ]
        lines += [f"| {k} | {_fmt(m['value'], m['unit'])} | {m['unit']} |"
                  for k, m in metrics.items()]
        lines += ["", "| span | self time (s) |", "| --- | ---: |"]
        lines += [f"| {k} | {v:.4f} |" for k, v in
                  sorted(result["self_times"].items(), key=lambda kv: -kv[1])]
        for problem in result["problems"]:
            lines.append(f"- FAIL {problem}")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "covsum" / "__init__.py").is_file():
        print("error: run from the root of the covsum source tree", file=sys.stderr)
        return 2
    print(report(root, args.workload or list(WORKLOADS), args.seed, args.seconds), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())

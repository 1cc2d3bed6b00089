#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as BENCH_<n>.json.

    python3 scripts/bench_record.py 10 [--seed 11] [--seconds 30]

Run from the root of a covsum source tree. For every workload that
BENCHMARK.json lists, this runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

and keeps its end-to-end metrics, rounds, operation counts and probe
median. The file also holds the seed and seconds, ``os.cpu_count()``, the
Python and numpy versions, the git commit (and whether tracked files
differed from it), the line count of the Python files under ``src/``, the
lines of the covsum modules that ``import covsum.harness`` loads (the
source every pipeline stage compiles when no bytecode cache is written),
in all and per module (``import_path_files``, by module name), how many of those modules had a bytecode cache file before the runs
started (``import_path_cached`` of ``import_path_modules``; a round reads
a cache that exists whatever ``PYTHONDONTWRITEBYTECODE`` says) and the
``PYTHONDONTWRITEBYTECODE`` value the runs inherit (null if unset).
Exits 1 without writing the file if a run fails or reports a failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROUNDS = re.compile(r"^\S+ seed \d+: (\d+) rounds, (\d+) operations, (\d+) failed$")
PROBE = re.compile(r"^unscaled: probe median ([0-9.]+) s")

# Run in a fresh interpreter that writes no bytecode: prints the modules
# covsum loads, their lines and how many of them have a bytecode cache file.
IMPORT_PATH = (
    "import json, sys, covsum.harness\n"
    "from importlib.util import cache_from_source\n"
    "from pathlib import Path\n"
    "files = {n: Path(m.__file__) for n, m in sorted(sys.modules.items())\n"
    "         if n.split('.')[0] == 'covsum'}\n"
    "lines = {n: len(f.read_text(encoding='utf-8').splitlines()) for n, f in files.items()}\n"
    "print(json.dumps({'import_path_lines': sum(lines.values()),\n"
    "                  'import_path_files': lines,\n"
    "                  'import_path_modules': len(files),\n"
    "                  'import_path_cached': sum(Path(cache_from_source(f)).is_file()\n"
    "                                            for f in files.values())}))\n"
)


def run_workload(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run, parsed from its standard output."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: exit {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    counts = next(m for m in map(ROUNDS.match, lines) if m)
    probe = next(m for m in map(PROBE.match, lines) if m)
    return {
        "correct": result["correct"],
        "rounds": int(counts[1]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "probe_median_s": float(probe[1]),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, capture_output=True, text=True,
                          check=True).stdout.strip()


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def import_path(root: Path) -> dict[str, int]:
    """Lines of the covsum modules, package ``__init__`` included, that
    ``import covsum.harness`` loads from ``root/src``, in all and by module
    name, their number, and how many have a bytecode cache file. The import runs under ``-B``, so it
    writes no cache itself."""
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-B", "-c", IMPORT_PATH], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=path)).stdout
    return json.loads(out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("number", type=int, help="n of the BENCH_<n>.json to write")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    args = parser.parse_args()

    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    modules = import_path(root)  # before the runs, which may write caches
    workloads = {}
    for entry in bench["workloads"]:
        name = entry["name"]
        try:
            workloads[name] = run_workload(root, name, args.seed, seconds)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not workloads[name]["correct"] or workloads[name]["failed"]:
            print(f"error: {name} reported failed checks or operations", file=sys.stderr)
            return 1
        print(f"{name}: {workloads[name]['metrics']}")

    record = {
        "commit": git(root, "rev-parse", "HEAD"),
        "tracked_changes": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
        "src_lines": src_lines(root),
        **modules,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "seed": args.seed,
        "seconds": seconds,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": workloads,
    }
    out = root / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

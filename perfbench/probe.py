"""Machine-speed probe: a fixed job that shares no code with covsum.

    python3 perfbench/probe.py

Starts an interpreter, imports numpy and runs a fixed mix of small numpy
calls and dictionary work, the kind of work covsum's layers do. run.py
times it from spawn to exit before and after every round; the round's
times are scaled by the reference probe time over the measured one, so a
spell in which the whole machine runs slower does not read as a slower
program.
"""

import numpy as np

STEPS = 40_000


def main() -> None:
    vec = np.linspace(0.0, 1.0, 50)
    rows = np.zeros((256, 50))
    table: dict[str, float] = {}
    acc = 0.0
    for i in range(STEPS):
        j = i & 255
        rows[j] += vec * 1e-3
        acc += float(rows[j] @ vec)
        table[str(i & 4095)] = acc
    if not np.isfinite(acc):
        raise SystemExit("probe diverged")


if __name__ == "__main__":
    main()

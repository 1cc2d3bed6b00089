"""Command-line entry point.

    covsum train     --corpus docs.jsonl --out runs/a --seed 7
    covsum summarize --corpus docs.jsonl --out runs/a --method JXDTD --repr BOW
    covsum evaluate  --corpus docs.jsonl --out runs/a
    covsum run       --corpus docs.jsonl --out runs/a   # the three, in one process
    covsum selftest

``--config`` points at a flat ``key = value`` file; every other flag
overrides the corresponding file key. ``--split N`` holds the first N
documents out as a development set (train still sees them; summarize and
evaluate skip them).
"""

from __future__ import annotations

import argparse
import sys

from .corpus import CorpusError
from .harness import (
    ConfigError,
    cmd_evaluate,
    cmd_summarize,
    cmd_train,
    load_experiment_config,
)

# flag -> (config key it overrides, help text)
_FLAGS = {
    "corpus": ("corpus", "JSONL corpus path"),
    "out": ("out", "output directory (default out)"),
    "method": ("methods", "comma-separated selection methods"),
    "repr": ("representations", "comma-separated sentence representations"),
    "alpha": ("alpha", "coverage weight"),
    "ratio": ("ratio", "word-budget ratio in (0, 1]"),
    "seed": ("seed", "training seed, the one seed of an experiment"),
    "split": ("split", "hold out the first N documents as a dev set"),
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value experiment config file")
    for flag, (_, text) in _FLAGS.items():
        parser.add_argument(f"--{flag}", help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covsum",
        description="coverage-aware extractive summarization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("train", "train paragraph-embedding models for the configured grid"),
        ("summarize", "summarize the corpus under the method x representation grid"),
        ("evaluate", "score stored summaries and write the mean-ROUGE table"),
        ("run", "train, summarize and evaluate in one process"),
    ):
        _add_common(sub.add_parser(name, help=text))
    sub.add_parser("selftest", help="run the built-in diagnostics on the bundled corpus")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            from .selfcheck import cmd_selftest  # the checks and oracles no stage loads

            return cmd_selftest()
        overrides = {
            key: getattr(args, flag)
            for flag, (key, _) in _FLAGS.items()
            if getattr(args, flag) is not None
        }
        config = load_experiment_config(args.config, overrides)
        for stage, command in (("train", cmd_train), ("summarize", cmd_summarize),
                               ("evaluate", cmd_evaluate)):
            if args.command in (stage, "run"):
                command(config)
        return 0
    except (ConfigError, CorpusError, OSError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

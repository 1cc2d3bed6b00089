"""Seeded Zipfian corpus generator for the benchmark workloads.

Tokens are drawn from a shared vocabulary whose rank-r term has probability
proportional to 1 / r**exponent, mixed with a small per-document set of
topic terms so documents differ from one another the way real articles do.
Reference summaries are sets of the document's own sentences, so ROUGE
scores are well above zero and depend on which sentences a method picks.

The same seed and shape always give the same JSONL bytes. The program under
test sees only the written file.

    python3 perfbench/zipf_corpus.py --workload embed-grid --seed 7 --out docs.jsonl
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class CorpusShape:
    docs: int
    sentences: tuple[int, int]  # sentences per document, spread evenly over this range
    tokens: tuple[int, int]  # inclusive range of tokens per sentence
    vocab: int  # word types the Zipf law ranges over
    exponent: float = 1.1
    topic_terms: int = 40  # per-document topic vocabulary
    topic_share: float = 0.25  # share of tokens drawn from the topic terms
    references: int = 2  # reference summaries per document
    reference_share: float = 0.1  # share of a document's sentences in a reference


def generate(shape: CorpusShape, seed: int) -> list[dict]:
    """Corpus records in the covsum JSONL schema, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, shape.vocab + 1) ** shape.exponent
    cum = np.cumsum(weights / weights.sum())
    # Document lengths cover the range evenly in a seeded order, so every seed
    # gives the same total of sentences and of sentence pairs.
    lengths = rng.permutation(
        np.rint(np.linspace(shape.sentences[0], shape.sentences[1], shape.docs)).astype(int)
    )
    records = []
    for d, n_sent in enumerate(lengths.tolist()):
        topic = rng.choice(shape.vocab, size=shape.topic_terms, replace=False)
        sentences = []
        for _ in range(n_sent):
            n_tok = int(rng.integers(shape.tokens[0], shape.tokens[1] + 1))
            ranks = np.searchsorted(cum, rng.random(n_tok), side="right")
            ranks = np.minimum(ranks, shape.vocab - 1)
            from_topic = rng.random(n_tok) < shape.topic_share
            ranks[from_topic] = topic[rng.integers(0, shape.topic_terms, int(from_topic.sum()))]
            sentences.append([f"w{r + 1}" for r in ranks.tolist()])
        per_ref = max(1, round(shape.reference_share * n_sent))
        references = []
        for _ in range(shape.references):
            picked = np.sort(rng.choice(n_sent, size=per_ref, replace=False))
            references.append([sentences[int(i)] for i in picked])
        records.append({"id": f"doc{d:04d}", "sentences": sentences, "references": references})
    return records


def write_corpus(records: list[dict], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def main() -> None:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    write_corpus(generate(WORKLOADS[args.workload].corpus, args.seed), args.out)


if __name__ == "__main__":
    main()

"""Random documents for the self-checks and the test suite: small
unstructured documents over a tiny shared vocabulary, on which the selection
engine is cross-checked against the brute-force oracle."""

from __future__ import annotations

import numpy as np

from .corpus import Document


def random_documents(
    count: int = 50,
    seed: int = 0,
    max_sentences: int = 8,
    vocab_size: int = 12,
    max_tokens: int = 6,
) -> list[Document]:
    """Unstructured random documents over a shared ``vocab_size``-term
    vocabulary, for engine-vs-oracle cross-checks."""
    rng = np.random.default_rng(seed)
    terms = [f"t{i}" for i in range(vocab_size)]
    docs = []
    for d in range(count):
        n_sents = int(rng.integers(1, max_sentences + 1))
        sentences = tuple(
            tuple(
                terms[int(t)]
                for t in rng.integers(0, vocab_size, int(rng.integers(1, max_tokens + 1)))
            )
            for _ in range(n_sents)
        )
        docs.append(Document(id=f"rand{d:03d}", sentences=sentences))
    return docs

"""Reference implementations that only the tests compare against.

``train_reference`` is the plain per-target SGD loop, one sampler draw and
one ``np.add.at`` scatter per target; it shares only the sampler and the
seeded initialisation with ``covsum.embedding.train``, which must produce
the same matrices bit for bit. Its predictor is ``covsum.oracles``'s, the
one the gradient checks differentiate; ``train`` forms its predictor inline
and never called it. ``lcs_dp`` is the classic two-row LCS dynamic program,
the reference for ``covsum.rouge.lcs_length`` on inputs too long for
``covsum.oracles.lcs_exponential``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from covsum.embedding import (
    KINDS,
    EmbeddingModel,
    NegativeSampler,
    TrainConfig,
    TrainingParagraph,
    _validate_paragraphs,
)
from covsum.oracles import _predictor


def lcs_dp(a: list, b: list) -> int:
    """Longest common subsequence length via the classic two-row DP.

    O(|a|·|b|) time; the reference for ``rouge.lcs_length`` on long inputs.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                curr.append(prev[j - 1] + 1)
            else:
                curr.append(max(prev[j], curr[j - 1]))
        prev = curr
    return prev[len(b)]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def train_reference(
    paragraphs: Sequence[TrainingParagraph],
    cfg: TrainConfig,
    kind: str,
    vocab_size: int | None = None,
) -> EmbeddingModel:
    """Seeded per-target SGD, one target at a time.

    The reference for ``embedding.train``, which must produce the same
    matrices bit for bit.
    """
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    vocab_size = _validate_paragraphs(paragraphs, vocab_size)

    d = cfg.dim
    seq = np.random.SeedSequence(cfg.seed)
    seed_init, seed_order, seed_neg = seq.spawn(3)
    rng_init = np.random.default_rng(seed_init)
    rng_order = np.random.default_rng(seed_order)

    num_paragraphs = len(paragraphs)
    para_matrix = rng_init.uniform(-0.5 / d, 0.5 / d, (num_paragraphs, d))
    word_in = rng_init.uniform(-0.5 / d, 0.5 / d, (vocab_size, d)) if kind == "dm" else None
    word_out = np.zeros((vocab_size, d))

    counts = np.bincount(
        np.concatenate([np.asarray(p.tokens) for p in paragraphs]),
        minlength=vocab_size,
    )
    sampler = NegativeSampler(counts, cfg.unigram_power)
    rng_neg = np.random.default_rng(seed_neg)

    targets = [(pi, j) for pi, par in enumerate(paragraphs) for j in range(len(par.tokens))]
    total_steps = cfg.epochs * len(targets)
    lr_start, lr_end = cfg.learning_rate, cfg.learning_rate / 100.0

    labels = np.zeros(cfg.negatives + 1)
    labels[0] = 1.0
    out_idx = np.empty(cfg.negatives + 1, dtype=np.int64)

    step = 0
    for _ in range(cfg.epochs):
        for t in rng_order.permutation(len(targets)):
            if total_steps > 1:
                lr = lr_start + (lr_end - lr_start) * (step / (total_steps - 1))
            else:
                lr = lr_start
            pi, j = targets[t]
            par = paragraphs[pi]
            h, ctx = _predictor(kind, para_matrix, word_in, par, pi, j, cfg.context_size)

            out_idx[0] = par.tokens[j]
            out_idx[1:] = sampler.ids(rng_neg.random(cfg.negatives))
            out_rows = word_out[out_idx]  # fancy index: snapshot before update
            g = _sigmoid(out_rows @ h) - labels
            grad_h = g @ out_rows
            np.add.at(word_out, out_idx, (-lr) * g[:, None] * h[None, :])

            shared = (lr / (1 + len(ctx))) * grad_h
            para_matrix[pi] -= shared
            if ctx:
                np.add.at(word_in, np.asarray(ctx), -shared)
            step += 1

    for name, mat in (("para", para_matrix), ("word_in", word_in), ("word_out", word_out)):
        if mat is not None and not np.isfinite(mat).all():
            raise ArithmeticError(f"{name} matrix diverged; lower the learning rate")

    return EmbeddingModel(
        kind=kind,
        para_matrix=para_matrix,
        word_out=word_out,
        word_in=word_in,
        context_size=cfg.context_size if kind == "dm" else 0,
    )

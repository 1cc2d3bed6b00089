"""Slow, obviously-correct reference implementations.

These exist only to cross-check the real engine (see ``selfcheck`` and the
test suite). The greedy oracle shares nothing with the engine beyond raw
similarity values: it is handed a relevance vector and a pairwise similarity
matrix and re-derives every probability, coverage score, and pick from
scratch at every step, with no caching or incremental state. The reference
trainer is the plain per-target SGD loop, one sampler draw and one
``np.add.at`` scatter per target; it shares only the sampler, the
initialisation and the predictor with ``embedding.train``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .embedding import (
    KINDS,
    EmbeddingModel,
    NegativeSampler,
    TrainConfig,
    TrainingParagraph,
    _predictor,
    _validate_paragraphs,
)


def brute_force_select(
    rel: np.ndarray,
    sim: np.ndarray,
    word_counts: list[int],
    method: str,
    alpha: float,
    ratio: float,
) -> tuple[list[int], list[float]]:
    """Greedy relevance+coverage selection, recomputed from scratch per step.

    ``rel[s]`` is the sentence-to-document similarity, ``sim[i, j]`` the
    sentence-to-sentence similarity (each sentence doubles as a sub-theme).
    Returns (picked indices in order, combined score of each pick).
    """
    k_sents = len(rel)
    budget = math.ceil(ratio * sum(word_counts))
    selected: list[int] = []
    scores: list[float] = []
    remaining = list(range(k_sents))
    words_used = 0

    while remaining and words_used < budget:
        best, best_score = None, None
        for s in remaining:
            cov = _coverage(method, rel, sim, selected, s)
            score = rel[s] + alpha * cov
            if best_score is None or score > best_score:
                best, best_score = s, score
        selected.append(best)
        scores.append(best_score)
        remaining.remove(best)
        words_used += word_counts[best]

    return selected, scores


def _coverage(
    method: str, rel: np.ndarray, sim: np.ndarray, selected: list[int], s: int
) -> float:
    if method == "RELEVANCE_ONLY":
        return 0.0
    if method == "MMR":
        if not selected:
            return 0.0
        return -math.fsum(sim[sp, s] for sp in selected) / len(selected)

    # Sub-theme probabilities, rebuilt on every call.
    k_sents = len(rel)
    p_sent_theme = np.zeros((k_sents, k_sents))
    for k in range(k_sents):
        mass = np.sum(sim[:, k])
        if mass > 0.0:
            p_sent_theme[:, k] = sim[:, k] / mass
    rel_mass = np.sum(rel)
    if rel_mass > 0.0:
        p_theme_doc = rel / rel_mass
    else:
        p_theme_doc = np.full(k_sents, 1.0 / k_sents)

    if method == "XDTD":
        return float(np.sum(p_sent_theme[s] * p_theme_doc))
    if method == "JXDTD":
        dissatisfaction = np.ones(k_sents)
        for sp in selected:
            dissatisfaction = dissatisfaction * (1.0 - p_sent_theme[sp])
        return float(np.sum(p_sent_theme[s] * dissatisfaction * p_theme_doc))
    raise ValueError(f"unknown method {method!r}")


def _is_subsequence(needle: list, haystack: list) -> bool:
    it = iter(haystack)
    return all(any(x == y for y in it) for x in needle)


def lcs_exponential(a: list, b: list) -> int:
    """Longest common subsequence length by enumerating subsequences.

    Exponential in the shorter input; only usable for tiny sequences.
    """
    short, other = (a, b) if len(a) <= len(b) else (b, a)
    n = len(short)
    best = 0
    for mask in range(1 << n):
        sub = [short[i] for i in range(n) if mask >> i & 1]
        if len(sub) > best and _is_subsequence(sub, other):
            best = len(sub)
    return best


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
    sampler = NegativeSampler(counts, cfg.unigram_power, seed_neg)

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
            h, ctx = _predictor(kind, para_matrix, word_in, par, j, cfg.context_size)

            out_idx[0] = par.tokens[j]
            out_idx[1:] = sampler.draw(cfg.negatives)
            out_rows = word_out[out_idx]  # fancy index: snapshot before update
            g = _sigmoid(out_rows @ h) - labels
            grad_h = g @ out_rows
            np.add.at(word_out, out_idx, (-lr) * g[:, None] * h[None, :])

            shared = (lr / (1 + len(ctx))) * grad_h
            para_matrix[par.paragraph_id] -= shared
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

"""Slow, obviously-correct reference implementations.

These exist only to cross-check the real engine (see ``selfcheck`` and the
test suite); no pipeline stage imports this module. It holds:

- ``brute_force_select``, the greedy oracle. It shares nothing with the
  engine beyond raw similarity values: it is handed a relevance vector and
  a pairwise similarity matrix and re-derives every probability, coverage
  score, and pick from scratch at every step, with no caching or
  incremental state.
- ``dissatisfaction``, JXDTD's per-sub-theme fold over a selection, which
  ``selection.greedy_select`` carries inline.
- The negative-sampling objective of ``embedding`` as whole-batch
  functions, for the finite-difference and DBOW-invariance checks:
  ``pair_loss``, the predictor ``dm_context``, ``negative_sampling_loss``
  over fixed ``TargetItem``s, its analytic ``negative_sampling_gradients``
  and ``positive_pair_loss``.
- ``lcs_exponential``, longest common subsequence by enumeration.

The references only the tests use, the per-target trainer and the
dynamic-programming LCS, live in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .embedding import EmbeddingModel, TrainingParagraph, _sigmoid


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


def dissatisfaction(p_sent: np.ndarray, selected: list[int]) -> np.ndarray:
    """Per-sub-theme prod(1 - P(S'|T_k)) over the selected sentences S',
    given ``p_sent`` = P(S|T) from ``selection.sentence_given_subtheme``."""
    dis = np.ones(len(p_sent))
    for sp in selected:
        dis = dis * (1.0 - p_sent[sp])
    return dis


# ---------------------------------------------------------------------------
# Whole-batch loss/gradient views of the embedding objective, used by the
# gradient checks and the permutation-invariance checks.


def _softplus(x: float) -> float:
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def pair_loss(score: float, label: int) -> float:
    """Logistic loss of one (predictor, out-vector) pair.

    -ln(sigmoid(score)) for a positive pair, -ln(sigmoid(-score)) for a
    sampled negative.
    """
    return _softplus(-score) if label else _softplus(score)


def _predictor(
    kind: str,
    para_matrix: np.ndarray,
    word_in: np.ndarray | None,
    paragraph: TrainingParagraph,
    row: int,
    position: int,
    context_size: int,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Predictor vector h for one target of ``paragraph``, whose vector is
    row ``row`` of ``para_matrix``, plus the context term ids averaged into
    it (empty for DBOW or a DM target with no usable context)."""
    ctx: tuple[int, ...] = ()
    if kind == "dm" and context_size > 0:
        ctx = paragraph.tokens[max(0, position - context_size) : position]
    vec = para_matrix[row]
    if not ctx:
        return vec.copy(), ctx
    h = (vec + word_in[np.asarray(ctx)].sum(axis=0)) / (1 + len(ctx))
    return h, ctx


def dm_context(
    model: EmbeddingModel, paragraph: TrainingParagraph, row: int, position: int
) -> np.ndarray:
    """Mean of the paragraph vector (model row ``row``) and the in-vectors of
    the preceding context words; positions near the start use whatever
    context exists."""
    if position < 0 or position >= len(paragraph.tokens):
        raise IndexError(f"position {position} outside paragraph")
    h, _ = _predictor(
        model.kind, model.para_matrix, model.word_in, paragraph, row, position, model.context_size
    )
    return h


TargetItem = tuple[int, int, tuple[int, ...]]  # (paragraph row, position, negative ids)


def negative_sampling_loss(
    model: EmbeddingModel,
    paragraphs: Sequence[TrainingParagraph],
    items: Sequence[TargetItem],
) -> float:
    """Total pair loss over fixed (target, negatives) items."""
    total = []
    for pi, j, negs in items:
        par = paragraphs[pi]
        h, _ = _predictor(
            model.kind, model.para_matrix, model.word_in, par, pi, j, model.context_size
        )
        total.append(pair_loss(float(model.word_out[par.tokens[j]] @ h), 1))
        for neg in negs:
            total.append(pair_loss(float(model.word_out[neg] @ h), 0))
    return math.fsum(total)


def negative_sampling_gradients(
    model: EmbeddingModel,
    paragraphs: Sequence[TrainingParagraph],
    items: Sequence[TargetItem],
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """Analytic gradients of :func:`negative_sampling_loss` w.r.t. every
    parameter matrix, as (para, word_in, word_out) arrays."""
    g_para = np.zeros_like(model.para_matrix)
    g_in = np.zeros_like(model.word_in) if model.word_in is not None else None
    g_out = np.zeros_like(model.word_out)

    for pi, j, negs in items:
        par = paragraphs[pi]
        h, ctx = _predictor(
            model.kind, model.para_matrix, model.word_in, par, pi, j, model.context_size
        )
        idx = np.asarray([par.tokens[j], *negs], dtype=np.int64)
        rows = model.word_out[idx]
        g = _sigmoid(rows @ h)
        g[0] -= 1.0  # minus the labels (1, 0, ..., 0)
        np.add.at(g_out, idx, g[:, None] * h[None, :])
        grad_h = g @ rows
        share = grad_h / (1 + len(ctx))
        g_para[pi] += share
        if ctx:
            np.add.at(g_in, np.asarray(ctx), share)

    return g_para, g_in, g_out


def positive_pair_loss(
    model: EmbeddingModel, paragraphs: Sequence[TrainingParagraph]
) -> float:
    """Sum of positive-pair losses over every (paragraph, position) target.

    Computed with exact summation, so for a DBOW model the value is
    invariant under any permutation of tokens within a paragraph.
    """
    terms = []
    for pi, par in enumerate(paragraphs):
        for j, w in enumerate(par.tokens):
            h, _ = _predictor(
                model.kind, model.para_matrix, model.word_in, par, pi, j, model.context_size
            )
            terms.append(pair_loss(float(model.word_out[w] @ h), 1))
    return math.fsum(terms)


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

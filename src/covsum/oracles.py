"""Slow, obviously-correct reference implementations.

These exist only to cross-check the real engine (see ``selfcheck`` and the
test suite). The greedy oracle shares nothing with the engine beyond raw
similarity values: it is handed a relevance vector and a pairwise similarity
matrix and re-derives every probability, coverage score, and pick from
scratch at every step, with no caching or incremental state. The references
only the tests use, the per-target trainer and the dynamic-programming LCS,
live in ``tests/reference.py``.
"""

from __future__ import annotations

import math

import numpy as np


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

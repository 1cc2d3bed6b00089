"""ROUGE-1, ROUGE-2, and ROUGE-L scoring with multi-reference averaging.

Matching is on raw tokens exactly as produced by the tokenizer: no stemming,
no stopword removal. Candidate and reference summaries are flattened to
single token sequences (sentence order preserved) before scoring, and the
aggregate over several references is the component-wise arithmetic mean of
the per-reference scores (no jackknifing). ROUGE-L uses the balanced F-score,
consistent with the n-gram metrics.

:func:`evaluate` builds a reference's token count, unigram and bigram counts
and LCS bit masks on its first use and keeps them while the reference object
lives, so each further candidate costs only candidate-side work.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple
from weakref import WeakKeyDictionary

TokenSeq = Sequence[str]


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f: float


@dataclass(frozen=True)
class ReferenceScores:
    """ROUGE-1/2/L triple for one candidate-reference pair."""

    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore


@dataclass(frozen=True)
class RougeReport:
    """Per-reference scores plus their component-wise arithmetic mean."""

    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore
    per_reference: tuple[ReferenceScores, ...]


def _prf(overlap: int, cand_total: int, ref_total: int) -> RougeScore:
    precision = overlap / cand_total if cand_total > 0 else 0.0
    recall = overlap / ref_total if ref_total > 0 else 0.0
    if precision + recall > 0.0:
        f = 2.0 * precision * recall / (precision + recall)
    else:
        f = 0.0
    return RougeScore(precision, recall, f)


def ngram_counts(tokens: TokenSeq, n: int) -> Counter:
    """Multiset of contiguous n-grams; empty if the sequence is too short."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _clipped(cand: Counter, ref: Counter, cand_total: int, ref_total: int) -> RougeScore:
    """Precision/recall/F of the clipped overlap of two n-gram multisets: the
    smaller count of every n-gram the two share, summed."""
    common = cand.keys() & ref.keys()
    overlap = sum(map(min, map(cand.__getitem__, common), map(ref.__getitem__, common)))
    return _prf(overlap, cand_total, ref_total)


def rouge_n(candidate: TokenSeq, reference: TokenSeq, n: int) -> RougeScore:
    """Clipped n-gram overlap precision/recall/F between two token sequences."""
    cand, ref = ngram_counts(candidate, n), ngram_counts(reference, n)
    return _clipped(cand, ref, cand.total(), ref.total())


def _masks(tokens: TokenSeq) -> dict[str, int]:
    """Bit i of ``masks[tok]`` marks ``tok`` at position i of ``tokens``."""
    masks: dict[str, int] = {}
    for i, tok in enumerate(tokens):
        masks[tok] = masks.get(tok, 0) | 1 << i
    return masks


def _lcs(masks: dict[str, int], width: int, tokens: TokenSeq) -> int:
    """LCS length of ``tokens`` and the ``width`` tokens that ``masks`` covers.

    Hyyrö (2004): ``v`` holds one bit per masked position and is updated once
    per token, ``u = v & masks[tok]``, ``v = ((v + u) | (v - u)) & full``. A
    token with no mask has ``u = 0``, which leaves ``v`` as it is, so it is
    skipped. The zero bits of the final ``v`` count the LCS.
    """
    full = (1 << width) - 1
    v = full
    for mask in filter(None, map(masks.get, tokens)):
        u = v & mask
        v = ((v + u) | (v - u)) & full
    return width - v.bit_count()


def lcs_length(a: TokenSeq, b: TokenSeq) -> int:
    """Longest common subsequence length, bit-parallel (Hyyrö 2004).

    The masks cover the shorter sequence and the longer one is walked, so
    every big integer is as narrow as it can be.
    """
    if len(a) < len(b):
        a, b = b, a
    return _lcs(_masks(b), len(b), a)


def rouge_l(candidate: TokenSeq, reference: TokenSeq) -> RougeScore:
    """LCS-based precision/recall/F between two token sequences."""
    length = lcs_length(candidate, reference)
    return _prf(length, len(candidate), len(reference))


def _flatten(sentences: Sequence[TokenSeq]) -> list[str]:
    return [tok for sent in sentences for tok in sent]


def _grams(tokens: list[str]) -> tuple[Counter, Counter]:
    """Unigram counts keyed by token and bigram counts keyed by token pair."""
    return Counter(tokens), Counter(zip(tokens, tokens[1:]))


class _Table(NamedTuple):
    """What scoring needs of one reference, whatever the candidate."""

    length: int
    unigrams: Counter
    bigrams: Counter
    masks: dict[str, int]


# One table per live reference; an entry goes when its reference is freed.
# Keys compare by value, so equal references share the table either builds.
_tables: WeakKeyDictionary = WeakKeyDictionary()


def _table(ref) -> _Table:
    table = _tables.get(ref)
    if table is None:
        tokens = _flatten(ref.sentences)
        table = _tables[ref] = _Table(len(tokens), *_grams(tokens), _masks(tokens))
    return table


def evaluate(summary_sentences: Sequence[TokenSeq], references) -> RougeReport:
    """Score a candidate summary against every reference and average.

    ``summary_sentences`` are token lists in selection order;
    ``references`` is a non-empty iterable of ReferenceSummary, read once.
    """
    references = tuple(references)
    if not references:
        raise ValueError("at least one reference summary is required")
    candidate = _flatten(summary_sentences)
    length = len(candidate)
    unigrams, bigrams = _grams(candidate)

    per_ref = []
    for ref in references:
        t = _table(ref)
        per_ref.append(
            ReferenceScores(
                rouge1=_clipped(unigrams, t.unigrams, length, t.length),
                rouge2=_clipped(bigrams, t.bigrams, max(length - 1, 0), max(t.length - 1, 0)),
                rougeL=_prf(_lcs(t.masks, t.length, candidate), length, t.length),
            )
        )

    def mean(metric: str) -> RougeScore:
        triples = [getattr(r, metric) for r in per_ref]
        n = len(triples)
        return RougeScore(
            precision=sum(t.precision for t in triples) / n,
            recall=sum(t.recall for t in triples) / n,
            f=sum(t.f for t in triples) / n,
        )

    return RougeReport(
        rouge1=mean("rouge1"),
        rouge2=mean("rouge2"),
        rougeL=mean("rougeL"),
        per_reference=tuple(per_ref),
    )

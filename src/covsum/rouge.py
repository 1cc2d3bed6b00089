"""ROUGE-1, ROUGE-2, and ROUGE-L scoring with multi-reference averaging.

Matching is on raw tokens exactly as produced by the tokenizer: no stemming,
no stopword removal. Candidate and reference summaries are flattened to
single token sequences (sentence order preserved) before scoring, and the
aggregate over several references is the component-wise arithmetic mean of
the per-reference scores (no jackknifing). ROUGE-L uses the balanced F-score,
consistent with the n-gram metrics.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

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


def _clipped(cand: Counter, ref: Counter) -> RougeScore:
    """Precision/recall/F of the clipped overlap of two n-gram multisets."""
    small, large = (cand, ref) if len(cand) <= len(ref) else (ref, cand)
    overlap = sum((small & large).values())
    return _prf(overlap, cand.total(), ref.total())


def rouge_n(candidate: TokenSeq, reference: TokenSeq, n: int) -> RougeScore:
    """Clipped n-gram overlap precision/recall/F between two token sequences."""
    return _clipped(ngram_counts(candidate, n), ngram_counts(reference, n))


def lcs_length(a: TokenSeq, b: TokenSeq) -> int:
    """Longest common subsequence length, bit-parallel (Hyyrö 2004).

    Bit i of ``masks[tok]`` marks ``tok`` at position i of the longer
    sequence; ``v`` holds one bit per such position and is updated once per
    token of the shorter one. The zero bits of the final ``v`` count the LCS.
    """
    if len(a) < len(b):
        a, b = b, a
    masks: dict[str, int] = {}
    for i, tok in enumerate(a):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for tok in b:
        u = v & masks.get(tok, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def rouge_l(candidate: TokenSeq, reference: TokenSeq) -> RougeScore:
    """LCS-based precision/recall/F between two token sequences."""
    length = lcs_length(candidate, reference)
    return _prf(length, len(candidate), len(reference))


def _flatten(sentences: Sequence[TokenSeq]) -> list[str]:
    return [tok for sent in sentences for tok in sent]


def evaluate(summary_sentences: Sequence[TokenSeq], references) -> RougeReport:
    """Score a candidate summary against every reference and average.

    ``summary_sentences`` are token lists in selection order;
    ``references`` is a non-empty sequence of ReferenceSummary.
    """
    if not references:
        raise ValueError("at least one reference summary is required")
    candidate = _flatten(summary_sentences)
    cand1, cand2 = ngram_counts(candidate, 1), ngram_counts(candidate, 2)

    per_ref = []
    for ref in references:
        ref_tokens = _flatten(ref.sentences)
        per_ref.append(
            ReferenceScores(
                rouge1=_clipped(cand1, ngram_counts(ref_tokens, 1)),
                rouge2=_clipped(cand2, ngram_counts(ref_tokens, 2)),
                rougeL=rouge_l(candidate, ref_tokens),
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

import gc
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from covsum import oracles, rouge
from covsum.corpus import ReferenceSummary
from covsum.rouge import (
    ReferenceScores,
    RougeReport,
    RougeScore,
    evaluate,
    lcs_length,
    ngram_counts,
    rouge_l,
    rouge_n,
)

from reference import lcs_dp

tokens = st.lists(st.sampled_from("abc"), max_size=12)


def test_ngram_counts():
    assert ngram_counts(["a", "b", "a"], 1) == {("a",): 2, ("b",): 1}
    assert ngram_counts(["a", "b", "a"], 2) == {("a", "b"): 1, ("b", "a"): 1}
    assert ngram_counts(["a"], 2) == {}
    with pytest.raises(ValueError):
        ngram_counts(["a"], 0)


def test_rouge1_golden():
    score = rouge_n(["a", "b", "c"], ["a", "b", "d"], 1)
    assert score.precision == pytest.approx(2 / 3)
    assert score.recall == pytest.approx(2 / 3)
    assert score.f == pytest.approx(2 / 3)


def test_rouge2_golden():
    score = rouge_n(["a", "b", "c", "d"], ["a", "b", "c"], 2)
    assert score.precision == pytest.approx(2 / 3)
    assert score.recall == pytest.approx(1.0)
    assert score.f == pytest.approx(0.8)


def test_rouge_clipping():
    # candidate repeats "a" three times but the reference has only one
    score = rouge_n(["a", "a", "a"], ["a", "b"], 1)
    assert score.precision == pytest.approx(1 / 3)
    assert score.recall == pytest.approx(1 / 2)


def test_rouge_identity_and_disjoint():
    assert rouge_n(["x", "y"], ["x", "y"], 1).f == 1.0
    assert rouge_n(["x"], ["y"], 1).f == 0.0
    assert rouge_l(["x", "y"], ["x", "y"]).f == 1.0
    assert rouge_l(["x"], ["y"]).f == 0.0


def test_rouge_empty_sides():
    assert rouge_n([], ["a"], 1).f == 0.0
    assert rouge_n(["a"], [], 1).f == 0.0
    assert rouge_l([], []).f == 0.0


def test_lcs_golden():
    assert lcs_length("abcbdab", "bdcaba") == 4
    assert lcs_length(["a", "c", "b"], ["a", "b", "c"]) == 2
    score = rouge_l(["a", "c", "b"], ["a", "b", "c"])
    assert score.f == pytest.approx(2 / 3)


@given(tokens, tokens)
def test_lcs_matches_exponential_oracle(a, b):
    assert lcs_length(a, b) == oracles.lcs_exponential(a, b)


@st.composite
def long_pairs(draw):
    symbols = st.sampled_from("abcd"[: draw(st.integers(2, 4))])
    return tuple(
        draw(st.lists(symbols, min_size=n, max_size=n))
        for n in (draw(st.integers(0, 300)), draw(st.integers(0, 300)))
    )


@given(long_pairs())
def test_lcs_matches_dp_oracle_across_words(pair):
    a, b = pair
    # up to 300 tokens, so the bit vector spans several 64-bit words
    expected = lcs_dp(a, b)
    assert lcs_length(a, b) == expected
    assert lcs_length(b, a) == expected


@given(tokens, tokens)
def test_rouge_swap_transposes_precision_recall(a, b):
    ab, ba = rouge_n(a, b, 1), rouge_n(b, a, 1)
    assert ab.precision == ba.recall
    assert ab.recall == ba.precision
    assert ab.f == ba.f


@given(tokens, tokens, st.integers(1, 3))
def test_rouge_scores_bounded(a, b, n):
    score = rouge_n(a, b, n)
    for v in (score.precision, score.recall, score.f):
        assert 0.0 <= v <= 1.0


@given(tokens, tokens)
def test_lcs_bounds(a, b):
    length = lcs_length(a, b)
    assert 0 <= length <= min(len(a), len(b))
    assert lcs_length(a, a) == len(a)


def test_evaluate_averages_over_references():
    refs = (
        ReferenceSummary(((("a", "b"),))),
        ReferenceSummary(((("c", "d"),))),
    )
    report = evaluate([("a", "b")], refs)
    assert report.rouge1.f == pytest.approx(0.5)  # mean of 1.0 and 0.0
    assert len(report.per_reference) == 2
    assert report.per_reference[0].rouge1.f == 1.0
    assert report.per_reference[1].rouge1.f == 0.0


def test_evaluate_flattens_sentences():
    ref = (ReferenceSummary((("a", "b"), ("c",))),)
    joined = evaluate([("a", "b", "c")], ref)
    split = evaluate([("a",), ("b",), ("c",)], ref)
    assert joined.rouge1.f == split.rouge1.f == 1.0
    assert joined.rouge2.f == split.rouge2.f


def test_evaluate_requires_references():
    with pytest.raises(ValueError):
        evaluate([("a",)], ())


def test_evaluate_reads_a_one_shot_iterable_once():
    with pytest.raises(ValueError):
        evaluate([["a"]], iter([]))
    refs = (ReferenceSummary((("a", "b"),)), ReferenceSummary((("b", "c"), ("a",))))
    assert evaluate([("a", "b")], iter(refs)) == evaluate([("a", "b")], refs)
    assert evaluate([("a", "b")], (r for r in refs)) == evaluate([("a", "b")], refs)


def _score(overlap: int, cand_total: int, ref_total: int) -> RougeScore:
    precision = overlap / cand_total if cand_total else 0.0
    recall = overlap / ref_total if ref_total else 0.0
    f = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return RougeScore(precision, recall, f)


def _mean(scores: list[RougeScore]) -> RougeScore:
    n = len(scores)
    return RougeScore(sum(s.precision for s in scores) / n, sum(s.recall for s in scores) / n,
                      sum(s.f for s in scores) / n)


def _report_from_scratch(summary, references) -> RougeReport:
    """The report built pair by pair from Counter intersections and the LCS oracles."""
    cand = [tok for sent in summary for tok in sent]
    per_ref = []
    for ref in references:
        other = [tok for sent in ref.sentences for tok in sent]
        grams = []
        for n in (1, 2):
            c = Counter(tuple(cand[i : i + n]) for i in range(len(cand) - n + 1))
            r = Counter(tuple(other[i : i + n]) for i in range(len(other) - n + 1))
            grams.append(_score(sum((c & r).values()), sum(c.values()), sum(r.values())))
        lcs = lcs_dp(cand, other)
        if min(len(cand), len(other)) <= 10:
            assert lcs == oracles.lcs_exponential(cand, other)
        per_ref.append(ReferenceScores(*grams, _score(lcs, len(cand), len(other))))
    return RougeReport(*(_mean([getattr(s, m) for s in per_ref])
                         for m in ("rouge1", "rouge2", "rougeL")), tuple(per_ref))


# Candidates draw from more symbols than references, so some of their tokens
# are absent from every reference; few symbols make repeated tokens common.
candidates = st.lists(st.lists(st.sampled_from("abcdxy"), max_size=40), max_size=4)
references = st.lists(
    st.builds(
        ReferenceSummary,
        st.lists(st.lists(st.sampled_from("abcd"), min_size=1, max_size=50).map(tuple),
                 min_size=1, max_size=3).map(tuple),
    ),
    min_size=1, max_size=3,
)


@given(candidates, references)
@example([], [ReferenceSummary((("a", "b"),))])
@example([[]], [ReferenceSummary((("a",),))])
@example([["x", "y", "x"]], [ReferenceSummary((("a", "b"),))])
@example([["a", "a", "b", "a"], ["b", "b"]], [ReferenceSummary((("a", "b", "a"),))])
@example([["a", "b"]], [ReferenceSummary((("b", "a", "b", "c"), ("a", "a")))])
@example([list("abcd" * 30)], [ReferenceSummary((tuple("dcba" * 20),))] * 2)
def test_evaluate_equals_a_from_scratch_report(summary, refs):
    # every field compared with ==: candidates longer and shorter than each
    # reference, empty ones, absent and repeated tokens, masks over 64 bits
    assert evaluate(summary, refs) == _report_from_scratch(summary, refs)


@given(st.text("abcz", max_size=90), st.text("abcy", max_size=90))
def test_lcs_length_of_strings_matches_the_oracles(a, b):
    expected = lcs_dp(list(a), list(b))
    assert lcs_length(a, b) == lcs_length(b, a) == expected
    if min(len(a), len(b)) <= 10:
        assert expected == oracles.lcs_exponential(list(a), list(b))


def test_reference_tables_are_not_observable():
    ref = ReferenceSummary((("a", "b", "c"), ("b", "d")))
    first = evaluate([("a", "b"), ("d",)], (ref,))
    assert evaluate([("c", "a", "b", "z")], (ref,)) == _report_from_scratch(
        [("c", "a", "b", "z")], (ref,))
    assert evaluate([("a", "b"), ("d",)], (ref,)) == first
    twin = ReferenceSummary((("a", "b", "c"), ("b", "d")))
    assert twin is not ref
    assert evaluate([("a", "b"), ("d",)], (twin,)) == first
    assert evaluate([("a", "b"), ("d",)], [twin, ref]).per_reference == (
        first.per_reference * 2)


def test_reference_tables_die_with_their_references():
    gc.collect()
    before = len(rouge._tables)
    refs = [ReferenceSummary(((f"tables-test-{i}", "x"),)) for i in range(3)]
    evaluate([("x",)], refs)
    assert len(rouge._tables) == before + 3
    del refs
    gc.collect()
    assert len(rouge._tables) == before

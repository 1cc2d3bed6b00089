import pytest
from hypothesis import given
from hypothesis import strategies as st

from covsum import oracles
from covsum.corpus import ReferenceSummary
from covsum.rouge import evaluate, lcs_length, ngram_counts, rouge_l, rouge_n

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

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsum import oracles, selection
from covsum.corpus import build_vocabulary
from covsum.embedding import KINDS, TrainConfig, build_training_paragraphs, paragraph_index, train
from covsum.selection import (
    METHODS,
    DocView,
    SelectorConfig,
    Summary,
    build_docview,
    greedy_select,
    sentence_given_subtheme,
    subtheme_given_doc,
    summary_sentences,
)
from covsum.selfcheck import _duplicate_view
from covsum.synthetic import random_documents

from conftest import make_doc


def bow_view(doc, docs=None):
    return build_docview(doc, "BOW", build_vocabulary(docs or [doc]))


# --- config and plumbing ----------------------------------------------------


def test_selector_config_validation():
    for bad in (
        dict(method="GREEDY"),
        dict(alpha=-1.0),
        dict(alpha=math.inf),
        dict(ratio=0.0),
        dict(ratio=1.5),
    ):
        with pytest.raises(ValueError):
            SelectorConfig(**bad)


def test_summary_to_dict_shape():
    s = Summary("d", "MMR", 1.0, (2, 0), (0.5, 0.25), 3, 4)
    assert s.to_dict() == {
        "id": "d",
        "method": "MMR",
        "alpha": 1.0,
        "selected": [2, 0],
        "scores": [0.5, 0.25],
        "budget_words": 3,
        "words_used": 4,
    }


def test_build_docview_validation(tiny_docs):
    doc = tiny_docs[0]
    vocab = build_vocabulary(tiny_docs)
    with pytest.raises(ValueError):
        build_docview(doc, "LSA", vocab)
    with pytest.raises(ValueError):
        build_docview(doc, "BOW", None)
    with pytest.raises(ValueError, match="model"):
        build_docview(doc, "BOW+DM", vocab)  # embedding rep with no model


def test_build_docview_rejects_wrong_model_kind(tiny_docs):
    vocab = build_vocabulary(tiny_docs)
    paragraphs = build_training_paragraphs(tiny_docs, vocab)
    dbow = train(paragraphs, TrainConfig(dim=4, epochs=1), "dbow", vocab.size)
    with pytest.raises(ValueError, match="kind"):
        build_docview(tiny_docs[0], "DM", vocab, model=dbow, para_row=0)


def test_build_docview_refuses_paragraph_ids_out_of_range(tiny_docs):
    vocab = build_vocabulary(tiny_docs)
    paragraphs = build_training_paragraphs(tiny_docs, vocab)
    dbow = train(paragraphs, TrainConfig(dim=4, epochs=1), "dbow", vocab.size)
    doc, p = tiny_docs[0], len(paragraphs)
    n_rows = 1 + len(doc.sentences)
    # a negative first row, and a span ending one row past P
    for first in (-1, p - n_rows + 1):
        with pytest.raises(IndexError, match=rf"paragraph rows \[{first}, .*model has {p}"):
            build_docview(doc, "DBOW", vocab, model=dbow, para_row=first)
    # a span ending exactly at P is the model's last rows
    view = build_docview(doc, "DBOW", vocab, model=dbow, para_row=p - n_rows)
    assert view.sim.shape == (n_rows - 1, n_rows - 1)


def test_build_docview_leaves_the_model_rows_unchanged(tiny_docs):
    # unit_rows scales a part's matrix in place, so the rows must be a copy
    vocab = build_vocabulary(tiny_docs)
    paragraphs = build_training_paragraphs(tiny_docs, vocab)
    cfg = TrainConfig(dim=5, epochs=2, context_size=1)
    models = {kind: train(paragraphs, cfg, kind, vocab.size) for kind in KINDS}
    before = {kind: model.para_matrix.tobytes() for kind, model in models.items()}
    index = paragraph_index(tiny_docs)
    for doc in tiny_docs:
        for parts in (None, {}):  # no Gram cache, then one shared by the representations
            for rep in ("DM", "BOW+DM", "DBOW", "BOW+DBOW"):
                model = models[rep.split("+")[-1].lower()]
                build_docview(doc, rep, vocab, model=model, para_row=index[doc.id], parts=parts)
    for kind, model in models.items():
        assert model.para_matrix.tobytes() == before[kind], kind


def test_build_docview_tables(tiny_docs):
    view = bow_view(tiny_docs[0], tiny_docs)
    n = len(tiny_docs[0].sentences)
    assert view.rel.shape == (n,)
    assert view.sim.shape == (n, n)
    assert np.array_equal(view.sim, view.sim.T)
    assert np.allclose(np.diag(view.sim), 1.0)
    assert ((view.rel >= 0.0) & (view.rel <= 1.0)).all()
    assert view.word_counts == (2, 2, 3)


def test_embedding_docview_runs(tiny_docs):
    vocab = build_vocabulary(tiny_docs)
    paragraphs = build_training_paragraphs(tiny_docs, vocab)
    model = train(paragraphs, TrainConfig(dim=6, epochs=2, context_size=1), "dm", vocab.size)
    for rep in ("DM", "BOW+DM"):
        view = build_docview(tiny_docs[0], rep, vocab, model=model, para_row=0)
        assert view.sim.shape == (3, 3)


# --- sub-theme probabilities -------------------------------------------------


def test_sentence_given_subtheme_columns():
    sim = np.array([[1.0, 0.5], [0.5, 1.0]])
    p = sentence_given_subtheme(sim)
    assert np.allclose(p.sum(axis=0), 1.0)
    zero_col = np.array([[1.0, 0.0], [0.0, 0.0]])
    p = sentence_given_subtheme(zero_col)
    assert p[:, 1].sum() == 0.0


def test_subtheme_given_doc_normalizes():
    p = subtheme_given_doc(np.array([3.0, 1.0]))
    assert np.allclose(p, [0.75, 0.25])


def test_subtheme_given_doc_zero_mass_warns_and_uniforms():
    with pytest.warns(UserWarning, match="relevance mass"):
        p = subtheme_given_doc(np.zeros(4))
    assert np.allclose(p, 0.25)


# --- greedy selection --------------------------------------------------------


def test_budget_is_ceiling_of_ratio_times_words():
    doc = make_doc("d", [["a"] * 7, ["b"] * 2, ["c"] * 2])  # 11 words
    summary = greedy_select(bow_view(doc), SelectorConfig(method="RELEVANCE_ONLY", ratio=0.10))
    assert summary.budget_words == 2  # ceil(1.1)


def test_overshooting_pick_is_kept():
    doc = make_doc("d", [["long"] * 9 + ["x"], ["short", "y"]])
    view = bow_view(doc)
    summary = greedy_select(view, SelectorConfig(method="RELEVANCE_ONLY", ratio=0.25))
    # budget 3; the 10-word sentence ranks first and stays
    assert summary.budget_words == 3
    assert summary.selected[0] in (0, 1)
    assert summary.words_used >= summary.budget_words


def test_at_least_one_sentence_is_selected():
    doc = make_doc("d", [["a"] * 50])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # one-doc corpus has zero idf everywhere
        summary = greedy_select(bow_view(doc), SelectorConfig(method="JXDTD", ratio=0.01))
    assert summary.selected == (0,)
    assert summary.words_used == 50


def test_selection_stops_at_budget():
    doc = make_doc("d", [["a", "b"], ["c", "d"], ["e", "f"], ["g", "h"]])
    summary = greedy_select(bow_view(doc), SelectorConfig(method="RELEVANCE_ONLY", ratio=0.5))
    assert summary.budget_words == 4
    assert len(summary.selected) == 2
    assert summary.words_used == 4


def test_relevance_ties_resolve_to_lowest_index():
    doc = make_doc("d", [["same", "words"], ["same", "words"], ["same", "words"]])
    summary = greedy_select(bow_view(doc), SelectorConfig(method="RELEVANCE_ONLY", ratio=0.4))
    assert summary.selected == (0, 1)


def test_alpha_zero_equals_relevance_only():
    docs = random_documents(8, seed=33)
    vocab = build_vocabulary(docs)
    for doc in docs:
        view = build_docview(doc, "BOW", vocab)
        base = greedy_select(view, SelectorConfig(method="RELEVANCE_ONLY", alpha=0.0))
        for method in ("MMR", "XDTD", "JXDTD"):
            got = greedy_select(view, SelectorConfig(method=method, alpha=0.0))
            assert got.selected == base.selected


def test_subtheme_tables_are_computed_once_per_view(monkeypatch):
    calls = Counter()
    for name in ("sentence_given_subtheme", "subtheme_given_doc"):
        def counted(table, name=name, real=getattr(selection, name)):
            calls[name] += 1
            return real(table)

        monkeypatch.setattr(selection, name, counted)
    docs = random_documents(4, seed=12)
    vocab = build_vocabulary(docs)
    views = [build_docview(doc, "BOW", vocab) for doc in docs]
    for view in views:
        for method in METHODS:
            want = greedy_select(view, SelectorConfig(method=method))
            assert greedy_select(view, SelectorConfig(method=method)) == want
    assert calls == {"sentence_given_subtheme": len(views), "subtheme_given_doc": len(views)}


def test_xdtd_scores_are_selection_independent():
    docs = random_documents(5, seed=9)
    vocab = build_vocabulary(docs)
    for doc in docs:
        view = build_docview(doc, "BOW", vocab)
        summary = greedy_select(view, SelectorConfig(method="XDTD", ratio=1.0))
        assert list(summary.scores) == sorted(summary.scores, reverse=True)
        assert len(summary.selected) == len(doc.sentences)


def test_summary_sentences_returns_tokens_in_pick_order():
    doc = make_doc("d", [["a", "a"], ["b", "b"], ["a", "b"]])
    view = bow_view(doc)
    summary = greedy_select(view, SelectorConfig(method="RELEVANCE_ONLY", ratio=0.7))
    toks = summary_sentences(view, summary)
    assert toks == [view.sentences[i] for i in summary.selected]


def test_duplicate_suppression_scenario():
    # two copies of one sentence plus an orthogonal one: relevance keeps the
    # duplicate, coverage-aware methods switch
    view = _duplicate_view()
    assert view.rel[0] == view.rel[1] and view.sim[0, 1] == 1.0 and view.sim[0, 2] == 0.0
    pick = lambda m: greedy_select(view, SelectorConfig(method=m, alpha=1.0, ratio=0.5)).selected
    assert pick("RELEVANCE_ONLY") == (0, 1)
    assert pick("MMR") == (0, 2)
    assert pick("JXDTD") == (0, 2)


# --- dissatisfaction ---------------------------------------------------------


def test_dissatisfaction_monotone_along_any_selection_order():
    docs = random_documents(6, seed=77)
    vocab = build_vocabulary(docs)
    rng = np.random.default_rng(4)
    for doc in docs:
        view = build_docview(doc, "BOW", vocab)
        p_sent = sentence_given_subtheme(view.sim)
        order = rng.permutation(len(doc.sentences))
        prev = np.ones(len(doc.sentences))
        for t in range(len(order) + 1):
            dis = oracles.dissatisfaction(p_sent, [int(s) for s in order[:t]])
            assert ((dis >= 0.0) & (dis <= 1.0)).all()
            assert (dis <= prev).all()
            prev = dis


# --- engine vs oracle --------------------------------------------------------


small_doc = st.lists(
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=5),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(
    small_doc,
    st.sampled_from(METHODS),
    st.sampled_from([0.0, 0.3, 1.0, 4.0]),
    st.sampled_from([0.1, 0.35, 0.8]),
)
def test_greedy_matches_brute_force(sents, method, alpha, ratio):
    doc = make_doc("h", sents)
    view = bow_view(doc)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # single-term docs can have zero rel mass
        got = greedy_select(view, SelectorConfig(method=method, alpha=alpha, ratio=ratio))
        want_sel, want_scores = oracles.brute_force_select(
            view.rel, view.sim, list(view.word_counts), method, alpha, ratio
        )
    assert list(got.selected) == want_sel
    assert list(got.scores) == [float(s) for s in want_scores]


# --- filter and verify -------------------------------------------------------

# 1.0 absorbs 2**-53 in a running sum (ties to even) but not 2 * 2**-53.
SIM_POOL = np.array([0.0, 2.0**-53, 2.0**-54, 3 * 2.0**-54, 0.1, 0.2, 0.3, 1.0 / 3.0, 0.5, 1.0])
REL_POOL = np.array([0.0, 0.25, 1.0 / 3.0, 0.5, 0.75])


def _nudge(x: float, up: bool) -> float:
    return float(np.clip(np.nextafter(x, 2.0 if up else -1.0), 0.0, 1.0))


@st.composite
def near_tie_views(draw):
    """A DocView straight from a random symmetric ``sim`` in [0, 1] and a
    ``rel``, full of exact and near ties:

    - sentences come in a few kinds, and sentences of one kind start as
      duplicates: equal rows and columns of ``sim``, equal ``rel``;
    - a head of sentences with rel 1 and no similarity among themselves,
      which MMR picks first; in the head's rows every other column holds a
      permutation of one multiset, so exact sums tie while running sums in
      pick order need not;
    - entries and relevances one ulp apart, zeroed sentences, rows of ones
      and some uniform noise.
    """
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.integers(1, 4))
    kind = rng.integers(kinds, size=n)
    table = rng.choice(SIM_POOL, size=(kinds, kinds))
    sim = np.maximum(table, table.T)[kind][:, kind]
    rel = rng.choice(REL_POOL, size=kinds)[kind]
    noisy = rng.random((n, n)) < draw(st.sampled_from([0.0, 0.05, 0.3]))
    sim[noisy] = rng.random(int(noisy.sum()))
    sim = np.triu(sim) + np.triu(sim, 1).T

    head = np.sort(rng.choice(n, size=min(n, draw(st.integers(0, 5))), replace=False))
    multiset = rng.choice(SIM_POOL, size=len(head))
    sim[np.ix_(head, head)] = np.eye(len(head))
    for c in np.setdiff1d(np.arange(n), head):
        sim[head, c] = sim[c, head] = rng.permutation(multiset)
    rel[head] = 1.0

    for _ in range(draw(st.integers(0, 3))):
        i, j = (int(x) for x in rng.integers(n, size=2))
        plant = draw(st.sampled_from(["ulp", "zero", "ones"]))
        if plant == "ulp":
            sim[i, j] = sim[j, i] = _nudge(sim[i, j], rng.random() < 0.5)
            rel[j] = _nudge(rel[i], rng.random() < 0.5)
        elif plant == "zero":
            sim[i, :] = sim[:, i] = 0.0
            rel[i] = 0.0
        else:
            sim[i, :] = sim[:, i] = 1.0
    word_counts = rng.integers(1, 5, size=n)
    word_counts[head] = 1
    return DocView("near-ties", (), tuple(int(w) for w in word_counts), rel, sim)


@settings(max_examples=200, deadline=None)
@given(
    near_tie_views(),
    st.sampled_from(["MMR", "JXDTD"]),
    st.sampled_from([0.0, 0.3, 1.0, 4.0, 1e3]),
    st.sampled_from([0.1, 0.3, 0.6]),
)
def test_filter_matches_brute_force_on_near_ties(view, method, alpha, ratio):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero relevance mass falls back to uniform
        got = greedy_select(view, SelectorConfig(method=method, alpha=alpha, ratio=ratio))
        want_sel, want_scores = oracles.brute_force_select(
            view.rel, view.sim, list(view.word_counts), method, alpha, ratio
        )
    assert list(got.selected) == want_sel
    assert list(got.scores) == [float(s) for s in want_scores]


def test_row_subset_sums_equal_full_row_sums():
    # JXDTD's exact step sums the rows of a subset of the term matrix; its
    # scores are the full matrix's row sums only if both reduce alike.
    rng = np.random.default_rng(5)
    for n in range(1, 301):
        t = rng.random((n, n)) * rng.choice([1.0, 1e-9, 1e9], size=(n, 1))
        full = np.sum(t, axis=1)
        for size in {1, 2, n // 3, n - 1, n} & set(range(1, n + 1)):
            rows = np.sort(rng.choice(n, size=size, replace=False))
            assert np.array_equal(np.sum(t[rows], axis=1), full[rows]), (n, rows)

"""Relevance and similarity tables: every representation part is a matrix
(the document, then its sentences) scaled to unit rows, and the tables are
the clamped mean of the parts' Gram matrices."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from covsum.corpus import build_vocabulary
from covsum import selection
from covsum.embedding import EmbeddingModel
from covsum.selection import _cosines, _dense_cosines, bow_grams, build_docview, unit_rows

from conftest import make_doc

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
# Entries below the normal range carry absolute, not relative, precision.
SUBNORMAL_ULPS = 4 * np.finfo(np.float64).smallest_subnormal


def dbow(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return EmbeddingModel(
        kind="dbow",
        para_matrix=rows,
        word_out=np.zeros((1, rows.shape[1])),
        word_in=None,
        context_size=0,
    )


def dense_view(rows, representation="DBOW", doc=None, vocab=None):
    """DocView whose embedding rows are ``rows``: the document, then one per sentence."""
    n = len(rows) - 1
    doc = doc or make_doc("d", [["w"]] * n)
    return build_docview(doc, representation, vocab, model=dbow(rows), para_row=0)


def tfidf_matrix(doc, vocab):
    """The document's TF-IDF rows by their definition, the document first:
    tf * ln(N / df) over its in-vocabulary tokens. A term found in every
    document weighs 0."""
    m = np.zeros((len(doc.sentences) + 1, vocab.size))
    for i, sentence in enumerate(doc.sentences, start=1):
        for tid in vocab.ids(sentence):
            m[0, tid] += 1.0
            m[i, tid] += 1.0
    return m * np.log(vocab.num_docs / vocab.doc_freq_array)


def sparse_gram(row, col, u, n_rows):
    """_cosines of one matrix of n_rows rows, stored entries (row, col, u)."""
    order = np.lexsort((row, col))
    row, col, u = row[order], col[order], u[order]
    sizes = np.unique(col, return_counts=True)[1]
    return _cosines(u, row * n_rows, row, sizes, n_rows * n_rows).reshape(n_rows, n_rows)


def unit_matrix(m):
    """unit_rows on a dense matrix, as a scaled copy."""
    row = np.repeat(np.arange(m.shape[0]), m.shape[1])
    return unit_rows(row, m.ravel().copy(), m.shape[0]).reshape(m.shape)


def tables(view):
    return np.concatenate([view.rel, view.sim.ravel()])


def reference_bow_cosine(a, b, vocab):
    """Clamped cosine of two token lists' TF-IDF vectors, pair by pair."""

    def vector(tokens):
        counts = {}
        for tid in vocab.ids(tokens):
            counts[tid] = counts.get(tid, 0) + 1
        weights = {
            tid: tf * math.log(vocab.num_docs / vocab.doc_freq[tid])
            for tid, tf in counts.items()
        }
        return {tid: w for tid, w in weights.items() if w != 0.0}

    va, vb = vector(a), vector(b)
    na = math.sqrt(math.fsum(w * w for w in va.values()))
    nb = math.sqrt(math.fsum(w * w for w in vb.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    dot = math.fsum(w * vb[tid] for tid, w in va.items() if tid in vb)
    return min(1.0, max(0.0, dot / (na * nb)))


def test_dense_vector_validation():
    with pytest.raises(ValueError, match="non-finite"):
        dense_view([[1.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(IndexError):  # a span past the model's rows
        build_docview(make_doc("d", [["w"]]), "DBOW", model=dbow([[1.0]]), para_row=0)


def test_idf_and_bow_weights():
    docs = [
        make_doc("a", [["common", "rare", "mid"]]),
        make_doc("b", [["common", "mid"]]),
        make_doc("c", [["common"]]),
    ]
    vocab = build_vocabulary(docs)
    q = make_doc("q", [["rare", "rare", "mid", "common"], ["rare"], ["mid"], ["common"]])
    gram = next(bow_grams([q], vocab))
    # tf * ln(N / df) over (rare, mid), the document row first; "common" is
    # in every document and weighs 0, so the last sentence is a zero row
    rare, mid = math.log(3.0), math.log(1.5)
    rows = np.array([[3 * rare, 2 * mid], [2 * rare, mid], [rare, 0.0], [0.0, mid], [0.0, 0.0]])
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    unit = rows / np.where(norms == 0.0, 1.0, norms)
    assert gram == pytest.approx(unit @ unit.T, abs=1e-15)
    assert (gram[4] == 0.0).all() and (gram[:, 4] == 0.0).all()
    assert gram[2, 3] == 0.0 and gram[2, 2] == 1.0


def test_bow_vector_skips_oov():
    vocab = build_vocabulary([make_doc("a", [["x", "y"]]), make_doc("b", [["y", "z"]])])
    with_oov = build_docview(make_doc("q", [["x", "zzz"], ["z"]]), "BOW", vocab)
    without = build_docview(make_doc("q", [["x"], ["z"]]), "BOW", vocab)
    assert np.array_equal(tables(with_oov), tables(without))


def test_cosine_golden():
    view = dense_view([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    h = 1 / math.sqrt(2)
    assert view.rel == pytest.approx([h, h, 1.0])
    assert view.sim[0, 0] == 1.0
    assert view.sim[0, 1] == 0.0
    assert view.sim[:2, 2] == pytest.approx([h, h])


def test_cosine_mixed_sparse_dense_agree():
    # the BOW part and a dense part holding the same TF-IDF rows give one table
    docs = [make_doc("a", [["x", "y", "y"], ["y", "z"], ["w"]]), make_doc("b", [["z", "v"]])]
    vocab = build_vocabulary(docs)
    bow = build_docview(docs[0], "BOW", vocab)
    dense = dense_view(tfidf_matrix(docs[0], vocab), doc=docs[0])
    assert tables(bow) == pytest.approx(tables(dense), abs=1e-15)


def test_cosine_zero_vector_is_zero():
    view = dense_view([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0], [3.0, 2.0, 1.0]])
    assert view.rel[0] == 0.0
    assert (view.sim[0] == 0.0).all() and (view.sim[:, 0] == 0.0).all()
    assert view.sim[1, 1] == 1.0
    no_doc = dense_view([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
    assert (no_doc.rel == 0.0).all()


def column_order_gram(u):
    """Entry (a, b) is u[a, 0] * u[b, 0] + u[a, 1] * u[b, 1] + ..., added
    one product at a time in column order, starting from 0.0."""
    rows = u.tolist()
    gram = []
    for ra in rows:
        line = []
        for rb in rows:
            total = 0.0
            for x, y in zip(ra, rb):
                total += x * y
            line.append(total)
        gram.append(line)
    return np.array(gram)


# Zeros and negatives together give -0.0 products, which a sum started from
# 0.0 absorbs.
gram_entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-4.0, 4.0))


# Up to 12 columns: numpy sums more than 8 values pairwise, so an
# out-of-order reduction shows.
@given(
    st.integers(2, 7).flatmap(
        lambda n_rows: hnp.arrays(
            np.float64, st.tuples(st.just(n_rows), st.integers(1, 12)), elements=gram_entry
        )
    ),
    st.integers(0, 6),
)
# A row of squares 1 and 11 * 2**-54 sums to 1 in order but not pairwise; a
# row of negatives times the zero row gives only -0.0 products.
@example(np.array([[1.0] + [2.0**-27] * 11, [0.0] * 12]), 1)
@example(np.array([[-1.0, -0.0], [2.0, 1.0], [5.0, 5.0]]), 2)
# With row 0 zeroed, every product in column 2 of the Gram but the diagonal's
# is -0.0: a reduction without a start of 0.0 would leave those entries -0.0.
@example(np.array([[1.0, 2.0], [3.0, 0.5], [-0.0, -0.0]]), 0)
def test_dense_gram_is_its_column_order_definition(m, zero_row):
    m[min(zero_row, len(m) - 1)] = 0.0
    n, d = m.shape
    # d * n**2 products at the bound take the one-reduction path, one fewer
    # allowed takes the per-column loop; a single row always takes the loop.
    for u in (m, unit_matrix(m), m[:1]):
        for block in (d * len(u) ** 2, d * len(u) ** 2 - 1, selection._PAIR_BLOCK):
            with mock.patch.object(selection, "_PAIR_BLOCK", block):
                got = _dense_cosines(u)
            assert got.tobytes() == column_order_gram(u).tobytes()  # bits, signs of zeros too
            assert got.tobytes() == got.T.copy().tobytes()
            assert not (np.signbit(got) & (got == 0.0)).any()  # a sum from 0.0 is never -0.0
    # a DBOW view is the unit-row Gram, clamped; n_rows = 2 is a one-sentence document
    gram = np.clip(column_order_gram(unit_matrix(m)), 0.0, 1.0)
    view = dense_view(m)
    assert view.rel.tobytes() == gram[0, 1:].tobytes()
    assert view.sim.tobytes() == gram[1:, 1:].tobytes()


sentences = st.lists(
    st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=6), min_size=1, max_size=5
)


def shared_column_gram(stored):
    """Entry (a, b) adds up u[a, t] * u[b, t] over the columns t that both
    rows store, one product at a time in column order, starting from 0.0.
    ``stored`` maps each row to its {column: value} entries."""
    gram = []
    for ra in stored:
        line = []
        for rb in stored:
            total = 0.0
            for t in sorted(ra.keys() & rb.keys()):
                total += ra[t] * rb[t]
            line.append(total)
        gram.append(line)
    return np.array(gram)


@st.composite
def sparse_matrices(draw):
    """Stored entries of a sparse matrix, row-major: (row, col, weight).
    Stored entries may be zero or negative; one row may repeat another, then
    one row is stored empty and one is cut to a single entry."""
    n_rows = draw(st.integers(2, 7))  # 2 rows: a one-sentence document
    n_cols = draw(st.integers(1, 8))
    # mostly stored, so that rows share enough columns for the order to matter
    stored = st.sampled_from([True, True, True, False])
    mask = draw(hnp.arrays(np.bool_, (n_rows, n_cols), elements=stored))
    values = draw(hnp.arrays(np.float64, (n_rows, n_cols), elements=gram_entry))
    empty, single, copy_from, copy_to = (
        draw(st.integers(0, n_rows - 1)) for _ in range(4)
    )
    mask[copy_to], values[copy_to] = mask[copy_from], values[copy_from]
    mask[empty] = False
    mask[single, 1:] = False
    mask[single, 0] = True
    row, col = np.nonzero(mask)
    return row, col, values[row, col], n_rows


@given(sparse_matrices(), st.sampled_from([1, 5, selection._PAIR_BLOCK]))
def test_bow_gram_is_its_shared_column_definition(matrix, block):
    row, col, w, n_rows = matrix
    for u in (w, unit_rows(row, w.copy(), n_rows)):
        stored = [{} for _ in range(n_rows)]
        for r, c, x in zip(row.tolist(), col.tolist(), u.tolist()):
            stored[r][c] = x
        with mock.patch.object(selection, "_PAIR_BLOCK", block):  # products per np.add.at
            got = sparse_gram(row, col, u, n_rows)
        assert got.tobytes() == shared_column_gram(stored).tobytes()  # bits, signs of zeros too
        assert got.tobytes() == got.T.copy().tobytes()


@given(st.lists(sentences, min_size=1, max_size=3), st.integers(0, 2))
def test_bow_view_is_the_clamped_shared_column_gram(corpus, pick):
    docs = [make_doc(f"d{i}", sents) for i, sents in enumerate(corpus)]
    vocab = build_vocabulary(docs)
    doc = docs[pick % len(docs)]
    m = tfidf_matrix(doc, vocab)
    row, col = np.nonzero(m)  # terms found in every document weigh 0 and are not stored
    u = unit_rows(row, m[row, col], len(doc.sentences) + 1)
    stored = [{} for _ in range(len(doc.sentences) + 1)]
    for r, c, x in zip(row.tolist(), col.tolist(), u.tolist()):
        stored[r][c] = x
    gram = shared_column_gram(stored)
    assert next(bow_grams([doc], vocab)).tobytes() == gram.tobytes()
    gram = np.clip(gram, 0.0, 1.0)
    view = build_docview(doc, "BOW", vocab)
    assert view.rel.tobytes() == gram[0, 1:].tobytes()
    assert view.sim.tobytes() == gram[1:, 1:].tobytes()


@given(hnp.arrays(np.float64, (5, 4), elements=finite))
def test_cosine_symmetric_and_clamped(rows):
    view = dense_view(rows)
    assert np.array_equal(view.sim, view.sim.T)
    assert ((tables(view) >= 0.0) & (tables(view) <= 1.0)).all()


@given(hnp.arrays(np.float64, (4, 3), elements=finite), st.floats(1e-3, 1e3))
def test_cosine_scale_invariant(rows, scale):
    assume((np.abs(rows).max(axis=1) > 1e-6).all())
    assert tables(dense_view(rows * scale)) == pytest.approx(tables(dense_view(rows)), abs=1e-12)


@given(hnp.arrays(np.float64, (3, 4), elements=finite))
def test_normalize_idempotent(m):
    # renormalizing can shift the last ulp (the first norm lands at 1 +/- 1ulp),
    # so idempotence holds to rounding, not bitwise
    once = unit_matrix(m)
    twice = unit_matrix(once)
    assert np.allclose(once, twice, rtol=1e-14, atol=SUBNORMAL_ULPS)
    norms = np.sqrt(np.sum(once * once, axis=1))
    nonzero = (m != 0.0).any(axis=1)
    assert norms[nonzero] == pytest.approx(1.0, rel=1e-14)
    assert (once[~nonzero] == 0.0).all()


def test_concat_normalizes_parts():
    # each part is scaled to unit rows on its own, so one part's magnitude
    # cannot outweigh the other's
    docs = [make_doc("a", [["x", "y"], ["y", "z"]]), make_doc("b", [["z"]])]
    vocab = build_vocabulary(docs)
    rows = np.array([[1.0, 2.0], [2.0, -1.0], [1.0, 1.0]])
    small = dense_view(rows, "BOW+DBOW", docs[0], vocab)
    large = dense_view(rows * np.array([[1e6], [1.0], [1e-6]]), "BOW+DBOW", docs[0], vocab)
    assert tables(small) == pytest.approx(tables(large), abs=1e-12)


def test_concat_cosine_is_mean_of_part_cosines():
    docs = [make_doc("a", [["x", "y"], ["y", "z"], ["v"]]), make_doc("b", [["z", "w"]])]
    vocab = build_vocabulary(docs)
    # sentence 2 shares no term with the others and points against them in
    # the dense part, so its raw mean goes negative and is clamped
    rows = np.array([[1.0, 0.5], [1.0, 0.0], [1.0, 1.0], [-1.0, -0.2]])
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    dense_cos = unit @ unit.T
    bow = build_docview(docs[0], "BOW", vocab)
    got = dense_view(rows, "BOW+DBOW", docs[0], vocab)
    want_sim = np.clip((bow.sim + dense_cos[1:, 1:]) / 2.0, 0.0, 1.0)
    want_rel = np.clip((bow.rel + dense_cos[0, 1:]) / 2.0, 0.0, 1.0)
    assert got.sim == pytest.approx(want_sim, abs=1e-12)
    assert got.rel == pytest.approx(want_rel, abs=1e-12)
    assert got.sim[2, 0] == 0.0 and dense_cos[3, 1] < 0.0


@given(st.lists(sentences, min_size=1, max_size=3), st.sampled_from([1, selection._PAIR_BLOCK]))
def test_bow_tables_match_reference_cosine(corpus, block):
    docs = [make_doc(f"d{i}", sents) for i, sents in enumerate(corpus)]
    vocab = build_vocabulary(docs)
    with mock.patch.object(selection, "_PAIR_BLOCK", block):  # one run, or one per document
        grams = list(bow_grams(docs, vocab))
    for doc, gram in zip(docs, grams, strict=True):
        rel, sim = np.clip(gram[0, 1:], 0.0, 1.0), np.clip(gram[1:, 1:], 0.0, 1.0)
        tokens = doc.sentences
        everything = doc.all_tokens()
        want_rel = [reference_bow_cosine(t, everything, vocab) for t in tokens]
        want_sim = [[reference_bow_cosine(a, b, vocab) for b in tokens] for a in tokens]
        assert np.array_equal(sim, sim.T)
        assert rel == pytest.approx(want_rel, abs=1e-12)
        assert sim == pytest.approx(np.array(want_sim), abs=1e-12)


@given(
    st.lists(sentences, min_size=1, max_size=6),
    st.lists(st.integers(1, 5), max_size=4),
    st.sampled_from([1, 5, 100, selection._PAIR_BLOCK]),
    st.integers(0, 5),
    st.booleans(),
)
def test_run_built_bow_grams_equal_single_document_grams(corpus, cuts, block, split, oov):
    # "the" is in every document, so the last document, which holds nothing
    # else, has only zero rows
    docs = [make_doc(f"d{i}", [["the", *sents[0]], *sents[1:]]) for i, sents in enumerate(corpus)]
    docs.append(make_doc("only-the", [["the"], ["the", "the"]]))
    # a vocabulary of fewer documents leaves the others' own terms out of it
    vocab = build_vocabulary(docs[::2] if oov else docs)
    single = [next(bow_grams([doc], vocab)).tobytes() for doc in docs]
    assert not single[-1].strip(b"\0")
    held_out = docs[min(split, len(docs) - 1) :]  # a split holds out the first documents
    bounds = sorted({0, len(held_out), *(c for c in cuts if c < len(held_out))})
    with mock.patch.object(selection, "_PAIR_BLOCK", block):  # bounds each run's products
        got = [
            g.tobytes() for a, b in zip(bounds, bounds[1:]) for g in bow_grams(held_out[a:b], vocab)
        ]
    assert got == single[len(docs) - len(held_out) :]

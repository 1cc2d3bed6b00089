"""Greedy sentence selection under a word budget.

Each step picks the unselected sentence maximizing

    rel(D, S) + alpha * cov(D, S, selected)

where cov is one of:

    RELEVANCE_ONLY  always 0 (alpha has no effect)
    MMR             minus the mean similarity to the already-selected
    XDTD            expected sub-theme coverage, selection-independent
    JXDTD           XDTD damped by how satisfied each sub-theme already is

Every sentence doubles as a sub-theme: P(S|T_k) is sentence-sentence
similarity normalized down each column, P(T_k|D) is relevance normalized
over the document. JXDTD tracks a per-sub-theme "dissatisfaction"
prod(1 - P(S'|T_k)) over selected S', so a sub-theme already covered well
stops attracting near-duplicates.

Selection stops once the selected word count reaches ceil(ratio * doc
words); the sentence that crosses the budget is kept. Ties go to the
lower sentence index.

``rel`` and ``sim`` come from :func:`build_docview`: the clamped mean of
the Gram matrices of the representation's parts (BOW, DM, DBOW). Every
Gram entry adds its products in column order from 0.0. The sparse BOW Gram
is one product over the pairs of stored entries that share a column
(:func:`_cosines`), built for a run of documents at once by
:func:`bow_grams`; DM and DBOW sum one outer product per column
(:func:`_dense_cosines`), in one reduction for a small document. A caller
building several representations of one document passes one ``parts``
dict to every call, holding the document's BOW Gram from :func:`bow_grams`
or not, and each part's Gram is built once and shared by them all.

Picks and scores equal those of ``oracles.brute_force_select`` bit for bit.
MMR and JXDTD get there by filter and verify: after the first pick, a cheap
floating-point score of every sentence (a running column sum for MMR, one
matrix-vector product for JXDTD) is within a proven bound delta of the exact
score, so only the sentences within 2 * delta of the best cheap score can
attain the exact maximum, and only those are scored exactly (``math.fsum``
for MMR, numpy's row sum for JXDTD). :func:`greedy_select` derives the bound;
``tests/test_selection.py::test_filter_matches_brute_force_on_near_ties``
checks the engine against the oracle on planted near-ties.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .corpus import Document, Vocabulary
from .embedding import EmbeddingModel

METHODS = ("RELEVANCE_ONLY", "MMR", "XDTD", "JXDTD")
REPRESENTATIONS = ("BOW", "DM", "DBOW", "BOW+DM", "BOW+DBOW")


@dataclass(frozen=True)
class SelectorConfig:
    method: str = "JXDTD"
    alpha: float = 1.0
    ratio: float = 0.10

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be finite and >= 0")
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")


@dataclass(frozen=True, eq=False)
class DocView:
    """Everything selection needs to know about one document: precomputed
    relevance ``rel[s]`` and pairwise similarity ``sim[i, j]``, both in
    [0, 1], plus per-sentence word counts. The sub-theme tables XDTD and
    JXDTD share are computed on first use and kept with the view."""

    doc_id: str
    sentences: tuple[tuple[str, ...], ...]
    word_counts: tuple[int, ...]
    rel: np.ndarray
    sim: np.ndarray

    @cached_property
    def p_sent(self) -> np.ndarray:
        """P(S | T_k), from :func:`sentence_given_subtheme`."""
        return sentence_given_subtheme(self.sim)

    @cached_property
    def p_theme(self) -> np.ndarray:
        """P(T_k | D), from :func:`subtheme_given_doc`."""
        return subtheme_given_doc(self.rel)


@dataclass(frozen=True)
class Summary:
    doc_id: str
    method: str
    alpha: float
    selected: tuple[int, ...]
    scores: tuple[float, ...]
    budget_words: int
    words_used: int

    def to_dict(self) -> dict:
        return {
            "id": self.doc_id,
            "method": self.method,
            "alpha": self.alpha,
            "selected": list(self.selected),
            "scores": list(self.scores),
            "budget_words": self.budget_words,
            "words_used": self.words_used,
        }


def parse_representation(representation: str) -> tuple[tuple[str, ...], str | None]:
    """The parts of a representation name, and the embedding kind (``"dm"``
    or ``"dbow"``) it needs, or None when it is pure BOW."""
    if representation not in REPRESENTATIONS:
        raise ValueError(
            f"representation must be one of {REPRESENTATIONS}, got {representation!r}"
        )
    parts = tuple(representation.split("+"))
    return parts, next((p.lower() for p in parts if p != "BOW"), None)


def unit_rows(row: np.ndarray, w: np.ndarray, n_rows: int) -> np.ndarray:
    """Scale in place the entries ``w`` of a sparse matrix, entry i lying in
    row ``row[i]``, so that every row has unit Euclidean norm; zero rows stay zero.

    Each row is first divided by its largest magnitude, so the squares summed
    into the norm neither underflow nor overflow.
    """
    high, low = np.zeros(n_rows), np.zeros(n_rows)
    np.maximum.at(high, row, w)
    np.minimum.at(low, row, w)
    peak = np.maximum(high, -low)
    peak[peak == 0.0] = 1.0
    w /= peak[row]
    norm = np.zeros(n_rows)
    np.add.at(norm, row, w * w)
    norm = np.sqrt(norm)
    norm[norm == 0.0] = 1.0
    w /= norm[row]
    return w


def _paragraph_matrix(model: EmbeddingModel, para_row: int, n_rows: int) -> np.ndarray:
    """Model rows ``[para_row, para_row + n_rows)``, copied since :func:`unit_rows`
    scales them in place. A span outside [0, P) raises ``IndexError``."""
    end, p = para_row + n_rows, model.num_paragraphs
    if para_row < 0 or end > p:
        raise IndexError(f"paragraph rows [{para_row}, {end}) out of range (model has {p})")
    m = model.para_matrix[para_row:end].copy()
    if not np.isfinite(m).all():
        raise ValueError(f"{model.kind} model has non-finite paragraph vectors")
    return m


# Products per np.add.at call in _cosines or reduction in _dense_cosines,
# and bound on the products of a run of documents in bow_grams.
_PAIR_BLOCK = 1 << 16


def _pieces(ends: np.ndarray) -> Iterator[tuple[int, int]]:
    """Consecutive ``[first, last)`` item ranges of at most ``_PAIR_BLOCK`` products
    (``ends``: the running total through each item), or of one item needing more."""
    first = 0
    while first < len(ends):
        done = ends[first - 1] if first else 0
        last = max(first + 1, int(np.searchsorted(ends, done + _PAIR_BLOCK, side="right")))
        yield first, last
        first = last


def _cosines(
    u: np.ndarray, lead: np.ndarray, trail: np.ndarray, sizes: np.ndarray, length: int
) -> np.ndarray:
    """Sums of the products of the stored entries of a sparse matrix that share a column.

    The entries are sorted by (column, row), ``sizes[t]`` of them in column
    t. ``np.add.at`` adds u[i] * u[j] of each pair (i, j) of one column at
    ``lead[i] + trail[j]`` of ``length`` zeros, one at a time in column
    order. With ``lead = row * n`` and ``trail = row`` over n unit rows this
    is their Gram: entry (a, b) adds u[a, t] * u[b, t] over the columns t
    both store, in column order, from 0.0, and equals entry (b, a) exactly.
    """
    starts = np.cumsum(sizes) - sizes
    g = np.zeros(length)
    for first, last in _pieces(np.cumsum(sizes * sizes)):
        size = sizes[first:last]
        reps = np.repeat(size, size)  # each entry pairs with every entry of its column
        left = np.repeat(np.arange(starts[first], starts[first] + len(reps)), reps)
        # right = the first entry of left's column + the rank of the pair among left's
        right = np.repeat(np.repeat(starts[first:last], size) - np.cumsum(reps) + reps, reps)
        right += np.arange(len(left))
        np.add.at(g, lead[left] + trail[right], u[left] * u[right])
    return g


def bow_grams(docs: Sequence[Document], vocab: Vocabulary) -> Iterator[np.ndarray]:
    """The unclamped BOW Gram of each document of ``docs``, in turn.

    A document's BOW matrix is TF-IDF over its in-vocabulary terms but those
    in every document, which weigh 0: the document in row 0, its sentences
    below, each row scaled to unit length (:func:`unit_rows`). The Grams are
    built a run at a time (:func:`_run_grams`): the consecutive documents
    whose pair products can total at most ``_PAIR_BLOCK``, or one that can
    need more. A document's n + 1 rows times twice its tokens bounds them.
    """
    bound = np.cumsum([2 * (len(doc.sentences) + 1) * doc.word_count for doc in docs])
    for first, last in _pieces(bound):
        yield from _run_grams(docs[first:last], vocab)


def _run_grams(run: Sequence[Document], vocab: Vocabulary) -> list[np.ndarray]:
    """The BOW Grams of a run of documents, views of one :func:`_cosines` array.

    One walk over the tokens and one ``np.unique`` over (document, term, row)
    keys give the entries, each (document, term) a column, and a pair lands at
    its document's offset plus a * n + b: every entry adds the same products in
    the same order whatever run its document is in.
    """
    df, n_docs, v = vocab.doc_freq_array, vocab.num_docs, vocab.size
    n = np.array([len(doc.sentences) + 1 for doc in run], np.intp)
    m = int(n.max())
    tokens = [s for doc in run for s in doc.sentences]
    terms = np.fromiter(map(vocab.term_to_id.get, chain.from_iterable(tokens), repeat(-1)), np.intp)
    rows = [d * v * m + i for d, doc in enumerate(run) for i in range(1, len(doc.sentences) + 1)]
    keys, known = terms * m + np.repeat(rows, [len(t) for t in tokens]), terms >= 0
    keys = keys[known][df[terms[known]] < n_docs]
    # Every token counts once in its sentence's row and once in its document's.
    keys, tf = np.unique(np.concatenate([keys - keys % m, keys]), return_counts=True)
    col, local = np.divmod(keys, m)
    doc, term = np.divmod(col, v)
    u = unit_rows(doc * m + local, tf * np.log(n_docs / df[term]), len(run) * m)
    sizes = np.diff(np.flatnonzero(np.diff(col, prepend=-1, append=-1)))
    flat = np.append(0, np.cumsum(n * n))  # each Gram's offset in the run's array
    g = _cosines(u, flat[doc] + local * n[doc], local, sizes, int(flat[-1]))
    return [g[flat[d] : flat[d + 1]].reshape(k, k) for d, k in enumerate(n.tolist())]


def _dense_cosines(u: np.ndarray) -> np.ndarray:
    """Cosines between all pairs of rows of a dense matrix with unit rows.

    Entry (a, b) adds u[a, t] * u[b, t] in column order from 0.0, with the
    bits of :func:`_cosines` on a matrix storing every column, and equals
    entry (b, a) since IEEE multiplication commutes. For n > 1 rows whose
    d * n**2 products fit in ``_PAIR_BLOCK``, one reduction over axis 0 adds
    in order every column's outer product (numpy sums one row's pairwise),
    and ``+ 0.0`` turns a sum of only -0.0 products into the +0.0 a sum from
    0.0 gives; else ``g += outer(u[:, t], u[:, t])`` per column.
    """
    n, d = u.shape
    columns = np.ascontiguousarray(u.T)
    if 1 < n and d * n * n <= _PAIR_BLOCK:
        products = np.multiply(columns[:, :, None], columns[:, None, :])
        return np.add.reduce(products, axis=0) + 0.0
    g = np.zeros((n, n))
    product = np.empty_like(g)
    for column in columns:
        np.multiply(column[:, None], column, out=product)
        g += product
    return g


def _part_gram(
    part: str,
    doc: Document,
    vocab: Vocabulary | None,
    model: EmbeddingModel | None,
    para_row: int | None,
) -> np.ndarray:
    """The unclamped Gram matrix of one representation part of a document."""
    if part == "BOW":
        return next(bow_grams([doc], vocab))
    n_rows = len(doc.sentences) + 1
    m = _paragraph_matrix(model, para_row, n_rows)
    row = np.repeat(np.arange(n_rows), m.shape[1])
    return _dense_cosines(unit_rows(row, m.ravel(), n_rows).reshape(m.shape))


def build_docview(
    doc: Document,
    representation: str,
    vocab: Vocabulary | None = None,
    model: EmbeddingModel | None = None,
    para_row: int | None = None,
    parts: dict[str, np.ndarray] | None = None,
) -> DocView:
    """Vectorize a document and precompute its relevance/similarity tables.

    Every representation part gives one matrix, the document in row 0 and
    its sentences below, with its rows scaled to unit length. The table is
    the mean of the parts' Gram matrices (cosines), clamped into [0, 1]:
    ``rel`` is its document row and ``sim`` its sentence block. A zero row
    scores 0 against everything. DM and DBOW copy the model's rows
    ``[para_row, para_row + 1 + n)``, ``embedding.paragraph_index``'s span.

    BOW is stored sparse, and its Gram is one sparse product over the pairs
    of stored entries that share a column (:func:`_cosines`). DM and DBOW
    store every column, so theirs sums every column's outer product over
    all rows (:func:`_dense_cosines`); both add each entry's products in
    column order from 0.0, so the tables are exactly symmetric and
    independent of BLAS.

    ``parts``, if given, caches each part's Gram by part name (``"BOW"``,
    ``"DM"``, ``"DBOW"``): a part found there is reused, one not found is
    built and stored. Pass one fresh dict per document and model set, and
    every representation of the document builds each of its parts once.
    The table is the same either way: zeros plus the part Grams in part
    order, divided by the number of parts, then clamped.
    """
    names, kind = parse_representation(representation)
    if "BOW" in names and vocab is None:
        raise ValueError("BOW representation requires a vocabulary")
    if kind is not None:
        if model is None or para_row is None:
            raise ValueError(
                f"{representation} representation requires a trained model "
                "and the document's first paragraph row"
            )
        if model.kind != kind:
            raise ValueError(
                f"model kind {model.kind!r} does not provide {kind.upper()} vectors"
            )

    n_rows = len(doc.sentences) + 1
    gram = np.zeros((n_rows, n_rows))
    cache = {} if parts is None else parts
    for name in names:
        if name not in cache:
            cache[name] = _part_gram(name, doc, vocab, model, para_row)
        gram += cache[name]
    gram /= len(names)
    np.clip(gram, 0.0, 1.0, out=gram)

    return DocView(
        doc_id=doc.id,
        sentences=doc.sentences,
        word_counts=tuple(map(len, doc.sentences)),
        rel=gram[0, 1:],
        sim=gram[1:, 1:],
    )


def sentence_given_subtheme(sim: np.ndarray) -> np.ndarray:
    """Column-normalize the similarity matrix into P(S | T_k).

    A column with zero mass (a sub-theme no sentence resembles, possible
    only with all-zero vectors) stays all-zero rather than uniform: such a
    sub-theme should attract nothing.
    """
    # Row sums of the transpose: the same pairwise summation as np.sum of
    # one column, which a reduction over axis 0 would not be.
    mass = np.ascontiguousarray(sim.T).sum(axis=1)
    return np.divide(sim, mass, out=np.zeros(sim.shape), where=mass > 0.0)


def subtheme_given_doc(rel: np.ndarray) -> np.ndarray:
    """Normalize relevance into P(T_k | D); uniform if all relevance is zero."""
    mass = np.sum(rel)
    if mass > 0.0:
        return rel / mass
    warnings.warn(
        "document relevance mass is zero; falling back to uniform sub-theme weights",
        stacklevel=2,
    )
    return np.full(len(rel), 1.0 / len(rel))


def subtheme_coverage(p_sent: np.ndarray, p_theme: np.ndarray, dis: np.ndarray) -> np.ndarray:
    """sum_k P(S|T_k) dis_k P(T_k|D) for every sentence S. With ``dis`` all
    ones (nothing selected) this is XDTD; with the current dissatisfaction, JXDTD."""
    terms = p_sent * dis
    terms *= p_theme
    return np.sum(terms, axis=1)


# Unit roundoff of float64: a rounded +, -, *, / is within a factor
# (1 + e), |e| <= U, of the exact result.
_U = 2.0**-53


def _slack(method: str, n: int, k: int, alpha: float) -> float:
    """delta of :func:`greedy_select`: twice the first-order bound on
    |exact - approximate score| with n sentences and k picks made."""
    ops = k + 6 if method == "MMR" else 2 * n + 6
    return 2.0 * ops * _U * (1.0 + alpha)


def greedy_select(view: DocView, config: SelectorConfig) -> Summary:
    """Select sentences under the word budget.

    Each step takes the sentence with the best score among those not yet
    picked, ties to the lower index. RELEVANCE_ONLY and XDTD scores never
    change as the selection grows, so they are computed once. So is the
    first pick of MMR and JXDTD. Picking goes on while the words used so
    far are below ceil(ratio * total words), and the pick that crosses the
    line is kept.

    From the second pick on, MMR and JXDTD filter and verify. With k picks
    made, an approximate score ``a[s]`` of every sentence comes first:

    - MMR: ``rel - (alpha / k) * colsum``, where colsum adds up the picked
      rows of ``sim`` with plain additions, in pick order;
    - JXDTD: ``rel + alpha * (p_sent @ (dis * p_theme))``, one gemv.

    Picked sentences get -inf. The candidates are
    C = {s : a[s] >= max a - 2 delta}, in index order. Only they get the
    exact score ``e[s]``, computed as the oracle does: MMR's mean with
    ``math.fsum``, JXDTD's coverage as the row sum of
    ``(p_sent[C] * dis) * p_theme``. A numpy row sum of a row subset equals
    the same rows' sums over the whole matrix (pinned by
    ``test_row_subset_sums_equal_full_row_sums``). The pick is the first
    maximum of ``e`` over C, and its score is that exact value.

    The bound. Let u = 2**-53; below, "~<=" drops O(u**2) terms. Every
    input lies in [0, 1]: ``rel``, ``sim``, the mean of k entries of
    ``sim``, P(S|T) (an entry over a column sum of nonnegative entries,
    which is at least the entry), and ``dis`` (a product of factors in
    [0, 1]). P(T|D) sums to 1 + n u at most, so a JXDTD coverage is at most
    that too. A sum of m nonnegative terms, in any order and with or without
    fused multiply-adds, has relative error at most (m - 1) u, and every
    other rounding adds u.

    - MMR: the exact ``alpha * mean`` carries three roundings (fsum, / k,
      alpha *), the approximate ``(alpha / k) * colsum`` k + 1 (k - 1
      additions, alpha / k, *), and the last addition adds u (1 + alpha)
      to each. So
      |e[s] - a[s]| ~<= alpha (k + 4) u + 2 u (1 + alpha) <= (k + 6)(1 + alpha) u.
    - JXDTD: every exact term is rounded twice and n terms are summed, for
      n + 1 roundings; the approximate rounds ``dis * p_theme`` once, then
      takes an n-term dot product, also n + 1. With ``alpha *`` and the
      addition, |e[s] - a[s]| ~<= alpha (2n + 4) u + 2 u (1 + alpha)
      <= (2n + 6)(1 + alpha) u.

    delta is twice these (:func:`_slack`). Let b be the full bound on
    |e - a|, with the O(u**2) terms and underflow (at most 3n absolute
    errors of 2**-1075) in it. For every n below 2**40, 2b plus the
    rounding of ``max a - 2 delta`` (at most u (1 + alpha + 2 delta)) stays
    below 2 delta, so the computed threshold is at most max a - 2b.

    C holds every sentence that attains the exact maximum. Let s* attain
    max e and t attain max a. Then a[s*] >= e[s*] - b >= e[t] - b >=
    a[t] - 2b >= the threshold, so s* is in C. The first maximum of e over
    C is therefore the first maximum over all unpicked sentences: ties
    still go to the lower index, and pick and score are those of scoring
    every sentence exactly.
    """
    n = len(view.word_counts)
    budget = math.ceil(config.ratio * sum(view.word_counts))
    method, alpha, rel, sim = config.method, config.alpha, view.rel, view.sim
    if method in ("XDTD", "JXDTD"):
        p_sent, p_theme = view.p_sent, view.p_theme
        # Dissatisfaction of the picks so far, folded in pick order as
        # oracles.dissatisfaction does. XDTD keeps it at ones.
        dis = np.ones(n)
    if method == "MMR":
        colsum = np.zeros(n)
        picked_rows: list[list[float]] = []
    barrier = np.zeros(n)  # -inf at the picks, added to scores before an argmax

    selected: list[int] = []
    scores: list[float] = []
    words_used = 0

    def exact(cand: np.ndarray | slice) -> np.ndarray:
        """Scores of the sentences ``cand`` as the oracle computes them."""
        k = len(selected)
        if method == "MMR" and k:
            cov = [-math.fsum([row[c] for row in picked_rows]) / k for c in cand.tolist()]
            return rel[cand] + alpha * np.array(cov)
        if method in ("XDTD", "JXDTD"):
            return rel[cand] + alpha * subtheme_coverage(p_sent[cand], p_theme, dis)
        return rel[cand] + alpha * 0.0

    score = None
    while len(selected) < n and words_used < budget:
        k = len(selected)
        if k and method in ("MMR", "JXDTD"):
            if method == "MMR":
                approx = rel - (alpha / k) * colsum
            else:
                approx = rel + alpha * (p_sent @ (dis * p_theme))
            approx += barrier
            threshold = approx.max() - 2.0 * _slack(method, n, k, alpha)
            cand = np.flatnonzero(approx >= threshold)
            cand_score = exact(cand)
            j = int(np.argmax(cand_score))
            best, best_score = int(cand[j]), cand_score[j]
        else:
            if score is None:
                score = exact(slice(None))
            best = int(np.argmax(score + barrier))
            best_score = score[best]
        if method == "JXDTD":
            dis = dis * (1.0 - p_sent[best])
        elif method == "MMR":
            colsum += sim[best]
            picked_rows.append(sim[best].tolist())
        barrier[best] = -np.inf
        selected.append(best)
        scores.append(float(best_score))
        words_used += view.word_counts[best]

    return Summary(
        doc_id=view.doc_id,
        method=method,
        alpha=alpha,
        selected=tuple(selected),
        scores=tuple(scores),
        budget_words=budget,
        words_used=words_used,
    )


def summary_sentences(view: DocView, summary: Summary) -> list[tuple[str, ...]]:
    """Token tuples of the selected sentences, in selection order."""
    return [view.sentences[i] for i in summary.selected]

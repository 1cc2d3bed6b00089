"""Paragraph-embedding training: distributed memory (DM) and distributed
bag-of-words (DBOW) models.

Every sentence of every document, plus each document itself, is a training
paragraph. The DM model predicts each word from the mean of the paragraph
vector and the in-vectors of the preceding context words; DBOW predicts each
word from the paragraph vector alone. The softmax over the vocabulary is
approximated with negative sampling: one positive pair per target word plus
``negatives`` noise words drawn from the unigram distribution raised to
``unigram_power``.

Training is single-threaded, seeded, and bitwise reproducible: identical
seed, config, and input produce an identical model. One loop trains a corpus
model: :func:`train` runs it for one kind, :func:`train_both` for DM and
DBOW at once. Every kind draws every value from the same ``cfg.seed``
streams, so the kinds share the chunk bookkeeping and are stacked on a
leading axis, and each model is bit-identical to its one-kind fit. The
loop is exact per-target SGD in which only the bookkeeping is batched:
targets are taken in chunks, each with one negative-sampler draw, one array
of learning rates and vectorised flags for targets whose negatives or
context repeat a row (those scatter with ``np.add.at``, the rest assign
their rows). Every model is bit-identical to the one-target-at-a-time loop
``train_reference`` in ``tests/reference.py``; ``test_train_matches_*`` and
``test_train_both_matches_*`` in ``tests/test_embedding.py`` check this
with ``==`` on every matrix. A step writes every intermediate into buffers
made once per call: it copies its rows into one, updates them there and
copies them back, moving each row as one record (:func:`_records`). Scores
and predictor gradients are one ``ndarray.dot`` gemv per kind; the loop
calls no ``np.matmul``. :func:`_sigmoid` takes both of its branches from one
``exp`` over ``min(x, 0)`` and ``-|x|``. That is exact: the two are the
same float below zero, and ``exp(min(x, 0))`` is ``exp(0) == 1`` at or
above it.

:func:`train_each` fits one model per paragraph group (per-document
training) in lockstep: one batched step advances every unfinished fit by
one target. Fits share no row, so the batch is exact, and every model is
bit-identical to a separate :func:`train` call on its group;
``test_train_each_matches_separate_fits`` guards this with ``==`` on every
matrix. The step is buffered like the corpus loop's: its buffers are made
once per wave for the wave's fits, it moves rows as records, and scores and
predictor gradients are stacked ``np.matmul`` calls with ``out=``. Where one
fit's out or context slots hit a row twice, the step chains them
(:func:`_chains`): a later slot of the row takes the previous slot's new row
plus its own update, which is what ``np.add.at``'s in-order adds give. Only
the row's last slot is written back; the others go to a sink row past the
fits' rows, which no yielded model holds. Groups run in consecutive waves
of at most about 2 MiB of ``word_out`` rows each, so memory does not grow
with the number of groups.

Model files are flat binary (little-endian):

    magic  b"CVEM"          4 bytes
    version                 u8 (currently 1)
    kind                    u8 (0 = DM, 1 = DBOW)
    context_size            u32
    vocab_size V            u32
    num_paragraphs P        u32
    dim d                   u32
    para_matrix             P*d float64, row-major
    word_in_matrix          V*d float64, row-major (DM only)
    word_out_matrix         V*d float64, row-major

:func:`load_model` reads the paragraph matrix and maps the word matrices
copy-on-write, so a model loaded for its paragraph rows alone never reads
its word rows.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Document, Vocabulary
from .files import written

KINDS = ("dm", "dbow")

_MAGIC = b"CVEM"
_VERSION = 1

# Targets per chunk of the SGD loop. Negatives, learning rates and
# repeated-row flags are computed a chunk at a time.
_CHUNK = 1024


@dataclass(frozen=True)
class TrainingParagraph:
    """One unit of embedding training: a dense id and its term ids."""

    paragraph_id: int
    tokens: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError(f"paragraph {self.paragraph_id} has no tokens")


@dataclass(frozen=True)
class TrainConfig:
    """SGD hyperparameters. The learning rate decays linearly to 1% of its
    starting value over the full run."""

    dim: int = 100
    context_size: int = 4
    epochs: int = 20
    learning_rate: float = 0.025
    negatives: int = 5
    seed: int = 1
    unigram_power: float = 0.75

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.context_size < 0:
            raise ValueError("context_size must be >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if not math.isfinite(self.unigram_power):
            raise ValueError("unigram_power must be finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class EmbeddingModel:
    kind: str
    para_matrix: np.ndarray  # P x d
    word_out: np.ndarray  # V x d
    word_in: np.ndarray | None  # V x d for DM, None for DBOW
    context_size: int

    @property
    def dim(self) -> int:
        return self.para_matrix.shape[1]

    @property
    def num_paragraphs(self) -> int:
        return self.para_matrix.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.word_out.shape[0]


@dataclass(frozen=True)
class ParagraphIds:
    """Row indices of one document's paragraphs in a trained model."""

    document: int
    sentences: tuple[int, ...]


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


def _sigmoid(x: np.ndarray, buf: np.ndarray | None = None) -> np.ndarray:
    """Logistic sigmoid of ``x``, written over ``x`` and returned.

    ``exp(min(x, 0)) / (1 + exp(-|x|))``: 1 / (1 + exp(-x)) for x >= 0 and
    exp(x) / (1 + exp(x)) below, so exp never overflows. Both exps are one
    call over ``buf``, a scratch array of shape ``(2, *x.shape)``."""
    if buf is None:
        buf = np.empty((2, *x.shape))
    num, den = buf
    np.minimum(x, 0.0, out=num)
    np.copysign(x, -1.0, out=den)
    np.exp(buf, out=buf)
    np.add(den, 1.0, out=den)
    return np.divide(num, den, out=x)


def _records(mat: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous float array as a view of one opaque record
    per row. Indexing the records moves whole rows byte for byte, as row
    indexing does, but takes numpy's one-dimensional fast path, which for a
    step's few rows costs a fraction of the set-up of row indexing."""
    return mat.view(np.dtype((np.void, mat.itemsize * mat.shape[-1])))[..., 0]


def _has_repeat(rows: np.ndarray) -> np.ndarray:
    """Whether each row of an integer matrix holds some value twice."""
    rows = np.sort(rows, axis=1)
    return (rows[:, 1:] == rows[:, :-1]).any(axis=1)


class NegativeSampler:
    """Seeded stream of term ids drawn proportionally to count**power."""

    def __init__(self, counts, power: float = 0.75, seed=0) -> None:
        counts = np.asarray(counts, dtype=np.float64)
        if counts.size == 0:
            raise ValueError("empty count table")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        weights = np.power(counts, power, where=counts > 0, out=np.zeros_like(counts))
        self._cum = np.cumsum(weights)
        if self._cum[-1] <= 0.0:
            raise ValueError("all counts are zero")
        self._rng = np.random.default_rng(seed)

    def draw(self, n: int) -> np.ndarray:
        r = self._rng.random(n) * self._cum[-1]
        return np.searchsorted(self._cum, r, side="right")


def _predictor(
    kind: str,
    para_matrix: np.ndarray,
    word_in: np.ndarray | None,
    paragraph: TrainingParagraph,
    position: int,
    context_size: int,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Predictor vector h for one target, plus the context term ids averaged
    into it (empty for DBOW or a DM target with no usable context)."""
    ctx: tuple[int, ...] = ()
    if kind == "dm" and context_size > 0:
        ctx = paragraph.tokens[max(0, position - context_size) : position]
    row = para_matrix[paragraph.paragraph_id]
    if not ctx:
        return row.copy(), ctx
    h = (row + word_in[np.asarray(ctx)].sum(axis=0)) / (1 + len(ctx))
    return h, ctx


def dm_context(
    model: EmbeddingModel, paragraph: TrainingParagraph, position: int
) -> np.ndarray:
    """Mean of the paragraph vector and the in-vectors of the preceding
    context words; positions near the start use whatever context exists."""
    if position < 0 or position >= len(paragraph.tokens):
        raise IndexError(f"position {position} outside paragraph")
    h, _ = _predictor(
        model.kind,
        model.para_matrix,
        model.word_in,
        paragraph,
        position,
        model.context_size,
    )
    return h


def paragraph_vector(model: EmbeddingModel, paragraph_id: int) -> np.ndarray:
    """Copy of one trained paragraph row."""
    if not 0 <= paragraph_id < model.num_paragraphs:
        raise IndexError(
            f"paragraph id {paragraph_id} out of range "
            f"(model has {model.num_paragraphs})"
        )
    return model.para_matrix[paragraph_id].copy()


def _validate_paragraphs(
    paragraphs: Sequence[TrainingParagraph], vocab_size: int | None
) -> int:
    if not paragraphs:
        raise ValueError("no training paragraphs")
    for i, par in enumerate(paragraphs):
        if par.paragraph_id != i:
            raise ValueError("paragraph ids must be dense 0..P-1 in order")
        if min(par.tokens) < 0:
            raise ValueError(f"paragraph {i} has negative term id {min(par.tokens)}")
    max_id = max(max(par.tokens) for par in paragraphs)
    if vocab_size is None:
        return max_id + 1
    if max_id >= vocab_size:
        raise ValueError(f"term id {max_id} >= vocab size {vocab_size}")
    return vocab_size


def _check_kind(kind: str) -> str:
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    return kind


def _flatten(
    paragraphs: Sequence[TrainingParagraph],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Term id, paragraph index and flat index of the paragraph's first
    token, for every target in paragraph order."""
    lengths = np.array([len(p.tokens) for p in paragraphs])
    tok = np.concatenate([np.asarray(p.tokens, dtype=np.int64) for p in paragraphs])
    pid = np.repeat(np.arange(len(paragraphs)), lengths)
    par_start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return tok, pid, par_start


def _learning_rates(
    steps: np.ndarray, total_steps: int | np.ndarray, cfg: TrainConfig
) -> np.ndarray:
    """Rates of the given steps of runs of ``total_steps`` steps (broadcast
    against ``steps``): linear decay from ``cfg.learning_rate`` to 1% of it
    at step ``total_steps - 1``."""
    lr_start, lr_end = cfg.learning_rate, cfg.learning_rate / 100.0
    total_steps = np.asarray(total_steps)
    frac = steps / np.maximum(total_steps - 1, 1)
    return np.where(total_steps > 1, lr_start + (lr_end - lr_start) * frac, lr_start)


def _finished(
    kind: str,
    cfg: TrainConfig,
    para_matrix: np.ndarray,
    word_in: np.ndarray | None,
    word_out: np.ndarray,
) -> EmbeddingModel:
    for name, mat in (("para", para_matrix), ("word_in", word_in), ("word_out", word_out)):
        # finite iff min and max are (NaN propagates), with no temporary array
        if mat is not None and not np.isfinite([mat.min(), mat.max()]).all():
            raise ArithmeticError(f"{name} matrix diverged; lower the learning rate")
    return EmbeddingModel(
        kind=kind,
        para_matrix=para_matrix,
        word_out=word_out,
        word_in=word_in,
        context_size=cfg.context_size if kind == "dm" else 0,
    )


def _chunks(tok: np.ndarray, pid: np.ndarray, par_start: np.ndarray, vocab_size: int,
            cfg: TrainConfig, c: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Per chunk of targets in ``cfg.seed``'s order: paragraphs, flat and first
    context indices, context lengths, rates, out-rows (term, then negatives)
    and whether those or the ``c`` context slots repeat a row."""
    _, seed_order, seed_neg = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_order = np.random.default_rng(seed_order)
    sampler = NegativeSampler(np.bincount(tok, minlength=vocab_size), cfg.unigram_power, seed_neg)
    num_targets = len(tok)
    total_steps = cfg.epochs * num_targets
    k = cfg.negatives
    # Padding for context slots before the paragraph start: negative, so
    # never a term id, and distinct, so never a repeat.
    ctx_pad = -1 - np.arange(c)
    ctx_back = np.arange(c, 0, -1)

    step = 0
    for _ in range(cfg.epochs):
        order = rng_order.permutation(num_targets)
        for lo in range(0, num_targets, _CHUNK):
            t = order[lo : lo + _CHUNK]
            m = len(t)
            lr = _learning_rates(np.arange(step, step + m), total_steps, cfg)
            step += m

            out_idx = np.empty((m, k + 1), dtype=np.int64)
            out_idx[:, 0] = tok[t]
            out_idx[:, 1:] = sampler.draw(k * m).reshape(m, k)

            ctx_lo = np.maximum(t - c, par_start[t])
            window = t[:, None] - ctx_back
            ctx_repeats = _has_repeat(
                np.where(window >= ctx_lo[:, None], tok[np.maximum(window, 0)], ctx_pad)
            )
            yield pid[t], t, ctx_lo, t - ctx_lo, lr, out_idx, _has_repeat(out_idx), ctx_repeats


def train(
    paragraphs: Sequence[TrainingParagraph],
    cfg: TrainConfig,
    kind: str,
    vocab_size: int | None = None,
    *,
    joint: Iterator[EmbeddingModel] | None = None,
) -> EmbeddingModel:
    """Run seeded SGD over all (paragraph, position) targets.

    Each target takes one positive update against the target word's
    out-vector and ``cfg.negatives`` negative updates against sampled
    out-vectors; the sampled stream may repeat the target itself. Target
    order is reshuffled every epoch from the seeded generator.

    With ``joint``, a :func:`train_both` pass over the same arguments, the
    model is that pass's next one (DM, then DBOW), the same bit for bit;
    ``cmd_train`` takes both through here, one ``train`` call per fit. A
    pass whose next model is of another kind, or has another number of
    paragraphs or vocabulary size, or that has no model left, is refused
    with ``ValueError``; a refused model is used up.
    """
    kind = _check_kind(kind)
    vocab_size = _validate_paragraphs(paragraphs, vocab_size)
    if joint is not None:
        model = next(joint, None)
        if model is None:
            raise ValueError(f"joint pass is exhausted; it holds no {kind} model")
        if model.kind != kind:
            raise ValueError(f"joint pass yields a {model.kind} model next, not {kind}")
        if (model.num_paragraphs, model.vocab_size) != (len(paragraphs), vocab_size):
            raise ValueError(
                f"joint pass trained {model.num_paragraphs} paragraphs over "
                f"{model.vocab_size} terms, not {len(paragraphs)} over {vocab_size}"
            )
        return model

    return next(_fits(paragraphs, cfg, (kind,), vocab_size))


def train_both(paragraphs: Sequence[TrainingParagraph], cfg: TrainConfig,
               vocab_size: int | None = None) -> Iterator[EmbeddingModel]:
    """Yield ``train(paragraphs, cfg, "dm", vocab_size)``, then the same
    call's ``"dbow"`` model, bit for bit, from one pass over the targets.
    The models are views of the stacked arrays the pass updates."""
    return _fits(paragraphs, cfg, KINDS, _validate_paragraphs(paragraphs, vocab_size))


def _fits(paragraphs: Sequence[TrainingParagraph], cfg: TrainConfig, kinds: tuple[str, ...],
          vocab_size: int) -> Iterator[EmbeddingModel]:
    """Train one model of each of ``kinds`` over validated paragraphs in one
    pass, and yield them in order. ``kinds`` is ``(kind,)`` or ``KINDS``;
    only kind 0, DM if present, reads a context."""
    s, v, k1, d = len(kinds), vocab_size, cfg.negatives + 1, cfg.dim
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[0])
    # Paragraph p's rows of every kind are the view ``para[:, p]``; kind i's
    # out-rows are ``word_out[i]``, records i*V .. (i+1)*V - 1 of ``out_recs``.
    para = np.stack([rng.uniform(-0.5 / d, 0.5 / d, (len(paragraphs), d))] * s)
    word_in = rng.uniform(-0.5 / d, 0.5 / d, (v, d)) if kinds[0] == "dm" else None
    word_out = np.zeros((s, v, d))

    tok, pid, par_start = _flatten(paragraphs)
    c = cfg.context_size if kinds[0] == "dm" else 0
    # Every intermediate of a step is written into one of these. Gathers use
    # take(mode="clip"), which fills out= without a temporary; no index clips.
    h, g, sig_buf = np.empty((s, d)), np.empty((s, k1)), np.empty((2, s, k1))
    g_lr, upd, grad_h = np.empty((s, k1)), np.empty((s, k1, d)), np.empty((s, d))
    out_rows, ctx_buf, ctx_sum = np.empty((s, k1, d)), np.empty((c, d)), np.empty(d)
    g_col, h_row, h_dm, shared_dm = g_lr[:, :, None], h[:, None, :], h[0], grad_h[0]
    views = tuple(zip(out_rows, h, g, grad_h))  # one kind's 1-D operands each
    out_rec, ctx_recs = _records(out_rows.reshape(s * k1, d)), _records(ctx_buf)
    out_recs, in_recs = _records(word_out).reshape(-1), _records(word_in) if c else None

    for pids, t, ctx_lo, num_ctx, lr, out_idx, out_repeats, ctx_repeats in _chunks(
        tok, pid, par_start, v, cfg, c
    ):
        # Only kind 0's predictor shares its gradient with a context; lr / 1 is lr.
        share_lr = np.stack([lr / (1 + num_ctx)] + [lr] * (s - 1), axis=1)
        for p, ti, ci, nc, nlr, slr, idx, out_rep, ctx_rep in zip(
            pids.tolist(), t.tolist(), ctx_lo.tolist(), num_ctx.tolist(), (-lr).tolist(),
            share_lr.tolist(), np.concatenate([out_idx + i * v for i in range(s)], axis=1),
            out_repeats.tolist(), ctx_repeats.tolist(),
        ):
            rows = para[:, p]
            h[...] = rows  # read before the rows are updated below
            if nc:
                ctx = tok[ci:ti]
                ctx_rows, ctx_rec = ctx_buf[:nc], ctx_recs[:nc]
                in_recs.take(ctx, out=ctx_rec, mode="clip")
                np.add(h_dm, ctx_rows.sum(axis=0, out=ctx_sum), out=h_dm)
                np.divide(h_dm, 1 + nc, out=h_dm)

            out_recs.take(idx, out=out_rec, mode="clip")
            for o_k, h_k, g_k, _ in views:
                o_k.dot(h_k, out=g_k)
            _sigmoid(g, sig_buf)
            for (o_k, _, g_k, gh_k), rate in zip(views, slr):
                g_k[0] -= 1.0  # minus the labels (1, 0, ..., 0)
                g_k.dot(o_k, out=gh_k)
                np.multiply(gh_k, rate, out=gh_k)
            np.multiply(g, nlr, out=g_lr)
            np.multiply(g_col, h_row, out=upd)
            if out_rep:
                np.add.at(word_out.reshape(-1, d), idx, upd.reshape(-1, d))
            else:
                np.add(out_rows, upd, out=out_rows)
                out_recs[idx] = out_rec

            rows -= grad_h
            if nc:
                if ctx_rep:
                    np.add.at(word_in, ctx, -shared_dm)
                else:
                    np.subtract(ctx_rows, shared_dm, out=ctx_rows)
                    in_recs[ctx] = ctx_rec

    for i, kind in enumerate(kinds):
        yield _finished(kind, cfg, para[i], word_in if kind == "dm" else None, word_out[i])


# Targets per chunk of the lockstep schedule, over all fits: every fit
# takes about _LOCKSTEP_TARGETS / (fits still training) steps per chunk.
_LOCKSTEP_TARGETS = 2 * _CHUNK

# Values (rows x dim) of the shared word_out matrix one lockstep wave may
# hold, 2 MiB of float64: groups are trained in consecutive waves of about
# equal size within this bound, so memory does not grow with the number of
# groups. Fewer, wider waves take fewer lockstep steps in all.
_WAVE_VALUES = 2**18


class _Fit:
    """One group's fit inside :func:`train_each`: its own order and negative
    streams, its step count, and where its rows sit in the shared arrays."""

    def __init__(self, tok, vocab_size, base, row_off, para_off, num_paragraphs, cfg,
                 seed_order, seed_neg):
        self.terms, counts = np.unique(tok, return_counts=True)
        self.vocab_size = vocab_size
        self.base = base  # flat index of the fit's first target
        self.row_off = row_off  # shared row of self.terms[0]
        self.para_off = para_off  # shared row of the fit's paragraph 0
        self.num_paragraphs = num_paragraphs
        self.num_targets = len(tok)
        self.total_steps = cfg.epochs * len(tok)
        self.rng_order = np.random.default_rng(seed_order)
        # Draws local ids of exactly the terms a sampler over all vocab_size
        # counts draws: the other terms' bins have zero width, and leaving
        # zeros out of a running sum changes none of its values.
        self.sampler = NegativeSampler(counts, cfg.unigram_power, seed_neg)
        self.pending = np.empty(0, dtype=np.int64)

    def next_targets(self, n: int) -> np.ndarray:
        """Flat indices of the next ``n`` targets, one permutation per epoch,
        drawn when the previous epoch's targets run out."""
        while len(self.pending) < n:
            perm = self.rng_order.permutation(self.num_targets)
            self.pending = np.concatenate([self.pending, perm])
        t, self.pending = self.pending[:n], self.pending[n:]
        return self.base + t


def _context_sums(ctx_rows: np.ndarray, num_ctx: np.ndarray) -> np.ndarray:
    """``ctx_rows[i, :num_ctx[i]].sum(axis=0)`` for every fit i, rounded as
    that sum is. With d > 1 numpy adds the rows of an (n, d) array in
    order, starting from 0.0, so the slots are folded in order; the pad
    slots after a context hold +0.0, which leaves such a sum unchanged (it
    is never -0.0). A single column numpy sums pairwise, so that case is
    summed fit by fit."""
    if ctx_rows.shape[2] == 1:
        return np.array([r[:n].sum(axis=0) for r, n in zip(ctx_rows, num_ctx.tolist())])
    acc = np.zeros((ctx_rows.shape[0], ctx_rows.shape[2]))
    for j in range(ctx_rows.shape[1]):
        acc += ctx_rows[:, j]
    return acc


def _chains(keys: np.ndarray, flagged: np.ndarray) -> tuple[np.ndarray, list]:
    """The repeated-row rule of one lockstep chunk. ``keys`` is the row of
    every (step, fit, slot) of the chunk and ``flagged`` the (step, fit)
    pairs whose slots repeat a row; only those are examined.

    ``np.add.at`` adds a repeated row's updates in slot order, each to the
    sum so far. So a row's first slot takes the gathered row plus its
    update, as every slot does, and each later slot takes the previous
    slot's new row plus its own update; the row's last slot then holds what
    ``np.add.at`` leaves in it. Returns whether each slot is superseded by a
    later slot of its row (so is not written back), and for each step of
    the chunk the links to apply in order, one ``(src, dst, fit)`` triple
    of index arrays per rank: slot ``dst`` of fit ``fit`` takes slot
    ``src``'s new row plus its own update, slots counted over the step's
    fits (``fit * S + slot``)."""
    m, _, s = keys.shape
    superseded = np.zeros(keys.shape, dtype=bool)
    links: list[list] = [[] for _ in range(m)]
    jj, ii = np.nonzero(flagged)
    if not len(jj):
        return superseded, links
    rows = keys[jj, ii]
    order = np.argsort(rows, axis=1, kind="stable")  # a row's slots in slot order
    rows = np.take_along_axis(rows, order, axis=1)
    repeats = rows[:, 1:] == rows[:, :-1]
    pos = np.arange(s)
    firsts = np.concatenate([np.ones((len(rows), 1), dtype=bool), ~repeats], axis=1)
    rank = pos - np.maximum.accumulate(np.where(firsts, pos, 0), axis=1)
    f, q = np.nonzero(repeats)  # sorted slot q + 1 repeats sorted slot q
    step, fit, src, dst = jj[f], ii[f], order[f, q], order[f, q + 1]
    superseded[step, fit, src] = True
    group = step * s + rank[f, q + 1]
    by = np.argsort(group, kind="stable")
    group, fit = group[by], fit[by]
    src, dst = fit * s + src[by], fit * s + dst[by]
    cuts = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist(), len(group)]
    for a, b in zip(cuts, cuts[1:]):
        links[int(group[a]) // s].append((src[a:b], dst[a:b], fit[a:b]))
    return superseded, links


def train_each(
    groups: Sequence[Sequence[TrainingParagraph]],
    cfg: TrainConfig,
    kind: str,
    vocab_size: int | None = None,
) -> Iterator[EmbeddingModel]:
    """Train one model per paragraph group, all fits in lockstep, and yield
    the models in group order.

    Every model is bit-identical to ``train(group, cfg, kind, vocab_size)``.
    Each fit keeps that call's seeded streams, epoch permutations, negative
    draws and learning-rate schedule; step s of every fit still training
    runs as one batched step. Fits share no row, so batching them changes
    no sum: gathers and scatters touch disjoint rows, the scores and
    predictor gradients come from stacked ``np.matmul`` (the BLAS gemv that
    ``np.dot`` calls), and the rest is elementwise. A fit whose out or
    context slots repeat a row adds their updates in slot order, each to
    the row's previous slot, as ``train``'s ``np.add.at`` does; only the
    row's last slot is written back and the rest go to a sink row that no
    model holds (:func:`_chains`). The step writes into buffers made once
    per wave. Only the rows of the terms a group uses are held; the others
    never change (zero ``word_out`` rows, seeded ``word_in`` rows), and a
    model is expanded to ``vocab_size`` rows when it is yielded. Groups run
    in consecutive waves (:func:`_waves`), so memory does not grow with
    their number.
    """
    kind = _check_kind(kind)
    sizes = [_validate_paragraphs(group, vocab_size) for group in groups]
    for wave in _waves(groups, cfg.dim):
        yield from _lockstep(groups[wave], sizes[wave], cfg, kind)


def _waves(groups: Sequence[Sequence[TrainingParagraph]], dim: int) -> list[slice]:
    """Consecutive runs of groups for :func:`train_each`: the fewest runs
    whose mean size is within ``_WAVE_VALUES`` term-row values, cut where
    the running count of distinct terms passes each multiple of that mean,
    so a run exceeds the mean by less than its last group."""
    if not groups:
        return []
    rows = np.cumsum([len({t for p in group for t in p.tokens}) for group in groups])
    n = -(-int(rows[-1]) * dim // _WAVE_VALUES)
    cuts = np.searchsorted(rows, rows[-1] * np.arange(1, n) / n) + 1
    bounds = [0, *cuts.tolist(), len(groups)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def _lockstep(
    groups: Sequence[Sequence[TrainingParagraph]],
    sizes: Sequence[int],
    cfg: TrainConfig,
    kind: str,
) -> Iterator[EmbeddingModel]:
    """Train one wave of :func:`train_each` in lockstep, then yield its
    models in group order."""
    d, k = cfg.dim, cfg.negatives
    k1 = k + 1
    c = cfg.context_size if kind == "dm" else 0
    seed_init, seed_order, seed_neg = np.random.SeedSequence(cfg.seed).spawn(3)
    # Every fit's init stream is the same seed_init stream: P x d paragraph
    # values, then V x d word_in values for DM. One draw as long as the
    # longest holds each fit's init as a prefix.
    init_len = max(len(g) + (v if kind == "dm" else 0) for g, v in zip(groups, sizes))
    init = np.random.default_rng(seed_init).uniform(-0.5 / d, 0.5 / d, (init_len, d))

    fits: list[_Fit] = []
    # Shared rows of each target's term and flat index of each paragraph's
    # first target, over all fits; paragraph i's row in ``para`` is row i.
    tok_rows, par_firsts, para_parts, in_parts = [], [], [], []
    base = row_off = para_off = 0
    for group, size in zip(groups, sizes):
        tok, _, par_start = _flatten(group)
        fit = _Fit(tok, size, base, row_off, para_off, len(group), cfg, seed_order, seed_neg)
        fits.append(fit)
        tok_rows.append(row_off + np.searchsorted(fit.terms, tok))
        par_firsts.append(base + np.unique(par_start))
        para_parts.append(init[: len(group)])
        if kind == "dm":
            in_parts.append(init[len(group) + fit.terms])
        base += len(tok)
        row_off += len(fit.terms)
        para_off += len(group)
    tok_rows = np.concatenate(tok_rows)
    par_firsts = np.concatenate(par_firsts)
    para = np.concatenate(para_parts)
    # Superseded slots of a repeated row are written to one sink row after
    # the fits' rows, which no model reads. Context slots past a target's
    # context point at the pad row after the fits' rows of word_in, which is
    # set back to +0.0 after every step and serves as its sink.
    sink = pad = row_off
    word_out = np.zeros((row_off + 1, d))
    word_in = np.concatenate(in_parts + [np.zeros((1, d))]) if kind == "dm" else None
    para_recs, out_recs = _records(para), _records(word_out)
    in_recs = _records(word_in) if c else None

    # Every intermediate of a step is written into one of these, made for
    # the wave's fit count; a step with ``a`` live fits uses their ``[:a]``
    # prefixes. Scores and predictor gradients keep the trailing and middle
    # unit axes of the stacked matmul products they hold.
    w = len(fits)
    row_buf, out_buf, upd_buf = np.empty((w, d)), np.empty((w, k1, d)), np.empty((w, k1, d))
    h_buf = np.empty((w, d)) if c else row_buf
    g_buf, sig_buf, grad_buf = np.empty((w, k1, 1)), np.empty(2 * w * k1), np.empty((w, 1, d))
    ctx_buf = np.empty((w, c, d))
    row_recs, out_rec_buf = _records(row_buf), _records(out_buf.reshape(w * k1, d))
    ctx_rec_buf = _records(ctx_buf.reshape(w * c, d)) if c else None

    slots = np.arange(c)
    # Longest fit first, so the fits still training are a prefix.
    order = sorted(fits, key=lambda f: -f.total_steps)
    totals = np.array([f.total_steps for f in order])
    step, last = 0, 0
    while step < totals[0]:
        active = int(np.count_nonzero(totals > step))
        m = int(min(max(1, _LOCKSTEP_TARGETS // active), totals[0] - step))
        t = np.zeros((m, active), dtype=np.int64)
        negs = np.zeros((m, active, k), dtype=np.int64)
        for col, fit in enumerate(order[:active]):
            n = min(m, fit.total_steps - step)
            t[:n, col] = fit.next_targets(n)
            negs[:n, col] = fit.row_off + fit.sampler.draw(k * n).reshape(n, k)
        steps = np.arange(step, step + m)[:, None]
        lr = _learning_rates(steps, totals[:active], cfg)
        alive = totals[:active] > steps
        live = np.count_nonzero(alive, axis=1)

        out_idx = np.concatenate([tok_rows[t][..., None], negs], axis=2)
        out_sup, out_links = _chains(
            out_idx, alive & _has_repeat(out_idx.reshape(-1, k1)).reshape(m, active)
        )
        out_w = np.where(out_sup, sink, out_idx).reshape(m, -1)
        out_idx = out_idx.reshape(m, -1)
        p_rows = np.searchsorted(par_firsts, t, side="right") - 1
        share_lr = lr  # lr / 1 when no context shares the predictor
        if c:
            ctx_lo = np.maximum(t - c, par_firsts[p_rows])
            num_ctx = t - ctx_lo
            no_ctx = (num_ctx == 0)[..., None]
            share_lr = lr / (1 + num_ctx)
            window = ctx_lo[..., None] + slots
            in_ctx = window < t[..., None]
            ctx_idx = np.where(in_ctx, tok_rows[np.minimum(window, t[..., None])], pad)
            ctx_keys = np.where(in_ctx, ctx_idx, -1 - slots)  # pads never repeat
            ctx_sup, ctx_links = _chains(
                ctx_keys, alive & _has_repeat(ctx_keys.reshape(-1, c)).reshape(m, active)
            )
            ctx_w = np.where(ctx_sup, pad, ctx_idx).reshape(m, -1)
            ctx_idx = ctx_idx.reshape(m, -1)
            den = (1 + num_ctx)[..., None]
        neg_lr, share_lr = -lr[..., None], share_lr[..., None]
        step += m

        for j, a in enumerate(live.tolist()):
            if a != last:  # the prefixes of the buffers for a live fits
                last = a
                rows, h, row_rec = row_buf[:a], h_buf[:a], row_recs[:a]
                out_rows, out_rec = out_buf[:a], out_rec_buf[: a * k1]
                out_flat, upd = out_rows.reshape(a * k1, d), upd_buf[:a]
                upd_flat = upd.reshape(a * k1, d)
                g3, grad3 = g_buf[:a], grad_buf[:a]
                g, grad_h, sig = g3[:, :, 0], grad3[:, 0], sig_buf[: 2 * a * k1].reshape(2, a, k1)
                g_col, g_row, h_col, h_row = g[:, :, None], g[:, None, :], h[:, :, None], h[:, None, :]
                if c:
                    ctx_rows, ctx_rec = ctx_buf[:a], ctx_rec_buf[: a * c]
                    ctx_flat, shared = ctx_rows.reshape(a * c, d), grad_h[:, None, :]

            p = p_rows[j, :a]
            para_recs.take(p, out=row_rec, mode="clip")
            if c:
                in_recs.take(ctx_idx[j, : a * c], out=ctx_rec, mode="clip")
                np.add(rows, _context_sums(ctx_rows, num_ctx[j, :a]), out=h)
                np.divide(h, den[j, :a], out=h)
                np.copyto(h, rows, where=no_ctx[j, :a])

            out_recs.take(out_idx[j, : a * k1], out=out_rec, mode="clip")
            np.matmul(out_rows, h_col, out=g3)
            _sigmoid(g, sig)
            g[:, 0] -= 1.0  # minus the labels (1, 0, ..., 0)
            np.matmul(g_row, out_rows, out=grad3)
            np.multiply(g, neg_lr[j, :a], out=g)
            np.multiply(g_col, h_row, out=upd)
            np.add(out_rows, upd, out=out_rows)
            for src, dst, _ in out_links[j]:
                out_flat[dst] = out_flat[src] + upd_flat[dst]
            out_recs[out_w[j, : a * k1]] = out_rec

            np.multiply(grad_h, share_lr[j, :a], out=grad_h)
            np.subtract(rows, grad_h, out=rows)
            para_recs[p] = row_rec
            if c:
                np.subtract(ctx_rows, shared, out=ctx_rows)
                for src, dst, fit in ctx_links[j]:
                    ctx_flat[dst] = ctx_flat[src] - grad_h[fit]
                in_recs[ctx_w[j, : a * c]] = ctx_rec
                word_in[pad] = 0.0
    for fit in fits:
        yield _expand(fit, kind, cfg, init, para, word_in, word_out)


def _expand(fit: _Fit, kind: str, cfg: TrainConfig, init: np.ndarray, para: np.ndarray,
            word_in: np.ndarray | None, word_out: np.ndarray) -> EmbeddingModel:
    """A lockstep fit as the model ``train`` returns: the rows of terms the
    fit never saw keep their initial values, zero in ``word_out`` and the
    seeded draw in ``word_in``."""
    rows = slice(fit.row_off, fit.row_off + len(fit.terms))
    para_matrix = para[fit.para_off : fit.para_off + fit.num_paragraphs].copy()
    full_in = None
    if kind == "dm":
        full_in = init[fit.num_paragraphs : fit.num_paragraphs + fit.vocab_size].copy()
        full_in[fit.terms] = word_in[rows]
    full_out = np.zeros((fit.vocab_size, cfg.dim))
    full_out[fit.terms] = word_out[rows]
    return _finished(kind, cfg, para_matrix, full_in, full_out)


# ---------------------------------------------------------------------------
# Whole-batch loss/gradient views of the same objective, used by the
# gradient checks and the permutation-invariance checks.

TargetItem = tuple[int, int, tuple[int, ...]]  # (paragraph index, position, negative ids)


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
            model.kind, model.para_matrix, model.word_in, par, j, model.context_size
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
            model.kind, model.para_matrix, model.word_in, par, j, model.context_size
        )
        idx = np.asarray([par.tokens[j], *negs], dtype=np.int64)
        rows = model.word_out[idx]
        g = _sigmoid(rows @ h)
        g[0] -= 1.0  # minus the labels (1, 0, ..., 0)
        np.add.at(g_out, idx, g[:, None] * h[None, :])
        grad_h = g @ rows
        share = grad_h / (1 + len(ctx))
        g_para[par.paragraph_id] += share
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
    for par in paragraphs:
        for j, w in enumerate(par.tokens):
            h, _ = _predictor(
                model.kind, model.para_matrix, model.word_in, par, j, model.context_size
            )
            terms.append(pair_loss(float(model.word_out[w] @ h), 1))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Persistence

_KIND_CODES = {"dm": 0, "dbow": 1}
_CODE_KINDS = {v: k for k, v in _KIND_CODES.items()}
_HEADER = struct.Struct("<4sBBIIII")


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    """Write the model in the flat binary layout documented at module level.

    The file is written as ``path.part`` and renamed onto ``path``, never
    truncated in place: ``path`` may be mapped by a model :func:`load_model`
    returned, ``model`` itself included."""
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        _KIND_CODES[model.kind],
        model.context_size,
        model.vocab_size,
        model.num_paragraphs,
        model.dim,
    )
    matrices = [model.para_matrix, model.word_out]
    if model.kind == "dm":
        matrices.insert(1, model.word_in)
    with written(path) as part, open(part, "wb") as fh:
        fh.write(header)
        for mat in matrices:  # written from the array's own buffer, not a copy
            fh.write(np.ascontiguousarray(mat, dtype="<f8").data)


def load_model(path: str | Path) -> EmbeddingModel:
    """Inverse of :func:`save_model`; round-trips are lossless. The file size
    is checked against the header first. The paragraph matrix is then read
    straight into its array; ``word_in`` and ``word_out`` are mapped
    copy-on-write, so a caller that reads only paragraph rows never pages
    the word matrices in. The mapped arrays are writable, but writes stay
    private to the process and never reach the file, and they keep their
    values if the file is later replaced or unlinked. Rewriting the file in
    place while a loaded model lives is unsupported: truncation drops the
    mapped pages, even copy-on-write ones, so a later read of them faults.
    :func:`save_model` replaces the file instead. Each loaded model holds
    one duplicated file descriptor while it lives."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size or head[:4] != _MAGIC:
            raise ValueError(f"{path}: not a model file")
        _, version, kind_code, context_size, v, p, d = _HEADER.unpack(head)
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported model version {version}")
        kind = _CODE_KINDS.get(kind_code)
        if kind is None:
            raise ValueError(f"{path}: unknown model kind code {kind_code}")
        if 0 in (d, v, p):  # save_model never writes an empty matrix
            raise ValueError(f"{path}: empty model: dim {d}, vocab_size {v}, num_paragraphs {p}")

        word_matrices = 2 if kind == "dm" else 1  # word_in (DM only), word_out
        size = _HEADER.size + 8 * d * (p + word_matrices * v)
        actual = os.fstat(fh.fileno()).st_size
        if actual < size:
            raise ValueError(f"{path}: truncated model file")
        if actual > size:
            raise ValueError(f"{path}: trailing bytes in model file")
        para_matrix = np.empty((p, d), dtype="<f8")
        if fh.readinto(para_matrix) != para_matrix.nbytes:
            raise ValueError(f"{path}: truncated model file")
        # One mapping of the word matrices, which follow each other: each
        # mapping holds a file descriptor while it lives.
        words = np.memmap(fh, dtype="<f8", mode="c", offset=_HEADER.size + para_matrix.nbytes,
                          shape=(word_matrices, v, d))

    return EmbeddingModel(
        kind=kind,
        para_matrix=para_matrix,
        word_out=words[-1],
        word_in=words[0] if kind == "dm" else None,
        context_size=context_size,
    )


# ---------------------------------------------------------------------------
# Corpus plumbing

def build_training_paragraphs(
    docs: Sequence[Document], vocab: Vocabulary
) -> tuple[list[TrainingParagraph], dict[str, ParagraphIds]]:
    """Turn a corpus into training paragraphs: for each document, the whole
    document first, then each of its sentences. Returns the paragraphs plus
    a per-document map of row indices."""
    paragraphs: list[TrainingParagraph] = []
    for doc in docs:
        paragraphs.append(
            TrainingParagraph(len(paragraphs), tuple(vocab.ids(doc.all_tokens())))
        )
        for sent in doc.sentences:
            paragraphs.append(TrainingParagraph(len(paragraphs), tuple(vocab.ids(sent.tokens))))
    return paragraphs, paragraph_index(docs)


def paragraph_index(docs: Sequence[Document]) -> dict[str, ParagraphIds]:
    """Per-document row indices of :func:`build_training_paragraphs`' paragraphs,
    laid out from sentence counts alone: each document's row, then one row
    per sentence, document after document."""
    index: dict[str, ParagraphIds] = {}
    pid = 0
    for doc in docs:
        n = len(doc.sentences)
        index[doc.id] = ParagraphIds(document=pid, sentences=tuple(range(pid + 1, pid + 1 + n)))
        pid += n + 1
    return index

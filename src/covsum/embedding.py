"""Paragraph-embedding training: distributed memory (DM) and distributed
bag-of-words (DBOW) models.

Every sentence of every document, plus each document itself, is a training
paragraph. The DM model predicts each word from the mean of the paragraph
vector and the in-vectors of the preceding context words; DBOW predicts each
word from the paragraph vector alone. The softmax over the vocabulary is
approximated with negative sampling: one positive pair per target word plus
``negatives`` noise words drawn from the unigram distribution raised to
``unigram_power``. Its whole-batch loss and gradients are in ``oracles``.

Training is single-threaded, seeded, and bitwise reproducible: identical
seed, config, and input produce an identical model. :func:`fit` trains one
model of each given kind on each paragraph group; :func:`train` is its
case of one group and one kind. Every model is bit-identical to its
one-kind, one-group fit and to the one-target-at-a-time loop
``train_reference`` in ``tests/reference.py``; the ``test_train_matches_*``
and ``test_fit_of_*`` tests in ``tests/test_embedding.py`` check this with
``==`` on every matrix. Only the bookkeeping is batched:

- *One group with DM* (:func:`_fits`): a per-target loop trains every kind
  at once, stacked on a leading axis, as all kinds draw every value from
  the same ``cfg.seed`` streams. Per kind run two ``ndarray.dot`` gemvs
  and the label subtract; every other op is one call over the kind axis.
- *One group of DBOW alone* (:func:`_runs_fit`): one :func:`_sgd` step
  trains each run of consecutive targets that share no row (:func:`_runs`).
  DM stays per target: its context rows cut runs to about two targets.
- *Several groups*, one kind at a time in lockstep (:func:`_train_wave`):
  one :func:`_sgd` step advances every unfinished fit by one target, with
  its own ``train`` call's draws: targets planned once per wave
  (:func:`_plan`), negatives a segment of steps at a time
  (:func:`_negatives`). A fit holds only its group's terms' rows;
  :func:`_expand` fills in the rest. Waves hold at most about 4 MiB of
  ``word_out`` rows each.

The first two draw negatives per chunk of targets (:func:`_chunks`). The
targets of an :func:`_sgd` step share no row, so batching changes no sum:
gathers and scatters touch disjoint rows, scores and predictor gradients
are stacked ``np.matmul`` calls with ``out=`` (the BLAS gemv that
``np.dot`` calls), and the rest is elementwise; the update's products come
from ``np.multiply`` or, from 8 targets (lockstep only), ``np.einsum``,
which turns a -0.0 product into +0.0, the same bits once added to a
``word_out`` row, which is never -0.0. Where a target's slots hit a row
twice, they follow :func:`_links`' repeated-row rule, which gives
``np.add.at``'s bits and writes only the row's last slot back, the others
to a sink row no model holds. The corpus loops apply a chunk's links one
pair at a time (:func:`_pairs`); a lockstep step applies its links one
chain depth at a time, each depth as one fancy assignment
(:func:`_depths`). Steps write into buffers made once per call
and move rows as records (:func:`_records`). :func:`_sigmoid`, inlined,
takes both branches from one ``exp`` over ``min(x, 0)`` and ``-|x|``,
which is exact. The loops mute overflow; :func:`_finished` reports it.

Model files are flat binary (little-endian):

    magic  b"CVEM"          4 bytes
    version                 u8 (currently 1)
    kind                    u8 (position in KINDS: 0 = DM, 1 = DBOW)
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

import functools
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

# Targets per chunk of the SGD loop. Negatives, rates and repeated-row links
# are computed a chunk at a time, the rates into 112 KiB per kind at d = 50.
_CHUNK = 256

# Targets per run of a corpus DBOW fit (see fit), fewer than _sgd's einsum width.
_RUN = 7


@dataclass(frozen=True)
class TrainingParagraph:
    """One unit of embedding training: its term ids. Its row of the
    paragraph matrix is its position in the list trained on."""

    tokens: tuple[int, ...]


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


def _sigmoid(x: np.ndarray, ops: tuple | None = None) -> np.ndarray:
    """Logistic sigmoid of ``x``, written over ``x`` and returned.

    ``exp(min(x, 0)) / (1 + exp(-|x|))``: 1 / (1 + exp(-x)) for x >= 0 and
    exp(x) / (1 + exp(x)) below, so exp never overflows. Both exps are one
    call over a scratch array of shape ``(2, *x.shape)``. ``ops`` is
    :func:`_sigmoid_ops` of ``x.shape``; the SGD steps make theirs once and
    inline this function."""
    buf, num, den, zero, minus, one = ops or _sigmoid_ops(x.shape)
    np.minimum(x, zero, out=num)
    np.copysign(x, minus, out=den)
    np.exp(buf, out=buf)
    np.add(den, one, out=den)
    return np.divide(num, den, out=x)


def _sigmoid_ops(shape: tuple[int, ...]) -> tuple:
    """:func:`_sigmoid`'s scratch array, its halves and arrays of ``shape``
    holding its constants 0, -1 and 1, which numpy pairs with ``x`` faster
    than it broadcasts a scalar."""
    buf = np.empty((2, *shape))
    return (buf, *buf, np.zeros(shape), np.full(shape, -1.0), np.ones(shape))


def _records(mat: np.ndarray) -> np.ndarray:
    """The rows of a C-contiguous float array as a view of one opaque record
    per row. Indexing the records moves whole rows byte for byte, as row
    indexing does, but takes numpy's one-dimensional fast path, which for a
    step's few rows costs a fraction of the set-up of row indexing."""
    return mat.view(np.dtype((np.void, mat.itemsize * mat.shape[-1])))[..., 0]


class NegativeSampler:
    """Term weights count**power, and no generator: :meth:`ids` maps the caller's draws."""

    def __init__(self, counts, power: float = 0.75) -> None:
        counts = np.asarray(counts, dtype=np.float64)
        if counts.size == 0:
            raise ValueError("empty count table")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        weights = np.power(counts, power, where=counts > 0, out=np.zeros_like(counts))
        self._cum = np.cumsum(weights)
        if self._cum[-1] <= 0.0:
            raise ValueError("all counts are zero")

    def ids(self, uniforms: np.ndarray) -> np.ndarray:
        """The term ids that draws ``uniforms`` from [0, 1) stand for."""
        return np.searchsorted(self._cum, uniforms * self._cum[-1], side="right")


def _validate_paragraphs(
    paragraphs: Sequence[TrainingParagraph], vocab_size: int | None
) -> int:
    if not paragraphs:
        raise ValueError("no training paragraphs")
    for i, par in enumerate(paragraphs):
        if not par.tokens:
            raise ValueError(f"paragraph {i} has no tokens")
        if min(par.tokens) < 0:
            raise ValueError(f"paragraph {i} has negative term id {min(par.tokens)}")
    max_id = max(max(par.tokens) for par in paragraphs)
    if vocab_size is None:
        return max_id + 1
    if max_id >= vocab_size:
        raise ValueError(f"term id {max_id} >= vocab size {vocab_size}")
    return vocab_size


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
    own: tuple | None = None,
) -> EmbeddingModel:
    """The model, if its matrices, or ``own``, the only rows of each that can change, are finite."""
    for name, mat in zip(("para", "word_in", "word_out"), own or (para_matrix, word_in, word_out)):
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
            cfg: TrainConfig, c: int, cap: int = 1) -> Iterator[tuple]:
    """Per chunk of targets in ``cfg.seed``'s order: paragraphs, context
    lengths, rates, :func:`_links` per run of the out-rows (term, then
    negatives) and of the ``c`` context slots, each with sink ``vocab_size``,
    and the bounds of the chunk's :func:`_runs` of at most ``cap`` targets."""
    _, seed_order, seed_neg = np.random.SeedSequence(cfg.seed).spawn(3)
    rng_order, rng_neg = np.random.default_rng(seed_order), np.random.default_rng(seed_neg)
    sampler = NegativeSampler(np.bincount(tok, minlength=vocab_size), cfg.unigram_power)
    num_targets = len(tok)
    total_steps = cfg.epochs * num_targets
    k, sink = cfg.negatives, vocab_size
    slots = np.arange(c)  # a pad slot's key, -1 - slot, is no term id and no repeat

    step = 0
    for _ in range(cfg.epochs):
        order = rng_order.permutation(num_targets)
        for lo in range(0, num_targets, _CHUNK):
            t = order[lo : lo + _CHUNK]
            m = len(t)
            lr = _learning_rates(np.arange(step, step + m), total_steps, cfg)
            step += m

            pids = pid[t]
            draws = rng_neg.random(k * m)
            by, negs = np.argsort(draws), np.empty(k * m, dtype=np.int64)
            negs[by] = sampler.ids(draws[by])  # a search in sorted order is faster
            out_idx = np.column_stack([tok[t], negs.reshape(m, k)])
            bounds = _runs(np.column_stack([out_idx, vocab_size + pids]), cap)  # rows as keys
            runs = len(bounds) - 1

            ctx_lo, ctx = t, ([()] * m,) * 3  # no context: faster to zip than (m, 0)
            if c:
                ctx_lo = np.maximum(t - c, par_start[t])
                window = np.minimum(ctx_lo[:, None] + slots, t[:, None])
                *ctx, links = _links(np.where(window < t[:, None], tok[window], -1 - slots), sink,
                                     bounds)
                ctx = (*ctx, _pairs(links, runs))
            out_r, out_w, links = _links(out_idx, sink, bounds)
            yield pids, t - ctx_lo, lr, out_r, out_w, _pairs(links, runs), *ctx, bounds


def _runs(keys: np.ndarray, cap: int) -> np.ndarray:
    """Bounds of the runs that cut the rows of nonnegative ``keys`` greedily,
    in order: a run ends before the first row that holds a key of an earlier
    row of the run, or after ``cap`` rows. A key repeated in a row cuts nothing."""
    m, s = keys.shape
    if cap == 1:
        return np.arange(m + 1)
    # a key's slots in row order, sorted faster in the narrowest type
    order = np.argsort(keys.ravel().astype(np.min_scalar_type(keys.max())), kind="stable")
    same = np.flatnonzero(np.diff(keys.ravel()[order]) == 0)
    a, b = order[same] // s, order[same + 1] // s  # rows of a key's consecutive slots
    prev = np.full(m * s, -1)  # per slot, the last earlier row that holds its key
    prev[order[same + 1]] = np.where(a < b, a, -1)
    start, bounds = 0, [0]
    for i, p in enumerate(prev.reshape(m, s).max(axis=1).tolist()):
        if p >= start or i - start == cap:
            start = i
            bounds.append(i)
    return np.array(bounds + [m])


def _links(keys: np.ndarray, sink: int, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The repeated-row rule. ``np.add.at`` adds a repeated row's updates in
    slot order, each to the sum so far. So a row's first slot takes the
    gathered row plus its update, as every slot does, each later slot takes
    the previous slot's new row plus its own update, and the row's last slot
    holds what ``np.add.at`` leaves. Returns the rows the slots of each row
    of ``keys`` (a target's; pads are keys in ``[-s, 0)`` for ``s`` slots,
    the others below ``sink``) read and write, as ``intp``, pads and
    superseded slots on ``sink``, and the links ``(run, depth, src, dst)``
    in row order: per link, its run of rows from ``bounds``, its depth along
    its key's chain (1 into the key's second slot of the row, 2 into its
    third, ...) and its slots, counted over the run's rows. A run's links
    apply in this order, or a depth at a time (:func:`_depths`)."""
    s = keys.shape[1]
    # Each row's keys in order, a key's slots in slot order: one sort of
    # key * s + slot, in int64 (int32 raised corpus fits' peak RSS).
    packed = keys.astype(np.int64)
    packed *= s
    packed += np.arange(s)
    packed.sort(axis=1)
    sorted_keys = packed // s
    f, q = np.nonzero(sorted_keys[:, 1:] == sorted_keys[:, :-1])
    src = packed[f, q]
    q += 1
    dst = packed[f, q]
    del packed, sorted_keys
    src %= s
    dst %= s
    read = keys.astype(np.intp)
    read[read < 0] = sink
    write = read.copy()
    write[f, src] = sink
    # A link into the source of the link before it is one deeper: along a
    # chain, f * s + q minus the link's number is constant, and it grows from
    # chain to chain, so a chain starts at that value's first place. Few
    # temporaries, each of the links' length: small arrays numpy keeps for
    # reuse would pin the heap above a chunk's freed arrays.
    at = np.arange(len(f))
    chain = f * s
    chain += q
    chain -= at
    depth = np.searchsorted(chain, chain)
    np.subtract(at, depth, out=depth)
    depth += 1
    run = np.searchsorted(bounds, f, side="right")
    run -= 1
    f -= bounds[run]
    f *= s
    return read, write, (run, depth, f + src, f + dst)


def _pairs(links: tuple, runs: int) -> list:
    """Per run, :func:`_links`' links as ``(src, dst)`` ints, in row order."""
    per_run = [()] * runs
    run, _, src, dst = links
    for r, a, b in zip(run.tolist(), src.tolist(), dst.tolist()):
        if not per_run[r]:
            per_run[r] = []
        per_run[r].append((a, b))
    return per_run


def _depths(links: tuple, runs: int) -> list:
    """Per run, :func:`_links`' links as one ``(src, dst)`` pair of slot
    arrays per depth, in depth order, each to apply as one fancy assignment:
    a depth's destinations are distinct, none is one of its sources, and
    each of its sources is a first slot or a lower depth's destination."""
    run, depth, src, dst = links
    by = np.lexsort((depth, run))
    src, dst = src[by], dst[by]
    groups = list(zip(run[by].tolist(), depth[by].tolist()))
    per_run = [()] * runs
    starts = [i for i, g in enumerate(groups) if not i or g != groups[i - 1]]
    for a, b in zip(starts, starts[1:] + [len(groups)]):
        r = groups[a][0]
        if not per_run[r]:
            per_run[r] = []
        per_run[r].append((src[a:b], dst[a:b]))
    return per_run


def train(
    paragraphs: Sequence[TrainingParagraph],
    cfg: TrainConfig,
    kind: str,
    vocab_size: int | None = None,
    *,
    trained: Iterator[EmbeddingModel] | None = None,
) -> EmbeddingModel:
    """Run seeded SGD over all (paragraph, position) targets.

    Each target takes one positive update against the target word's
    out-vector and ``cfg.negatives`` negative updates against sampled
    out-vectors; the sampled stream may repeat the target itself. Target
    order is reshuffled every epoch from the seeded generator.

    With ``trained``, a :func:`fit` pass whose next group is ``paragraphs``,
    the model is that pass's next one, bit for bit, and the paragraphs are
    not walked again; ``cmd_train`` takes every model through here. A pass
    whose next model is of another kind, or has another number of
    paragraphs, or another vocabulary size than a given ``vocab_size``, or
    that has no model left, is refused with ``ValueError``; a refused model
    is used up.
    """
    kind = kind.lower()
    models = fit([paragraphs], cfg, (kind,), vocab_size) if trained is None else trained
    model = next(models, None)
    if model is None:
        raise ValueError(f"fit pass is exhausted; it holds no {kind} model")
    if model.kind != kind:
        raise ValueError(f"fit pass yields a {model.kind} model next, not {kind}")
    want = (len(paragraphs), model.vocab_size if vocab_size is None else vocab_size)
    if (model.num_paragraphs, model.vocab_size) != want:
        raise ValueError(
            f"fit pass trained {model.num_paragraphs} paragraphs over "
            f"{model.vocab_size} terms, not {want[0]} over {want[1]}"
        )
    return model


def fit(groups: Sequence[Sequence[TrainingParagraph]], cfg: TrainConfig, kinds: Sequence[str],
        vocab_size: int | None = None) -> Iterator[EmbeddingModel]:
    """Train one model of each of ``kinds`` on each paragraph group, and
    yield them kind-major, each kind's in group order.

    ``kinds`` are distinct and in ``KINDS`` order. Every model is
    bit-identical to ``train(group, cfg, kind, vocab_size)``. Each group is
    validated once, when the first model is asked for; without
    ``vocab_size``, a group's vocabulary is its largest term id + 1. One
    group of DBOW alone is trained in runs of targets that share no row
    (:func:`_runs_fit`); one group with DM by one :func:`_fits` pass over all
    kinds, which takes it faster than batched steps do. Several groups are
    trained one kind at a time, all fits in lockstep (see the module
    docstring), in consecutive waves (:func:`_waves`).
    """
    kinds = tuple(kind.lower() for kind in kinds)
    if not kinds or kinds != tuple(kind for kind in KINDS if kind in kinds):
        raise ValueError(f"kinds must be distinct kinds of {KINDS}, in that order")
    sizes = [_validate_paragraphs(group, vocab_size) for group in groups]
    if len(groups) == 1:
        yield from (_runs_fit if kinds == ("dbow",) else _fits)(groups[0], cfg, kinds, sizes[0])
        return
    waves = _waves(groups, cfg.dim)
    for kind in kinds:
        for wave in waves:
            yield from _lockstep(groups[wave], sizes[wave], cfg, kind)


def _fits(paragraphs: Sequence[TrainingParagraph], cfg: TrainConfig, kinds: tuple[str, ...],
          vocab_size: int) -> Iterator[EmbeddingModel]:
    """Train one model of each of ``kinds`` over validated paragraphs in one
    pass, and yield them in order. Only kind 0, DM, reads a context."""
    s, v, k1, d = len(kinds), vocab_size, cfg.negatives + 1, cfg.dim
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[0])
    # Paragraph p's rows are the block ``para[p]``, kind i's matrix ``para[:, i]``;
    # its out-rows are records from i*(V+1), then a sink row V, as ``word_in``'s last draw is.
    para = np.stack([rng.uniform(-0.5 / d, 0.5 / d, (len(paragraphs), d))] * s, axis=1)
    word_in = rng.uniform(-0.5 / d, 0.5 / d, (v + 1, d)) if kinds[0] == "dm" else None
    word_out = np.zeros((s, v + 1, d))

    tok, pid, par_start = _flatten(paragraphs)
    c = cfg.context_size if kinds[0] == "dm" else 0
    # Every intermediate of a step is written into one of these. Gathers use
    # take(mode="clip"), which fills out= without a temporary; no index clips.
    h, g, sig = np.empty((s, d)), np.empty((s, k1)), _sigmoid_ops((s, k1))
    g_lr, upd, grad_h = np.empty((s, k1)), np.empty((s, k1, d)), np.empty((s, d))
    out_rows, ctx_buf, ctx_sum = np.empty((s, k1, d)), np.empty((c, d)), np.empty(d)
    rate_h, rate_g = np.empty((_CHUNK, s, d)), np.empty((_CHUNK, s, k1))
    rate_rows = tuple(zip(rate_g, rate_h))  # views made once, not per target
    g_col, h_row, h_dm, shared_dm = g_lr[:, :, None], h[:, None, :], h[0], grad_h[0]
    views = tuple(zip(out_rows, h, g, grad_h))  # one kind's 1-D operands each
    out_rec, ctx_recs = _records(out_rows.reshape(s * k1, d)), _records(ctx_buf)
    out_recs, in_recs = _records(word_out).reshape(-1), _records(word_in) if c else None
    # By context length n: its rows of ctx_buf, and 1 + n, an array as a faster divisor.
    ctx_views = [(ctx_buf[:n], np.full(d, 1.0 + n)) for n in range(c + 1)]
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    minimum, copysign, exp, (buf, num, den, zero, minus, one) = np.minimum, np.copysign, np.exp, sig

    with np.errstate(over="ignore", invalid="ignore"):  # a divergence raises in _finished
        for pids, num_ctx, lr, out_r, out_w, out_links, ctx_r, ctx_w, ctx_links, _ in _chunks(
            tok, pid, par_start, v, cfg, c
        ):
            # Only kind 0's predictor shares its gradient with a context; lr / 1 is lr.
            rate_h[: len(lr)] = np.stack([lr / (1 + num_ctx)] + [lr] * (s - 1), axis=1)[:, :, None]
            rate_g[: len(lr)] = -lr[:, None, None]
            for p, nc, (nlr, slr), idx, idx_w, o_links, cr, cw, c_links in zip(
                pids.tolist(), num_ctx.tolist(), rate_rows,
                *(np.hstack([x + i * (v + 1) for i in range(s)]) for x in (out_r, out_w)),
                out_links, ctx_r, ctx_w, ctx_links,
            ):
                rows = para[p]
                h[...] = rows  # read before the rows are updated below
                if nc:
                    ctx_rows, ctx_den = ctx_views[nc]
                    in_recs.take(cr, out=ctx_recs, mode="clip")
                    add(h_dm, add.reduce(ctx_rows, axis=0, out=ctx_sum), out=h_dm)
                    divide(h_dm, ctx_den, out=h_dm)

                out_recs.take(idx, out=out_rec, mode="clip")
                for o_k, h_k, g_k, _ in views:
                    o_k.dot(h_k, out=g_k)
                minimum(g, zero, out=num)  # _sigmoid, inline
                copysign(g, minus, out=den)
                exp(buf, out=buf)
                add(den, one, out=den)
                divide(num, den, out=g)
                for o_k, _, g_k, gh_k in views:
                    g_k[0] -= 1.0  # minus the labels (1, 0, ..., 0)
                    g_k.dot(o_k, out=gh_k)
                multiply(grad_h, slr, out=grad_h)
                multiply(g, nlr, out=g_lr)
                multiply(g_col, h_row, out=upd)
                add(out_rows, upd, out=out_rows)
                for a, b in o_links:
                    add(out_rows[:, a], upd[:, b], out=out_rows[:, b])
                out_recs[idx_w] = out_rec

                subtract(rows, grad_h, out=rows)
                if nc:
                    subtract(ctx_rows, shared_dm, out=ctx_rows)
                    for a, b in c_links:
                        subtract(ctx_buf[a], shared_dm, out=ctx_buf[b])
                    in_recs[cw] = ctx_recs

    for i, kind in enumerate(kinds):  # without the sinks
        dm_in = word_in[:-1] if kind == "dm" else None
        yield _finished(kind, cfg, para[:, i], dm_in, word_out[i, :-1])


def _runs_fit(paragraphs: Sequence[TrainingParagraph], cfg: TrainConfig, kinds: tuple[str, ...],
              vocab_size: int) -> Iterator[EmbeddingModel]:
    """Train and yield the model of ``kinds``, DBOW alone, a step per :func:`_runs` run."""
    d, v, k1 = cfg.dim, vocab_size, cfg.negatives + 1
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[0])
    para = rng.uniform(-0.5 / d, 0.5 / d, (len(paragraphs), d))
    word_out = np.zeros((v + 1, d))  # row V is the sink of superseded slots
    rate_g, rate_h = np.empty((_CHUNK, k1)), np.empty((_CHUNK, d))  # same-shape operands
    chunks = _chunks(*_flatten(paragraphs), v, cfg, 0, _RUN)
    def steps() -> Iterator[tuple]:
        for pids, _, lr, out_r, out_w, links, *_, bounds in chunks:
            rate_g[: len(lr)], rate_h[: len(lr)] = -lr[:, None], lr[:, None]
            out_r, out_w = out_r.ravel(), out_w.ravel()
            for i, j, run_links in zip(bounds[:-1].tolist(), bounds[1:].tolist(), links):
                yield (j - i, pids[i:j], out_r[i * k1 : j * k1], out_w[i * k1 : j * k1], run_links,
                       rate_g[i:j], rate_h[i:j], None)

    _sgd(steps(), _RUN, k1, 0, para, None, word_out)
    yield _finished(kinds[0], cfg, para, None, word_out[:-1])


# Targets per chunk of the lockstep schedule, over all fits: every fit
# takes about _LOCKSTEP_TARGETS / (fits still training) steps per chunk.
_LOCKSTEP_TARGETS = 2048

# Values (rows x dim) of the shared word_out matrix one lockstep wave may
# hold, 4 MiB of float64: groups are trained in consecutive waves of about
# equal size within this bound, so memory does not grow with the number of
# groups. Fewer, wider waves take fewer lockstep steps in all.
_WAVE_VALUES = 2**19

# Lockstep steps per segment, whose negatives a wave draws and maps at once
# (:func:`_negatives`), so they do not grow with the wave's steps.
_SEGMENT = 256


class _Fit:
    """One group's fit in a lockstep wave: its negative weights, its
    step count, and where its rows sit in the shared arrays."""

    def __init__(self, tok, vocab_size, base, row_off, para_off, num_paragraphs, cfg):
        self.terms, counts = np.unique(tok, return_counts=True)
        self.vocab_size = vocab_size
        self.base = base  # flat index of the fit's first target
        self.row_off = row_off  # shared row of self.terms[0]
        self.para_off = para_off  # shared row of the fit's paragraph 0
        self.num_paragraphs = num_paragraphs
        self.num_targets = len(tok)
        self.total_steps = cfg.epochs * len(tok)
        # Maps uniforms to local ids of exactly the terms a sampler over all
        # vocab_size counts draws: the other terms' bins have zero width, and
        # leaving zeros out of a running sum changes none of its values.
        self.sampler = NegativeSampler(counts, cfg.unigram_power)


def _plan(order: Sequence[_Fit], seed_order, total: int) -> np.ndarray:
    """Each lockstep step's flat target for the fits of ``order``, longest
    first, of ``total`` targets in all: a ``(steps, fits)`` array of the
    smallest dtype that holds them, zero past a fit's end."""
    targets = np.zeros((order[0].total_steps, len(order)), np.min_scalar_type(total))
    for col, fit in enumerate(order):
        rng, n = np.random.default_rng(seed_order), fit.num_targets
        for lo in range(0, fit.total_steps, n):  # one permutation per epoch
            targets[lo : lo + n, col] = fit.base + rng.permutation(n)
    return targets


def _negatives(fits: Sequence[_Fit], rng_neg, steps: int, k: int) -> np.ndarray:
    """The local negative ids of the next ``steps`` lockstep steps of
    ``fits``, a ``(steps, fits, k)`` array of the smallest dtype that holds
    them. Every fit draws from one ``seed_neg`` stream, which ``rng_neg``
    reads, and every fit still training has taken as many draws, so the next
    ``steps * k`` draws are each fit's next; a fit that finishes first leaves
    the rest unread. The draw is sorted once, so each fit's weights map it
    with a search over sorted keys, then put back in order."""
    negatives = np.empty((steps, len(fits), k), np.min_scalar_type(max(len(f.terms) for f in fits)))
    uniforms = rng_neg.random(steps * k)
    by = np.argsort(uniforms)
    uniforms = uniforms[by]
    ids = np.empty(steps * k, negatives.dtype)
    for col, fit in enumerate(fits):
        ids[by] = fit.sampler.ids(uniforms)
        negatives[:, col] = ids.reshape(steps, k)
    return negatives


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


def _waves(groups: Sequence[Sequence[TrainingParagraph]], dim: int) -> list[slice]:
    """Consecutive runs of groups for lockstep waves: the fewest runs
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


def _lockstep(groups: Sequence[Sequence[TrainingParagraph]], sizes: Sequence[int],
              cfg: TrainConfig, kind: str) -> Iterator[EmbeddingModel]:
    """Yield one lockstep wave's models in group order, trained by
    :func:`_train_wave`, whose frame, plan and step buffers end before the first yield."""
    fits, init, para, word_in, word_out = _train_wave(groups, sizes, cfg, kind)
    for fit in fits:
        yield _expand(fit, kind, cfg, init, para, word_in, word_out)


def _train_wave(
    groups: Sequence[Sequence[TrainingParagraph]], sizes: Sequence[int], cfg: TrainConfig, kind: str
) -> tuple[list[_Fit], np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """Train one wave's fits in lockstep. Returns the fits and the arrays
    :func:`_expand` reads: the init draw, ``para``, ``word_in``, ``word_out``."""
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
    # Per target over all fits, the shared rows of its term and of its
    # paragraph; per paragraph, the flat index of its first target.
    tok_rows, par_rows, par_firsts, para_parts, in_parts = [], [], [], [], []
    base = row_off = para_off = 0
    for group, size in zip(groups, sizes):
        tok, pid, _ = _flatten(group)
        fit = _Fit(tok, size, base, row_off, para_off, len(group), cfg)
        fits.append(fit)
        tok_rows.append(row_off + np.searchsorted(fit.terms, tok))
        par_rows.append(para_off + pid)
        par_firsts.append(base + np.flatnonzero(np.diff(pid, prepend=-1)))
        para_parts.append(init[: len(group)])
        if kind == "dm":
            in_parts.append(init[len(group) + fit.terms])
        base += len(tok)
        row_off += len(fit.terms)
        para_off += len(group)
    # Each in the narrowest dtype that holds its bound; a chunk's gathers widen them.
    tok_rows, par_rows, par_firsts = (
        np.concatenate(parts, dtype=np.min_scalar_type(bound), casting="unsafe")
        for parts, bound in ((tok_rows, row_off), (par_rows, para_off), (par_firsts, base))
    )
    para = np.concatenate(para_parts)
    # Superseded slots of a repeated row are written to one sink row after
    # the fits' rows, which no model reads. Context slots past a target's
    # context point at the pad row after the fits' rows of word_in, which is
    # set back to +0.0 after every step and serves as its sink.
    sink = pad = row_off
    word_out = np.zeros((row_off + 1, d))
    word_in = np.concatenate(in_parts + [np.zeros((1, d))]) if kind == "dm" else None

    slots = np.arange(c)
    # Longest fit first, so the fits still training are a prefix.
    order = sorted(fits, key=lambda f: -f.total_steps)
    totals = np.array([f.total_steps for f in order])
    row_offs = np.array([f.row_off for f in order], tok_rows.dtype)[:, None]
    plan_targets = _plan(order, seed_order, base)
    rng_neg = np.random.default_rng(seed_neg)

    def steps() -> Iterator[tuple]:  # one target of each live fit, for _sgd
        step = seg_end = 0
        while step < totals[0]:
            active = int(np.count_nonzero(totals > step))
            if step == seg_end:  # a chunk ends at its segment's end
                seg_negs = None  # not held while the next segment is drawn
                seg_start, seg_end = step, int(min(step + _SEGMENT, totals[0]))
                seg_negs = _negatives(order[:active], rng_neg, seg_end - step, k)
            m = int(min(max(1, _LOCKSTEP_TARGETS // active), seg_end - step))
            yield from chunk(step, m, active, seg_negs[step - seg_start :][:m, :active])
            step += m

    def chunk(step: int, m: int, active: int, negs: np.ndarray) -> Iterator[tuple]:
        # Steps [step, step + m) of the active fits, in arrays freed before the next chunk's.
        t = plan_targets[step : step + m, :active].astype(np.int64)
        out_idx = np.empty((m, active, k1), tok_rows.dtype)  # _links widens what it returns
        out_idx[..., 0] = tok_rows[t]
        np.add(negs, row_offs[:active], out=out_idx[..., 1:])
        at = np.arange(step, step + m)[:, None]
        lr = _learning_rates(at, totals[:active], cfg)
        alive = totals[:active] > at
        # A step's live fits, a prefix of its fits, are one run of _links.
        bounds = np.append(0, np.cumsum(np.count_nonzero(alive, axis=1)))

        out_idx, out_w, out_links = _links(out_idx[alive], sink, bounds)
        out_idx, out_w, out_links = out_idx.ravel(), out_w.ravel(), _depths(out_links, m)
        p_rows = par_rows[t].astype(np.int64)
        share_lr = lr  # lr / 1 when no context shares the predictor
        if c:
            ctx_lo = np.maximum(t - c, par_firsts[p_rows])
            num_ctx = t - ctx_lo
            no_ctx = (num_ctx == 0)[..., None]
            share_lr = lr / (1 + num_ctx)
            window = ctx_lo[..., None] + slots
            in_ctx = window < t[..., None]
            ctx_terms = tok_rows[np.minimum(window, t[..., None])].astype(np.int64)
            ctx_idx, ctx_w, ctx_links = _links(np.where(in_ctx, ctx_terms, -1 - slots)[alive],
                                               pad, bounds)
            ctx_idx, ctx_w, ctx_links = ctx_idx.ravel(), ctx_w.ravel(), _depths(ctx_links, m)
            den = (1 + num_ctx)[..., None]
        neg_lr, share_lr = -lr[..., None], share_lr[..., None]
        for j, (i, e) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
            a = e - i
            yield (a, p_rows[j, :a], out_idx[i * k1 : e * k1], out_w[i * k1 : e * k1],
                   out_links[j], neg_lr[j, :a], share_lr[j, :a], c and (ctx_idx[i * c : e * c],
                   ctx_w[i * c : e * c], ctx_links[j], num_ctx[j, :a], den[j, :a], no_ctx[j, :a]))

    _sgd(steps(), len(fits), k1, c, para, word_in, word_out, pad)
    return fits, init, para, word_in, word_out


@np.errstate(over="ignore", invalid="ignore")  # a divergence raises in _finished
def _sgd(steps: Iterator[tuple], width: int, k1: int, c: int, para: np.ndarray,
         word_in: np.ndarray | None, word_out: np.ndarray, pad: int = 0) -> None:
    """Take SGD steps in place over ``a <= width`` targets that share no row each:
    ``(a, p, out_r, out_w, out_links, neg_lr, share_lr, ctx)``, their paragraph rows,
    ``k1`` out-rows each to read and write, :func:`_links`' links as ``(src, dst)``
    slots or slot arrays (:func:`_pairs`, :func:`_depths`), rates ``-lr``
    and ``lr / (1 + context)``, and for ``c`` slots the context's rows to read and write,
    links, lengths, ``1 +`` lengths and emptiness, padded with row ``pad``."""
    d, w = para.shape[1], width
    para_recs, out_recs = _records(para), _records(word_out)
    in_recs = _records(word_in) if c else None
    # Every intermediate of a step is written into one of these. A step of ``a``
    # targets works in views of their ``[:a]`` prefixes, made once per width.
    row_buf, out_buf, upd_buf = np.empty((w, d)), np.empty((w, k1, d)), np.empty((w, k1, d))
    h_buf = np.empty((w, d)) if c else row_buf
    g_buf, grad_buf, ctx_buf = np.empty((w, k1, 1)), np.empty((w, 1, d)), np.empty((w, c, d))
    row_recs, out_recs_buf = _records(row_buf), _records(out_buf.reshape(w * k1, d))
    ctx_recs = _records(ctx_buf.reshape(w * c, d))
    sig_ops = _sigmoid_ops((w, k1))

    @functools.cache
    def views(a: int) -> tuple:
        g3, grad3, h, out_rows, upd = g_buf[:a], grad_buf[:a], h_buf[:a], out_buf[:a], upd_buf[:a]
        g, ctx_rows = g3[:, :, 0], ctx_buf[:a]
        # einsum is faster from 8 targets; its buffer raised a corpus fit's peak RSS
        outer = (np.einsum, ("fi,fd->fid", g, h)) if a >= 8 else (np.multiply, (g3, h[:, None]))
        return (row_buf[:a], row_recs[:a], h, h[:, :, None], out_rows, out_recs_buf[: a * k1],
                out_rows.reshape(a * k1, d), upd, upd.reshape(a * k1, d), g3, g, g[:, None, :],
                g[:, 0], grad3, grad3[:, 0], *outer, *(x[..., :a, :] for x in sig_ops),
                ctx_rows, ctx_recs[: a * c], ctx_rows.reshape(a * c, d))

    add, subtract, multiply, divide, matmul = np.add, np.subtract, np.multiply, np.divide, np.matmul
    minimum, copysign, exp = np.minimum, np.copysign, np.exp
    for a, p, out_idx, out_w, out_links, neg_lr, share_lr, ctx in steps:
        (rows, row_rec, h, h_col, out_rows, out_rec, out_flat, upd, upd_flat, g3, g, g_row, g_pos,
         grad3, grad_h, outer, outer_args, buf, num, den, zero, minus, one, ctx_rows, ctx_rec,
         ctx_flat) = views(a)

        para_recs.take(p, out=row_rec, mode="clip")
        if c:
            ctx_idx, ctx_w, ctx_links, num_ctx, den_ctx, no_ctx = ctx
            in_recs.take(ctx_idx, out=ctx_rec, mode="clip")
            add(rows, _context_sums(ctx_rows, num_ctx), out=h)
            divide(h, den_ctx, out=h)
            np.copyto(h, rows, where=no_ctx)

        out_recs.take(out_idx, out=out_rec, mode="clip")
        matmul(out_rows, h_col, out=g3)
        minimum(g, zero, out=num)  # _sigmoid, inline
        copysign(g, minus, out=den)
        exp(buf, out=buf)
        add(den, one, out=den)
        divide(num, den, out=g)
        subtract(g_pos, 1.0, out=g_pos)  # minus the labels (1, 0, ..., 0)
        matmul(g_row, out_rows, out=grad3)
        multiply(g, neg_lr, out=g)
        outer(*outer_args, out=upd)
        add(out_rows, upd, out=out_rows)
        for src, dst in out_links:  # take gathers a lockstep depth faster than indexing
            out_flat[dst] = out_flat.take(src, 0, mode="clip") + upd_flat.take(dst, 0, mode="clip")
        out_recs[out_w] = out_rec

        multiply(grad_h, share_lr, out=grad_h)
        subtract(rows, grad_h, out=rows)
        para_recs[p] = row_rec
        if c:
            subtract(ctx_rows, grad3, out=ctx_rows)
            for src, dst in ctx_links:
                ctx_flat[dst] = ctx_flat[src] - grad_h[dst // c]
            in_recs[ctx_w] = ctx_rec
            word_in[pad] = 0.0
            del ctx_idx, ctx_w, ctx_links, num_ctx, den_ctx, no_ctx
        del p, out_idx, out_w, out_links, neg_lr, share_lr, ctx  # views that keep a chunk alive


def _expand(fit: _Fit, kind: str, cfg: TrainConfig, init: np.ndarray, para: np.ndarray,
            word_in: np.ndarray | None, word_out: np.ndarray) -> EmbeddingModel:
    """A lockstep fit as the model ``train`` returns: the rows of terms the
    fit never saw keep their initial values, zero in ``word_out`` and the
    seeded draw in ``word_in``. Those are finite, so only the fit's own rows
    are checked."""
    rows = slice(fit.row_off, fit.row_off + len(fit.terms))
    para_matrix = para[fit.para_off : fit.para_off + fit.num_paragraphs].copy()
    own_in = full_in = None
    if kind == "dm":
        full_in = init[fit.num_paragraphs : fit.num_paragraphs + fit.vocab_size].copy()
        full_in[fit.terms] = own_in = word_in[rows]
    full_out = np.zeros((fit.vocab_size, cfg.dim))
    full_out[fit.terms] = own_out = word_out[rows]
    return _finished(kind, cfg, para_matrix, full_in, full_out, (para_matrix, own_in, own_out))


# ---------------------------------------------------------------------------
# Persistence

_HEADER = struct.Struct("<4sBBIIII")


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    """Write the model in the flat binary layout documented at module level.

    The file is written as ``path.part`` and renamed onto ``path``, never
    truncated in place: ``path`` may be mapped by a model :func:`load_model`
    returned, ``model`` itself included."""
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        KINDS.index(model.kind),
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
        for mat in matrices:  # from the array's own buffer; a strided view is copied
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
        if kind_code >= len(KINDS):
            raise ValueError(f"{path}: unknown model kind code {kind_code}")
        kind = KINDS[kind_code]
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
) -> list[TrainingParagraph]:
    """Turn a corpus into training paragraphs: for each document, the whole
    document first, then each of its sentences. So a document's rows form
    one span, which :func:`paragraph_index` locates."""
    return [
        TrainingParagraph(tuple(vocab.ids(tokens)))
        for doc in docs
        for tokens in (doc.all_tokens(), *(sent.tokens for sent in doc.sentences))
    ]


def paragraph_index(docs: Sequence[Document]) -> dict[str, int]:
    """Each document's first row in :func:`build_training_paragraphs`' layout,
    from sentence counts alone. Its rows are ``[first, first + 1 + n)`` for
    n sentences: the document's row, then one row per sentence."""
    index: dict[str, int] = {}
    first = 0
    for doc in docs:
        index[doc.id] = first
        first += 1 + len(doc.sentences)
    return index

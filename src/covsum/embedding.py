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
seed, config, and input produce an identical model. The loop is exact
per-target SGD in which only the bookkeeping is batched: targets are taken in
chunks, each with one negative-sampler draw, one array of learning rates and
vectorised flags for targets whose negatives or context repeat a row (those
scatter with ``np.add.at``, the rest assign their rows). The result is
bit-identical to the one-target-at-a-time loop kept as
``oracles.train_reference``; ``test_train_matches_per_target_reference`` in
``tests/test_embedding.py`` guards this with ``==`` on every matrix.

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
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Document, Vocabulary

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
        if not self.learning_rate > 0.0:
            raise ValueError("learning_rate must be > 0")


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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so exp
    # never overflows.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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
    max_id = max(max(par.tokens) for par in paragraphs)
    if vocab_size is None:
        return max_id + 1
    if max_id >= vocab_size:
        raise ValueError(f"term id {max_id} >= vocab size {vocab_size}")
    return vocab_size


def train(
    paragraphs: Sequence[TrainingParagraph],
    cfg: TrainConfig,
    kind: str,
    vocab_size: int | None = None,
) -> EmbeddingModel:
    """Run seeded SGD over all (paragraph, position) targets.

    Each target takes one positive update against the target word's
    out-vector and ``cfg.negatives`` negative updates against sampled
    out-vectors; the sampled stream may repeat the target itself. Target
    order is reshuffled every epoch from the seeded generator.
    """
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}")
    vocab_size = _validate_paragraphs(paragraphs, vocab_size)

    d = cfg.dim
    seq = np.random.SeedSequence(cfg.seed)
    seed_init, seed_order, seed_neg = seq.spawn(3)
    rng_init = np.random.default_rng(seed_init)
    rng_order = np.random.default_rng(seed_order)

    num_paragraphs = len(paragraphs)
    para_matrix = rng_init.uniform(-0.5 / d, 0.5 / d, (num_paragraphs, d))
    word_in = rng_init.uniform(-0.5 / d, 0.5 / d, (vocab_size, d)) if kind == "dm" else None
    word_out = np.zeros((vocab_size, d))

    lengths = np.array([len(p.tokens) for p in paragraphs])
    tok = np.concatenate([np.asarray(p.tokens, dtype=np.int64) for p in paragraphs])
    pid = np.repeat(np.arange(num_paragraphs), lengths)
    # Flat index of the first token of each target's paragraph.
    par_start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    sampler = NegativeSampler(
        np.bincount(tok, minlength=vocab_size), cfg.unigram_power, seed_neg
    )

    num_targets = len(tok)
    total_steps = cfg.epochs * num_targets
    lr_start, lr_end = cfg.learning_rate, cfg.learning_rate / 100.0
    k = cfg.negatives
    c = cfg.context_size if kind == "dm" else 0

    labels = np.zeros(k + 1)
    labels[0] = 1.0
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
            if total_steps > 1:
                steps = np.arange(step, step + m)
                lr = lr_start + (lr_end - lr_start) * (steps / (total_steps - 1))
            else:
                lr = np.full(m, lr_start)
            step += m

            out_idx = np.empty((m, k + 1), dtype=np.int64)
            out_idx[:, 0] = tok[t]
            out_idx[:, 1:] = sampler.draw(k * m).reshape(m, k)
            out_repeats = _has_repeat(out_idx)

            ctx_lo = np.maximum(t - c, par_start[t])
            num_ctx = t - ctx_lo
            window = t[:, None] - ctx_back
            ctx_repeats = _has_repeat(
                np.where(window >= ctx_lo[:, None], tok[np.maximum(window, 0)], ctx_pad)
            )
            share_lr = lr / (1 + num_ctx)

            for p, ti, ci, nc, nlr, slr, idx, out_rep, ctx_rep in zip(
                pid[t].tolist(),
                t.tolist(),
                ctx_lo.tolist(),
                num_ctx.tolist(),
                (-lr).tolist(),
                share_lr.tolist(),
                out_idx,
                out_repeats.tolist(),
                ctx_repeats.tolist(),
            ):
                row = para_matrix[p]
                if nc:
                    ctx = tok[ci:ti]
                    ctx_rows = word_in[ctx]
                    h = (row + ctx_rows.sum(axis=0)) / (1 + nc)
                else:
                    h = row  # a view: read before the row is updated below

                out_rows = word_out[idx]
                g = _sigmoid(np.dot(out_rows, h)) - labels
                grad_h = np.dot(g, out_rows)
                upd = (nlr * g)[:, None] * h
                if out_rep:
                    np.add.at(word_out, idx, upd)
                else:
                    word_out[idx] = out_rows + upd

                shared = slr * grad_h
                row -= shared
                if nc:
                    if ctx_rep:
                        np.add.at(word_in, ctx, -shared)
                    else:
                        word_in[ctx] = ctx_rows - shared

    for name, mat in (("para", para_matrix), ("word_in", word_in), ("word_out", word_out)):
        if mat is not None and not np.isfinite(mat).all():
            raise ArithmeticError(f"{name} matrix diverged; lower the learning rate")

    return EmbeddingModel(
        kind=kind,
        para_matrix=para_matrix,
        word_out=word_out,
        word_in=word_in,
        context_size=cfg.context_size if kind == "dm" else 0,
    )


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
        labels = np.zeros(len(idx))
        labels[0] = 1.0
        rows = model.word_out[idx]
        g = _sigmoid(rows @ h) - labels
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
    """Write the model in the flat binary layout documented at module level."""
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        _KIND_CODES[model.kind],
        model.context_size,
        model.vocab_size,
        model.num_paragraphs,
        model.dim,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(model.para_matrix, dtype=np.float64).tobytes())
        if model.kind == "dm":
            fh.write(np.ascontiguousarray(model.word_in, dtype=np.float64).tobytes())
        fh.write(np.ascontiguousarray(model.word_out, dtype=np.float64).tobytes())


def load_model(path: str | Path) -> EmbeddingModel:
    """Inverse of :func:`save_model`; round-trips are lossless."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size or raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a model file")
    magic, version, kind_code, context_size, v, p, d = _HEADER.unpack_from(raw)
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported model version {version}")
    kind = _CODE_KINDS.get(kind_code)
    if kind is None:
        raise ValueError(f"{path}: unknown model kind code {kind_code}")

    offset = _HEADER.size

    def take(rows: int) -> np.ndarray:
        nonlocal offset
        count = rows * d
        if offset + count * 8 > len(raw):
            raise ValueError(f"{path}: truncated model file")
        block = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        offset += count * 8
        return block.reshape(rows, d).copy()

    para_matrix = take(p)
    word_in = take(v) if kind == "dm" else None
    word_out = take(v)
    if offset != len(raw):
        raise ValueError(f"{path}: trailing bytes in model file")

    return EmbeddingModel(
        kind=kind,
        para_matrix=para_matrix,
        word_out=word_out,
        word_in=word_in,
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
    index: dict[str, ParagraphIds] = {}
    for doc in docs:
        doc_pid = len(paragraphs)
        paragraphs.append(
            TrainingParagraph(doc_pid, tuple(vocab.ids(doc.all_tokens())))
        )
        sent_ids = []
        for sent in doc.sentences:
            pid = len(paragraphs)
            paragraphs.append(TrainingParagraph(pid, tuple(vocab.ids(sent.tokens))))
            sent_ids.append(pid)
        index[doc.id] = ParagraphIds(document=doc_pid, sentences=tuple(sent_ids))
    return paragraphs, index

"""Runnable self-diagnostics.

Each check here is an executable statement about the library: the greedy
engine agrees with a brute-force oracle, probabilities behave like
probabilities, analytic gradients match finite differences, coverage-aware
selection beats pure relevance on the bundled planted corpus, and the
pipeline's train, summarize and evaluate stages are bytewise deterministic.
The CLI ``selftest`` subcommand runs all of them and prints one line per
check; the test suite runs the same functions.
"""

from __future__ import annotations

import functools
import importlib.resources
import io
import math
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import oracles
from .corpus import CorpusError, Document, build_vocabulary, load_corpus, save_corpus
from .embedding import EmbeddingModel, TrainingParagraph
from .harness import build_experiment_config, cmd_evaluate, cmd_summarize, cmd_train
from .rouge import evaluate, lcs_length, rouge_l, rouge_n
from .selection import (
    DocView,
    SelectorConfig,
    build_docview,
    greedy_select,
    sentence_given_subtheme,
    subtheme_coverage,
    subtheme_given_doc,
    summary_sentences,
)
from .synthetic import random_documents

ORACLE_SEED = 101
ORACLE_DOCS = 50
ALPHAS = (0.0, 0.5, 1.0, 5.0)
RATIOS = (0.10, 0.5)


def load_bundled_corpus() -> list[Document]:
    """Load the selftest corpus shipped inside the package."""
    ref = importlib.resources.files("covsum").joinpath("data/selftest_corpus.jsonl")
    if not ref.is_file():
        raise CorpusError("bundled selftest corpus covsum/data/selftest_corpus.jsonl is missing")
    with importlib.resources.as_file(ref) as path:
        return load_corpus(path)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class _Failed(Exception):
    """A check's statement does not hold; the message is the check's detail."""


def _check(name: str, seconds: float = math.inf):
    """Make a check body into the check ``name``, the only code that builds
    a :class:`CheckResult`. The body returns its success detail, which
    fails if the body took ``seconds`` or longer; it raises :class:`_Failed`
    with its failure detail; any other exception is ``crashed: <exception>``."""

    def wrap(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            try:
                detail = body(*args, **kwargs)
            except _Failed as exc:
                return CheckResult(name, False, str(exc))
            except Exception as exc:
                return CheckResult(name, False, f"crashed: {exc!r}")
            return CheckResult(name, time.perf_counter() - start < seconds, detail)

        return check

    return wrap


def _oracle_views() -> list[DocView]:
    docs = random_documents(ORACLE_DOCS, seed=ORACLE_SEED)
    vocab = build_vocabulary(docs)
    return [build_docview(d, "BOW", vocab) for d in docs]


@_check("greedy-oracle-equivalence", seconds=10.0)
def check_greedy_matches_oracle() -> str:
    """Every per-step pick (and score) of the engine equals the brute-force
    evaluator's, across methods, alphas, and two budgets."""
    runs = 0
    for view in _oracle_views():
        for method in ("MMR", "XDTD", "JXDTD"):
            for alpha in ALPHAS:
                for ratio in RATIOS:
                    got = greedy_select(
                        view, SelectorConfig(method=method, alpha=alpha, ratio=ratio)
                    )
                    want_sel, want_scores = oracles.brute_force_select(
                        view.rel, view.sim, list(view.word_counts), method, alpha, ratio
                    )
                    where = f"{view.doc_id} {method} alpha={alpha} ratio={ratio}"
                    if list(got.selected) != want_sel:
                        raise _Failed(
                            f"pick mismatch: {where}: {list(got.selected)} != {want_sel}"
                        )
                    if list(got.scores) != [float(s) for s in want_scores]:
                        raise _Failed(f"score mismatch: {where}")
                    runs += 1
    return f"{runs} selections agree with the oracle"


@_check("first-pick-reduction")
def check_first_pick_reduction() -> str:
    """With nothing selected yet the joint model's dissatisfaction factor is
    an empty product, so its first pick must equal the plain sub-theme
    model's first pick."""
    compared = 0
    for view in _oracle_views():
        for alpha in ALPHAS:
            x = greedy_select(view, SelectorConfig(method="XDTD", alpha=alpha))
            j = greedy_select(view, SelectorConfig(method="JXDTD", alpha=alpha))
            if x.selected[0] != j.selected[0]:
                raise _Failed(
                    f"{view.doc_id} alpha={alpha}: XDTD first pick "
                    f"{x.selected[0]} != JXDTD first pick {j.selected[0]}"
                )
            compared += 1
    return f"{compared} first picks identical"


@_check("probability-invariants")
def check_probability_invariants(docs: list[Document] | None = None) -> str:
    """Sub-theme weights sum to 1, similarity columns normalize to 0 or 1,
    coverage and dissatisfaction stay inside [0, 1], and dissatisfaction
    never increases as the selection grows."""
    docs = docs if docs is not None else load_bundled_corpus()
    vocab = build_vocabulary(docs)
    tol = 1e-9
    for doc in docs:
        view = build_docview(doc, "BOW", vocab)
        p_sent = sentence_given_subtheme(view.sim)
        p_theme = subtheme_given_doc(view.rel)
        n = len(view.rel)
        if abs(float(np.sum(p_theme)) - 1.0) > tol:
            raise _Failed(f"{doc.id}: P(T|D) does not sum to 1")
        colsums = p_sent.sum(axis=0)
        bad = np.flatnonzero((np.abs(colsums) > tol) & (np.abs(colsums - 1.0) > tol))
        if bad.size:
            raise _Failed(f"{doc.id}: column {bad[0]} sums to {colsums[bad[0]]}")
        picks = greedy_select(
            view, SelectorConfig(method="JXDTD", alpha=1.0, ratio=0.4)
        ).selected
        xdtd = subtheme_coverage(p_sent, p_theme, np.ones(n))
        prev = np.ones(n)
        for t in range(len(picks) + 1):
            dis = oracles.dissatisfaction(p_sent, list(picks[:t]))
            if np.any(dis < 0.0) or np.any(dis > 1.0):
                raise _Failed(f"{doc.id}: dissatisfaction outside [0,1]")
            if np.any(dis > prev):
                raise _Failed(f"{doc.id}: dissatisfaction increased")
            for cov in (xdtd, subtheme_coverage(p_sent, p_theme, dis)):
                if not ((cov >= 0.0) & (cov <= 1.0 + tol)).all():
                    raise _Failed(f"{doc.id}: coverage {cov.min()}..{cov.max()} outside [0,1]")
            prev = dis
    return f"{len(docs)} documents satisfy all invariants"


@_check("rouge-golden-and-lcs", seconds=5.0)
def check_rouge_golden() -> str:
    """Hand-derived ROUGE values, plus LCS against the exponential oracle
    (exhaustive over short sequences, sampled at lengths 5-7)."""
    tol = 1e-9
    if abs(rouge_n(["a", "b", "c"], ["a", "b", "d"], 1).f - 2.0 / 3.0) > tol:
        raise _Failed("unigram golden case failed")
    if abs(rouge_l(["a", "c", "b"], ["a", "b", "c"]).f - 2.0 / 3.0) > tol:
        raise _Failed("LCS golden case failed")

    symbols = ("x", "y", "z")
    short: list[tuple[str, ...]] = [()]
    frontier: list[tuple[str, ...]] = [()]
    for _ in range(4):
        frontier = [s + (c,) for s in frontier for c in symbols]
        short.extend(frontier)
    pairs = 0
    for a in short:
        for b in short:
            if lcs_length(a, b) != oracles.lcs_exponential(list(a), list(b)):
                raise _Failed(f"LCS mismatch on {a!r} vs {b!r}")
            pairs += 1
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        a = [symbols[i] for i in rng.integers(0, 3, int(rng.integers(5, 8)))]
        b = [symbols[i] for i in rng.integers(0, 3, int(rng.integers(5, 8)))]
        if lcs_length(a, b) != oracles.lcs_exponential(a, b):
            raise _Failed(f"LCS mismatch on {a!r} vs {b!r}")
        pairs += 1
    return f"golden cases and {pairs} LCS oracle pairs"


@_check("embedding-gradients", seconds=5.0)
def check_gradients() -> str:
    """Analytic negative-sampling gradients vs central differences on random
    tiny models of both kinds."""
    rng = np.random.default_rng(7)
    step = 1e-4
    worst = 0.0
    for trial in range(20):
        kind = "dm" if trial % 2 == 0 else "dbow"
        d = int(rng.integers(2, 6))
        vocab_size = int(rng.integers(4, 11))
        n_paras = int(rng.integers(1, 4))
        ctx = int(rng.integers(0, 3)) if kind == "dm" else 0
        paras = [
            TrainingParagraph(
                tuple(int(t) for t in rng.integers(0, vocab_size, int(rng.integers(1, 7))))
            )
            for _ in range(n_paras)
        ]
        model = EmbeddingModel(
            kind=kind,
            para_matrix=rng.normal(0.0, 1.0, (n_paras, d)),
            word_out=rng.normal(0.0, 1.0, (vocab_size, d)),
            word_in=rng.normal(0.0, 1.0, (vocab_size, d)) if kind == "dm" else None,
            context_size=ctx,
        )
        items = [
            (pi, j, tuple(int(x) for x in rng.integers(0, vocab_size, 3)))
            for pi, par in enumerate(paras)
            for j in range(len(par.tokens))
        ]
        grads = oracles.negative_sampling_gradients(model, paras, items)
        mats = (model.para_matrix, model.word_in, model.word_out)
        for mat, grad in zip(mats, grads):
            if mat is None:
                continue
            for idx in np.ndindex(mat.shape):
                orig = mat[idx]
                mat[idx] = orig + step
                up = oracles.negative_sampling_loss(model, paras, items)
                mat[idx] = orig - step
                down = oracles.negative_sampling_loss(model, paras, items)
                mat[idx] = orig
                fd = (up - down) / (2.0 * step)
                err = abs(grad[idx] - fd) / max(abs(grad[idx]) + abs(fd), 1e-3)
                worst = max(worst, err)
    detail = f"max relative error {worst:.2e} over 20 models"
    if not worst < 1e-4:
        raise _Failed(detail)
    return detail


@_check("dbow-invariances")
def check_dbow_invariances() -> str:
    """The DBOW objective ignores word order (exactly, with negatives pinned
    to their tokens), and a DM predictor with no context is bitwise the
    paragraph vector, i.e. DBOW's predictor."""
    rng = np.random.default_rng(19)
    par = TrainingParagraph(tuple(int(t) for t in rng.integers(0, 6, 9)))
    dbow = EmbeddingModel(
        kind="dbow",
        para_matrix=rng.normal(0.0, 1.0, (1, 8)),
        word_out=rng.normal(0.0, 1.0, (6, 8)),
        word_in=None,
        context_size=0,
    )
    negs = [tuple(int(x) for x in rng.integers(0, 6, 3)) for _ in par.tokens]
    items = [(0, j, negs[j]) for j in range(len(par.tokens))]
    perm = [int(p) for p in rng.permutation(len(par.tokens))]
    par_permuted = TrainingParagraph(tuple(par.tokens[p] for p in perm))
    items_permuted = [(0, j, negs[perm[j]]) for j in range(len(par.tokens))]

    loss_a = oracles.negative_sampling_loss(dbow, [par], items)
    loss_b = oracles.negative_sampling_loss(dbow, [par_permuted], items_permuted)
    if loss_a != loss_b:
        raise _Failed(f"permuted loss differs: {loss_a} != {loss_b}")
    if oracles.positive_pair_loss(dbow, [par]) != oracles.positive_pair_loss(dbow, [par_permuted]):
        raise _Failed("positive objective differs")

    dm = EmbeddingModel(
        kind="dm",
        para_matrix=dbow.para_matrix,
        word_out=dbow.word_out,
        word_in=rng.normal(0.0, 1.0, (6, 8)),
        context_size=0,
    )
    for j in range(len(par.tokens)):
        h_dm = oracles.dm_context(dm, par, 0, j)
        h_db = oracles.dm_context(dbow, par, 0, j)
        if not (np.array_equal(h_dm, dbow.para_matrix[0]) and np.array_equal(h_db, h_dm)):
            raise _Failed(f"predictor at position {j} not bitwise equal")
    return "objective permutation-exact; zero-context predictors bitwise equal"


def _duplicate_view() -> DocView:
    """A {u, u, w} document with orthogonal u and w, as DBOW paragraph rows."""
    rows = np.array(
        [[0.6, 0.5, math.sqrt(0.39)], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    )
    model = EmbeddingModel(
        kind="dbow", para_matrix=rows, word_out=np.zeros((1, 3)), word_in=None, context_size=0
    )
    return build_docview(Document("dup", (("u",), ("u",), ("w",))), "DBOW", model=model, para_row=0)


@_check("duplicate-suppression")
def check_duplicate_suppression() -> str:
    """On a {u, u, w} document with orthogonal u and w, pure relevance takes
    the duplicate second; redundancy- and dissatisfaction-aware coverage
    switch to w."""
    view = _duplicate_view()
    picks = {}
    for method in ("RELEVANCE_ONLY", "MMR", "JXDTD"):
        got = greedy_select(view, SelectorConfig(method=method, alpha=1.0, ratio=0.5))
        picks[method] = tuple(got.selected)
    want = {"RELEVANCE_ONLY": (0, 1), "MMR": (0, 2), "JXDTD": (0, 2)}
    if picks != want:
        raise _Failed(f"picks {picks} != {want}")
    return "relevance keeps the duplicate; MMR and JXDTD switch to w"


@_check("coverage-beats-relevance", seconds=30.0)
def check_coverage_beats_relevance(docs: list[Document] | None = None) -> str:
    """On the planted corpus, both sub-theme coverage models must beat pure
    relevance on mean unigram F."""
    docs = docs if docs is not None else load_bundled_corpus()
    vocab = build_vocabulary(docs)
    means = {}
    for method in ("RELEVANCE_ONLY", "XDTD", "JXDTD"):
        scores = []
        for doc in docs:
            view = build_docview(doc, "BOW", vocab)
            got = greedy_select(view, SelectorConfig(method=method, alpha=1.0, ratio=0.10))
            scores.append(evaluate(summary_sentences(view, got), doc.references).rouge1.f)
        means[method] = float(np.mean(scores))
    x_margin = means["XDTD"] - means["RELEVANCE_ONLY"]
    j_margin = means["JXDTD"] - means["RELEVANCE_ONLY"]
    detail = (
        f"mean R1-F rel={means['RELEVANCE_ONLY']:.3f} "
        f"xdtd={means['XDTD']:.3f} (+{x_margin:.3f}) "
        f"jxdtd={means['JXDTD']:.3f} (+{j_margin:.3f})"
    )
    if not (x_margin > 0.0 and j_margin > 0.0):
        raise _Failed(detail)
    return detail


@_check("determinism")
def check_determinism(docs: list[Document] | None = None) -> str:
    """Two identically seeded runs of the train, summarize and evaluate
    stages, on the first four documents and the full grid, write identical
    files. They run in a temporary directory, and the stages' messages,
    which name its paths, are dropped."""
    docs = docs if docs is not None else load_bundled_corpus()
    trees = []
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(io.StringIO()):
        corpus = Path(tmp) / "corpus.jsonl"
        save_corpus(docs[:4], corpus)
        for run in ("a", "b"):
            out = Path(tmp) / run
            config = build_experiment_config({
                "corpus": str(corpus), "out": str(out), "seed": "3", "embed.dim": "12",
                "embed.context_size": "2", "embed.epochs": "2", "embed.negatives": "3",
            })
            cmd_train(config)
            cmd_summarize(config)
            cmd_evaluate(config)
            trees.append({
                p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()
            })
    first, second = trees
    if first != second:
        raise _Failed("reruns differ")
    size = sum(len(data) for data in first.values())
    return f"two runs wrote {len(first)} identical files, {size} bytes"


def run_all(docs: list[Document] | None = None) -> list[CheckResult]:
    """Run every check; a crash inside one is its failed result."""
    docs = docs if docs is not None else load_bundled_corpus()
    return [
        check_greedy_matches_oracle(),
        check_first_pick_reduction(),
        check_probability_invariants(docs),
        check_rouge_golden(),
        check_gradients(),
        check_dbow_invariances(),
        check_duplicate_suppression(),
        check_coverage_beats_relevance(docs),
        check_determinism(docs),
    ]


def cmd_selftest() -> int:
    """Run the built-in diagnostics against the bundled corpus; 0 iff all pass."""
    results = run_all(load_bundled_corpus())
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status} {result.name}: {result.detail}")
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1

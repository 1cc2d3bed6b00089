"""Correctness checks on one benchmark round's outputs.

Every check recomputes what it compares from the generated corpus records
and the documented file formats, with code that shares nothing with covsum:

    summaries   picks distinct and in range, budget = ceil(ratio * words),
                words_used = sum of picked word counts, stop at the first pick
                that reaches the budget
    replay      relevance and similarity rebuilt with numpy (TF-IDF cosine
                for BOW, cosine of the model file's paragraph rows for DM and
                DBOW, the mean of both for concatenations), then a greedy pass
                per method that must agree with every pick and score
    rouge       ROUGE-1/2 from multiset intersections and ROUGE-L from a
                bit-parallel LCS, against per_document.jsonl and the
                4-decimal means of results.tsv
    models      file size matches the header, header matches the corpus,
                and the mean negative-sampling loss over the training
                targets is below its value at initialisation
    hashes      every round of a run writes byte-identical outputs

Each check is one operation of the benchmark; a failed check makes the run
report ``correct: false``.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# rel/sim are rebuilt in another summation order than covsum's (BLAS dot
# products against math.fsum), which moves them by a few ulps; scores are
# sums of a handful of such terms, all in [0, 2].
SCORE_TOL = 1e-9
ROUGE_TOL = 1e-12
TSV_TOL = 0.5e-4 + 1e-9  # results.tsv rounds means to 4 decimals

HEADER = struct.Struct("<4sBBIIII")


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


class Inputs:
    """The generated corpus as the checks see it: token lists and term ids
    assigned in covsum's documented order (first seen in document text,
    then reference-only terms)."""

    def __init__(self, records: list[dict]) -> None:
        self.records = records
        self.ids = [r["id"] for r in records]
        term_ids: dict[str, int] = {}
        df: list[int] = []
        for r in records:
            seen = set()
            for sent in r["sentences"]:
                for tok in sent:
                    seen.add(term_ids.setdefault(tok, len(term_ids)))
                    if len(df) < len(term_ids):
                        df.append(0)
            for t in seen:
                df[t] += 1
        for r in records:
            for ref in r["references"]:
                for sent in ref:
                    for tok in sent:
                        if tok not in term_ids:
                            term_ids[tok] = len(term_ids)
                            df.append(1)
        self.term_ids = term_ids
        self.idf = np.log(len(records) / np.asarray(df, dtype=np.float64))

    @property
    def vocab_size(self) -> int:
        return len(self.idf)

    def paragraphs(self, index: int) -> list[list[int]]:
        """Training paragraphs of one document: the whole text, then each sentence."""
        sents = [[self.term_ids[t] for t in s] for s in self.records[index]["sentences"]]
        return [[t for s in sents for t in s], *sents]


# ---------------------------------------------------------------------------
# models


class ModelError(ValueError):
    pass


def read_model(path: Path) -> dict:
    """Parse a .cvem file by its documented layout; the size must match the header."""
    raw = path.read_bytes()
    if len(raw) < HEADER.size:
        raise ModelError(f"{path.name}: {len(raw)} bytes, shorter than a header")
    magic, version, kind_code, context, vocab, paras, dim = HEADER.unpack_from(raw)
    if magic != b"CVEM" or version != 1 or kind_code not in (0, 1):
        raise ModelError(f"{path.name}: bad header {magic!r} v{version} kind {kind_code}")
    kind = "dm" if kind_code == 0 else "dbow"
    rows = paras + vocab * (2 if kind == "dm" else 1)
    if len(raw) != HEADER.size + rows * dim * 8:
        raise ModelError(
            f"{path.name}: {len(raw)} bytes, header says {HEADER.size + rows * dim * 8}"
        )
    data = np.frombuffer(raw, dtype="<f8", offset=HEADER.size).reshape(rows, dim)
    word_in = data[paras : paras + vocab] if kind == "dm" else None
    return {"kind": kind, "context": context, "vocab": vocab, "paras": paras,
            "dim": dim, "para": data[:paras], "word_in": word_in, "word_out": data[-vocab:]}


def mean_loss(model: dict, paragraphs: list[list[int]], negatives: int) -> float:
    """Mean negative-sampling loss per training target, with the negative
    term taken in expectation over the unigram**0.75 noise distribution
    instead of from a draw, so the figure carries no sampling noise.

    At initialisation every out-vector is zero, every score 0 and the loss
    exactly (negatives + 1) * ln 2; training must bring it below that.
    """
    para, word_in, c = model["para"], model["word_in"], model["context"]
    targets = [(p, j) for p, toks in enumerate(paragraphs) for j in range(len(toks))]
    h = np.empty((len(targets), model["dim"]))
    for t, (p, j) in enumerate(targets):
        ctx = paragraphs[p][max(0, j - c) : j] if model["kind"] == "dm" else []
        h[t] = (para[p] + word_in[ctx].sum(axis=0)) / (1 + len(ctx)) if ctx else para[p]
    counts = np.bincount([t for toks in paragraphs for t in toks], minlength=model["vocab"])
    noise = np.flatnonzero(counts)
    q = counts[noise] ** 0.75
    q /= q.sum()
    out = model["word_out"]
    pos = np.array([paragraphs[p][j] for p, j in targets])
    total = np.logaddexp(0.0, -np.einsum("td,td->t", out[pos], h)).sum()
    for lo in range(0, len(targets), 1024):  # (targets x noise words) in slices
        scores = h[lo : lo + 1024] @ out[noise].T
        total += negatives * (np.logaddexp(0.0, scores) @ q).sum()
    return float(total / len(targets))


# ---------------------------------------------------------------------------
# relevance / similarity and the greedy replay


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    return np.divide(mat, norms, out=np.zeros_like(mat), where=norms > 0)


def _cosines(doc_vec: np.ndarray, sent_vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rows = _unit_rows(np.vstack([doc_vec, sent_vecs]))
    return rows[1:] @ rows[0], rows[1:] @ rows[1:].T


def bow_cosines(inputs: Inputs, index: int) -> tuple[np.ndarray, np.ndarray]:
    """Raw TF-IDF cosines (sentence-document, sentence-sentence) of one document."""
    sents = inputs.paragraphs(index)[1:]
    local = sorted({t for s in sents for t in s})
    col = {t: i for i, t in enumerate(local)}
    tf = np.zeros((len(sents), len(local)))
    for i, s in enumerate(sents):
        for t in s:
            tf[i, col[t]] += 1.0
    weights = inputs.idf[local]
    return _cosines(tf.sum(axis=0) * weights, tf * weights)


def dense_cosines(model: dict, doc_row: int, n_sent: int) -> tuple[np.ndarray, np.ndarray]:
    para = model["para"]
    return _cosines(para[doc_row], para[doc_row + 1 : doc_row + 1 + n_sent])


def tables(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Mean of per-part cosines, clamped into [0, 1] once."""
    rel = sum(p[0] for p in parts) / len(parts)
    sim = sum(p[1] for p in parts) / len(parts)
    return np.clip(rel, 0.0, 1.0), np.clip(sim, 0.0, 1.0)


def replay(rel: np.ndarray, sim: np.ndarray, method: str, alpha: float,
           picks: list[int], scores: list[float]) -> str | None:
    """Walk the recorded picks; each must score within SCORE_TOL of the best
    remaining candidate and of its recorded score. Following the recorded
    pick lets a near-tie resolve either way. Returns a reason or None."""
    n = len(rel)
    mass = sim.sum(axis=0)
    p_s_t = np.divide(sim, mass, out=np.zeros_like(sim), where=mass > 0)
    p_t = rel / rel.sum() if rel.sum() > 0 else np.full(n, 1.0 / n)
    remaining = np.ones(n, dtype=bool)
    dis = np.ones(n)
    chosen: list[int] = []
    for step, (pick, recorded) in enumerate(zip(picks, scores)):
        if method == "RELEVANCE_ONLY":
            cov = np.zeros(n)
        elif method == "MMR":
            cov = -sim[chosen].mean(axis=0) if chosen else np.zeros(n)
        elif method == "XDTD":
            cov = p_s_t @ p_t
        else:
            cov = p_s_t @ (dis * p_t)
        score = rel + alpha * cov
        best = score[remaining].max()
        if score[pick] < best - SCORE_TOL:
            return f"step {step}: pick {pick} scores {score[pick]!r}, best is {best!r}"
        if abs(score[pick] - recorded) > SCORE_TOL:
            return f"step {step}: pick {pick} recorded {recorded!r}, recomputed {score[pick]!r}"
        remaining[pick] = False
        chosen.append(pick)
        dis = dis * (1.0 - p_s_t[pick])
    return None


def record_problem(record: dict, words: list[int], ratio: float) -> str | None:
    """The budget rule every method shares, checked on one summary record."""
    picks = record["selected"]
    if len(set(picks)) != len(picks) or not all(0 <= p < len(words) for p in picks):
        return f"picks {picks} not distinct and within 0..{len(words) - 1}"
    if len(record["scores"]) != len(picks):
        return f"{len(picks)} picks but {len(record['scores'])} scores"
    budget = math.ceil(ratio * sum(words))
    if record["budget_words"] != budget:
        return f"budget_words {record['budget_words']}, expected {budget}"
    used = [words[p] for p in picks]
    if record["words_used"] != sum(used):
        return f"words_used {record['words_used']}, picks hold {sum(used)}"
    if not picks:
        return "no picks"
    if sum(used[:-1]) >= budget:
        return f"picks {picks} continue past the budget {budget}"
    if sum(used) < budget and len(picks) < len(words):
        return f"picks {picks} stop short of the budget {budget}"
    return None


# ---------------------------------------------------------------------------
# ROUGE


def lcs_length(a: list[str], b: list[str]) -> int:
    """LCS length by the bit-parallel algorithm of Hyyrö (2004): one bit
    per position of ``a``, one big-integer update per token of ``b``."""
    masks: dict[str, int] = {}
    for i, tok in enumerate(a):
        masks[tok] = masks.get(tok, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for tok in b:
        u = v & masks.get(tok, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


def _f_measure(overlap: int, cand: int, ref: int) -> float:
    p = overlap / cand if cand else 0.0
    r = overlap / ref if ref else 0.0
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def _grams(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def rouge_f(candidate: list[str], references: list[list[str]]) -> tuple[float, float, float]:
    """ROUGE-1/2/L F, each the arithmetic mean over references."""
    totals = [0.0, 0.0, 0.0]
    for ref in references:
        for n in (1, 2):
            c, r = _grams(candidate, n), _grams(ref, n)
            totals[n - 1] += _f_measure(sum((c & r).values()), sum(c.values()), sum(r.values()))
        totals[2] += _f_measure(lcs_length(candidate, ref), len(candidate), len(ref))
    return tuple(t / len(references) for t in totals)


# ---------------------------------------------------------------------------
# one round


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_models(out: Path, inputs: Inputs, workload) -> tuple[list[Check], dict]:
    checks: list[Check] = []
    models: dict = {}
    n_docs = len(inputs.records)
    expected = {}
    for kind in workload.kinds():
        if workload.per_document_training:
            for i, doc_id in enumerate(inputs.ids):
                expected[(kind, i)] = Path("models", kind, f"{doc_id}.cvem")
        else:
            expected[(kind, None)] = Path("models", f"{kind}.cvem")
    present = {p.relative_to(out) for p in (out / "models").rglob("*.cvem")}
    missing = set(expected.values()) - present
    extra = present - set(expected.values())
    checks.append(Check("models.files", not missing and not extra,
                        f"missing {sorted(map(str, missing))[:3]}, "
                        f"unexpected {sorted(map(str, extra))[:3]}"))
    for (kind, doc), rel_path in expected.items():
        if rel_path in missing:
            continue
        name = f"models.header:{rel_path}"
        try:
            model = read_model(out / rel_path)
        except ModelError as exc:
            checks.append(Check(name, False, str(exc)))
            continue
        docs = range(n_docs) if doc is None else [doc]
        paragraphs = [p for i in docs for p in inputs.paragraphs(i)]
        want = (kind, workload.context_size if kind == "dm" else 0,
                inputs.vocab_size, len(paragraphs), workload.dim)
        got = (model["kind"], model["context"], model["vocab"], model["paras"], model["dim"])
        checks.append(Check(name, got == want, f"header {got}, corpus needs {want}"))
        if got != want:
            continue
        models[(kind, doc)] = model
        loss = mean_loss(model, paragraphs, workload.negatives)
        bound = (workload.negatives + 1) * math.log(2.0)
        checks.append(Check(f"models.loss:{rel_path}", loss < bound,
                            f"mean loss {loss:.4f}, initial {bound:.4f}"))
    return checks, models


def check_round(out: Path, records: list[dict], workload) -> list[Check]:
    """Every check on one round's output directory except the hash comparison."""
    inputs = Inputs(records)
    checks, models = check_models(out, inputs, workload)
    words = [[len(s) for s in r["sentences"]] for r in records]
    doc_rows = np.cumsum([0] + [len(w) + 1 for w in words])

    def docview(rep: str, i: int):
        parts = []
        for part in rep.split("+"):
            if part == "BOW":
                parts.append(bow_cosines(inputs, i))
            else:
                per_doc = workload.per_document_training
                model = models.get((part.lower(), i if per_doc else None))
                if model is None:
                    return None
                parts.append(dense_cosines(model, 0 if per_doc else doc_rows[i], len(words[i])))
        return tables(parts)

    summaries: dict[tuple[str, str], list[dict]] = {}
    for rep in workload.representations:
        views = [docview(rep, i) for i in range(len(records))]
        for method in workload.methods:
            cell = f"{rep}/{method}"
            path = out / "summaries" / f"{rep}__{method}.jsonl"
            recs = _read_jsonl(path) if path.is_file() else []
            problem = None
            if [r.get("id") for r in recs] != inputs.ids:
                problem = f"{len(recs)} records, expected one per document in corpus order"
            for i, rec in enumerate(recs if problem is None else []):
                if (rec["representation"], rec["method"], rec["alpha"]) != \
                        (rep, method, workload.alpha):
                    problem = f"{rec['id']}: labelled {rec['representation']}/{rec['method']}"
                else:
                    problem = record_problem(rec, words[i], workload.ratio)
                if problem:
                    problem = f"{rec['id']}: {problem}"
                    break
            checks.append(Check(f"summaries.budget:{cell}", problem is None, problem or ""))
            if problem is not None:
                continue
            summaries[(rep, method)] = recs
            for i, rec in enumerate(recs):
                problem = "no model to rebuild from" if views[i] is None else replay(
                    *views[i], method, workload.alpha, rec["selected"], rec["scores"])
                if problem:
                    problem = f"{rec['id']}: {problem}"
                    break
            checks.append(Check(f"summaries.replay:{cell}", problem is None, problem or ""))

    checks.extend(check_rouge(out, records, workload, summaries))
    return checks


def check_rouge(out: Path, records: list[dict], workload,
                summaries: dict[tuple[str, str], list[dict]]) -> list[Check]:
    checks = []
    per_doc_path = out / "evaluation" / "per_document.jsonl"
    rows: dict[tuple, list[dict]] = {}
    for row in _read_jsonl(per_doc_path) if per_doc_path.is_file() else []:
        rows.setdefault((row["representation"], row["method"]), []).append(row)
    table: dict[tuple[str, str], list[float]] = {}
    tsv_path = out / "results.tsv"
    if tsv_path.is_file():
        lines = tsv_path.read_text(encoding="utf-8").splitlines()
        for line in lines[1:]:
            method, rep, *vals = line.split("\t")
            table[(rep, method)] = [float(v) for v in vals]
    by_id = {r["id"]: r for r in records}
    keys = ("rouge1_f", "rouge2_f", "rougeL_f")
    for rep in workload.representations:
        for method in workload.methods:
            cell = f"{rep}/{method}"
            recs = summaries.get((rep, method))
            got = rows.get((rep, method), [])
            problem = None
            if recs is None:
                problem = "summaries failed their checks"
            elif [r["id"] for r in got] != [r["id"] for r in recs]:
                problem = f"{len(got)} per-document rows for {len(recs)} summaries"
            means = np.zeros(3)
            for rec, row in zip(recs or [], got if problem is None else []):
                doc = by_id[rec["id"]]
                cand = [t for p in rec["selected"] for t in doc["sentences"][p]]
                refs = [[t for s in ref for t in s] for ref in doc["references"]]
                want = rouge_f(cand, refs)
                means += want
                if any(abs(row[k] - w) > ROUGE_TOL for k, w in zip(keys, want)):
                    problem = f"{rec['id']}: {[row[k] for k in keys]} recomputed {list(want)}"
                    break
            checks.append(Check(f"rouge.per_document:{cell}", problem is None, problem or ""))
            if problem is None:
                means /= len(recs)
                row = table.get((rep, method))
                if row is None or any(abs(a - b) > TSV_TOL for a, b in zip(row, means)):
                    problem = f"results.tsv {row}, recomputed means {means.round(6).tolist()}"
            checks.append(Check(f"rouge.means:{cell}", problem is None, problem or ""))
    return checks


def check_hashes(digests: list[str]) -> list[Check]:
    """Each round after the first must reproduce the first round's bytes."""
    return [Check(f"hashes.round{i}", d == digests[0], f"{d[:12]} != {digests[0][:12]}")
            for i, d in enumerate(digests[1:], start=1)]

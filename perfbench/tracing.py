"""Spans around covsum's layer boundaries, recorded from outside the program.

:class:`Tracer` replaces the names ``covsum.harness`` imports from each
module with wrappers that time every call and count the work it was given.
Nothing in ``src/`` changes: the harness looks those names up in its own
module globals at call time, so the wrappers see every call the pipeline
makes. Spans stay in memory until :meth:`Tracer.dump`.

:func:`layer_metrics` turns one run's spans into the per-layer metrics. A
span's self time is its duration minus the durations of its direct
children; calls on one thread nest, so children never overlap.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from contextlib import contextmanager

from workloads import METHODS, REPRESENTATIONS

KINDS = ("dm", "dbow")
STAGES = ("train", "summarize", "evaluate")


def _flat_len(sentences) -> int:
    return sum(len(s) for s in sentences)


def _count_corpus(args, docs):
    return {
        "docs": len(docs),
        "sentences": sum(len(d.sentences) for d in docs),
        "tokens": sum(d.word_count for d in docs),
    }


def _count_train(args, model):
    paragraphs, cfg = args["paragraphs"], args["cfg"]
    return {
        "kind": model.kind,
        "targets": cfg.epochs * sum(len(p.tokens) for p in paragraphs),
    }


def _count_save(args, _):
    return {"bytes": os.path.getsize(args["path"])}


def _count_docview(args, view):
    n = len(view.word_counts)
    return {"representation": args["representation"], "pairs": n * (n + 1) // 2}


def _count_select(args, summary):
    n = len(args["view"].word_counts)
    picks = len(summary.selected)
    method = args["config"].method
    if method in ("MMR", "JXDTD"):  # every remaining sentence is re-scored per pick
        scored = sum(n - k for k in range(picks))
    else:  # scores are selection-independent: one pass, then a sort
        scored = n
    return {"method": method, "picks": picks, "candidates": scored}


def _count_rouge(args, _):
    cand = _flat_len(args["summary_sentences"])
    refs = [_flat_len(r.sentences) for r in args["references"]]
    return {"pairs": len(refs), "lcs_cells": sum(cand * r for r in refs)}


# The names covsum.harness imports, with the count each call contributes.
WRAPPED = {
    "load_corpus": _count_corpus,
    "build_vocabulary": lambda args, vocab: {"vocab_size": vocab.size},
    "build_training_paragraphs": None,
    "train": _count_train,
    "save_model": _count_save,
    "load_model": None,
    "build_docview": _count_docview,
    "greedy_select": _count_select,
    "evaluate": _count_rouge,
}


class Tracer:
    """In-memory span recorder for one child process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        attrs: dict = {}
        record = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                  "name": name, "attrs": attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def install(self, module) -> None:
        """Wrap every name in :data:`WRAPPED` inside ``module``."""
        for name, count in WRAPPED.items():
            setattr(module, name, self._wrap(name, getattr(module, name), count))

    def _wrap(self, name, fn, count):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
            if count is not None:  # counted outside the span's timed interval
                bound = signature.bind(*args, **kwargs)
                attrs.update(count(bound.arguments, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def self_time_table(spans: list[dict]) -> dict[str, float]:
    """Span name -> total self time over all its calls."""
    own = self_times(spans)
    table: dict[str, float] = {}
    for s in spans:
        table[s["name"]] = table.get(s["name"], 0.0) + own[s["id"]]
    return table


def _label(name: str) -> str:
    return name.replace("+", "-")


def layer_unit(name: str) -> str:
    if ".targets_per_s." in name:
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "B"
    return "count"


def layer_metrics(spans: list[dict], bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run, by the README's names.

    Times are summed span durations in seconds; counts are summed over
    calls. Corpus counts come from the first ``load_corpus`` call, since
    every stage loads the same file.
    """
    m: dict[str, float] = {}
    own = self_times(spans)

    def total(name, key=None, value=None):
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] == name and (key is None or s["attrs"].get(key) == value))

    def count(name, attr, key=None, value=None):
        return sum(s["attrs"][attr] for s in spans
                   if s["name"] == name and (key is None or s["attrs"].get(key) == value))

    loads = [s for s in spans if s["name"] == "load_corpus"]
    m["corpus.load_s"] = total("load_corpus")
    m["corpus.vocab_s"] = total("build_vocabulary")
    for key in ("docs", "sentences", "tokens"):
        m[f"corpus.{key}"] = loads[0]["attrs"][key]
    m["corpus.vocab_size"] = next(s["attrs"]["vocab_size"] for s in spans
                                  if s["name"] == "build_vocabulary")

    for kind in KINDS:
        seconds = total("train", "kind", kind)
        targets = count("train", "targets", "kind", kind)
        m[f"embedding.train_s.{kind}"] = seconds
        m[f"embedding.targets.{kind}"] = targets
        m[f"embedding.targets_per_s.{kind}"] = targets / seconds if seconds > 0 else 0.0
    m["embedding.fits"] = sum(1 for s in spans if s["name"] == "train")
    m["embedding.save_s"] = total("save_model")
    m["embedding.load_s"] = total("load_model")
    m["embedding.models_loaded"] = sum(1 for s in spans if s["name"] == "load_model")
    m["embedding.model_bytes"] = count("save_model", "bytes")

    for rep in REPRESENTATIONS:
        m[f"selection.docview_s.{_label(rep)}"] = total("build_docview", "representation", rep)
    m["selection.docview_pairs"] = count("build_docview", "pairs")
    for method in METHODS:
        m[f"selection.select_s.{method}"] = total("greedy_select", "method", method)
        m[f"selection.candidates_scored.{method}"] = count(
            "greedy_select", "candidates", "method", method)
    m["selection.picks"] = count("greedy_select", "picks")

    m["rouge.evaluate_s"] = total("evaluate")
    m["rouge.pairs"] = count("evaluate", "pairs")
    m["rouge.lcs_cells"] = count("evaluate", "lcs_cells")

    for stage in STAGES:
        m[f"harness.{stage}_self_s"] = sum(own[s["id"]] for s in spans
                                          if s["name"] == f"cmd_{stage}")
    m["harness.bytes_written"] = bytes_written
    return m

"""The benchmark's workloads: a corpus shape plus the experiment config.

Each workload pulls a different layer to the front (see README.md):

    embed-grid  short documents, full grid, corpus DM and DBOW training
    long-docs   few long documents, BOW and BOW+DBOW, larger ratio
    per-doc     one DBOW fit per short document, models saved and reloaded
"""

from __future__ import annotations

from dataclasses import dataclass

from zipf_corpus import CorpusShape

METHODS = ("RELEVANCE_ONLY", "MMR", "XDTD", "JXDTD")
REPRESENTATIONS = ("BOW", "DM", "DBOW", "BOW+DM", "BOW+DBOW")


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusShape
    representations: tuple[str, ...]
    ratio: float
    per_document_training: bool
    dim: int
    epochs: int
    methods: tuple[str, ...] = METHODS
    alpha: float = 1.0
    context_size: int = 4
    negatives: int = 5

    def kinds(self) -> tuple[str, ...]:
        """Embedding kinds the grid trains, in covsum's training order."""
        parts = {p for rep in self.representations for p in rep.split("+")}
        return tuple(k for k in ("dm", "dbow") if k.upper() in parts)

    def config_text(self, corpus: str, out: str, seed: int) -> str:
        """The flat ``key = value`` experiment config covsum reads."""
        lines = {
            "corpus": corpus,
            "out": out,
            "methods": ", ".join(self.methods),
            "representations": ", ".join(self.representations),
            "alpha": repr(self.alpha),
            "ratio": repr(self.ratio),
            "seed": str(seed),
            "per_document_training": str(self.per_document_training).lower(),
            "embed.dim": str(self.dim),
            "embed.epochs": str(self.epochs),
            "embed.context_size": str(self.context_size),
            "embed.negatives": str(self.negatives),
        }
        return "".join(f"{k} = {v}\n" for k, v in lines.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="embed-grid",
            corpus=CorpusShape(docs=20, sentences=(16, 24), tokens=(8, 20), vocab=4000),
            representations=REPRESENTATIONS,
            ratio=0.10,
            per_document_training=False,
            dim=50,
            epochs=2,
        ),
        Workload(
            name="long-docs",
            corpus=CorpusShape(
                docs=3, sentences=(160, 200), tokens=(12, 20), vocab=6000, topic_terms=120,
                reference_share=0.05,
            ),
            representations=("BOW", "BOW+DBOW"),
            ratio=0.25,
            per_document_training=False,
            dim=50,
            epochs=1,
        ),
        Workload(
            name="per-doc",
            corpus=CorpusShape(
                docs=60, sentences=(16, 24), tokens=(8, 20), vocab=4000,
                references=1, reference_share=0.1,
            ),
            representations=("DBOW", "BOW+DBOW"),
            ratio=0.10,
            per_document_training=True,
            dim=50,
            epochs=2,
        ),
    )
}

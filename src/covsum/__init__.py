"""Coverage-aware extractive summarization.

Sentences are scored by relevance to their document plus a weighted
coverage term (maximal-marginal-relevance redundancy, or sub-theme
distributions with optional dissatisfaction tracking) and picked greedily
under a word budget. Sentence vectors are TF-IDF, trained paragraph
embeddings (distributed-memory or distributed-bag-of-words), or their
concatenation; summaries are scored with ROUGE-1/2/L against multiple
references.
"""

from .corpus import (
    CorpusError,
    Document,
    ReferenceSummary,
    Sentence,
    Vocabulary,
    build_vocabulary,
    load_bundled_corpus,
    load_corpus,
    save_corpus,
    tokenize,
)
from .embedding import (
    EmbeddingModel,
    ParagraphIds,
    TrainConfig,
    TrainingParagraph,
    build_training_paragraphs,
    load_model,
    paragraph_vector,
    save_model,
    train,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    cmd_evaluate,
    cmd_selftest,
    cmd_summarize,
    cmd_train,
    load_experiment_config,
)
from .rouge import RougeReport, RougeScore, evaluate, lcs_length, rouge_l, rouge_n
from .selection import (
    METHODS,
    REPRESENTATIONS,
    DocView,
    SelectorConfig,
    Summary,
    build_docview,
    greedy_select,
    summary_sentences,
)


def __getattr__(name: str):
    # The diagnostics pull in the oracles and the synthetic corpus generator,
    # which no pipeline stage uses, so they load on first access (PEP 562).
    if name in ("CheckResult", "run_all"):
        from . import selfcheck

        return getattr(selfcheck, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CorpusError",
    "Document",
    "ReferenceSummary",
    "Sentence",
    "Vocabulary",
    "build_vocabulary",
    "load_bundled_corpus",
    "load_corpus",
    "save_corpus",
    "tokenize",
    "EmbeddingModel",
    "ParagraphIds",
    "TrainConfig",
    "TrainingParagraph",
    "build_training_paragraphs",
    "load_model",
    "paragraph_vector",
    "save_model",
    "train",
    "ConfigError",
    "ExperimentConfig",
    "cmd_evaluate",
    "cmd_selftest",
    "cmd_summarize",
    "cmd_train",
    "load_experiment_config",
    "RougeReport",
    "RougeScore",
    "evaluate",
    "lcs_length",
    "rouge_l",
    "rouge_n",
    "METHODS",
    "REPRESENTATIONS",
    "DocView",
    "SelectorConfig",
    "Summary",
    "build_docview",
    "greedy_select",
    "summary_sentences",
    "CheckResult",
    "run_all",
]

"""Coverage-aware extractive summarization.

Sentences are scored by relevance to their document plus a weighted
coverage term (maximal-marginal-relevance redundancy, or sub-theme
distributions with optional dissatisfaction tracking) and picked greedily
under a word budget. Sentence vectors are TF-IDF, trained paragraph
embeddings (distributed-memory or distributed-bag-of-words), or their
concatenation; summaries are scored with ROUGE-1/2/L against multiple
references.
"""

from types import ModuleType as _ModuleType

from .corpus import (
    CorpusError,
    Document,
    ReferenceSummary,
    Sentence,
    Vocabulary,
    build_vocabulary,
    load_corpus,
    save_corpus,
    tokenize,
)
from .embedding import (
    EmbeddingModel,
    TrainConfig,
    load_model,
    save_model,
    train,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    cmd_evaluate,
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

# The diagnostics pull in the oracles and the random-document generator,
# which no pipeline stage uses, so they load on first access (PEP 562).
_SELFCHECK_NAMES = ("CheckResult", "cmd_selftest", "load_bundled_corpus", "run_all")


def __getattr__(name: str):
    if name in _SELFCHECK_NAMES:
        from . import selfcheck

        return getattr(selfcheck, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The public names are the ones imported above, in import order, then the
# lazy ones; the submodules those imports bind are not among them.
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + list(_SELFCHECK_NAMES)

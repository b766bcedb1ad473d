"""Community-based and unigram Poisson document scaling."""

__version__ = "0.1.0"

from .corpus import (
    BigramCounts,
    Corpus,
    CorpusError,
    Document,
    count_bigrams,
    filter_bigrams,
    load_corpus,
    tokenize,
)
from .features import CountMatrix, MatrixError, community_dtm, trim, unigram_dtm
from .graph import (
    GraphError,
    Partition,
    WordGraph,
    build_graph,
    louvain,
    modularity,
)
from .scaling import (
    FitConfig,
    ScalingError,
    ScalingParams,
    ScalingResult,
    analytic_theta_se,
    bootstrap,
    fit,
    initialize,
    log_likelihood,
)
from .synthbench import (
    PlantedCorpusSpec,
    SyntheticSpec,
    generate_corpus,
    generate_matrix,
    recovery_report,
)


def __getattr__(name):
    # ``compare_models`` and its ``RunConfig`` live in the CLI module, which
    # imports this package: importing it on first access keeps
    # ``python -m communityfish.cli`` from loading the CLI module twice.
    if name in ("ComparisonReport", "RunConfig", "compare_models"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BigramCounts",
    "ComparisonReport",
    "Corpus",
    "CorpusError",
    "CountMatrix",
    "Document",
    "FitConfig",
    "GraphError",
    "MatrixError",
    "Partition",
    "PlantedCorpusSpec",
    "RunConfig",
    "ScalingError",
    "ScalingParams",
    "ScalingResult",
    "SyntheticSpec",
    "WordGraph",
    "analytic_theta_se",
    "bootstrap",
    "build_graph",
    "community_dtm",
    "compare_models",
    "count_bigrams",
    "filter_bigrams",
    "fit",
    "generate_corpus",
    "generate_matrix",
    "initialize",
    "load_corpus",
    "log_likelihood",
    "louvain",
    "modularity",
    "recovery_report",
    "tokenize",
    "trim",
    "unigram_dtm",
]

"""Batch command-line front end.

Subcommands: ``communities``, ``scale``, ``compare``, ``simulate``.
Configuration is a flat ``key = value`` text file; command-line flags win
over file values. Exit codes: 1 IO/config error, 2 empty pipeline stage,
3 estimation failure.

``run_pipeline`` is the one place that runs the stages in order; every
command and the library's ``compare_models`` go through it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    Corpus,
    CorpusError,
    count_bigrams,
    filter_bigrams,
    load_corpus,
    read_lemma_table,
    read_stopwords,
)
from .features import MatrixError, TrimReport, community_dtm, unigram_dtm
from .graph import (
    GraphError,
    Partition,
    WordGraph,
    build_graph,
    leiden,
    louvain,
)
from .scaling import (
    FitConfig,
    ScalingError,
    ScalingResult,
    analytic_theta_se,
    bootstrap,
    fit,
)
from .synthbench import (
    SynthError,
    SyntheticSpec,
    check_spec,
    generate_matrix,
    recovery_report,
    spearman,
)

# Unused here. perfbench/child.py wraps this name on this module, so it must resolve.
from .corpus import tokenize  # noqa: F401

EXIT_CONFIG = 1
EXIT_EMPTY = 2
EXIT_ESTIMATION = 3


class CliError(ValueError):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def read_key_values(path: Path, cls, kind: str) -> dict:
    """The values a flat ``key = value`` file sets, by field name of the
    dataclass ``cls``.

    The file is UTF-8, and a byte-order mark at its start is ignored. Blank
    lines and ``#`` comments are skipped; each value takes the type of the
    field's default. Every bad line, a key set twice included, is a
    one-line ``path:line:`` error.
    """
    if not path.exists():
        raise CliError(f"{kind} file not found: {path}", EXIT_CONFIG)
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError:
        raise CliError(f"{path}: not UTF-8 text", EXIT_CONFIG) from None
    values, first_line = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        key = key.strip()
        where = f"{path}:{lineno}"
        if not sep:
            raise CliError(f"{where}: expected key = value", EXIT_CONFIG)
        if key not in defaults:
            raise CliError(f"{where}: unknown {kind} key {key!r}", EXIT_CONFIG)
        if key in first_line:
            raise CliError(f"{where}: duplicate {kind} key {key!r} "
                           f"(first on line {first_line[key]})", EXIT_CONFIG)
        first_line[key] = lineno
        values[key] = _coerce(defaults[key], raw.strip(), f"{where}: {kind} key {key!r}")
    return values


def _coerce(default, raw: str, where: str):
    kind = type(default)
    try:
        return kind(raw)
    except ValueError:
        raise CliError(f"{where}: expected {kind.__name__}, got {raw!r}", EXIT_CONFIG) from None


# The values of the enumerated config keys, and the least value of the
# integer config keys; FitConfig checks tol, max_iter and the anchors.
CHOICES = {
    "format": ("jsonl", "text-directory", "csv"),
    "clustering": ("louvain", "leiden"),
    "dtm": ("member-count", "bigram-match"),
}
FLOORS = {
    "min_bigram_count": 1,
    "min_community_size": 1,
    "unigram_min_count": 1,
    "bootstrap_b": 0,
    "seed": 0,
}


def _check_floors(values) -> None:
    """A one-line exit-1 error for the first field of the dataclass ``values``
    below its floor in ``FLOORS``."""
    for key in (f.name for f in dataclasses.fields(values) if f.name in FLOORS):
        value = getattr(values, key)
        if value < FLOORS[key]:
            raise CliError(f"config key {key!r} must be >= {FLOORS[key]}, got {value!r}",
                           EXIT_CONFIG)


@dataclass(frozen=True)
class RunConfig:
    """The config file's keys; a value outside its key's domain raises
    ``CliError``, a ``ValueError``, with the config file's message."""

    input: str = ""
    format: str = "jsonl"
    stopwords: str = ""
    lemmas: str = ""
    min_bigram_count: int = 30
    clustering: str = "louvain"
    min_community_size: int = 2
    dtm: str = "member-count"
    unigram_min_count: int = 1
    tol: float = 1e-8
    max_iter: int = 500
    anchor_low: str = ""
    anchor_high: str = ""
    bootstrap_b: int = 200
    seed: int = 0
    out: str = "run_output"

    def __post_init__(self):
        for key, allowed in CHOICES.items():
            value = getattr(self, key)
            if value not in allowed:
                raise CliError(f"config key {key!r} must be one of {', '.join(allowed)}, "
                               f"got {value!r}", EXIT_CONFIG)
        _check_floors(self)
        try:  # tol, max_iter and the anchors
            self.fit_config()
        except ScalingError as exc:
            raise CliError(f"config: {exc}", EXIT_CONFIG) from None

    def fit_config(self) -> FitConfig:
        return FitConfig(
            tol=self.tol,
            max_iter=self.max_iter,
            anchor_low=self.anchor_low or None,
            anchor_high=self.anchor_high or None,
        )


@dataclass(frozen=True)
class SimulationSpec:
    """Keys of a ``simulate`` spec file; the seed and the bootstrap
    replicates come from the ``RunConfig``, as in every command. A value
    below its floor is a ``SynthError``, an exit-1 error."""

    n_docs: int = 25
    n_features: int = 40
    expected_row_total: int = 500

    def __post_init__(self):
        check_spec(self.n_docs, self.n_features, self.expected_row_total)


@dataclass(frozen=True)
class PipelineRun:
    """What the stages of one run produced that a command reads: the
    partition (None for the unigram baseline), the trimming of the count
    matrix, and the fit, which holds the matrix."""

    partition: Partition | None
    trim_report: TrimReport
    result: ScalingResult


def _cluster(corpus: Corpus, config: RunConfig) -> tuple[WordGraph, Partition]:
    """Bigram counts -> threshold -> word graph -> Louvain or Leiden
    communities; a partition without communities is a ``GraphError``."""
    graph = build_graph(filter_bigrams(count_bigrams(corpus), config.min_bigram_count))
    cluster = louvain if config.clustering == "louvain" else leiden
    partition = cluster(graph, seed=config.seed,
                        min_community_size=config.min_community_size)
    if not partition.assignment:
        raise GraphError("no communities")
    return graph, partition


def run_pipeline(corpus: Corpus, config: RunConfig, baseline: bool = False) -> PipelineRun:
    """Run the stages on a tokenized corpus, in order: ``_cluster`` ->
    community count matrix -> fit. ``baseline`` replaces everything before
    the fit by the unigram count matrix. The fit runs with
    ``config.fit_config()``.

    Failures raise the library's ``ValueError`` subclasses: ``GraphError``
    and ``MatrixError`` for an empty stage, ``ScalingError`` for the fit. A
    count matrix left below 2 x 2 by trimming, which no fit can scale, is
    an empty stage.
    """
    partition = None
    if baseline:
        matrix, trim_report = unigram_dtm(corpus, min_count=config.unigram_min_count)
    else:
        _, partition = _cluster(corpus, config)
        matrix, trim_report = community_dtm(
            corpus, partition, bigram_match=(config.dtm == "bigram-match"))
    n, k = matrix.shape
    if n < 2 or k < 2:
        raise MatrixError(f"count matrix is {n} x {k} after trimming; "
                          "need >= 2 documents and >= 2 features")
    return PipelineRun(partition, trim_report, fit(matrix, config.fit_config()))


@dataclass(frozen=True)
class ComparisonReport:
    k_community_features: int | None
    vocabulary_size: int | None
    runtime_community: float | None
    runtime_unigram: float | None
    rank_correlation: float | None
    community_result: ScalingResult | None
    unigram_result: ScalingResult | None
    # the exception each failed branch raised, by branch name
    errors: dict[str, ValueError] = field(default_factory=dict)


def _theta_by_doc(result: ScalingResult | None) -> dict[str, float]:
    """Each fitted document's theta by its id; none for a failed branch."""
    return dict(zip(result.matrix.doc_ids, result.params.theta.tolist())) if result else {}


def compare_models(corpus: Corpus, config: RunConfig) -> ComparisonReport:
    """Fit the community-feature model and the unigram baseline on the same
    corpus, each by ``run_pipeline`` with these arguments; one branch
    failing still reports the other.
    """
    if len(corpus) == 0:
        raise CorpusError("empty corpus")
    results: dict[str, ScalingResult | None] = {}
    runtimes: dict[str, float | None] = {}
    errors: dict[str, ValueError] = {}
    for branch, baseline in (("community", False), ("unigram", True)):
        results[branch] = runtimes[branch] = None
        try:
            t0 = time.perf_counter()
            results[branch] = run_pipeline(corpus, config, baseline).result
            runtimes[branch] = time.perf_counter() - t0
        except ValueError as exc:
            errors[branch] = exc
    com_result, uni_result = results["community"], results["unigram"]
    com, uni = _theta_by_doc(com_result), _theta_by_doc(uni_result)
    pairs = [(com[d], uni[d]) for d in com if d in uni]
    rank_corr = spearman(*np.array(pairs).T) if len(pairs) >= 3 else None
    return ComparisonReport(
        k_community_features=com_result.matrix.shape[1] if com_result else None,
        vocabulary_size=uni_result.matrix.shape[1] if uni_result else None,
        runtime_community=runtimes["community"],
        runtime_unigram=runtimes["unigram"],
        rank_correlation=rank_corr,
        community_result=com_result,
        unigram_result=uni_result,
        errors=errors,
    )


class _Parser(argparse.ArgumentParser):
    """Usage errors are one-line exit-1 ``CliError``s; ``--help`` still exits 0."""

    def error(self, message):
        raise CliError(message, EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="communityfish",
        description="Community-based and unigram Poisson document scaling.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_ in [
        ("communities", "detect word communities and export them"),
        ("scale", "run the full scaling pipeline"),
        ("compare", "fit community and unigram models side by side"),
        ("simulate", "planted-truth recovery simulation"),
    ]:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", help="override the config seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--quiet", action="store_true")
        if name in ("communities", "scale", "compare"):
            p.add_argument("--input", help="corpus path")
            p.add_argument("--format", help=f"corpus format: {', '.join(CHOICES['format'])}")
            p.add_argument("--pi", dest="min_bigram_count", help="minimum bigram count")
            p.add_argument("--clustering", help=f"algorithm: {', '.join(CHOICES['clustering'])}")
        if name == "scale":
            p.add_argument("--baseline", action="store_true",
                           help="fit the unigram baseline instead of community features")
            p.add_argument("--no-bootstrap", action="store_true",
                           help="set bootstrap_b = 0")
            p.add_argument("--se", choices=["bootstrap", "analytic"], default="bootstrap",
                           help="analytic SEs need no bootstrap")
        if name == "simulate":
            p.add_argument("spec_file", nargs="?", help="simulation spec (key=value)")
    return parser


def _resolve_config(args) -> RunConfig:
    """The run's configuration: the config file, then over it each flag whose
    ``dest`` names a config key, its string checked as a config line's value.
    Every value outside its key's domain is a one-line exit-1 error here, before
    any stage runs or output exists. ``simulate`` gets its spec as ``args.spec``."""
    values = read_key_values(Path(args.config), RunConfig, "config") if args.config else {}
    for f in dataclasses.fields(RunConfig):
        if (raw := getattr(args, f.name, None)) is not None:
            values[f.name] = _coerce(f.default, raw, f"command line: config key {f.name!r}")
    if getattr(args, "no_bootstrap", False) or getattr(args, "se", None) == "analytic":
        values["bootstrap_b"] = 0
    config = RunConfig(**values)
    if args.command == "simulate":
        args.spec = SimulationSpec(**(read_key_values(Path(args.spec_file), SimulationSpec, "spec")
                                      if args.spec_file else {}))
    return config


def _load_pipeline_corpus(config: RunConfig) -> Corpus:
    if not config.input:
        raise CliError("no input corpus configured (set input= or --input)", EXIT_CONFIG)
    try:
        corpus = load_corpus(config.input, config.format)
        stopwords = read_stopwords(config.stopwords) if config.stopwords else frozenset()
        table = read_lemma_table(config.lemmas) if config.lemmas else None
        return corpus.tokenized(stopwords, table)
    except CorpusError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from exc


def _write_manifest(out: Path, config: RunConfig, extra: dict) -> None:
    config_dict = dataclasses.asdict(config)
    blob = json.dumps(config_dict, sort_keys=True).encode()
    manifest = {
        "version": __version__,
        "config": config_dict,
        "config_hash": hashlib.sha256(blob).hexdigest(),
        **extra,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# Each command writes its outputs to ``out`` and returns a one-line summary
# and the command's entries for manifest.json.

def cmd_communities(args, config: RunConfig, out: Path) -> tuple[str, dict]:
    graph, partition = _cluster(_load_pipeline_corpus(config), config)
    members = partition.members
    _write_csv(out / "communities.csv", ["community_id", "word"],
               ([cid, w] for cid, words in members.items() for w in words))
    sizes = sorted(map(len, members.values()), reverse=True)
    stats = {
        "num_communities": partition.num_communities,
        "community_sizes": sizes,
        "modularity": partition.quality,
        "num_nodes": len(graph),
        "num_edges": len(graph.weights),
        "total_weight": graph.total_weight,
    }
    (out / "graph_stats.json").write_text(json.dumps(stats, indent=2))
    return (f"wrote {out}/communities.csv ({partition.num_communities} communities, "
            f"Q={partition.quality:.4f})", {"k": partition.num_communities})


# positions.csv's own columns; the corpus's metadata keys follow them
_POSITION_COLUMNS = ("doc_id", "theta", "se", "ci_low", "ci_high", "alpha")


def _metadata_keys(corpus: Corpus) -> list[str]:
    """The corpus's sorted metadata keys; a key that names a positions.csv
    column is an exit-1 error."""
    keys = sorted({k for d in corpus.documents for k in d.metadata})
    if clash := [k for k in keys if k in _POSITION_COLUMNS]:
        raise CliError(f"metadata key {clash[0]!r} is also a positions.csv column", EXIT_CONFIG)
    return keys


def _write_positions(out: Path, corpus: Corpus, meta_keys: list[str],
                     result: ScalingResult) -> None:
    meta = {d.id: d.metadata for d in corpus.documents}
    # an uncertainty column that was not computed is None: its cells are empty
    columns = (result.params.theta, result.theta_se, result.theta_ci_low,
               result.theta_ci_high, result.params.alpha)
    _write_csv(out / "positions.csv", [*_POSITION_COLUMNS, *meta_keys],
               ([doc_id, *("" if c is None else f"{c[i]:.6f}" for c in columns),
                 *(meta.get(doc_id, {}).get(k, "") for k in meta_keys)]
                for i, doc_id in enumerate(result.matrix.doc_ids)))


def _write_features(out: Path, result: ScalingResult) -> None:
    _write_csv(out / "features.csv", ["feature", "beta", "psi"],
               ([label, f"{result.params.beta[j]:.6f}", f"{result.params.psi[j]:.6f}"]
                for j, label in enumerate(result.matrix.feature_labels)))


def cmd_scale(args, config: RunConfig, out: Path) -> tuple[str, dict]:
    corpus = _load_pipeline_corpus(config)
    meta_keys = _metadata_keys(corpus)  # a clash fails before the fit
    run = run_pipeline(corpus, config, args.baseline)
    result = run.result
    matrix = result.matrix
    if args.se == "analytic":
        result = analytic_theta_se(result)
    elif config.bootstrap_b > 0:
        result = bootstrap(result, B=config.bootstrap_b, seed=config.seed)
    _write_positions(out, corpus, meta_keys, result)
    _write_features(out, result)
    report = {
        "converged": result.converged,
        "iterations": len(result.loglik_trace) - 1,
        "log_likelihood": result.loglik_trace[-1],
        "loglik_trace": list(result.loglik_trace),
        "dispersion": result.dispersion,
        "runtime_seconds": result.runtime,
        "clamp_activated": result.clamp_activated,
        "matrix_shape": list(matrix.shape),
        "dropped_documents": list(run.trim_report.dropped_doc_ids),
        "bootstrap_failures": result.bootstrap_failures,
        "bootstrap_failure_reasons": result.bootstrap_failure_reasons,
        "line_search_halvings": result.line_search_halvings,
        "map_evaluations": result.map_evaluations,
        "score": result.score,
        "bootstrap_map_evaluations": result.bootstrap_map_evaluations,
        "baseline": bool(args.baseline),
    }
    (out / "fit_report.json").write_text(json.dumps(report, indent=2))
    return (f"wrote {out}/positions.csv ({matrix.shape[0]} documents, "
            f"{matrix.shape[1]} features)", {
                "k": run.partition.num_communities if run.partition else None,
                "matrix_shape": list(matrix.shape),
            })


def cmd_compare(args, config: RunConfig, out: Path) -> tuple[str, dict]:
    report = compare_models(_load_pipeline_corpus(config), config)
    errors = {branch: str(exc) for branch, exc in report.errors.items()}
    if report.community_result is None and report.unigram_result is None:
        # exit 2 unless a fit failed: the other errors are empty stages, as in scale
        estimation = any(isinstance(e, ScalingError) for e in report.errors.values())
        raise CliError(f"both branches failed: {errors}",
                       EXIT_ESTIMATION if estimation else EXIT_EMPTY)
    com, uni = report.community_result, report.unigram_result
    thetas = _theta_by_doc(com), _theta_by_doc(uni)
    _write_csv(out / "comparison.csv", ["doc_id", "theta_community", "theta_unigram"],
               ([d, *(f"{t[d]:.6f}" if d in t else "" for t in thetas)]
                for d in sorted(set().union(*thetas))))
    summary = {
        "k_community_features": report.k_community_features,
        "vocabulary_size": report.vocabulary_size,
        "runtime_community": report.runtime_community,
        "runtime_unigram": report.runtime_unigram,
        "rank_correlation": report.rank_correlation,
        "dispersion_community": com.dispersion if com else None,
        "dispersion_unigram": uni.dispersion if uni else None,
        "errors": errors,
    }
    (out / "report.json").write_text(json.dumps(summary, indent=2))
    return f"wrote {out}/comparison.csv", {}


def cmd_simulate(args, config: RunConfig, out: Path) -> tuple[str, dict]:
    sim = args.spec
    spec = SyntheticSpec.create(
        n_docs=sim.n_docs,
        n_features=sim.n_features,
        expected_row_total=sim.expected_row_total,
        seed=config.seed,
    )
    matrix, spec = generate_matrix(spec)
    result = fit(matrix, config.fit_config())
    if config.bootstrap_b > 0:
        result = bootstrap(result, B=config.bootstrap_b, seed=config.seed)
    metrics = recovery_report(spec.theta_star, result)
    report = {
        "spec": dataclasses.asdict(sim),
        "converged": result.converged,
        "log_likelihood": result.loglik_trace[-1],
        **metrics,
    }
    (out / "report.json").write_text(json.dumps(report, indent=2))
    return f"recovery pearson = {metrics['pearson']:.4f}", {}


_COMMANDS = {
    "communities": cmd_communities,
    "scale": cmd_scale,
    "compare": cmd_compare,
    "simulate": cmd_simulate,
}


# The exit code of each error class; a CliError carries its own.
_EXIT_CODES = {
    SynthError: EXIT_CONFIG,
    OSError: EXIT_CONFIG,
    CorpusError: EXIT_EMPTY,
    GraphError: EXIT_EMPTY,
    MatrixError: EXIT_EMPTY,
    ScalingError: EXIT_ESTIMATION,
}


def main(argv: list[str] | None = None) -> int:
    out = None
    try:
        args = build_parser().parse_args(argv)
        config = _resolve_config(args)
        entries = {"command": args.command}
        if args.command == "simulate":
            entries["spec"] = dataclasses.asdict(args.spec)
        Path(config.out).mkdir(parents=True, exist_ok=True)
        out = Path(config.out)
        summary, extra = _COMMANDS[args.command](args, config, out)
        _write_manifest(out, config, {**entries, **extra, "exit_status": 0})
    except (CliError, *_EXIT_CODES) as exc:
        code = exc.code if isinstance(exc, CliError) else next(
            c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls))
        print(f"error: {exc}", file=sys.stderr)
        if out is not None:  # the run got as far as creating out/
            with contextlib.suppress(OSError):
                _write_manifest(out, config, {**entries, "exit_status": code,
                                              "error": str(exc)})
        return code
    if not args.quiet:
        print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
import csv
import dataclasses
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

from . import __version__
from .corpus import (
    Corpus,
    CorpusError,
    apply_lemmas,
    count_bigrams,
    filter_bigrams,
    load_corpus,
    read_lemma_table,
    read_stopwords,
    tokenize,
    TokenizerConfig,
)
from .features import CountMatrix, MatrixError, TrimReport, community_dtm, unigram_dtm
from .graph import (
    GraphError,
    Partition,
    WordGraph,
    build_graph,
    export_partition_csv,
    leiden,
    louvain,
)
from .scaling import (
    FitConfig,
    ScalingError,
    ScalingResult,
    analytic_theta_se,
    bootstrap,
    dispersion,
    fit,
)
from .synthbench import SynthError, SyntheticSpec, generate_matrix, recovery_report

EXIT_CONFIG = 1
EXIT_EMPTY = 2
EXIT_ESTIMATION = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def read_key_values(path: Path, cls, kind: str):
    """Fill the dataclass ``cls`` from a flat ``key = value`` file.

    Blank lines and ``#`` comments are skipped; each value takes the type of
    the field's default. Every bad line is a one-line ``path:line:`` error.
    """
    if not path.exists():
        raise CliError(f"{kind} file not found: {path}", EXIT_CONFIG)
    defaults = cls()
    names = {f.name for f in dataclasses.fields(cls)}
    values = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        key = key.strip()
        where = f"{path}:{lineno}"
        if not sep:
            raise CliError(f"{where}: expected key = value", EXIT_CONFIG)
        if key not in names:
            raise CliError(f"{where}: unknown {kind} key {key!r}", EXIT_CONFIG)
        values[key] = _coerce(getattr(defaults, key), raw.strip(),
                              f"{where}: {kind} key {key!r}")
    return cls(**values)


def _coerce(default, raw: str, where: str):
    kind = type(default)
    if kind is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
    else:
        try:
            return kind(raw)
        except ValueError:
            pass
    raise CliError(f"{where}: expected {kind.__name__}, got {raw!r}", EXIT_CONFIG)


@dataclass
class RunConfig:
    input: str = ""
    format: str = "jsonl"
    stopwords: str = ""
    lemmas: str = ""
    min_bigram_count: int = 30
    strict_greater: bool = False
    clustering: str = "louvain"
    min_community_size: int = 2
    dtm: str = "member-count"
    unigram_min_count: int = 1
    tol: float = 1e-8
    max_iter: int = 500
    anchor_low: str = ""
    anchor_high: str = ""
    clamp: float = 30.0
    bootstrap_b: int = 200
    seed: int = 0
    out: str = "run_output"

    @classmethod
    def from_file(cls, path: Path) -> "RunConfig":
        return read_key_values(path, cls, "config")

    def fit_config(self) -> FitConfig:
        return FitConfig(
            tol=self.tol,
            max_iter=self.max_iter,
            anchor_low=self.anchor_low or None,
            anchor_high=self.anchor_high or None,
            linear_predictor_clamp=self.clamp,
            seed=self.seed,
        )


@dataclass
class SimulationSpec:
    """Keys of a ``simulate`` spec file."""

    n_docs: int = 25
    n_features: int = 40
    expected_row_total: int = 500
    seed: int = 0
    bootstrap_b: int = 0


@dataclass(frozen=True)
class PipelineRun:
    """What the stages of one run produced; stages not run are None."""

    graph: WordGraph | None
    partition: Partition | None
    matrix: CountMatrix | None = None
    trim_report: TrimReport | None = None
    result: ScalingResult | None = None


def run_pipeline(corpus: Corpus, config: RunConfig, baseline: bool = False, *,
                 communities_only: bool = False) -> PipelineRun:
    """Run the stages on a tokenized corpus, in order: bigram counts ->
    threshold -> word graph -> Louvain or Leiden communities -> community
    count matrix -> fit. ``baseline`` replaces everything before the fit by
    the unigram count matrix; ``communities_only`` stops after clustering.

    Failures raise the library's ``ValueError`` subclasses: ``GraphError``
    and ``MatrixError`` for an empty stage, ``ScalingError`` for the fit.
    """
    graph = partition = None
    if baseline:
        matrix, trim_report = unigram_dtm(corpus, min_count=config.unigram_min_count)
    else:
        counts = count_bigrams(corpus)
        graph = build_graph(
            filter_bigrams(counts, config.min_bigram_count, config.strict_greater))
        cluster = louvain if config.clustering == "louvain" else leiden
        partition = cluster(graph, seed=config.seed,
                            min_community_size=config.min_community_size)
        if not partition.assignment:
            raise GraphError("no communities")
        if communities_only:
            return PipelineRun(graph, partition)
        matrix, trim_report = community_dtm(
            corpus, partition, bigram_match=(config.dtm == "bigram-match"))
    result = fit(matrix, config.fit_config())
    return PipelineRun(graph, partition, matrix, trim_report, result)


@dataclass(frozen=True)
class ComparisonReport:
    k_community_features: int | None
    vocabulary_size: int | None
    runtime_community: float | None
    runtime_unigram: float | None
    rank_correlation: float | None
    dispersion_community: float | None
    dispersion_unigram: float | None
    community_result: ScalingResult | None
    unigram_result: ScalingResult | None
    errors: dict = field(default_factory=dict)


def compare_models(
    corpus: Corpus,
    bigram_threshold: int,
    config: FitConfig,
    unigram_min_count: int = 1,
    min_community_size: int = 2,
    *,
    run_config: RunConfig | None = None,
) -> ComparisonReport:
    """Fit the community-feature model and the unigram baseline on the same
    tokenized corpus; one branch failing still reports the other.

    ``run_config`` supplies the remaining pipeline keys (``clustering``,
    ``strict_greater``, ``dtm``); the arguments before it win over its values.
    """
    if len(corpus) == 0:
        raise SynthError("empty corpus")
    run_config = dataclasses.replace(
        run_config or RunConfig(),
        min_bigram_count=bigram_threshold,
        unigram_min_count=unigram_min_count,
        min_community_size=min_community_size,
        tol=config.tol,
        max_iter=config.max_iter,
        anchor_low=config.anchor_low or "",
        anchor_high=config.anchor_high or "",
        clamp=config.linear_predictor_clamp,
        seed=config.seed,
    )
    results: dict[str, ScalingResult | None] = {}
    runtimes: dict[str, float | None] = {}
    errors: dict = {}
    for branch, baseline in (("community", False), ("unigram", True)):
        results[branch] = runtimes[branch] = None
        try:
            t0 = time.perf_counter()
            results[branch] = run_pipeline(corpus, run_config, baseline).result
            runtimes[branch] = time.perf_counter() - t0
        except ValueError as exc:
            errors[branch] = str(exc)
    com_result, uni_result = results["community"], results["unigram"]
    rank_corr = None
    if com_result is not None and uni_result is not None:
        ui = {d: i for i, d in enumerate(uni_result.matrix.doc_ids)}
        common = [(i, ui[d]) for i, d in enumerate(com_result.matrix.doc_ids) if d in ui]
        if len(common) >= 3:
            c, u = np.array(common).T
            rank_corr = float(stats.spearmanr(com_result.params.theta[c],
                                              uni_result.params.theta[u]).statistic)
    clamp = config.linear_predictor_clamp
    return ComparisonReport(
        k_community_features=com_result.matrix.shape[1] if com_result else None,
        vocabulary_size=uni_result.matrix.shape[1] if uni_result else None,
        runtime_community=runtimes["community"],
        runtime_unigram=runtimes["unigram"],
        rank_correlation=rank_corr,
        dispersion_community=(
            dispersion(com_result.matrix, com_result.params, clamp) if com_result else None
        ),
        dispersion_unigram=(
            dispersion(uni_result.matrix, uni_result.params, clamp) if uni_result else None
        ),
        community_result=com_result,
        unigram_result=uni_result,
        errors=errors,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--quiet", action="store_true")
        if name in ("communities", "scale", "compare"):
            p.add_argument("--input", help="corpus path")
            p.add_argument("--format", choices=["jsonl", "text-directory", "csv"])
            p.add_argument("--pi", type=int, dest="min_bigram_count",
                           help="minimum bigram count")
            p.add_argument("--clustering", choices=["louvain", "leiden"])
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
    config = RunConfig.from_file(Path(args.config)) if args.config else RunConfig()
    for key in ("input", "format", "min_bigram_count", "clustering", "seed", "out"):
        val = getattr(args, key, None)
        if val is not None:
            setattr(config, key, val)
    if getattr(args, "no_bootstrap", False):
        config.bootstrap_b = 0
    return config


def _load_pipeline_corpus(config: RunConfig) -> Corpus:
    if not config.input:
        raise CliError("no input corpus configured (set input= or --input)", EXIT_CONFIG)
    try:
        corpus = load_corpus(config.input, config.format)
    except CorpusError as exc:
        raise CliError(str(exc), EXIT_CONFIG) from exc
    stopwords = frozenset()
    if config.stopwords:
        stopwords = read_stopwords(config.stopwords)
    rules = TokenizerConfig(stopwords=stopwords)
    corpus = corpus.map_documents(lambda d: tokenize(d, rules))
    if config.lemmas:
        table = read_lemma_table(config.lemmas)
        corpus = corpus.map_documents(lambda d: apply_lemmas(d, table))
    return corpus


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


# Each command writes its outputs to ``out`` and returns a one-line summary
# and the command's entries for manifest.json.

def cmd_communities(args, config: RunConfig, out: Path) -> tuple[str, dict]:
    run = run_pipeline(_load_pipeline_corpus(config), config, communities_only=True)
    graph, partition = run.graph, run.partition
    export_partition_csv(partition, out / "communities.csv")
    sizes = sorted((len(v) for v in partition.members.values()), reverse=True)
    stats = {
        "num_communities": partition.num_communities,
        "community_sizes": sizes,
        "modularity": partition.quality,
        "num_nodes": len(graph),
        "num_edges": int(sum(len(n) for n in graph.adjacency) // 2),
        "total_weight": graph.total_weight,
    }
    (out / "graph_stats.json").write_text(json.dumps(stats, indent=2))
    return (f"wrote {out}/communities.csv ({partition.num_communities} communities, "
            f"Q={partition.quality:.4f})", {"k": partition.num_communities})


def _write_positions(out: Path, corpus: Corpus, result: ScalingResult) -> None:
    meta_keys = sorted({k for d in corpus.documents for k in d.metadata})
    meta = {d.id: d.metadata for d in corpus.documents}
    with open(out / "positions.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doc_id", "theta", "se", "ci_low", "ci_high", "alpha", *meta_keys])
        for i, doc_id in enumerate(result.matrix.doc_ids):
            se = f"{result.theta_se[i]:.6f}" if result.theta_se is not None else ""
            lo = f"{result.theta_ci_low[i]:.6f}" if result.theta_ci_low is not None else ""
            hi = f"{result.theta_ci_high[i]:.6f}" if result.theta_ci_high is not None else ""
            row = [
                doc_id,
                f"{result.params.theta[i]:.6f}",
                se,
                lo,
                hi,
                f"{result.params.alpha[i]:.6f}",
            ]
            row += [meta.get(doc_id, {}).get(k, "") for k in meta_keys]
            writer.writerow(row)


def _write_features(out: Path, result: ScalingResult) -> None:
    with open(out / "features.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "beta", "psi"])
        for j, label in enumerate(result.matrix.feature_labels):
            writer.writerow([label, f"{result.params.beta[j]:.6f}",
                             f"{result.params.psi[j]:.6f}"])


def cmd_scale(args, config: RunConfig, out: Path) -> tuple[str, dict]:
    corpus = _load_pipeline_corpus(config)
    run = run_pipeline(corpus, config, baseline=args.baseline)
    matrix, result = run.matrix, run.result
    if args.se == "analytic":
        se = analytic_theta_se(result, config.clamp)
        result = dataclasses.replace(
            result,
            theta_se=se,
            theta_ci_low=result.params.theta - 1.96 * se,
            theta_ci_high=result.params.theta + 1.96 * se,
        )
    elif config.bootstrap_b > 0:
        result = bootstrap(matrix, result, B=config.bootstrap_b,
                           seed=config.seed, config=config.fit_config())
    _write_positions(out, corpus, result)
    _write_features(out, result)
    report = {
        "converged": result.converged,
        "iterations": len(result.loglik_trace) - 1,
        "log_likelihood": result.loglik_trace[-1],
        "dispersion": dispersion(matrix, result.params, config.clamp),
        "runtime_seconds": result.runtime,
        "clamp_activated": result.clamp_activated,
        "matrix_shape": list(matrix.shape),
        "dropped_documents": list(run.trim_report.dropped_doc_ids),
        "bootstrap_failures": result.bootstrap_failures,
        "baseline": bool(args.baseline),
    }
    (out / "fit_report.json").write_text(json.dumps(report, indent=2))
    return (f"wrote {out}/positions.csv ({matrix.shape[0]} documents, "
            f"{matrix.shape[1]} features)", {
                "k": run.partition.num_communities if run.partition else None,
                "matrix_shape": list(matrix.shape),
            })


def cmd_compare(args, config: RunConfig, out: Path) -> tuple[str, dict]:
    report = compare_models(
        _load_pipeline_corpus(config),
        bigram_threshold=config.min_bigram_count,
        config=config.fit_config(),
        unigram_min_count=config.unigram_min_count,
        min_community_size=config.min_community_size,
        run_config=config,
    )
    if report.community_result is None and report.unigram_result is None:
        raise CliError(f"both branches failed: {report.errors}", EXIT_ESTIMATION)
    com, uni = report.community_result, report.unigram_result
    doc_ids = sorted(
        set(com.matrix.doc_ids if com else ()) | set(uni.matrix.doc_ids if uni else ())
    )
    ci = {d: i for i, d in enumerate(com.matrix.doc_ids)} if com else {}
    ui = {d: i for i, d in enumerate(uni.matrix.doc_ids)} if uni else {}
    with open(out / "comparison.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doc_id", "theta_community", "theta_unigram"])
        for d in doc_ids:
            tc = f"{com.params.theta[ci[d]]:.6f}" if com and d in ci else ""
            tu = f"{uni.params.theta[ui[d]]:.6f}" if uni and d in ui else ""
            writer.writerow([d, tc, tu])
    summary = {
        "k_community_features": report.k_community_features,
        "vocabulary_size": report.vocabulary_size,
        "runtime_community": report.runtime_community,
        "runtime_unigram": report.runtime_unigram,
        "rank_correlation": report.rank_correlation,
        "dispersion_community": report.dispersion_community,
        "dispersion_unigram": report.dispersion_unigram,
        "errors": report.errors,
    }
    (out / "report.json").write_text(json.dumps(summary, indent=2))
    return f"wrote {out}/comparison.csv", {}


def cmd_simulate(args, config: RunConfig, out: Path) -> tuple[str, dict]:
    sim = SimulationSpec()
    if args.spec_file:
        sim = read_key_values(Path(args.spec_file), SimulationSpec, "spec")
    if args.seed is not None:
        sim.seed = args.seed
    spec = SyntheticSpec.create(
        n_docs=sim.n_docs,
        n_features=sim.n_features,
        expected_row_total=sim.expected_row_total,
        seed=sim.seed,
    )
    matrix, spec = generate_matrix(spec)
    fit_cfg = config.fit_config()
    result = fit(matrix, fit_cfg)
    if sim.bootstrap_b > 0:
        result = bootstrap(matrix, result, B=sim.bootstrap_b, seed=sim.seed, config=fit_cfg)
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        summary, extra = _COMMANDS[args.command](args, config, out)
        _write_manifest(out, config, {"command": args.command, **extra, "exit_status": 0})
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SynthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusError, GraphError, MatrixError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except ScalingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not args.quiet:
        print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())

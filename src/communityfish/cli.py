"""Batch command-line front end.

Subcommands: ``communities``, ``scale``, ``compare``, ``simulate``.
Configuration is a flat ``key = value`` text file; command-line flags win
over file values. Exit codes: 1 IO/config error, 2 empty pipeline stage,
3 estimation failure.

``run_pipeline`` is the one place that runs the stages on a corpus in
order: ``scale``, ``compare`` and the library's ``compare_models`` go through
it, and ``communities`` runs its clustering stage, ``_cluster``, alone.
``simulate`` has no corpus and does not go through it: it runs
``synthbench.simulate`` on a planted matrix.
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
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .corpus import (
    FORMATS,
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
from .synthbench import SimulationSpec, SynthError, simulate, spearman

# Unused here. perfbench/child.py wraps these names on this module, so they must resolve.
from .corpus import tokenize  # noqa: F401
from .graph import louvain as leiden  # noqa: F401

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
    "format": tuple(FORMATS),
    "clustering": ("louvain", "leiden"),  # two names for one algorithm
    "dtm": ("member-count", "bigram-match"),
}
FLOORS = {
    "min_bigram_count": 1,
    "min_community_size": 1,
    "unigram_min_count": 1,
    "bootstrap_b": 0,
    "seed": 0,
}


@dataclass(frozen=True)
class RunConfig(FitConfig):
    """The config file's keys: the fit's, which ``FitConfig`` declares, and
    the pipeline's; a value outside its key's domain raises ``CliError``, a
    ``ValueError``, with the config file's message."""

    input: str = ""
    format: str = "jsonl"
    stopwords: str = ""
    lemmas: str = ""
    min_bigram_count: int = 30
    clustering: str = "louvain"
    min_community_size: int = 2
    dtm: str = "member-count"
    unigram_min_count: int = 1
    bootstrap_b: int = 200
    seed: int = 0
    out: str = "run_output"

    def __post_init__(self):
        for key, allowed in CHOICES.items():
            value = getattr(self, key)
            if value not in allowed:
                raise CliError(f"config key {key!r} must be one of {', '.join(allowed)}, "
                               f"got {value!r}", EXIT_CONFIG)
        for key, floor in FLOORS.items():
            if (value := getattr(self, key)) < floor:
                raise CliError(f"config key {key!r} must be >= {floor}, got {value!r}",
                               EXIT_CONFIG)
        try:  # tol, max_iter and the anchors
            super().__post_init__()
        except ScalingError as exc:
            raise CliError(f"config: {exc}", EXIT_CONFIG) from None


@dataclass(frozen=True)
class PipelineRun:
    """What the stages of one run produced that a command reads: the
    partition (None for the unigram baseline), the trimming of the count
    matrix, and the fit, which holds the matrix."""

    partition: Partition | None
    trim_report: TrimReport
    result: ScalingResult


def _cluster(corpus: Corpus, config: RunConfig) -> tuple[WordGraph, Partition]:
    """Bigram counts -> threshold -> word graph -> ``louvain`` communities, for
    either ``clustering``; a partition without communities is a ``GraphError``."""
    graph = build_graph(filter_bigrams(count_bigrams(corpus), config.min_bigram_count))
    partition = louvain(graph, seed=config.seed, min_community_size=config.min_community_size)
    if not partition.assignment:
        raise GraphError("no communities")
    return graph, partition


def run_pipeline(corpus: Corpus, config: RunConfig, baseline: bool = False) -> PipelineRun:
    """Run the stages on a tokenized corpus, in order: ``_cluster`` ->
    community count matrix -> fit. ``baseline`` replaces everything before
    the fit by the unigram count matrix. The fit runs under ``config``, a
    ``FitConfig``.

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
    return PipelineRun(partition, trim_report, fit(matrix, config))


@dataclass(frozen=True)
class ComparisonReport:
    """Each branch's fit and pipeline runtime, None where it failed, and each
    failed branch's exception by name; everything else is read from these."""

    runtime_community: float | None
    runtime_unigram: float | None
    community_result: ScalingResult | None
    unigram_result: ScalingResult | None
    errors: dict[str, ValueError] = field(default_factory=dict)

    @property
    def results(self) -> dict[str, ScalingResult | None]:
        return {"community": self.community_result, "unigram": self.unigram_result}

    @cached_property
    def thetas(self) -> dict[str, dict[str, float]]:
        """Each branch's fitted theta by document id; empty for a failed branch."""
        return {branch: dict(zip(r.matrix.doc_ids, r.params.theta.tolist())) if r else {}
                for branch, r in self.results.items()}

    @property
    def rank_correlation(self) -> float | None:
        """Spearman's rho over the documents both fitted; None below 3 or where undefined."""
        com, uni = self.thetas.values()
        pairs = [(com[d], uni[d]) for d in com if d in uni]
        return spearman(*np.array(pairs).T) if len(pairs) >= 3 else None

    # each branch's feature count, read from its fit; None for a failed branch
    @property
    def k_community_features(self) -> int | None:
        return self.community_result.matrix.shape[1] if self.community_result else None

    @property
    def vocabulary_size(self) -> int | None:
        return self.unigram_result.matrix.shape[1] if self.unigram_result else None

    @property
    def both_converged(self) -> bool:
        """Both branches fitted and converged with the clamp inactive: the
        one condition under which their scales are worth comparing."""
        return all(r is not None and r.converged and not r.clamp_activated
                   for r in self.results.values())

    def summary(self) -> dict:
        """``compare``'s report.json, as JSON values."""
        return {
            "runtime_community": self.runtime_community,
            "runtime_unigram": self.runtime_unigram,
            "rank_correlation": self.rank_correlation,
            "errors": {branch: str(exc) for branch, exc in self.errors.items()},
            "both_converged": self.both_converged,
            **{branch: r.summary() if r else None for branch, r in self.results.items()},
        }


def compare_models(corpus: Corpus, config: RunConfig) -> ComparisonReport:
    """Fit the community-feature model and the unigram baseline on the same
    corpus, each by ``run_pipeline`` with these arguments; one branch
    failing still reports the other.
    """
    if len(corpus) == 0:
        raise CorpusError("empty corpus")
    results, runtimes, errors = {}, {}, {}
    for branch, baseline in (("community", False), ("unigram", True)):
        results[branch] = runtimes[branch] = None
        try:
            t0 = time.perf_counter()
            results[branch] = run_pipeline(corpus, config, baseline).result
            runtimes[branch] = time.perf_counter() - t0
        except ValueError as exc:
            errors[branch] = exc
    return ComparisonReport(runtimes["community"], runtimes["unigram"],
                            results["community"], results["unigram"], errors)


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
    for name, (_, help_, _) in _COMMANDS.items():
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
    corpus = load_corpus(config.input, config.format)
    stopwords = read_stopwords(config.stopwords) if config.stopwords else frozenset()
    table = read_lemma_table(config.lemmas) if config.lemmas else None
    return corpus.tokenized(stopwords, table)


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
    report = {**result.summary(), "dropped_documents": list(run.trim_report.dropped_doc_ids),
              "baseline": bool(args.baseline)}
    (out / "fit_report.json").write_text(json.dumps(report, indent=2))
    return (f"wrote {out}/positions.csv ({matrix.shape[0]} documents, "
            f"{matrix.shape[1]} features)", {
                "k": run.partition.num_communities if run.partition else None,
                "matrix_shape": list(matrix.shape),
            })


def cmd_compare(args, config: RunConfig, out: Path) -> tuple[str, dict]:
    report = compare_models(_load_pipeline_corpus(config), config)
    summary = report.summary()
    if report.community_result is None and report.unigram_result is None:
        raise CliError(f"both branches failed: {summary['errors']}",
                       max(map(_exit_code, report.errors.values())))
    thetas = report.thetas.values()
    _write_csv(out / "comparison.csv", ["doc_id", "theta_community", "theta_unigram"],
               ([d, *(f"{t[d]:.6f}" if d in t else "" for t in thetas)]
                for d in sorted(set().union(*thetas))))
    (out / "report.json").write_text(json.dumps(summary, indent=2))
    return f"wrote {out}/comparison.csv", {}


def cmd_simulate(args, config: RunConfig, out: Path) -> tuple[str, dict]:
    report = {"spec": dataclasses.asdict(args.spec),
              **simulate(args.spec, config, config.seed, config.bootstrap_b)}
    (out / "report.json").write_text(json.dumps(report, indent=2))
    return f"recovery pearson = {report['pearson']:.4f}", {}


# Each subcommand's handler, its help line and the files it writes to out
# besides manifest.json.
_COMMANDS = {
    "communities": (cmd_communities, "detect word communities and export them",
                    ("communities.csv", "graph_stats.json")),
    "scale": (cmd_scale, "run the full scaling pipeline",
              ("positions.csv", "features.csv", "fit_report.json")),
    "compare": (cmd_compare, "fit community and unigram models side by side",
                ("comparison.csv", "report.json")),
    "simulate": (cmd_simulate, "planted-truth recovery simulation", ("report.json",)),
}


# The exit code of each error class; a CliError carries its own.
_EXIT_CODES = {
    SynthError: EXIT_CONFIG,
    OSError: EXIT_CONFIG,
    CorpusError: EXIT_CONFIG,
    GraphError: EXIT_EMPTY,
    MatrixError: EXIT_EMPTY,
    ScalingError: EXIT_ESTIMATION,
}


def _exit_code(exc: Exception) -> int:
    """The exit code of ``exc``: a CliError's own, else its class's in
    ``_EXIT_CODES``; an error of no class there is an empty stage."""
    if isinstance(exc, CliError):
        return exc.code
    return next((c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls)), EXIT_EMPTY)


def main(argv: list[str] | None = None) -> int:
    """Run one command; each warning, such as a fit's, prints as one line."""
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return _run(argv)
    finally:
        warnings.formatwarning = formatwarning


def _run(argv: list[str] | None) -> int:
    out = None
    try:
        args = build_parser().parse_args(argv)
        config = _resolve_config(args)
        entries = {"command": args.command}
        if args.command == "simulate":
            entries["spec"] = dataclasses.asdict(args.spec)
        Path(config.out).mkdir(parents=True, exist_ok=True)
        out = Path(config.out)
        handler, _, outputs = _COMMANDS[args.command]
        for name in outputs:  # an earlier run's, which this run's manifest does not describe
            (out / name).unlink(missing_ok=True)
        summary, extra = handler(args, config, out)
        _write_manifest(out, config, {**entries, **extra, "exit_status": 0})
    except (CliError, *_EXIT_CODES) as exc:
        code = _exit_code(exc)
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

"""Per-module metrics derived from the spans of traced CLI runs.

A span's self time is its duration minus the time its child spans cover.
Top-level spans are the children of the ``cli.main`` span; ``cli.self_s`` is
the command time they do not cover (configuration, CSV and JSON writes).
"""

from __future__ import annotations

import statistics

import numpy as np

# name -> unit; the order is the order of the printed metrics
UNITS = {
    "corpus.load_s": "s", "corpus.tokenize_s": "s", "corpus.count_bigrams_s": "s",
    "corpus.filter_s": "s", "corpus.tokens": "count", "corpus.pairs": "count",
    "corpus.pairs_kept": "count", "corpus.kept_ratio": "1", "corpus.tokens_per_s": "1/s",
    "graph.build_s": "s", "graph.cluster_s": "s", "graph.nodes": "count",
    "graph.edges": "count", "graph.communities": "count",
    "features.community_dtm_s": "s", "features.unigram_dtm_s": "s",
    "features.cells": "count", "features.dropped_docs": "count",
    "scaling.fit_s": "s", "scaling.fit_iters": "count", "scaling.fit_cell_iters_per_s": "1/s",
    "scaling.bootstrap_s": "s", "scaling.bootstrap_self_s": "s", "scaling.refits": "count",
    "scaling.refit_s_p50": "s", "scaling.refit_s_p90": "s", "scaling.refit_iters_mean": "count",
    "scaling.bootstrap_failures": "count",
    "synthbench.compare_s": "s", "synthbench.compare_self_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "bytes", "trace_overhead_s": "s",
}

# exact work counts; two runs on the same input must agree on all of them
COUNTERS = (
    "corpus.tokens", "corpus.pairs", "corpus.pairs_kept", "graph.nodes", "graph.edges",
    "graph.communities", "features.cells", "features.dropped_docs", "scaling.fit_iters",
    "scaling.refits", "refit_iters_total", "scaling.bootstrap_failures",
)


def one_run(spans: list[dict], bytes_written: int) -> dict:
    """Metrics (without trace_overhead_s) and counters of one traced run."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    by_id = {s["id"]: s for s in spans}

    def busy(name):
        return sum(s["busy"] for s in spans if s["name"] == name)

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    def self_time(name):
        return sum(s["busy"] - sum(c["busy"] for c in children.get(s["id"], ()))
                   for s in spans if s["name"] == name)

    def under_bootstrap(s):
        parent = by_id.get(s["parent"])
        return parent is not None and parent["name"] == "scaling.bootstrap"

    fits = [s for s in spans if s["name"] == "scaling.fit" and not under_bootstrap(s)]
    refits = [s for s in spans if s["name"] == "scaling.fit" and under_bootstrap(s)]
    fit_s = sum(s["busy"] for s in fits)
    cell_iters = sum(s["attrs"].get("cells", 0) * s["attrs"].get("iters", 0) for s in fits)
    refit_iters = [s["attrs"].get("iters", 0) for s in refits]
    refit_s = [s["busy"] for s in refits]
    corpus_s = sum(busy(f"corpus.{n}") for n in ("load", "tokenize", "count_bigrams", "filter"))
    m = {
        "corpus.load_s": busy("corpus.load"),
        "corpus.tokenize_s": busy("corpus.tokenize"),
        "corpus.count_bigrams_s": busy("corpus.count_bigrams"),
        "corpus.filter_s": busy("corpus.filter"),
        "corpus.tokens": attr("corpus.tokenize", "tokens"),
        "corpus.pairs": attr("corpus.count_bigrams", "pairs"),
        "corpus.pairs_kept": attr("corpus.filter", "pairs_kept"),
        "graph.build_s": busy("graph.build"),
        "graph.cluster_s": busy("graph.cluster"),
        "graph.nodes": attr("graph.build", "nodes"),
        "graph.edges": attr("graph.build", "edges"),
        "graph.communities": attr("graph.cluster", "communities"),
        "features.community_dtm_s": busy("features.community_dtm"),
        "features.unigram_dtm_s": busy("features.unigram_dtm"),
        "features.cells": sum(s["attrs"].get("cells", 0) for s in fits),
        "features.dropped_docs": attr("features.community_dtm", "dropped_docs")
        + attr("features.unigram_dtm", "dropped_docs"),
        "scaling.fit_s": fit_s,
        "scaling.fit_iters": sum(s["attrs"].get("iters", 0) for s in fits),
        "scaling.fit_cell_iters_per_s": cell_iters / fit_s if fit_s > 0 else 0.0,
        "scaling.bootstrap_s": busy("scaling.bootstrap"),
        "scaling.bootstrap_self_s": self_time("scaling.bootstrap"),
        "scaling.refits": len(refits),
        "scaling.refit_s_p50": float(np.percentile(refit_s, 50)) if refits else 0.0,
        "scaling.refit_s_p90": float(np.percentile(refit_s, 90)) if refits else 0.0,
        "scaling.refit_iters_mean": statistics.fmean(refit_iters) if refit_iters else 0.0,
        "scaling.bootstrap_failures": attr("scaling.bootstrap", "failures"),
        "synthbench.compare_s": busy("synthbench.compare"),
        "synthbench.compare_self_s": self_time("synthbench.compare"),
        "cli.self_s": self_time("cli.main"),
        "cli.bytes_written": bytes_written,
    }
    m["corpus.kept_ratio"] = m["corpus.pairs_kept"] / m["corpus.pairs"] if m["corpus.pairs"] else 0.0
    m["corpus.tokens_per_s"] = m["corpus.tokens"] / corpus_s if corpus_s > 0 else 0.0
    counters = {k: m[k] for k in COUNTERS if k in m}
    counters["refit_iters_total"] = sum(refit_iters)
    top_level_s = sum(c["busy"] for s in spans if s["name"] == "cli.main"
                      for c in children.get(s["id"], ()))
    return {"metrics": m, "counters": counters, "top_level_s": top_level_s}


def per_layer_metrics(traced: list[dict], untraced_walls: list[float]):
    """Median of each metric over the traced runs, plus the tracing overhead
    (median traced minus median untraced command time). Returns the printable
    metrics, the counters of every traced run and the span-sum check."""
    runs = [one_run(rec["spans"], rec["bytes_written"]) for rec in traced]
    traced_wall = statistics.median(rec["wall_s"] for rec in traced)
    values = {name: statistics.median(r["metrics"][name] for r in runs)
              for name in UNITS if name != "trace_overhead_s"}
    values["trace_overhead_s"] = traced_wall - statistics.median(untraced_walls)
    span_check = {
        "top_level_plus_cli_self_s": statistics.median(
            r["top_level_s"] + r["metrics"]["cli.self_s"] for r in runs),
        "untraced_wall_s": statistics.median(untraced_walls),
        "trace_overhead_s": values["trace_overhead_s"],
    }
    metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
    return metrics, [r["counters"] for r in runs], span_check

"""The run process: one fresh interpreter that imports the communityfish CLI
and runs commands on the benchmark's corpora, timing each from inside.

    python child.py PLAN RECORD

PLAN is a JSON object: ``src`` (the source tree to import from), ``pool``
(one CLI argument list per corpus, without ``--out``), ``out`` (directory for
per-command outputs), ``seconds`` (time budget), ``trace`` and ``once``.
RECORD receives one JSON object: the import time, every command's time, exit
code and non-converged fits, the spans of traced commands, and the peak RSS
of the process.

A ``once`` plan runs each pool entry once (traced if ``trace``). Otherwise
untraced plans run the pool once in order, then the first corpus again, then
round robin until the budget is spent; traced plans alternate untraced and
traced commands on the first corpus, at least twice each.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
import warnings


class Tracer:
    """Spans around calls into the package, kept in memory until the end.

    A span is (id, name, parent, start, end, busy, attrs). ``busy`` is
    end - start, except for aggregated spans (one per name and parent, used
    for per-document calls) where it sums the durations of the calls.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.aggregates: dict[tuple, dict] = {}
        self.originals: list[tuple] = []

    def _open(self, name: str, start: float) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "start": start, "end": start, "busy": 0.0, "attrs": {}}
        self.spans.append(span)
        return span

    def wrap(self, module, attr: str, name: str, counters=None,
             aggregate: bool = False) -> None:
        fn = getattr(module, attr)
        self.originals.append((module, attr, fn))
        tracer = self

        def traced(*args, **kwargs):
            start = time.perf_counter()
            if aggregate:
                key = (name, tracer.stack[-1] if tracer.stack else None)
                span = tracer.aggregates.get(key)
                if span is None:
                    span = tracer.aggregates[key] = tracer._open(name, start)
            else:
                span = tracer._open(name, start)
            tracer.stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["attrs"]["error"] = type(exc).__name__
                raise
            finally:
                tracer.stack.pop()
                end = time.perf_counter()
                span["end"] = end
                span["busy"] += end - start
            if counters is not None:
                for key, value in counters(result).items():
                    span["attrs"][key] = span["attrs"].get(key, 0) + value
            return result

        setattr(module, attr, traced)

    def remove(self) -> None:
        for module, attr, fn in reversed(self.originals):
            setattr(module, attr, fn)
        self.originals.clear()


def _matrix_counters(out):
    matrix, trim_report = out
    n, k = matrix.shape
    return {"cells": n * k, "dropped_docs": len(trim_report.dropped_doc_ids)}


def _fit_counters(result):
    n, k = result.matrix.shape
    return {"iters": len(result.loglik_trace) - 1, "cells": n * k}


def _partition_counters(partition):
    return {"communities": partition.num_communities}


def install(tracer: Tracer) -> None:
    """Wrap the public functions at the names their callers look up: the
    CLI's imported names, the names ``compare_models`` resolves inside
    synthbench, and ``scaling.fit``, which ``bootstrap`` calls per replicate."""
    from communityfish import cli, scaling, synthbench

    shared = [
        ("count_bigrams", "corpus.count_bigrams", lambda r: {"pairs": len(r.pairs)}),
        ("filter_bigrams", "corpus.filter", lambda r: {"pairs_kept": len(r.pairs)}),
        ("build_graph", "graph.build", lambda g: {
            "nodes": len(g), "edges": sum(len(a) for a in g.adjacency) // 2}),
        ("louvain", "graph.cluster", _partition_counters),
        ("community_dtm", "features.community_dtm", _matrix_counters),
        ("unigram_dtm", "features.unigram_dtm", _matrix_counters),
        ("fit", "scaling.fit", _fit_counters),
    ]
    for attr, name, counters in shared:
        tracer.wrap(cli, attr, name, counters)
        tracer.wrap(synthbench, attr, name, counters)
    tracer.wrap(cli, "leiden", "graph.cluster", _partition_counters)
    tracer.wrap(cli, "load_corpus", "corpus.load", lambda c: {"docs": len(c)})
    tracer.wrap(cli, "tokenize", "corpus.tokenize",
                lambda d: {"tokens": len(d.tokens)}, aggregate=True)
    tracer.wrap(cli, "bootstrap", "scaling.bootstrap",
                lambda r: {"failures": r.bootstrap_failures})
    tracer.wrap(scaling, "fit", "scaling.fit", _fit_counters)
    tracer.wrap(cli, "compare_models", "synthbench.compare")
    tracer.wrap(cli, "main", "cli.main")


def run_command(cli, argv: list[str], trace: bool) -> dict:
    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    rc = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed command; keep running the rest
            rc = traceback.format_exc(limit=3)
        wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.remove()
    return {
        "wall_s": wall,
        "exit_code": rc,
        "nonconverged": sum("did not converge" in str(w.message) for w in caught),
        "spans": tracer.spans if tracer is not None else None,
    }


def schedule(pool_size: int, trace: bool, once: bool):
    """Yield (corpus index, traced, minimum reached) for each command."""
    n = 0
    while not (once and n == pool_size):
        if once:
            yield n, trace, False
        elif trace:
            yield 0, n % 2 == 1, n >= 4
        else:
            yield n % pool_size if n <= pool_size else (n - pool_size) % pool_size, \
                False, n > pool_size
        n += 1


def main() -> int:
    plan_path, record_path = sys.argv[1:]
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    t0 = time.perf_counter()
    import communityfish.cli as cli
    record: dict = {"import_s": time.perf_counter() - t0, "commands": []}
    loaded = os.path.realpath(cli.__file__)
    if not loaded.startswith(os.path.realpath(plan["src"]) + os.sep):
        print(f"communityfish imported from {loaded}, not from {plan['src']}",
              file=sys.stderr)
        return 2
    pool = plan["pool"]
    start = time.perf_counter()
    steps = schedule(len(pool), plan["trace"], plan["once"])
    for n, (k, traced, minimum_done) in enumerate(steps):
        if minimum_done and time.perf_counter() - start >= plan["seconds"]:
            break
        out = os.path.join(plan["out"], f"cmd{n}")
        result = run_command(cli, [*pool[k], "--out", out, "--quiet"], traced)
        record["commands"].append({"k": k, "traced": traced, "out": out, **result})
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

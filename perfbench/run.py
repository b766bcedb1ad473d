#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the communityfish command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
The benchmark draws a pool of planted-truth corpora from ``--seed`` and then
starts one fresh interpreter, the run process, which imports the CLI and
runs the workload's command on the corpora, one after another, until ``S``
seconds have passed. Every command's outputs are checked. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-module metrics of a traced run with ``--trace 1``.

All files go to ``.perfbench_work/`` in the checkout. ``LAYERS.md`` says
what each metric means and which end-to-end metric each layer should move.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gen import CorpusShape, write_inputs
from layers import per_layer_metrics

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = Path(__file__).resolve().parent / "child.py"

THETA_FLOOR = 0.9  # |Pearson| of estimated against planted positions
MODULARITY_FLOOR = 0.5
DEADLINE_S = 170  # every process of a run ends within this many seconds


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]
    shape: CorpusShape
    config: dict
    pool: int  # distinct corpora drawn from the seed
    # commands run once, untimed, on the first corpus, for the quality
    # outputs the timed command does not write
    probes: tuple[tuple[str, ...], ...]
    probe_config: dict = field(default_factory=dict)


# LAYERS.md says why each workload exists and why it has this size.
# BENCHMARK.json lists scale_boot and compare_wide; communities_dense runs on
# request only, because its time swings with the speed of pure-Python code.
WORKLOADS = {
    "scale_boot": Workload(
        command=("scale",),
        shape=CorpusShape(n_docs=100, runs_per_doc=150, run_length=8,
                          background_per_run=0, n_communities=30,
                          community_sizes=(3, 7), background_vocab=0),
        config={"min_bigram_count": 30, "bootstrap_b": 30},
        pool=10,
        probes=(("compare",), ("communities",)),
    ),
    "compare_wide": Workload(
        command=("compare",),
        shape=CorpusShape(n_docs=150, runs_per_doc=120, run_length=5,
                          background_per_run=5, n_communities=60,
                          community_sizes=(3, 7), background_vocab=5000,
                          zipf_exponent=0.9),
        config={"min_bigram_count": 30, "unigram_min_count": 5},
        pool=6,
        probes=(("communities",),),
    ),
    "communities_dense": Workload(
        command=("communities", "--clustering", "leiden"),
        shape=CorpusShape(n_docs=300, runs_per_doc=100, run_length=4,
                          background_per_run=4, n_communities=200,
                          community_sizes=(3, 7), background_vocab=12000),
        config={"min_bigram_count": 2},
        pool=6,
        probes=(("compare",),),
        probe_config={"min_bigram_count": 30, "unigram_min_count": 200},
    ),
}


class Tally:
    """Attempted and failed operations, and a finding per failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.findings: list[str] = []

    def add(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, finding: str) -> bool:
        self.add(1, 0 if ok else 1)
        if not ok:
            self.findings.append(finding)
        return ok


def _strict_json(path: Path):
    def reject(token):
        raise ValueError(f"non-finite constant {token}")
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def _read_csv(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _theta_column(rows: list[dict], column: str) -> dict | None:
    """doc_id -> theta for the non-empty cells; None if any is not finite."""
    theta = {}
    for r in rows:
        if r[column]:
            try:
                theta[r["doc_id"]] = float(r[column])
            except ValueError:
                return None
    return theta if all(math.isfinite(t) for t in theta.values()) else None


def _pearson(estimate: dict, truth: dict) -> float:
    ids = sorted(estimate)
    return abs(float(np.corrcoef([estimate[d] for d in ids], [truth[d] for d in ids])[0, 1]))


def check_outputs(command: str, out: Path, truth: dict, nonconverged: int,
                  tally: Tally, tag: str) -> dict:
    """Check one command's outputs, count its operations, and return its
    quality figures. ``nonconverged`` counts top-level fits that warned they
    did not converge; the package itself silences bootstrap refits."""
    quality: dict = {}
    jsons = {}
    for path in sorted(out.glob("*.json")):
        try:
            jsons[path.name] = _strict_json(path)
            tally.add(1)
        except ValueError as exc:
            tally.check(False, f"{tag}: {path.name} is not strict JSON ({exc})")
    if command == "scale":
        report = jsons.get("fit_report.json", {})
        tally.add(1, 0 if report.get("converged") else 1)
        b = jsons.get("manifest.json", {}).get("config", {}).get("bootstrap_b", 0)
        tally.add(b, int(report.get("bootstrap_failures", 0)))
        rows = _read_csv(out / "positions.csv")
        kept = len(truth) - len(report.get("dropped_documents", truth))
        theta = _theta_column(rows, "theta")
        if tally.check(theta is not None and len(rows) == len(theta) == kept,
                       f"{tag}: positions.csv lacks one finite theta per kept document"):
            quality["theta_pearson"] = _pearson(theta, truth)
    elif command == "compare":
        report = jsons.get("report.json", {})
        tally.add(2, len(report.get("errors", {"report.json": "missing"})) + nonconverged)
        rows = _read_csv(out / "comparison.csv")
        for column, metric in (("theta_community", "theta_pearson"),
                               ("theta_unigram", "theta_pearson_unigram")):
            theta = _theta_column(rows, column)
            if tally.check(bool(theta) and len(theta) == len(rows),
                           f"{tag}: comparison.csv lacks a finite {column} per document"):
                quality[metric] = _pearson(theta, truth)
    elif command == "communities":
        stats = jsons.get("graph_stats.json", {})
        sizes: dict = {}
        for r in _read_csv(out / "communities.csv"):
            sizes[r["community_id"]] = sizes.get(r["community_id"], 0) + 1
        tally.check(stats.get("num_communities") == len(sizes) and
                    stats.get("community_sizes") == sorted(sizes.values(), reverse=True),
                    f"{tag}: communities.csv does not match graph_stats.json")
        if isinstance(stats.get("modularity"), float):
            quality["modularity"] = stats["modularity"]
    for metric, floor in (("theta_pearson", THETA_FLOOR),
                          ("theta_pearson_unigram", THETA_FLOOR),
                          ("modularity", MODULARITY_FLOOR)):
        if metric in quality:
            tally.check(quality[metric] > floor,
                        f"{tag}: {metric} {quality[metric]:.4f} not above {floor}")
    return quality


def run_process(work: Path, name: str, pool: list, seconds: float, deadline: float,
                trace: bool = False, once: bool = False, env: dict | None = None) -> dict | None:
    """Start the run process on a plan and wait for it; return its record, or
    None if it failed or had to be killed at ``deadline`` (a perf_counter time)."""
    timeout = max(deadline - time.perf_counter(), 1.0)
    plan = {"src": str(SRC), "pool": pool, "out": str(work / name), "seconds": seconds,
            "trace": trace, "once": once}
    plan_path, record_path = work / f"{name}.plan.json", work / f"{name}.record.json"
    plan_path.write_text(json.dumps(plan))
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(plan_path), str(record_path)],
            cwd=ROOT, env={**os.environ, **(env or {}), "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: run process {name} exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not record_path.exists():
        sys.stderr.write(proc.stderr[-3000:])
        return None
    return json.loads(record_path.read_text())


def environment(seed: int) -> dict:
    commit = "unknown (not a git checkout)"
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
        if git.returncode == 0:
            commit = git.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "communityfish" / "cli.py").is_file():
        print(f"error: no communityfish sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = environment(args.seed)
    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    t0 = time.perf_counter()
    inputs = []
    for k, sub_seed in enumerate(np.random.SeedSequence(args.seed).generate_state(wl.pool)):
        paths = write_inputs(work / f"input{k}", wl.shape, int(sub_seed), wl.config)
        paths["truth"] = json.loads(paths["theta"].read_text())
        inputs.append(paths)
    gen_s = time.perf_counter() - t0

    tally = Tally()
    imports: list[float] = []
    quality: dict[str, list] = {}
    digests: dict[int, set] = {}

    def collect(rec: dict | None, process: str, commands: list) -> list[dict]:
        """Check every command of a process record; return those that ran."""
        if not tally.check(rec is not None, f"the {process} process failed"):
            return []
        imports.append(rec["import_s"])
        done = []
        for n, cmd in enumerate(rec["commands"]):
            out, k = Path(cmd["out"]), cmd["k"]
            tag = f"{process} command {n} ({' '.join(commands[k][:1])}, corpus {k})"
            if not tally.check(cmd["exit_code"] == 0, f"{tag} exited with {cmd['exit_code']!r}"):
                continue
            for key, value in check_outputs(commands[k][0], out, inputs[k]["truth"],
                                            cmd["nonconverged"], tally, tag).items():
                quality.setdefault(key, []).append(value)
            if commands[k][0] == wl.command[0]:
                digests.setdefault(k, set()).add(tuple(
                    (p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                    for p in sorted(out.glob("*.csv"))))
            cmd["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
            done.append(cmd)
        return done

    pool = [[*wl.command, "--config", str(p["config"])] for p in inputs]
    if args.trace:
        pool = pool[:1]
    trace = bool(args.trace)
    commands = [list(wl.command)] * len(pool)
    rec = run_process(work, "run", pool, args.seconds, deadline, trace=trace)
    ran = collect(rec, "run", commands)
    walls = [c for c in ran if not c["traced"]]
    traced = [c for c in ran if c["traced"]]
    # the first corpus once more in another interpreter, with its own string
    # hash seed: reruns must write byte-identical CSVs, as the README promises
    rerun = run_process(work, "rerun", pool[:1], 0, deadline, trace=trace, once=True,
                        env={"PYTHONHASHSEED": "random"})
    traced += [c for c in collect(rerun, "rerun", commands) if c["traced"]]
    if not args.trace:
        probe_config = inputs[0]["config"]
        if wl.probe_config:
            lines = [line for line in probe_config.read_text().splitlines()
                     if line.split("=")[0].strip() not in wl.probe_config]
            lines += [f"{key} = {value}" for key, value in wl.probe_config.items()]
            probe_config = work / "probe_config.txt"
            probe_config.write_text("\n".join(lines) + "\n")
        probe_pool = [[*argv, "--config", str(probe_config)] for argv in wl.probes]
        collect(run_process(work, "probe", probe_pool, 0, deadline, once=True), "probe",
                [list(argv) for argv in wl.probes])
    for k, seen in sorted(digests.items()):
        tally.check(len(seen) == 1, f"corpus {k}: CSV outputs differ between reruns")

    record = {"workload": args.workload, "env": env, "gen_s": gen_s,
              "commands": len(ran)}
    metrics: dict = {}
    if args.trace and traced and walls:
        metrics, counter_sets, span_check = per_layer_metrics(
            traced, [c["wall_s"] for c in walls])
        tally.check(all(c == counter_sets[0] for c in counter_sets),
                    "work counters differ between traced reruns of one corpus")
        record.update(counters=counter_sets, span_check=span_check)
    elif not args.trace and walls:
        ok_ratio = 1.0 - tally.failed / tally.attempted
        values = {
            "setup_s": (statistics.median(imports), "s"),
            "wall_s": (statistics.median(c["wall_s"] for c in walls), "s"),
            "peak_rss_mb": (rec["peak_rss_mb"], "MB"),
            "ok_ratio": (ok_ratio, "1"),
        }
        for name in ("theta_pearson", "theta_pearson_unigram", "modularity"):
            values[name] = (statistics.median(quality.get(name, [math.nan])), "1")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        record["samples"] = {"wall_s": [c["wall_s"] for c in walls], "import_s": imports}
    record.update(metrics=metrics, findings=tally.findings)
    # keep the record; drop the corpora and outputs, which runs do not share
    for path in work.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
    (work / "result.json").write_text(json.dumps(record, indent=1))
    for finding in tally.findings:
        print(f"# finding: {finding}")
    print("# env " + json.dumps(env))
    print(f"# {args.workload} seed={args.seed} commands={len(ran)} "
          f"gen_s={gen_s:.3f} (not in setup_s)")
    if not metrics or not all(math.isfinite(m["value"]) for m in metrics.values()):
        print("error: a metric could not be measured", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not tally.findings, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

import contextlib
import csv
import dataclasses
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import communityfish
from communityfish import cli
from communityfish.cli import (
    CliError,
    RunConfig,
    SimulationSpec,
    _load_pipeline_corpus,
    main,
    read_key_values,
    run_pipeline,
)
from communityfish.features import MatrixError
from communityfish.graph import GraphError
from communityfish.scaling import FitConfig, ScalingError, fit
from communityfish.synthbench import (
    PlantedCorpusSpec,
    SynthError,
    SyntheticSpec,
    generate_corpus,
    generate_matrix,
    simulate,
)

COM_A = tuple(f"alpha{i}" for i in range(5))
COM_B = tuple(f"beta{i}" for i in range(5))


@pytest.fixture
def corpus_file(tmp_path):
    spec = PlantedCorpusSpec(
        communities=(COM_A, COM_B),
        polarity=(0.7, -0.7),
        n_docs=12,
        runs_per_doc=80,
        run_length=6,
        seed=5,
    )
    corpus, _ = generate_corpus(spec)
    path = tmp_path / "corpus.jsonl"
    with open(path, "w") as fh:
        for d in corpus.documents:
            fh.write(json.dumps({"id": d.id, "text": d.text, **dict(d.metadata)}) + "\n")
    return path


def base_args(corpus_file, tmp_path, name="out"):
    return ["--input", str(corpus_file), "--format", "jsonl",
            "--pi", "30", "--out", str(tmp_path / name), "--quiet"]


def write_tied_corpus(path):
    """Five documents: the unigram branch at unigram_min_count = 200 keeps
    d1-d3 only, and the community branch at min_bigram_count = 1 gives all
    three one theta."""
    docs = [("d1", "x x x y", 100), ("d2", "x y", 200), ("d3", "x y y y", 100),
            ("d4", "a b c", 20), ("d5", "a b c c", 20)]
    path.write_text("".join(json.dumps({"id": d, "text": " ".join([text] * runs)}) + "\n"
                            for d, text, runs in docs))
    return path


def without_runtime(summary: dict) -> dict:
    """A report as JSON reads it back, without the fit's runtime."""
    return {k: v for k, v in json.loads(json.dumps(summary)).items() if k != "runtime_seconds"}


def read_config(path) -> RunConfig:
    return RunConfig(**read_key_values(path, RunConfig, "config"))


class TestRunConfig:
    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("bogus_key = 1\n")
        with pytest.raises(CliError, match="bogus_key"):
            read_config(p)

    def test_parses_types(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("min_bigram_count = 10\nclustering = leiden\ntol = 1e-6\n")
        config = read_config(p)
        assert config.min_bigram_count == 10
        assert config.clustering == "leiden"
        assert config.tol == 1e-6

    def test_byte_order_mark_is_ignored(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("min_bigram_count = 10\n", encoding="utf-8-sig")
        assert read_config(p).min_bigram_count == 10

    def test_missing_file(self, tmp_path):
        with pytest.raises(CliError):
            read_config(tmp_path / "nope.cfg")

    def test_bad_value_exits_1_with_location(self, corpus_file, tmp_path, capsys):
        for body, message in ((b"max_iter = ten\n", ":2: config key 'max_iter'"),
                              (b"anchor_low = \xff\xfe\n", ": not UTF-8 text")):
            p = tmp_path / "run.cfg"
            p.write_bytes(f"input = {corpus_file}\n".encode() + body)
            rc = main(["scale", "--config", str(p), "--out", str(tmp_path / "o"),
                       "--quiet"])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {p}{message}")
            assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("setting, message", [
        ("clustering = foo",
         "config key 'clustering' must be one of louvain, leiden, got 'foo'"),
        ("dtm = foo", "config key 'dtm' must be one of member-count, bigram-match, got 'foo'"),
        ("format = foo", "config key 'format' must be one of jsonl, text-directory, csv, "
                         "got 'foo'"),
        # keys that are not config keys, whatever their value
        ("clamp = 30", "{config}:2: unknown config key 'clamp'"),
        ("clamp = nan", "{config}:2: unknown config key 'clamp'"),
        ("strict_greater = true", "{config}:2: unknown config key 'strict_greater'"),
        ("tol = nan", "config: tol must be finite and positive, got nan"),
        ("tol = 0", "config: tol must be finite and positive, got 0.0"),
        ("max_iter = 0", "config: max_iter must be >= 1, got 0"),
        ("min_bigram_count = 0", "config key 'min_bigram_count' must be >= 1, got 0"),
        (["--pi", "0"], "config key 'min_bigram_count' must be >= 1, got 0"),
        ("min_community_size = 0", "config key 'min_community_size' must be >= 1, got 0"),
        ("unigram_min_count = 0", "config key 'unigram_min_count' must be >= 1, got 0"),
        ("bootstrap_b = -5", "config key 'bootstrap_b' must be >= 0, got -5"),
        ("seed = -1", "config key 'seed' must be >= 0, got -1"),
        (["--seed", "-2"], "config key 'seed' must be >= 0, got -2"),
        ("anchor_low = doc_1\nanchor_high = doc_1", "config: anchor documents must be distinct"),
        # a flag's value gets a config line's message, after its own location
        (["--clustering", "Louvain"],
         "config key 'clustering' must be one of louvain, leiden, got 'Louvain'"),
        (["--format", "foo"], "config key 'format' must be one of jsonl, text-directory, csv, "
                              "got 'foo'"),
        ("min_bigram_count = abc",
         "{config}:2: config key 'min_bigram_count': expected int, got 'abc'"),
        (["--pi", "abc"],
         "command line: config key 'min_bigram_count': expected int, got 'abc'"),
        (["--pi", "1e3"],
         "command line: config key 'min_bigram_count': expected int, got '1e3'"),
        (["--seed", "x"], "command line: config key 'seed': expected int, got 'x'"),
    ])
    def test_out_of_domain_value_exits_1(self, corpus_file, tmp_path, capsys, setting,
                                         message):
        """``setting`` is a config line or, as a list, command-line flags;
        ``{config}`` in ``message`` stands for the config file's path."""
        flags = setting if isinstance(setting, list) else []
        p = tmp_path / "run.cfg"
        p.write_text(f"input = {corpus_file}\n" + ("" if flags else f"{setting}\n"))
        out = tmp_path / "o"
        rc = main(["scale", "--config", str(p), *flags, "--out", str(out), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message.format(config=p)}\n"
        assert not out.exists()  # rejected before any stage ran

    @pytest.mark.parametrize("values, message", [
        ({"dtm": "bigram_match"},
         "config key 'dtm' must be one of member-count, bigram-match, got 'bigram_match'"),
        ({"clustering": "Louvain"},
         "config key 'clustering' must be one of louvain, leiden, got 'Louvain'"),
        ({"format": "JSONL"},
         "config key 'format' must be one of jsonl, text-directory, csv, got 'JSONL'"),
        ({"seed": -1}, "config key 'seed' must be >= 0, got -1"),
        ({"min_bigram_count": 0}, "config key 'min_bigram_count' must be >= 1, got 0"),
        ({"bootstrap_b": -5}, "config key 'bootstrap_b' must be >= 0, got -5"),
        ({"tol": float("nan")}, "config: tol must be finite and positive, got nan"),
        ({"max_iter": 0}, "config: max_iter must be >= 1, got 0"),
        ({"anchor_low": "d", "anchor_high": "d"}, "config: anchor documents must be distinct"),
    ])
    def test_library_value_is_checked_with_the_config_message(self, tmp_path, capsys, values,
                                                              message):
        with pytest.raises(ValueError) as raised:
            RunConfig(**values)
        assert isinstance(raised.value, CliError) and str(raised.value) == message
        p = tmp_path / "run.cfg"
        p.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        rc = main(["scale", "--config", str(p), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_library_spec_value_is_checked_with_the_spec_message(self):
        with pytest.raises(SynthError, match=r"^spec key 'n_docs' must be >= 2, got 1$"):
            SimulationSpec(n_docs=1)

    def test_duplicate_key_exits_1_naming_both_lines(self, corpus_file, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text(f"input = {corpus_file}\nmin_bigram_count = 30\n# a comment\n"
                     "min_bigram_count = 5\n")
        out = tmp_path / "o"
        rc = main(["scale", "--config", str(p), "--out", str(out), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {p}:4: duplicate config key 'min_bigram_count' (first on line 2)\n")
        assert not out.exists()


class TestUsage:
    """Argument errors are one-line exit-1 errors; help and version exit 0."""

    @pytest.mark.parametrize("argv, message", [
        (["scale", "--bogus"], "unrecognized arguments: --bogus"),
        (["scale", "--se", "foo"], "argument --se: invalid choice: 'foo'"),
        (["scale", "--pi"], "argument --pi: expected one argument"),
        (["nope"], "argument command: invalid choice: 'nope'"),
        ([], "the following arguments are required: command"),
    ])
    def test_usage_error_exits_1_with_one_line(self, tmp_path, capsys, monkeypatch, argv,
                                               message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())  # no output directory

    @pytest.mark.parametrize("out", ["f", "f/o"], ids=["file", "under_a_file"])
    def test_out_that_is_no_directory_exits_1_with_one_line(self, tmp_path, capsys, out):
        (tmp_path / "f").write_text("kept\n")
        assert main(["simulate", "--out", str(tmp_path / out), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["f"]
        assert (tmp_path / "f").read_text() == "kept\n"

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["scale", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 0
        assert capsys.readouterr().err == ""


def _run_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's communityfish, with
    ``env`` set over the inherited environment."""
    env = {**os.environ, "PYTHONPATH": str(Path(communityfish.__file__).parents[1]), **env}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60)


class TestImports:
    def test_module_run_prints_no_runtime_warning(self):
        proc = _run_python("-W", "error::RuntimeWarning", "-m", "communityfish.cli",
                           "--version")
        assert proc.returncode == 0
        assert proc.stdout.strip() == communityfish.__version__
        assert proc.stderr == ""

    def test_cli_imports_no_scipy(self):
        proc = _run_python("-c", "import sys, communityfish.cli; print(sorted("
                           "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_package_loads_cli_on_first_access(self):
        proc = _run_python("-c", "import sys, communityfish as cf; "
                           "print('communityfish.cli' in sys.modules); "
                           "import communityfish.cli as cli; "
                           "print(cf.compare_models is cli.compare_models, "
                           "cf.ComparisonReport is cli.ComparisonReport, "
                           "cf.RunConfig is cli.RunConfig)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True", "True", "True"]
        with pytest.raises(AttributeError, match="no_such_name"):
            communityfish.no_such_name

    def test_every_exported_name_resolves(self):
        # the lazy names (compare_models and its RunConfig) included
        missing = [name for name in communityfish.__all__ if not hasattr(communityfish, name)]
        assert missing == []


class TestScripts:
    def test_model_comparison_records_a_failed_branch(self, tmp_path):
        # no bigram reaches the threshold: the community branch fails
        script = Path(communityfish.__file__).parents[2] / "scripts" / "run_model_comparison.py"
        out = tmp_path / "comparison.json"
        proc = _run_python("-W", "error::RuntimeWarning", str(script), "--pi", "100000",
                           "--replications", "1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(out.read_text())
        row = summary["replications"][0]
        assert row["rho_community"] is None and 0 <= row["rho_unigram"] <= 1
        assert row["errors"] == {"community": "empty graph: no bigrams survive threshold"}
        assert summary["both_fitted"] == summary["community_wins"] == 0

    @staticmethod
    def _run_script(monkeypatch, tmp_path, name: str, *args: str) -> dict:
        """Run a script's main() as ``python scripts/<name> ... --out``; the
        summary it wrote."""
        script = Path(communityfish.__file__).parents[2] / "scripts" / name
        out = tmp_path / "summary.json"
        monkeypatch.setattr(sys, "argv", [str(script), *args, "--out", str(out)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the fits' clamp and max_iter notes
            runpy.run_path(str(script), run_name="__main__")
        return json.loads(out.read_text())

    def test_model_comparison_correlates_the_documents_a_branch_fitted(self, monkeypatch,
                                                                        tmp_path):
        # trimming leaves the community branch 27 of the 40 documents, the
        # unigram branch all 40: each rho is over its branch's own documents
        summary = self._run_script(
            monkeypatch, tmp_path, "run_model_comparison.py", "--n-communities", "12",
            "--runs-per-doc", "1", "--n-docs", "40", "--pi", "4", "--replications", "1")
        row = summary["replications"][0]
        assert list(row) == ["seed", "rho_community", "rho_unigram", "runtime_community",
                             "runtime_unigram", "rank_correlation", "errors",
                             "both_converged", "community", "unigram"]
        assert row["errors"] == {}
        # the feature counts, as compare's report.json holds them
        assert (row["community"]["matrix_shape"][1], row["unigram"]["matrix_shape"][1]) == (7, 64)
        assert row["runtime_community"] > 0 and row["runtime_unigram"] > 0
        assert 0 <= row["rho_community"] <= 1 and 0 <= row["rho_unigram"] <= 1
        assert summary["both_fitted"] == 1

    def test_model_comparison_counts_wins_only_where_both_branches_converged(
            self, monkeypatch, tmp_path):
        # the community fit converges with its clamp active and the unigram
        # fit stops at max_iter: the replication is fitted, but not counted
        summary = self._run_script(
            monkeypatch, tmp_path, "run_model_comparison.py", "--n-communities", "12",
            "--runs-per-doc", "1", "--n-docs", "40", "--pi", "4", "--replications", "1")
        row = summary["replications"][0]
        com, uni = row["community"], row["unigram"]
        assert (com["converged"], com["clamp_activated"]) == (True, True)
        assert uni["converged"] is False and row["both_converged"] is False
        assert (summary["both_fitted"], summary["both_converged"]) == (1, 0)
        assert summary["community_wins"] == 0
        assert summary["mean_rho_community"] is summary["mean_rho_unigram"] is None

    def test_model_comparison_of_two_replications(self, monkeypatch, tmp_path):
        summary = self._run_script(monkeypatch, tmp_path, "run_model_comparison.py",
                                   "--replications", "2")
        assert [row["errors"] for row in summary["replications"]] == [{}, {}]
        assert summary["both_fitted"] == summary["both_converged"] == 2

    def test_recovery_experiment_with_bootstrap_coverage(self, monkeypatch, tmp_path):
        # the public API's bootstrap refits its replicates in batches
        summary = self._run_script(monkeypatch, tmp_path, "run_recovery_experiment.py",
                                   "--replications", "3", "--bootstrap-b", "50")
        assert [row["error"] for row in summary["replications"]] == [None] * 3
        assert summary["converged"] == 3
        assert summary["min_pearson"] > 0.99 and 0.8 <= summary["mean_coverage"] <= 1

    def test_recovery_experiment_averages_only_sound_rows(self, monkeypatch, tmp_path):
        # seed 0 converges with its clamp active and seed 1 stops at
        # max_iter: both rows stay, each simulate's report, and neither is
        # averaged
        summary = self._run_script(
            monkeypatch, tmp_path, "run_recovery_experiment.py", "--n-docs", "6",
            "--n-features", "8", "--row-total", "12", "--replications", "2")
        rows = summary["replications"]
        assert [(r["converged"], r["clamp_activated"]) for r in rows] == [(True, True),
                                                                         (False, True)]
        for seed, row in enumerate(rows):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                report = simulate(SimulationSpec(6, 8, 12), FitConfig(), seed, 0)
            assert without_runtime(row) == {"seed": seed, **without_runtime(report),
                                            "error": None}
        assert summary["converged"] == 0
        assert summary["mean_pearson"] is summary["min_pearson"] is None

    @pytest.mark.parametrize("name, flag, value, message", [
        ("run_recovery_experiment.py", "--n-docs", "1", "spec key 'n_docs' must be >= 2, got 1"),
        ("run_model_comparison.py", "--n-communities", "1", "need >= 2 planted communities"),
        ("run_model_comparison.py", "--pi", "0",
         "config key 'min_bigram_count' must be >= 1, got 0"),
    ])
    def test_bad_argument_is_one_usage_error(self, monkeypatch, tmp_path, capsys, name, flag,
                                             value, message):
        with pytest.raises(SystemExit) as exited:
            self._run_script(monkeypatch, tmp_path, name, flag, value)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"\n{name}: error: {message}\n") and "Traceback" not in err
        assert not (tmp_path / "summary.json").exists()

    def test_recovery_experiment_records_a_failed_replication(self, monkeypatch, tmp_path):
        # seed 0's bootstrap fails on every replicate: the row holds the
        # error, and no replication is left to average
        summary = self._run_script(
            monkeypatch, tmp_path, "run_recovery_experiment.py", "--n-docs", "6",
            "--n-features", "8", "--row-total", "12", "--replications", "1",
            "--bootstrap-b", "30")
        assert summary["replications"] == [{
            "seed": 0,
            "error": "bootstrap failed on 30/30 replicates (zero_row 30, not_converged 0, error 0)",
        }]
        assert summary["converged"] == 0
        assert summary["mean_pearson"] is summary["min_pearson"] is None
        assert summary["mean_coverage"] is None


class TestCorpusInputs:
    @pytest.mark.parametrize("kind, data, message", [
        ("jsonl", b'{"id": "a", "text": "caf\xe9"}\n', ": not UTF-8 text"),
        ("jsonl", b'{"id": "a", "text": null}\n', ":1: 'text' must be a string"),
        ("jsonl", b'{"id": null, "text": "x"}\n', ":1: 'id' must be a string or an integer"),
        ("text-directory", b"caf\xe9", ": not UTF-8 text"),
        ("csv", b"id,text\na,caf\xe9\n", ": not UTF-8 text"),
        ("csv", b"id,text\na,x\nb,y,z\n", ":3: more fields than the header"),
        ("jsonl", b'{"id": "x", "text": "a"}\n{"id": "y", "text": "b"}\n{"id": "x", "text": "c"}\n',
         ":3: duplicate document id 'x' (first on line 1)"),
        ("jsonl", b'{"text": "a"}\n{"id": 1, "text": "b"}\n',
         ":2: duplicate document id '1' (first on line 1)"),
        ("jsonl", b'{"id": "", "text": "a"}\n', ":1: document id must be non-empty"),
        pytest.param("jsonl", b'{"text": "a"}\n{"id": ' + b"1" * 5000 + b', "text": "b"}\n',
                     ":2: malformed JSON: Exceeds the limit", id="jsonl-5000-digit-integer"),
        ("csv", b'id,text\nx,"a\nb"\ny,c\nx,d\n', ":5: duplicate document id 'x' (first on line 3)"),
        ("stopwords", b"the\n\xff\n", ": not UTF-8 text"),
        ("lemmas", b"ran\trun\n\xff\tx\n", ": not UTF-8 text"),
        ("lemmas", b"a b\n", ":1: expected 2 tab-separated columns"),
        ("lemmas", b"ran\trun\nx\t\n", ":2: bad lemma ''"),
        ("lemmas", b"x\tb c\n", ":1: bad lemma 'b c'"),
    ])
    def test_bad_input_exits_1(self, corpus_file, tmp_path, capsys, kind, data, message):
        lines = [f"input = {corpus_file}", "format = jsonl"]
        if kind == "text-directory":
            docs = tmp_path / "docs"
            docs.mkdir()
            (docs / "a.txt").write_text("fine words")
            bad = docs / "b.txt"
            lines = [f"input = {docs}", f"format = {kind}"]
        elif kind in ("jsonl", "csv"):
            bad = tmp_path / f"bad.{kind}"
            lines = [f"input = {bad}", f"format = {kind}"]
        else:
            bad = tmp_path / f"{kind}.txt"
            lines.append(f"{kind} = {bad}")
        bad.write_bytes(data)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        rc = main(["communities", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}{message}")
        assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


class TestCommunities:
    def test_writes_outputs(self, corpus_file, tmp_path):
        rc = main(["communities", *base_args(corpus_file, tmp_path)])
        assert rc == 0
        out = tmp_path / "out"
        rows = list(csv.DictReader(open(out / "communities.csv")))
        assert {r["word"] for r in rows} == set(COM_A) | set(COM_B)
        stats = json.load(open(out / "graph_stats.json"))
        assert stats["num_communities"] == 2
        assert -1 <= stats["modularity"] <= 1
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["command"] == "communities"
        assert manifest["exit_status"] == 0

    def test_threshold_too_high_exit_2(self, corpus_file, tmp_path, capsys):
        rc = main(["communities", "--input", str(corpus_file), "--format", "jsonl",
                   "--pi", "99999", "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 2
        assert "no bigrams survive threshold" in capsys.readouterr().err

    def test_failed_run_writes_manifest(self, corpus_file, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["communities", "--input", str(corpus_file), "--format", "jsonl",
                   "--pi", "100000", "--out", str(out), "--quiet"])
        assert rc == 2
        err = capsys.readouterr().err
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["command"] == "communities"
        assert manifest["exit_status"] == 2
        assert manifest["config"]["min_bigram_count"] == 100000
        assert f"error: {manifest['error']}\n" == err

    def test_reruns_are_byte_identical(self, corpus_file, tmp_path):
        main(["communities", *base_args(corpus_file, tmp_path, "a")])
        main(["communities", *base_args(corpus_file, tmp_path, "b")])
        for name in ("communities.csv", "graph_stats.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_leiden_backend(self, corpus_file, tmp_path):
        # leiden is another name for louvain, whose communities are connected
        for name in ("louvain", "leiden"):
            assert main(["communities", *base_args(corpus_file, tmp_path, name),
                         "--clustering", name]) == 0
        for name in ("communities.csv", "graph_stats.json"):
            assert ((tmp_path / "leiden" / name).read_bytes()
                    == (tmp_path / "louvain" / name).read_bytes())

    def test_stopwords_and_lemmas(self, tmp_path):
        # the table entries are written in capitals; "the" is a stopword and
        # also the lemma of "zetas", which keeps it as a word
        (tmp_path / "stop.txt").write_text("The\nOf\n")
        (tmp_path / "lem.tsv").write_text("Betas\tBeta\ngammas\tGAMMA\nzetas\tthe\n")
        texts = ["Alpha the betas of gamma. Alpha beta GAMMAS of the alpha."] * 6
        texts += ["Delta the epsilon zetas, delta of epsilon Zetas the delta."] * 6
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(json.dumps({"text": t}) + "\n" for t in texts))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {corpus}\nstopwords = {tmp_path / 'stop.txt'}\n"
                       f"lemmas = {tmp_path / 'lem.tsv'}\nmin_bigram_count = 5\n")
        assert main(["communities", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--quiet"]) == 0
        members = {}
        for row in csv.DictReader(open(tmp_path / "o" / "communities.csv")):
            members.setdefault(row["community_id"], set()).add(row["word"])
        assert sorted(map(sorted, members.values())) == [
            ["alpha", "beta", "gamma"], ["delta", "epsilon", "the"]]

    def test_partition_csv(self, corpus_file, tmp_path):
        assert main(["communities", *base_args(corpus_file, tmp_path)]) == 0
        lines = (tmp_path / "out" / "communities.csv").read_text().splitlines()
        assert lines[0] == "community_id,word"
        assert len(lines) == 1 + len(COM_A) + len(COM_B)
        rows = [(int(cid), word) for cid, word in (line.split(",") for line in lines[1:])]
        assert rows == sorted(rows)


class TestScale:
    def test_full_run(self, corpus_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {corpus_file}\nmin_bigram_count = 30\nbootstrap_b = 10\n")
        rc = main(["scale", "--config", str(cfg), "--out", str(tmp_path / "s"), "--quiet"])
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "s" / "positions.csv")))
        assert len(rows) == 12
        assert all(r["se"] != "" for r in rows)
        assert "theta_star" in rows[0]  # metadata column carried through
        feats = list(csv.DictReader(open(tmp_path / "s" / "features.csv")))
        assert {"feature", "beta", "psi"} <= set(feats[0])
        report = json.load(open(tmp_path / "s" / "fit_report.json"))
        assert report["converged"] is True
        assert report["map_evaluations"] >= report["iterations"] >= 1
        assert 0 <= report["score"] < 1.0
        reasons = report["bootstrap_failure_reasons"]
        assert set(reasons) == {"zero_row", "not_converged", "error"}
        assert sum(reasons.values()) == report["bootstrap_failures"]

    def test_fit_report_holds_the_log_likelihood_trace(self, corpus_file, tmp_path):
        rc = main(["scale", *base_args(corpus_file, tmp_path, "t"), "--no-bootstrap"])
        assert rc == 0
        report = json.loads((tmp_path / "t" / "fit_report.json").read_text(),
                            parse_constant=_reject_constant)
        trace = report["loglik_trace"]
        assert len(trace) == report["iterations"] + 1
        assert trace[-1] == report["log_likelihood"]

    @pytest.mark.parametrize("flags", [[], ["--baseline"]], ids=["community", "baseline"])
    def test_fit_report_is_the_fit_summary(self, corpus_file, tmp_path, flags):
        rc = main(["scale", *base_args(corpus_file, tmp_path, "s"), "--no-bootstrap", *flags])
        assert rc == 0
        report = json.load(open(tmp_path / "s" / "fit_report.json"))
        config = RunConfig(input=str(corpus_file), min_bigram_count=30)
        run = run_pipeline(_load_pipeline_corpus(config), config, baseline=bool(flags))
        summary = run.result.summary()
        assert list(report) == [*summary, "dropped_documents", "baseline"]
        assert without_runtime(report) == without_runtime(summary) | {
            "dropped_documents": list(run.trim_report.dropped_doc_ids), "baseline": bool(flags)}

    def test_csv_document_longer_than_the_csv_field_limit(self, corpus_file, tmp_path):
        rows = [json.loads(line) for line in open(corpus_file)]
        long = rows[0]["text"]
        rows[0]["text"] = " ".join([long] * (200_000 // len(long) + 1))
        assert len(rows[0]["text"]) > 200_000
        path = tmp_path / "corpus.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "text"))
            writer.writerows((r["id"], r["text"]) for r in rows)
        rc = main(["scale", "--input", str(path), "--format", "csv", "--pi", "30",
                   "--no-bootstrap", "--out", str(tmp_path / "s"), "--quiet"])
        assert rc == 0
        positions = list(csv.DictReader(open(tmp_path / "s" / "positions.csv")))
        assert rows[0]["id"] in {r["doc_id"] for r in positions}

    def test_bootstrap_map_evaluations(self, corpus_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {corpus_file}\nmin_bigram_count = 30\nbootstrap_b = 10\n")
        for name, flags in (("boot", []), ("nb", ["--no-bootstrap"])):
            rc = main(["scale", "--config", str(cfg), "--out", str(tmp_path / name), "--quiet",
                       *flags])
            assert rc == 0
        report = json.load(open(tmp_path / "boot" / "fit_report.json"))
        assert report["bootstrap_map_evaluations"] >= 10 - report["bootstrap_failures"]
        report = json.load(open(tmp_path / "nb" / "fit_report.json"))
        assert report["bootstrap_map_evaluations"] == 0

    def test_no_bootstrap_leaves_ci_empty(self, corpus_file, tmp_path):
        rc = main(["scale", *base_args(corpus_file, tmp_path, "nb"), "--no-bootstrap"])
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "nb" / "positions.csv")))
        assert all(r["se"] == "" and r["ci_low"] == "" for r in rows)

    @staticmethod
    def _one_iteration_argv(corpus_file, tmp_path) -> list[str]:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {corpus_file}\nmin_bigram_count = 30\nmax_iter = 1\n")
        return ["scale", "--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet",
                "--no-bootstrap"]

    def test_fit_warning_is_one_stderr_line(self, corpus_file, tmp_path):
        proc = _run_python("-m", "communityfish.cli",
                           *self._one_iteration_argv(corpus_file, tmp_path))
        assert proc.returncode == 0
        assert proc.stderr == "warning: fit did not converge within max_iter\n"

    def test_fit_warning_is_still_recorded(self, corpus_file, tmp_path):
        # a caller that records warnings, as the benchmark does, still gets it
        formatwarning = warnings.formatwarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(self._one_iteration_argv(corpus_file, tmp_path))
        assert rc == 0
        assert [str(w.message) for w in caught] == ["fit did not converge within max_iter"]
        assert warnings.formatwarning is formatwarning

    def test_baseline_unigram(self, corpus_file, tmp_path):
        rc = main(["scale", *base_args(corpus_file, tmp_path, "base"),
                   "--baseline", "--no-bootstrap"])
        assert rc == 0
        report = json.load(open(tmp_path / "base" / "fit_report.json"))
        assert report["baseline"] is True
        assert report["matrix_shape"][1] == 10  # full vocabulary

    def test_analytic_se(self, corpus_file, tmp_path):
        rc = main(["scale", *base_args(corpus_file, tmp_path, "an"), "--se", "analytic"])
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "an" / "positions.csv")))
        assert all(float(r["ci_low"]) < float(r["theta"]) < float(r["ci_high"])
                   for r in rows)

    def test_analytic_se_without_bootstrap(self, corpus_file, tmp_path):
        rc = main(["scale", *base_args(corpus_file, tmp_path, "anb"),
                   "--se", "analytic", "--no-bootstrap"])
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "anb" / "positions.csv")))
        for r in rows:
            se, lo, hi = (float(r[k]) for k in ("se", "ci_low", "ci_high"))
            assert np.isfinite([se, lo, hi]).all() and se > 0
            assert lo < float(r["theta"]) < hi
        manifest = json.load(open(tmp_path / "anb" / "manifest.json"))
        assert manifest["config"]["bootstrap_b"] == 0

    @pytest.mark.parametrize("fmt, key", [("jsonl", "theta"), ("csv", "se")])
    def test_metadata_key_naming_a_column_exits_1(self, corpus_file, tmp_path, capsys,
                                                  monkeypatch, fmt, key):
        rows = [json.loads(line) for line in open(corpus_file)]
        path = tmp_path / f"corpus.{fmt}"
        if fmt == "jsonl":
            path.write_text("".join(json.dumps({**r, key: "left"}) + "\n" for r in rows))
        else:
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows([("id", "text", key),
                                          *((r["id"], r["text"], "left") for r in rows)])
        monkeypatch.setattr("communityfish.cli.fit", lambda *a: pytest.fail("fit ran"))
        out = tmp_path / "s"
        rc = main(["scale", "--input", str(path), "--format", fmt, "--pi", "30",
                   "--no-bootstrap", "--out", str(out), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: metadata key {key!r} is also a positions.csv column\n")
        assert not (out / "positions.csv").exists()

    def test_analytic_se_of_a_singular_block_exits_3(self, tmp_path, capsys):
        # the fit puts all of document 3's rate on one feature, so its
        # (alpha, theta) information has determinant 0
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps({"text": t}) + "\n" for t in (
            "alpha alpha alpha alpha alpha alpha alpha delta", "alpha alpha alpha alpha",
            "alpha alpha alpha alpha Beta gamma", "the Of")))
        out = tmp_path / "o"
        rc = main(["scale", "--input", str(path), "--pi", "1", "--se", "analytic",
                   "--out", str(out), "--quiet"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: analytic SE undefined: document '3' has singular information\n")
        assert not (out / "positions.csv").exists()

    def test_analytic_se_records_no_bootstrap(self, corpus_file, tmp_path):
        # analytic SEs replace the bootstrap: the manifest must not claim one
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {corpus_file}\nmin_bigram_count = 30\nbootstrap_b = 10\n")
        rc = main(["scale", "--config", str(cfg), "--out", str(tmp_path / "an"), "--quiet",
                   "--se", "analytic"])
        assert rc == 0
        manifest = json.load(open(tmp_path / "an" / "manifest.json"))
        assert manifest["config"]["bootstrap_b"] == 0
        report = json.load(open(tmp_path / "an" / "fit_report.json"))
        assert report["bootstrap_map_evaluations"] == 0

    @pytest.mark.parametrize("anchor", ["nosuchdoc", "empty"])
    def test_unknown_anchor_exit_3(self, corpus_file, tmp_path, capsys, anchor):
        # "empty" is a document that trimming drops from the matrix
        with open(corpus_file, "a") as fh:
            fh.write(json.dumps({"id": "empty", "text": "zzz"}) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {corpus_file}\nmin_bigram_count = 30\n"
                       f"anchor_low = {anchor}\n")
        rc = main(["scale", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--no-bootstrap", "--quiet"])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: anchor document") and repr(anchor) in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("key, doc, message", [
        ("anchor_high", "doc_0", "anchor_high names the first document, where the unset "
                                 "anchor_low defaults"),
        ("anchor_low", "doc_11", "anchor_low names the last document, where the unset "
                                 "anchor_high defaults"),
    ])
    def test_one_anchor_on_the_others_default_exit_3(self, corpus_file, tmp_path, capsys,
                                                     key, doc, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {doc}\n")
        rc = main(["scale", "--config", str(cfg), *base_args(corpus_file, tmp_path),
                   "--no-bootstrap"])
        assert rc == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags, shape", [([], "1 x 1"), (["--baseline"], "1 x 2")],
                             ids=["community", "baseline"])
    def test_matrix_below_2x2_exit_2(self, tmp_path, capsys, flags, shape):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"text": "alpha beta alpha beta"}) + "\n")
        out = tmp_path / "o"
        rc = main(["scale", "--input", str(path), "--pi", "1", "--no-bootstrap", *flags,
                   "--out", str(out), "--quiet"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: count matrix is {shape} after trimming; "
            "need >= 2 documents and >= 2 features\n")
        assert json.load(open(out / "manifest.json"))["exit_status"] == 2

    # B past numpy's largest dimension, and B x 12 floats past any memory:
    # the table's allocation fails at once, before any replicate is drawn
    @pytest.mark.parametrize("b", ["100000000000000000000", "1000000000000"])
    def test_bootstrap_table_past_memory_exits_3(self, corpus_file, tmp_path, capsys, b):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"bootstrap_b = {b}\n")
        out = tmp_path / "o"
        rc = main(["scale", "--config", str(cfg), *base_args(corpus_file, tmp_path, "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err == f"error: {b} bootstrap replicates of 12 documents do not fit in memory\n"
        manifest = json.load(open(out / "manifest.json"))
        assert manifest["exit_status"] == 3
        assert f"error: {manifest['error']}\n" == err
        assert not (out / "positions.csv").exists()

    def test_failed_rerun_leaves_no_output_of_the_first_run(self, corpus_file, tmp_path):
        out = tmp_path / "o"
        assert main(["scale", *base_args(corpus_file, tmp_path, "o"), "--no-bootstrap"]) == 0
        rc = main(["scale", *base_args(corpus_file, tmp_path, "o"), "--pi", "100000"])
        assert rc == 2
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        assert json.load(open(out / "manifest.json"))["config"]["min_bigram_count"] == 100000

    def test_missing_config_exit_1(self, tmp_path, capsys):
        rc = main(["scale", "--config", str(tmp_path / "nope.cfg"), "--quiet"])
        assert rc == 1
        assert "nope.cfg" in capsys.readouterr().err


class TestCompare:
    def test_writes_comparison(self, corpus_file, tmp_path):
        rc = main(["compare", *base_args(corpus_file, tmp_path, "cmp")])
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "cmp" / "comparison.csv")))
        assert {"doc_id", "theta_community", "theta_unigram"} <= set(rows[0])
        report = json.load(open(tmp_path / "cmp" / "report.json"))
        assert report["community"]["matrix_shape"][1] < report["unigram"]["matrix_shape"][1]
        assert report["both_converged"] is True

    def test_report_is_the_comparison_summary(self, corpus_file, tmp_path, monkeypatch):
        compare, reports = cli.compare_models, []
        monkeypatch.setattr(cli, "compare_models",
                            lambda *args: reports.append(compare(*args)) or reports[-1])
        rc = main(["compare", *base_args(corpus_file, tmp_path, "cmp")])
        assert rc == 0
        report = json.loads((tmp_path / "cmp" / "report.json").read_text())
        assert report == json.loads(json.dumps(reports[0].summary()))
        assert list(report) == ["runtime_community", "runtime_unigram", "rank_correlation",
                                "errors", "both_converged", "community", "unigram"]
        # no number at the top level repeats one of a branch's summary
        top = {report[k] for k in ("runtime_community", "runtime_unigram", "rank_correlation")}
        for branch in ("community", "unigram"):
            numbers = {x for v in report[branch].values()
                       for x in (v if isinstance(v, list) else [v])
                       if isinstance(x, (int, float)) and not isinstance(x, bool)}
            assert not top & numbers

    def test_fits_stopped_at_max_iter_are_not_both_converged(self, corpus_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {corpus_file}\nmin_bigram_count = 30\nmax_iter = 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # each fit warns that it did not converge
            rc = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "cmp"),
                       "--quiet"])
        assert rc == 0
        report = json.load(open(tmp_path / "cmp" / "report.json"))
        assert report["community"]["converged"] is False
        assert report["unigram"]["converged"] is False
        assert report["both_converged"] is False

    # no bigram of the tied corpus reaches the threshold, and no word the
    # unigram floor: one branch fails on each config. The other fits with
    # its clamp active
    @pytest.mark.filterwarnings("ignore:linear predictor clamp active")
    @pytest.mark.parametrize("line, failed, fitted", [
        ("min_bigram_count = 100000", "community", "unigram"),
        ("unigram_min_count = 100000", "unigram", "community"),
    ])
    def test_failed_branch_has_a_null_summary(self, tmp_path, line, failed, fitted):
        path = write_tied_corpus(tmp_path / "corpus.jsonl")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {path}\n{line}\n")
        rc = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "cmp"), "--quiet"])
        assert rc == 0
        report = json.load(open(tmp_path / "cmp" / "report.json"))
        assert report[failed] is None and failed in report["errors"]
        assert report[fitted]["converged"] is True
        assert report["both_converged"] is False

    def test_honours_dtm(self, corpus_file, tmp_path):
        columns = {}
        for dtm in ("member-count", "bigram-match"):
            cfg = tmp_path / f"{dtm}.cfg"
            cfg.write_text(f"input = {corpus_file}\nmin_bigram_count = 30\ndtm = {dtm}\n")
            rc = main(["compare", "--config", str(cfg), "--out", str(tmp_path / dtm),
                       "--quiet"])
            assert rc == 0
            rows = csv.DictReader(open(tmp_path / dtm / "comparison.csv"))
            columns[dtm] = [r["theta_community"] for r in rows]
        assert columns["member-count"] != columns["bigram-match"]

    @pytest.mark.parametrize("texts, code, message", [
        # every token is a number: an empty graph and an empty vocabulary
        (["12 34 56", "7 8"], 2, "empty vocabulary"),
        # one word type: an empty graph, and a unigram matrix of one column
        (["canal canal", "canal"], 2,
         "count matrix is 2 x 1 after trimming; need >= 2 documents and >= 2 features"),
    ])
    def test_both_branches_failed_exit_code(self, tmp_path, capsys, texts, code, message):
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps({"text": t}) + "\n" for t in texts))
        rc = main(["compare", "--input", str(path), "--pi", "1",
                   "--out", str(tmp_path / "cmp"), "--quiet"])
        assert rc == code
        err = capsys.readouterr().err
        assert "both branches failed" in err and "empty graph" in err and message in err
        manifest = json.load(open(tmp_path / "cmp" / "manifest.json"))
        assert manifest["exit_status"] == code
        assert not (tmp_path / "cmp" / "report.json").exists()  # no summary of either branch

    @pytest.mark.parametrize("errors, code", [
        ((GraphError("no communities"), ScalingError("did not fit")), 3),
        ((ScalingError("did not fit"), MatrixError("empty")), 3),
        ((GraphError("no communities"), MatrixError("empty")), 2),
        ((ValueError("not in the table"), ValueError("nor this")), 2),
    ])
    def test_both_branches_failed_exit_the_larger_code(self, corpus_file, tmp_path, capsys,
                                                        monkeypatch, errors, code):
        raised = iter(errors)

        def fail(*args):
            raise next(raised)
        monkeypatch.setattr("communityfish.cli.run_pipeline", fail)
        rc = main(["compare", *base_args(corpus_file, tmp_path, "cmp")])
        assert rc == code
        err = capsys.readouterr().err
        assert err.startswith("error: both branches failed: ") and err.count("\n") == 1
        assert json.load(open(tmp_path / "cmp" / "manifest.json"))["exit_status"] == code

    def test_all_tied_branch_has_a_null_rank_correlation(self, tmp_path):
        path = write_tied_corpus(tmp_path / "corpus.jsonl")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {path}\nmin_bigram_count = 1\nunigram_min_count = 200\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["compare", "--config", str(cfg), "--out", str(tmp_path / "cmp"),
                       "--quiet"])
        assert rc == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        rows = list(csv.DictReader(open(tmp_path / "cmp" / "comparison.csv")))
        assert [r["doc_id"] for r in rows if r["theta_unigram"]] == ["d1", "d2", "d3"]
        assert len({r["theta_community"] for r in rows[:3]}) == 1
        report = json.loads((tmp_path / "cmp" / "report.json").read_text(),
                            parse_constant=_reject_constant)
        assert report["rank_correlation"] is None
        # both branches converged, but the community fit's clamp fired
        assert report["community"]["converged"] and report["community"]["clamp_activated"]
        assert report["both_converged"] is False


class TestNoPositionalSignal:
    """Five identical documents hold no position to scale: every command that
    fits them exits 3 with one line, and writes no scale."""

    @pytest.fixture
    def config(self, tmp_path):
        text = "alpha beta gamma delta alpha beta gamma delta epsilon zeta alpha beta"
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(json.dumps({"id": f"d{i}", "text": text}) + "\n"
                                for i in range(5)))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input = {path}\nmin_bigram_count = 1\nmin_community_size = 1\n"
                       "bootstrap_b = 5\n")
        return cfg

    @pytest.mark.parametrize("flags", [[], ["--se", "analytic"], ["--baseline"]])
    def test_scale_exits_3(self, config, tmp_path, flags):
        out = tmp_path / "o"
        rc, err = _run_quietly(["scale", *flags, "--config", str(config), "--out", str(out),
                                "--quiet"])
        assert rc == 3
        assert err.startswith("error: no positional signal: ") and err.count("\n") == 1
        assert not (out / "positions.csv").exists()
        assert json.loads((out / "manifest.json").read_text())["exit_status"] == 3

    def test_compare_exits_3_with_both_branches_failed(self, config, tmp_path):
        out = tmp_path / "o"
        rc, err = _run_quietly(["compare", "--config", str(config), "--out", str(out),
                                "--quiet"])
        assert rc == 3
        assert err.startswith("error: both branches failed: ") and err.count("\n") == 1
        assert err.count("no positional signal: ") == 2
        assert not (out / "report.json").exists()


class TestSimulate:
    def test_default_spec_recovers(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path / "sim"), "--quiet"])
        assert rc == 0
        report = json.load(open(tmp_path / "sim" / "report.json"))
        assert report["pearson"] >= 0.95

    def test_bootstrap_refits_under_the_fit_settings(self, tmp_path):
        # every refit starts from the point estimate and extrapolates, under
        # the fit's own non-default tol and max_iter
        cfg = tmp_path / "boot.cfg"
        cfg.write_text("bootstrap_b = 50\ntol = 1e-6\nmax_iter = 200\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"), "--quiet"])
        assert rc == 0
        report = json.load(open(tmp_path / "sim" / "report.json"))
        assert report["bootstrap_failures"] == 0 and report["bootstrap_map_evaluations"] >= 50
        assert report["pearson"] >= 0.95 and report["ci_coverage"] >= 0.8

    def test_report_holds_the_fit_summary(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("bootstrap_b = 0\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"), "--quiet"])
        assert rc == 0
        report = json.load(open(tmp_path / "sim" / "report.json"))
        spec = SyntheticSpec.create(**dataclasses.asdict(SimulationSpec()), seed=0)
        summary = fit(generate_matrix(spec)[0], RunConfig()).summary()
        assert summary.keys() <= report.keys()
        assert without_runtime({k: report[k] for k in summary}) == without_runtime(summary)

    def test_report_is_the_spec_and_the_simulation(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("seed = 1\nbootstrap_b = 20\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim"), "--quiet"])
        assert rc == 0
        report = json.loads((tmp_path / "sim" / "report.json").read_text())
        run = simulate(SimulationSpec(), read_config(cfg), 1, 20)
        assert without_runtime(report) == without_runtime(
            {"spec": dataclasses.asdict(SimulationSpec()), **run})

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "sim.spec"
        spec.write_text("n_docs = 10\nn_features = 12\n")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("seed = 3\n")
        rc = main(["simulate", str(spec), "--config", str(cfg), "--out", str(tmp_path / "sim2"),
                   "--quiet"])
        assert rc == 0
        report = json.load(open(tmp_path / "sim2" / "report.json"))
        assert report["spec"]["n_docs"] == 10

    def test_unknown_spec_key(self, tmp_path, capsys):
        spec = tmp_path / "sim.cfg"
        spec.write_text("whatever = 1\n")
        rc = main(["simulate", str(spec), "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 1

    @pytest.mark.parametrize("line, message", [
        ("n_docs = 1", "spec key 'n_docs' must be >= 2, got 1"),
        ("n_features = 1", "spec key 'n_features' must be >= 2, got 1"),
        ("expected_row_total = 0", "spec key 'expected_row_total' must be >= 1, got 0"),
    ])
    def test_out_of_domain_spec_value_exits_1(self, tmp_path, capsys, line, message):
        spec = tmp_path / "sim.cfg"
        spec.write_text(f"{line}\n")
        rc = main(["simulate", str(spec), "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    # the seed and the replicates are config keys, as in every command
    @pytest.mark.parametrize("line, message", [
        ("seed = -1", "config key 'seed' must be >= 0, got -1"),
        ("bootstrap_b = -4", "config key 'bootstrap_b' must be >= 0, got -4"),
    ])
    def test_out_of_domain_config_value_exits_1(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"{line}\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key", ["seed", "bootstrap_b"])
    def test_config_key_in_a_spec_file_exits_1(self, tmp_path, capsys, key):
        spec = tmp_path / "sim.spec"
        spec.write_text(f"{key} = 3\n")
        rc = main(["simulate", str(spec), "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {spec}:1: unknown spec key {key!r}\n"

    def test_seed_and_bootstrap_b_come_from_the_config(self, tmp_path):
        def report(name, config):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(config)
            rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name),
                       "--quiet"])
            assert rc == 0
            # the fit's runtime is the one number a rerun may change
            return without_runtime(json.load(open(tmp_path / name / "report.json")))

        seeded = report("a", "seed = 3\nbootstrap_b = 0\n")
        assert "ci_coverage" not in seeded
        assert report("b", "seed = 4\nbootstrap_b = 0\n") != seeded
        assert report("c", "seed = 3\nbootstrap_b = 0\n") == seeded
        assert "ci_coverage" in report("d", "seed = 3\nbootstrap_b = 5\n")

    def test_duplicate_spec_key_exits_1_naming_both_lines(self, tmp_path, capsys):
        spec = tmp_path / "sim.cfg"
        spec.write_text("n_features = 12\nn_docs = 10\nn_features = 14\n")
        rc = main(["simulate", str(spec), "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {spec}:3: duplicate spec key 'n_features' (first on line 1)\n")
        assert not (tmp_path / "x").exists()

    def test_spec_with_byte_order_mark(self, tmp_path):
        spec = tmp_path / "sim.spec"
        spec.write_text("n_docs = 10\nn_features = 12\n", encoding="utf-8-sig")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("bootstrap_b = 0\n")
        rc = main(["simulate", str(spec), "--config", str(cfg), "--out", str(tmp_path / "sim"),
                   "--quiet"])
        assert rc == 0
        assert json.load(open(tmp_path / "sim" / "report.json"))["spec"]["n_docs"] == 10

    @pytest.mark.parametrize("flag, seed", [([], 3), (["--seed", "7"], 7)],
                             ids=["config_seed", "seed_flag"])
    def test_manifest_records_spec(self, tmp_path, flag, seed):
        spec = tmp_path / "sim.spec"
        spec.write_text("n_docs = 10\nn_features = 12\n")
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("seed = 3\nbootstrap_b = 5\n")
        rc = main(["simulate", str(spec), "--config", str(cfg), *flag,
                   "--out", str(tmp_path / "sim"), "--quiet"])
        assert rc == 0
        manifest = json.load(open(tmp_path / "sim" / "manifest.json"))
        assert manifest["spec"] == {"n_docs": 10, "n_features": 12, "expected_row_total": 500}
        assert manifest["config"]["seed"] == seed
        assert manifest["config"]["bootstrap_b"] == 5
        report = json.load(open(tmp_path / "sim" / "report.json"))
        assert manifest["spec"] == report["spec"]
        assert "ci_coverage" in report

    # the first draw fails at once: 10^14 features of 8 bytes, or rates
    # near 10^30 / 40, past numpy's Poisson sampler; a row total of 10^400
    # is past the float range before any draw
    @pytest.mark.parametrize("line, message", [
        ("n_features = 100000000000000",
         "a 25 x 100000000000000 planted matrix does not fit in memory"),
        ("expected_row_total = 1000000000000000000000000000000",
         "planted rates too large to draw"),
        pytest.param("expected_row_total = 1" + "0" * 400, "planted rates too large to draw",
                     id="expected_row_total past the float range"),
    ])
    def test_spec_past_memory_or_the_sampler_exits_1(self, tmp_path, capsys, line, message):
        spec = tmp_path / "sim.spec"
        spec.write_text(f"{line}\n")
        out = tmp_path / "sim"
        rc = main(["simulate", str(spec), "--out", str(out), "--quiet"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        manifest = json.load(open(out / "manifest.json"))
        assert (manifest["exit_status"], manifest["error"]) == (1, message)
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("line", ["n_docs = x", "n_docs"])
    def test_bad_spec_line_exits_1_with_location(self, tmp_path, capsys, line):
        spec = tmp_path / "sim.cfg"
        spec.write_text(f"n_features = 12\n{line}\n")
        rc = main(["simulate", str(spec), "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}:2: ")
        assert len(err.strip().splitlines()) == 1


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """Criterion 7's planted corpus (seed 0) as JSONL, as CSV and as a text
    directory, each path by its format; the documents go in id order, the
    order a text directory reads them in."""
    spec = PlantedCorpusSpec(
        communities=(tuple(f"alpha{i}" for i in range(6)), tuple(f"beta{i}" for i in range(6))),
        polarity=(0.6, -0.6), n_docs=20, runs_per_doc=150, run_length=6,
        word_concentration=0.5, seed=0)
    docs = sorted(generate_corpus(spec)[0].documents, key=lambda d: d.id)
    base = tmp_path_factory.mktemp("planted")
    paths = {"jsonl": base / "c.jsonl", "csv": base / "c.csv", "text-directory": base / "texts"}
    paths["jsonl"].write_text("".join(json.dumps({"id": d.id, "text": d.text}) + "\n"
                                      for d in docs))
    with open(paths["csv"], "w", newline="") as fh:
        csv.writer(fh).writerows([("id", "text"), *((d.id, d.text) for d in docs)])
    paths["text-directory"].mkdir()
    for d in docs:
        (paths["text-directory"] / f"{d.id}.txt").write_text(d.text)
    return paths


class TestPlantedCorpus:
    """The pipeline commands end to end on criterion 7's planted corpus."""

    @staticmethod
    def _run(planted, out: Path, *argv: str, fmt: str = "jsonl") -> Path:
        rc = main([*argv, "--input", str(planted[fmt]), "--format", fmt, "--pi", "30",
                   "--out", str(out), "--quiet"])
        assert rc == 0
        return out

    def test_every_format_gives_the_same_positions(self, planted, tmp_path):
        positions = {(self._run(planted, tmp_path / fmt, "scale", "--no-bootstrap", fmt=fmt)
                      / "positions.csv").read_bytes() for fmt in planted}
        assert len(positions) == 1

    def test_scale_reports_the_summaries_of_compare(self, planted, tmp_path):
        # scale and compare run the same fits through run_pipeline; scale's
        # bootstraps, the unigram one too, add their own keys, and the
        # runtime is the run's
        compare = json.loads((self._run(planted, tmp_path / "cmp", "compare")
                              / "report.json").read_text(), parse_constant=_reject_constant)
        assert compare["both_converged"] is True
        skip = {"runtime_seconds", "bootstrap_failures", "bootstrap_failure_reasons",
                "bootstrap_map_evaluations"}
        for flags, branch in (([], "community"), (["--baseline"], "unigram")):
            report = json.loads((self._run(planted, tmp_path / branch, "scale", *flags)
                                 / "fit_report.json").read_text(),
                                parse_constant=_reject_constant)
            assert report["bootstrap_map_evaluations"] > 0
            summary = compare[branch]
            assert {k: report[k] for k in summary.keys() - skip} == {
                k: summary[k] for k in summary.keys() - skip}

    # the linear predictor is a BLAS matrix product. On this corpus of 20
    # documents x 12 words the outputs keep their bytes whether BLAS runs on
    # one thread or on its default number; on a 150 x 3,868 unigram matrix,
    # initialize's Gram product splits its sums by thread count, and the
    # sixth decimal of an interval can move
    def test_outputs_do_not_depend_on_the_blas_threads(self, planted, tmp_path):
        outputs = {}
        for threads, env in (("one", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}),
                             ("default", {})):
            for argv, name in ((["scale", "--no-bootstrap"], "positions.csv"),
                               (["compare"], "comparison.csv")):
                out = tmp_path / threads / argv[0]
                proc = _run_python("-W", "error::RuntimeWarning", "-m", "communityfish.cli",
                                   *argv, "--input", str(planted["jsonl"]), "--pi", "30",
                                   "--out", str(out), "--quiet", **env)
                assert proc.returncode == 0, proc.stderr
                outputs.setdefault(name, set()).add((out / name).read_bytes())
        assert [len(contents) for contents in outputs.values()] == [1, 1]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


# words, numbers, punctuation, quotes, line breaks and stopwords; a document
# of no pieces has an empty text
_PIECES = ["alpha", "Beta", "gamma", "delta", "the", "Of", "42", "٣", "3.5", "!", ", ", "ß",
           '"', "\n"]
# how many times each text of a corpus repeats its pieces
_REPEATS = [1, 20]
# no id (the record number), an empty one, and ones that may repeat: "2" is
# also the second record's default
_IDS = [None] * 8 + ["", "d", 2]
# JSONL values of 'text' or 'id' that the loader must reject
_NOT_STRINGS = [None, 2.5, True, ["a"], {"a": 1}]
# fields in the last CSV text record: the header's 3, short (no party, no
# text) or long
_WIDTHS = [3] * 10 + [2, 1, 4]


@st.composite
def _corpora(draw):
    """A JSONL, CSV or text-directory corpus whose last document, "stop", is
    all stopwords and so trimmed from every count matrix: its format, its
    text (for a text directory, each file's name and text), and whether
    loading it must fail. A text directory may be empty."""
    fmt = draw(st.sampled_from(["jsonl", "csv", "text-directory"]))
    # half of the corpora hold at least two texts, each of distinct pieces
    # repeated, so that their pairs pass --pi and their matrices reach a fit
    times = draw(st.sampled_from(_REPEATS))
    long = times > 1
    texts = draw(st.lists(st.lists(st.sampled_from(_PIECES), min_size=4 if long else 0,
                                   max_size=12, unique=long)
                          .map(lambda pieces: " ".join(pieces * times)),
                          min_size=2 if long else 0 if fmt == "text-directory" else 1,
                          max_size=6))
    if fmt == "text-directory":
        files = {f"{n}.txt": t for n, t in enumerate(texts, 1)}
        return fmt, {**files, "stop.txt": "the Of"} if files else {}, not files
    ids = [draw(st.sampled_from(_IDS)) for _ in texts]
    if fmt == "jsonl":
        records = [{"text": t} if i is None else {"id": i, "text": t} for t, i in zip(texts, ids)]
        odd = draw(st.sampled_from([None] * 7 + ["text", "id"]))
        if odd:
            records[-1][odd] = draw(st.sampled_from(_NOT_STRINGS))
        records.append({"id": "stop", "text": "the Of"})
        body = "".join(json.dumps(r) + "\n" for r in records)
        doc_ids = [str(line if i is None else i) for line, i in enumerate(ids, 1)]
        bad = odd is not None
    else:
        width = draw(st.sampled_from(_WIDTHS))
        rows = [["id", "text", "party"]]
        rows += [["" if i is None else i, t, "left"] for t, i in zip(texts, ids)]
        rows[-1] = (rows[-1] + ["extra"])[:width]
        rows.append(["stop", "the Of", "left"])
        buffer = io.StringIO()
        csv.writer(buffer).writerows(rows)
        body = buffer.getvalue()
        doc_ids = [str(i or record) for record, i in enumerate(ids, 1)]
        bad = width in (1, 4)
    bad |= "" in doc_ids or len(set(doc_ids)) < len(doc_ids)
    return fmt, body, bad


# config lines: in the domain, unknown keys, values out of the domain and a
# line without "="; two lines with one key are also an error
_GOOD_LINES = ["min_community_size = 1", "clustering = leiden", "dtm = bigram-match",
               "unigram_min_count = 2", "max_iter = 3", "tol = 1e-3", "seed = 1"]
_BAD_LINES = ["clamp = 30", "max_iter = ten", "tol = nan", "seed = -1", "dtm = bigram_match",
              "min_bigram_count"]
# anchors: unset, present (unless an id replaces the first record's default
# "1"), trimmed away and absent
_ANCHORS = [None, None, None, "1", "d", "stop", "nowhere"]
# flags after the config: none, a good or a bad value of a config key, and an
# unknown flag; "{fmt}" is the corpus's format
_GOOD_FLAGS = [[]] * 6 + [["--format", "{fmt}"], ["--clustering", "leiden"]]
_BAD_FLAGS = [["--format", "foo"], ["--clustering", "Louvain"], ["--bogus"]]
_BAD_PI = ["0", "abc", "1e3"]


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    """``main``'s exit code and what it wrote to stderr."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main(argv)
    return rc, err.getvalue()


def _check_run(rc: int, err: str, out: Path, bad: bool) -> None:
    """A bad input exits 1, any other run 0, 2 or 3; a failure is one stderr
    line, and every JSON file written is strict JSON."""
    assert rc == 1 if bad else rc in (0, 2, 3)
    assert err.count("\n") == (rc != 0) and (rc == 0 or err.startswith("error: "))
    for path in out.glob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)


# fits of a few tokens may clamp or stop at max_iter; they warn, and that is allowed
@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=40, deadline=None)
@given(corpus=_corpora(),
       lines=st.lists(st.sampled_from(_GOOD_LINES * 4 + _BAD_LINES), max_size=2),
       anchors=st.tuples(st.sampled_from(_ANCHORS), st.sampled_from(_ANCHORS)),
       # a byte that is never UTF-8, in one of the files a run reads
       garbled=st.sampled_from([None] * 15 + ["corpus", "config", "stopwords"]),
       where=st.floats(0, 1),
       pi=st.sampled_from(["1", "2"] * 8 + _BAD_PI),
       flags=st.sampled_from(_GOOD_FLAGS * 2 + _BAD_FLAGS))
def test_pipeline_commands_keep_the_error_contract(corpus, lines, anchors, garbled, where, pi,
                                                   flags):
    """Every run exits 0 to 3 without a traceback and writes only strict JSON;
    a bad input, config line, flag or file exits 1."""
    fmt, body, bad = corpus
    low, high = anchors
    lines = [*lines, *(f"{key} = {value}" for key, value in
                       (("anchor_low", low), ("anchor_high", high)) if value)]
    keys = [line.partition("=")[0].strip() for line in lines]
    bad |= (any(line in _BAD_LINES for line in lines) or len(set(keys)) < len(keys)
            or (low is not None and low == high) or garbled is not None
            or pi in _BAD_PI or flags in _BAD_FLAGS)
    flags = [flag.format(fmt=fmt) for flag in flags]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        corpus_path, stop, cfg = tmp / f"c.{fmt}", tmp / "stop.txt", tmp / "run.cfg"
        if fmt == "text-directory":
            corpus_path.mkdir()
            # the first file is the one a garbled corpus garbles
            files = {"corpus" if n == 0 else name: (corpus_path / name, text)
                     for n, (name, text) in enumerate(body.items())}
        else:
            files = {"corpus": (corpus_path, body)}
        files |= {
            "stopwords": (stop, "the\nof\n"),
            "config": (cfg, "".join(f"{line}\n" for line in [
                f"input = {corpus_path}", f"format = {fmt}", f"stopwords = {stop}",
                "bootstrap_b = 3", *lines])),
        }
        for name, (path, text) in files.items():
            data = text.encode()
            if name == garbled:
                cut = int(where * len(data))
                data = data[:cut] + b"\xff" + data[cut:]
            path.write_bytes(data)
        for n, argv in enumerate((["communities"], ["communities", "--clustering", "leiden"],
                                  ["scale", "--no-bootstrap"], ["scale", "--se", "analytic"],
                                  ["scale"], ["scale", "--baseline"], ["compare"])):
            out = tmp / f"out{n}"
            _check_run(*_run_quietly([*argv, "--config", str(cfg), "--pi", pi, *flags,
                                      "--out", str(out), "--quiet"]), out, bad)


# spec lines: in the domain, a comment, a blank line, below a floor, unknown
# keys (the config's seed among them), not an integer, and a line without "=";
# two lines with one key are also an error
_GOOD_SPEC_LINES = ["n_docs = 6", "n_features = 5", "expected_row_total = 60", "# n_docs = 1",
                    ""]
_BAD_SPEC_LINES = ["n_docs = 1", "n_features = 1", "expected_row_total = 0", "seed = 3",
                   "bogus = 1", "n_docs = 6.5", "n_features = x", "n_docs"]


@pytest.mark.filterwarnings("ignore::UserWarning")
@settings(max_examples=40, deadline=None)
@given(lines=st.lists(st.sampled_from(_GOOD_SPEC_LINES * 4 + _BAD_SPEC_LINES), max_size=4),
       # a byte that is never UTF-8, somewhere in the spec file
       garbled=st.sampled_from([False] * 5 + [True]),
       where=st.floats(0, 1))
def test_simulate_keeps_the_error_contract(lines, garbled, where):
    """A bad spec file exits 1 before the output directory exists; every
    other run exits 0, 2 or 3 and writes only strict JSON."""
    keys = [line.partition("=")[0].strip() for line in lines
            if line and not line.startswith("#")]
    bad = (any(line in _BAD_SPEC_LINES for line in lines) or len(set(keys)) < len(keys)
           or garbled)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        spec, cfg, out = tmp / "sim.spec", tmp / "run.cfg", tmp / "out"
        data = "".join(f"{line}\n" for line in lines).encode()
        if garbled:
            cut = int(where * len(data))
            data = data[:cut] + b"\xff" + data[cut:]
        spec.write_bytes(data)
        cfg.write_text("bootstrap_b = 3\n")
        rc, err = _run_quietly(["simulate", str(spec), "--config", str(cfg), "--out", str(out),
                                "--quiet"])
        _check_run(rc, err, out, bad)
        assert out.exists() != bad

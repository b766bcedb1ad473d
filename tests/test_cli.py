import csv
import json

import numpy as np
import pytest

from communityfish.cli import RunConfig, CliError, main
from communityfish.synthbench import PlantedCorpusSpec, generate_corpus

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


class TestRunConfig:
    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("bogus_key = 1\n")
        with pytest.raises(CliError, match="bogus_key"):
            RunConfig.from_file(p)

    def test_parses_types(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("min_bigram_count = 10\nstrict_greater = true\ntol = 1e-6\n")
        config = RunConfig.from_file(p)
        assert config.min_bigram_count == 10
        assert config.strict_greater is True
        assert config.tol == 1e-6

    def test_missing_file(self, tmp_path):
        with pytest.raises(CliError):
            RunConfig.from_file(tmp_path / "nope.cfg")

    def test_bad_value_exits_1_with_location(self, corpus_file, tmp_path, capsys):
        p = tmp_path / "run.cfg"
        p.write_text(f"input = {corpus_file}\nmax_iter = ten\n")
        rc = main(["scale", "--config", str(p), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {p}:2: ") and "'ten'" in err
        assert len(err.strip().splitlines()) == 1


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

    def test_reruns_are_byte_identical(self, corpus_file, tmp_path):
        main(["communities", *base_args(corpus_file, tmp_path, "a")])
        main(["communities", *base_args(corpus_file, tmp_path, "b")])
        for name in ("communities.csv", "graph_stats.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_leiden_backend(self, corpus_file, tmp_path):
        rc = main(["communities", *base_args(corpus_file, tmp_path),
                   "--clustering", "leiden"])
        assert rc == 0


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

    def test_no_bootstrap_leaves_ci_empty(self, corpus_file, tmp_path):
        rc = main(["scale", *base_args(corpus_file, tmp_path, "nb"), "--no-bootstrap"])
        assert rc == 0
        rows = list(csv.DictReader(open(tmp_path / "nb" / "positions.csv")))
        assert all(r["se"] == "" and r["ci_low"] == "" for r in rows)

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
        assert report["k_community_features"] < report["vocabulary_size"]

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


class TestSimulate:
    def test_default_spec_recovers(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path / "sim"), "--quiet"])
        assert rc == 0
        report = json.load(open(tmp_path / "sim" / "report.json"))
        assert report["pearson"] >= 0.95

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "sim.cfg"
        spec.write_text("n_docs = 10\nn_features = 12\nseed = 3\n")
        rc = main(["simulate", str(spec), "--out", str(tmp_path / "sim2"), "--quiet"])
        assert rc == 0
        report = json.load(open(tmp_path / "sim2" / "report.json"))
        assert report["spec"]["n_docs"] == 10

    def test_unknown_spec_key(self, tmp_path, capsys):
        spec = tmp_path / "sim.cfg"
        spec.write_text("whatever = 1\n")
        rc = main(["simulate", str(spec), "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 1

    @pytest.mark.parametrize("line", ["n_docs = x", "n_docs"])
    def test_bad_spec_line_exits_1_with_location(self, tmp_path, capsys, line):
        spec = tmp_path / "sim.cfg"
        spec.write_text(f"seed = 3\n{line}\n")
        rc = main(["simulate", str(spec), "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}:2: ")
        assert len(err.strip().splitlines()) == 1

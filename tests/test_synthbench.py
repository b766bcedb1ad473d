import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import oracles
from communityfish.cli import RunConfig, compare_models, run_pipeline
from communityfish.graph import build_graph, louvain
from communityfish.corpus import count_bigrams, filter_bigrams
from communityfish.scaling import bootstrap, fit
from communityfish.synthbench import (
    PlantedCorpusSpec,
    SynthError,
    SyntheticSpec,
    generate_corpus,
    generate_matrix,
    recovery_report,
    spearman,
)

COM_A = tuple(f"alpha{i}" for i in range(6))
COM_B = tuple(f"beta{i}" for i in range(6))


def planted_spec(seed, polarity=0.6, n_docs=20, runs=150, run_length=6):
    return PlantedCorpusSpec(
        communities=(COM_A, COM_B),
        polarity=(polarity, -polarity),
        n_docs=n_docs,
        runs_per_doc=runs,
        run_length=run_length,
        word_concentration=0.5,
        seed=seed,
    )


class TestGenerateMatrix:
    def test_deterministic(self):
        spec = SyntheticSpec.create(seed=4)
        a, _ = generate_matrix(spec)
        b, _ = generate_matrix(spec)
        assert (a.counts == b.counts).all()

    def test_expected_row_total_approximate(self):
        spec = SyntheticSpec.create(25, 40, 500, seed=5)
        matrix, _ = generate_matrix(spec)
        assert 350 < matrix.counts.sum(axis=1).mean() < 700

    def test_recovery_on_default_task(self):
        spec = SyntheticSpec.create(25, 40, 500, seed=6)
        matrix, spec = generate_matrix(spec)
        result = fit(matrix)
        assert recovery_report(spec.theta_star, result)["pearson"] >= 0.95

    def test_null_discrimination_gives_small_beta(self):
        spec = SyntheticSpec.create(30, 20, 800, seed=8)
        spec = dataclasses.replace(spec, beta_star=np.zeros(20))
        matrix, _ = generate_matrix(spec)
        result = fit(matrix)
        boot = bootstrap(result, B=40, seed=8)
        # beta magnitudes indistinguishable from zero for most features:
        # compare against the spread of bootstrap thetas as a rough scale
        assert np.median(np.abs(result.params.beta)) < 0.3

    def test_matrix_takes_its_shape_and_labels_from_the_planted_arrays(self):
        spec = dataclasses.replace(SyntheticSpec.create(10, 12, 400, seed=9),
                                   beta_star=np.zeros(5), psi_star=np.zeros(5))
        matrix, _ = generate_matrix(spec)
        assert matrix.shape == (10, 5)
        assert matrix.doc_ids == tuple(f"doc_{i}" for i in range(10))
        assert matrix.feature_labels == tuple(f"feat_{j}" for j in range(5))

    def test_invalid_spec(self):
        with pytest.raises(SynthError, match=r"^spec key 'n_docs' must be >= 2, got 1$"):
            SyntheticSpec.create(n_docs=1)

    def test_persistent_degenerate_draws_rejected(self):
        # rates of e^-50: every draw is all zero
        spec = SyntheticSpec(0, np.zeros(2), np.zeros(2), np.full(2, -50.0), np.zeros(2))
        with pytest.raises(SynthError, match="^persistent degenerate draws: "
                           "all-zero row or column$"):
            generate_matrix(spec)


def _reference_specs():
    """Cases (spec, doc_metadata): the planted corpora of acceptance criteria 7,
    8 and 9, built as those criteria build them, a community with a repeated
    word, and runs of one word."""
    specs = [pytest.param(planted_spec(seed), None, id=f"criterion-7-seed-{seed}")
             for seed in range(20)]
    for seed, n_com, size in [(0, 2, 6), (1, 5, 4), (2, 8, 3)]:
        communities = tuple(tuple(f"c{k}w{i}" for i in range(size)) for k in range(n_com))
        polarity = tuple(np.random.default_rng(seed).normal(scale=0.7, size=n_com).tolist())
        specs.append(pytest.param(PlantedCorpusSpec(
            communities, polarity, n_docs=15, runs_per_doc=120, run_length=6, seed=seed), None,
            id=f"criterion-8-seed-{seed}"))
    rng = np.random.default_rng(42)
    sizes, polarity = [], []
    for _ in range(30):
        sizes.append(int(rng.integers(2, 7)))
        polarity.append(float(rng.normal(scale=0.8)))
    years = list(range(1860, 1900, 2)) + list(range(1950, 2020, 4))
    theta = np.array([-1.0 if y < 1900 else 1.0 for y in years])
    theta = theta + rng.normal(scale=0.25, size=len(years))
    specs.append(pytest.param(PlantedCorpusSpec(
        tuple(tuple(f"w{k}_{i}" for i in range(size)) for k, size in enumerate(sizes)),
        tuple(polarity), n_docs=len(years), runs_per_doc=250, run_length=6,
        word_concentration=2.0, seed=7, theta_star=(theta - theta.mean()) / theta.std(ddof=1),
    ), [{"year": str(y)} for y in years], id="criterion-9"))
    specs.append(pytest.param(PlantedCorpusSpec(
        (("a", "b", "a", "c"), ("d", "e")), (0.5, -0.3), n_docs=6, runs_per_doc=30,
        run_length=5, word_concentration=0.3, seed=11), None, id="repeated-word"))
    specs.append(pytest.param(dataclasses.replace(planted_spec(12, runs=30), run_length=1),
                              None, id="run-length-1"))
    return specs


class TestGenerateCorpus:
    @pytest.mark.parametrize("spec, doc_metadata", _reference_specs())
    def test_draws_the_reference_corpus_token_for_token(self, spec, doc_metadata):
        corpus, drawn = generate_corpus(spec, doc_metadata)
        want, want_spec = oracles.generate_corpus(spec, doc_metadata)
        assert corpus.documents == want.documents
        assert drawn.theta_star.tobytes() == want_spec.theta_star.tobytes()

    @pytest.mark.parametrize("changes, message", [
        ({"word_concentration": 0.0}, "word_concentration must be positive and finite, got 0.0"),
        ({"word_concentration": -1.0}, "word_concentration must be positive and finite, got -1.0"),
        ({"word_concentration": float("nan")},
         "word_concentration must be positive and finite, got nan"),
        ({"polarity": (float("nan"), 0.6)}, r"polarity must be finite, got \(nan, 0.6\)"),
        ({"run_length": 0}, "spec key 'run_length' must be >= 1, got 0"),
        ({"polarity": (0.6,)}, "polarity must match the number of communities"),
        ({"communities": (COM_A, ("solo",))}, "planted communities need >= 2 words"),
        ({"theta_star": np.zeros(3)}, "theta_star must hold n_docs = 4 finite positions"),
        ({"theta_star": np.array([0.0, 1.0, np.nan, -1.0])},
         "theta_star must hold n_docs = 4 finite positions"),
        # exp(1000) is past the float range, exp(-1000) rounds to 0; neither warns
        ({"polarity": (1e3, -1e3), "theta_star": np.ones(4)},
         r"document 0: run intensities exp\(polarity \* theta\) overflow"),
        ({"polarity": (-1e3, -1e3), "theta_star": np.ones(4)},
         r"document 0: run intensities exp\(polarity \* theta\) all underflow to 0"),
    ], ids=["concentration-0", "concentration-negative", "concentration-nan", "polarity-nan",
            "run-length-0", "polarity-count", "one-word-community", "theta-short",
            "theta-nan", "intensity-overflow", "intensity-underflow"])
    def test_bad_spec_is_a_one_line_error(self, changes, message):
        with pytest.raises(SynthError, match=f"^{message}$"):
            generate_corpus(dataclasses.replace(planted_spec(0, n_docs=4, runs=3), **changes))

    def test_short_doc_metadata_is_a_one_line_error(self):
        with pytest.raises(SynthError, match="^doc_metadata holds 3 entries for 4 documents$"):
            generate_corpus(planted_spec(0, n_docs=4, runs=3), [{"year": "1900"}] * 3)

    def test_preference_on_one_word_is_a_one_line_error(self):
        # a concentration this small can draw a preference of (1, 0): no word
        # then has a chance to follow the first
        spec = PlantedCorpusSpec((("a", "b"), ("c", "d")), (0.5, -0.5), n_docs=40,
                                 runs_per_doc=5, run_length=2, word_concentration=0.01)
        with pytest.raises(SynthError, match=r"^document 0, planted community 0: the word "
                           "preference puts all weight on 'a', so no word can follow it$"):
            generate_corpus(spec)

    def test_deterministic(self):
        a, _ = generate_corpus(planted_spec(3))
        b, _ = generate_corpus(planted_spec(3))
        assert a.documents == b.documents

    def test_louvain_recovers_planted_partition(self):
        corpus, _ = generate_corpus(planted_spec(1))
        counts = filter_bigrams(count_bigrams(corpus), 30)
        part = louvain(build_graph(counts), seed=1)
        got = {frozenset(v) for v in part.members.values()}
        assert got == {frozenset(COM_A), frozenset(COM_B)}

    def test_shared_community_has_small_beta(self):
        shared = tuple(f"shared{i}" for i in range(6))
        spec = PlantedCorpusSpec(
            communities=(COM_A, COM_B, shared),
            polarity=(0.8, -0.8, 0.0),
            n_docs=20,
            runs_per_doc=150,
            run_length=6,
            word_concentration=2.0,
            seed=2,
        )
        corpus, spec = generate_corpus(spec)
        result = run_pipeline(corpus, RunConfig(min_bigram_count=30, seed=2)).result
        labels = result.matrix.feature_labels
        shared_j = next(j for j, l in enumerate(labels) if "shared" in l)
        others = [j for j in range(len(labels)) if j != shared_j]
        assert abs(result.params.beta[shared_j]) < min(
            abs(result.params.beta[j]) for j in others
        )

    def test_zero_documents_rejected(self):
        with pytest.raises(SynthError):
            PlantedCorpusSpec((COM_A, COM_B), (1.0, -1.0), n_docs=0)

    def test_single_community_rejected(self):
        with pytest.raises(SynthError):
            PlantedCorpusSpec((COM_A,), (1.0,))

    @pytest.mark.parametrize("word", ["Alpha", "a-b", "12", "a b", ""])
    def test_planted_word_that_is_not_one_token_rejected(self, word):
        # a document's tokens are read from its text, so a planted word must
        # read back as itself
        with pytest.raises(SynthError, match=f"planted word {word!r}"):
            PlantedCorpusSpec((COM_A, (*COM_B, word)), (1.0, -1.0))

    def test_text_reads_back_as_the_planted_words(self):
        corpus, _ = generate_corpus(planted_spec(3, n_docs=3, runs=5))
        planted = set(COM_A) | set(COM_B)
        assert all(set(toks) <= planted and len(toks) == 30 for toks in corpus.token_lists)
        assert corpus.token_lists == [tuple(d.text.split()) for d in corpus.documents]


class TestRecoveryReport:
    def test_exact_recovery(self):
        spec = SyntheticSpec.create(10, 12, 400, seed=9)
        matrix, spec = generate_matrix(spec)
        result = fit(matrix)
        fake = dataclasses.replace(result, params=dataclasses.replace(
            result.params, theta=spec.theta_star))
        report = recovery_report(spec.theta_star, fake)
        assert report["pearson"] == pytest.approx(1.0)
        assert report["rmse_affine"] == pytest.approx(0.0, abs=1e-10)

    def test_sign_alignment(self):
        spec = SyntheticSpec.create(10, 12, 400, seed=10)
        matrix, spec = generate_matrix(spec)
        result = fit(matrix)
        fake = dataclasses.replace(result, params=dataclasses.replace(
            result.params, theta=-spec.theta_star))
        assert recovery_report(spec.theta_star, fake)["pearson"] == pytest.approx(1.0)

    def test_independent_estimate_has_low_correlation(self):
        rng = np.random.default_rng(987654)
        spec = SyntheticSpec.create(40, 12, 400, seed=11)
        matrix, spec = generate_matrix(spec)
        result = fit(matrix)
        noise = rng.normal(size=40)
        noise = (noise - noise.mean()) / noise.std(ddof=1)
        fake = dataclasses.replace(result, params=dataclasses.replace(
            result.params, theta=noise))
        assert abs(recovery_report(spec.theta_star, fake)["pearson"]) < 0.5

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_ci_coverage_after_sign_alignment(self, sign):
        spec = SyntheticSpec.create(10, 12, 400, seed=9)
        matrix, spec = generate_matrix(spec)
        result = fit(matrix)
        theta = sign * spec.theta_star
        # aligned, document i's interval is theta_star_i + 0.03 i + [-0.1, 0.1]:
        # it holds theta_star_i for i <= 3 only
        shift = sign * 0.03 * np.arange(10)
        fake = dataclasses.replace(
            result, params=dataclasses.replace(result.params, theta=theta),
            theta_ci_low=theta + shift - 0.1, theta_ci_high=theta + shift + 0.1)
        report = recovery_report(spec.theta_star, fake)
        assert report["sign"] == sign
        assert report["ci_coverage"] == 0.4

    def test_dimension_mismatch(self):
        spec = SyntheticSpec.create(10, 12, 400, seed=12)
        matrix, spec = generate_matrix(spec)
        result = fit(matrix)
        with pytest.raises(SynthError):
            recovery_report(spec.theta_star[:-1], result)


# Few distinct values, so that most draws have ties, and -0.0 next to 0.0.
_TIED = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])
_VALUES = st.one_of(_TIED, st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def _rank_pairs(draw):
    n = draw(st.integers(3, 40))
    a = draw(st.lists(_VALUES, min_size=n, max_size=n))
    b = draw(st.one_of(st.lists(_VALUES, min_size=n, max_size=n),
                       st.permutations(a), st.just([-x for x in a])))
    return a, b


@pytest.fixture(scope="module")
def scipy_stats():
    """The reference rank correlation's module; without scipy its test skips."""
    return pytest.importorskip("scipy.stats")


class TestSpearman:
    @given(_rank_pairs())
    @example(([1.0, 1.0, 2.0], [3.0, 1.0, 1.0]))
    @example(([0.0, -0.0, 5.0, 5.0, 5.0], [2.0, 1.0, 2.0, 1.0, 2.0]))
    def test_equals_scipy_exactly(self, scipy_stats, pair):
        a, b = pair
        assume(len(set(a)) > 1 and len(set(b)) > 1)  # constant input has no rho
        assert spearman(a, b) == scipy_stats.spearmanr(a, b).statistic

    @pytest.mark.parametrize("a, b", [([0.5, 0.5, 0.5], [1.0, 3.0, 2.0]),
                                      ([1.0, 3.0, 2.0], [-2.0, -2.0, -2.0])])
    def test_all_tied_input_has_no_rho(self, a, b):
        assert spearman(a, b) is None


class TestCompareModels:
    def test_community_branch_has_fewer_features(self):
        corpus, _ = generate_corpus(planted_spec(13))
        report = compare_models(corpus, RunConfig(min_bigram_count=30, seed=13))
        assert report.errors == {}
        assert report.k_community_features < report.vocabulary_size

    def test_reports_both_thetas_and_rank_correlation(self):
        corpus, _ = generate_corpus(planted_spec(14))
        report = compare_models(corpus, RunConfig(min_bigram_count=30, seed=14))
        assert report.rank_correlation is not None
        assert report.runtime_community > 0
        assert report.runtime_unigram > 0

    def test_one_branch_failing_still_reports_other(self):
        corpus, _ = generate_corpus(planted_spec(15))
        # threshold too high: community branch dies, unigram survives
        report = compare_models(corpus, RunConfig(min_bigram_count=10**6, seed=15))
        assert "community" in report.errors
        assert report.unigram_result is not None

    def test_both_fits_get_the_callers_config(self, monkeypatch):
        seen = []

        def recording_fit(matrix, config):
            seen.append(config)
            return fit(matrix, config)

        monkeypatch.setattr("communityfish.cli.fit", recording_fit)
        config = RunConfig(min_bigram_count=30, seed=13, tol=1e-10, max_iter=400)
        report = compare_models(generate_corpus(planted_spec(13))[0], config)
        assert report.errors == {}
        assert seen == [config] * 2

    def test_run_pipeline_fits_under_the_run_config(self):
        # a RunConfig is the fit's FitConfig, not a copy of its fit keys
        config = RunConfig(min_bigram_count=30, seed=13, tol=1e-10, anchor_low="doc_3")
        run = run_pipeline(generate_corpus(planted_spec(13))[0], config)
        assert run.result.config is config

    def test_empty_corpus_rejected(self):
        from communityfish.corpus import Corpus, CorpusError
        with pytest.raises(CorpusError, match="^empty corpus$"):
            compare_models(Corpus(()), RunConfig())

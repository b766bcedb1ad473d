import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from communityfish import scaling
from communityfish.features import CountMatrix
from communityfish.scaling import (
    FitConfig,
    ScalingError,
    ScalingParams,
    _eta,
    _newton_block,
    analytic_theta_se,
    bootstrap,
    fit,
    initialize,
    log_likelihood,
)
from communityfish.synthbench import SyntheticSpec, generate_matrix

import oracles
from oracles import clamped_rates, fit_checking_ascent, gradients, predictor


def random_matrix(seed, n=8, k=10, row_total=300):
    spec = SyntheticSpec.create(n, k, row_total, seed=seed)
    matrix, spec = generate_matrix(spec)
    return matrix, spec


def refit_from(counts, params: ScalingParams, config: FitConfig):
    """_squarem on the counts alone, a batch of one, from params
    standardized: the refit bootstrap runs for each replicate."""
    start = scaling._standardize(params.alpha, params.theta, params.psi, params.beta)[0]
    y = np.asarray(counts, dtype=float)[np.newaxis]
    return scaling._squarem(y, start[np.newaxis], config, np.empty(y.shape))


class TestInitialize:
    @pytest.mark.parametrize("n", [4, 6])  # a wide and a tall matrix
    def test_identical_rows_have_no_positional_signal(self, n):
        counts = np.tile(np.array([[3, 1, 4, 2]]), (n, 1))
        matrix = CountMatrix(tuple("abcdef"[:n]), tuple("wxyz"), counts)
        with pytest.raises(ScalingError, match="^no positional signal: "):
            initialize(matrix)
        with pytest.raises(ScalingError, match="^no positional signal: "):
            fit(matrix)

    def test_single_feature_rejected(self):
        matrix = CountMatrix(("a", "b"), ("f",), np.array([[1], [2]]))
        with pytest.raises(ScalingError, match="2 features"):
            initialize(matrix)

    def test_theta_standardized(self):
        matrix, _ = random_matrix(0, n=5, k=6)
        params = initialize(matrix)
        assert params.theta.mean() == pytest.approx(0.0, abs=1e-10)
        assert params.theta.std(ddof=1) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n, k", [(6, 40), (40, 6)])
    def test_matches_svd_oracle(self, n, k):
        matrix, _ = random_matrix(2, n=n, k=k)
        logy = np.log(matrix.counts + 0.1)
        centered = (logy - logy.mean(axis=1, keepdims=True)
                    - logy.mean(axis=0, keepdims=True) + logy.mean())
        u, s, vt = np.linalg.svd(centered, full_matrices=False)
        sd = u[:, 0].std(ddof=1)
        theta = (u[:, 0] - u[:, 0].mean()) / sd
        beta = s[0] * vt[0] * sd
        params = initialize(matrix)
        sign = np.sign(params.theta @ theta)  # a singular pair's sign is arbitrary
        np.testing.assert_allclose(sign * params.theta, theta, rtol=0, atol=1e-10)
        np.testing.assert_allclose(sign * params.beta, beta, rtol=0, atol=1e-10)


class TestKernels:
    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("shape", [(1, 40), (6, 40), (40, 6), (5, 6, 40), (5, 40, 6)],
                             ids=["one-row", "wide", "tall", "batch-wide", "batch-tall"])
    def test_predictor_is_the_broadcast_sum_to_a_few_ulp(self, shape, transposed):
        *lead, m, n = shape
        rng = np.random.default_rng(m * n)
        a, b = rng.normal(scale=4.0, size=(2, *lead, m))
        offset, slope = rng.normal(scale=4.0, size=(2, *lead, n))
        eta = scaling._predictor(a, b, scaling._columns(1.0, offset, slope), transposed)
        reference = predictor(a, offset, b, slope)
        assert eta.shape == reference.shape
        # |a_i| + |offset_j| + |b_i * slope_j|
        scale = predictor(np.abs(a), np.abs(offset), np.abs(b), np.abs(slope))
        assert (np.abs(eta - reference) <= 4 * np.finfo(float).eps * scale).all()

    @pytest.mark.parametrize("columns", [1, 3])
    @pytest.mark.parametrize("transposed", [False, True], ids=["c-order", "view"])
    def test_sums_are_the_weighted_sums_and_do_not_depend_on_the_batch(self, transposed,
                                                                         columns):
        # 10 replicates of a 30 x 200 array, C-order or as the transposed view
        # of a 200 x 30 one, as the feature block reads the counts
        rng = np.random.default_rng(columns)
        a = rng.poisson(3.0, size=(10, 200, 30) if transposed else (10, 30, 200)).astype(float)
        a = a.swapaxes(1, 2) if transposed else a
        w = rng.normal(size=(10, 200, columns))
        batch = scaling._sums(a, w)
        # to 1e-12 of the sum of the terms' magnitudes
        scale = np.abs(a) @ np.abs(w)
        assert batch.shape == scale.shape
        assert (np.abs(batch - a @ w) <= 1e-12 * scale).all()
        for r in range(len(a)):
            alone = scaling._sums(a[r], w[r])
            assert (np.abs(alone - a[r] @ w[r]) <= 1e-12 * scale[r]).all()
            np.testing.assert_array_equal(alone, batch[r])

    @pytest.mark.parametrize("top", [28.0, 29.0, 29.5, 45.0])
    def test_rates_are_the_clipped_exp_bit_for_bit(self, top):
        # max|alpha| + max|psi| + max|theta| * max|beta| is exactly top: below,
        # at and above the bound 29 from which the clip runs. Cells (1, 2)
        # and (3, 4) reach +top and -top, beyond +-30 only at top = 45.
        rng = np.random.default_rng(int(top))
        alpha, theta = rng.uniform(-1.0, 1.0, size=(2, 6))
        psi, beta = rng.uniform(-1.0, 1.0, size=(2, 8))
        alpha[[1, 3]], theta[[1, 3]] = (top / 4, -top / 4), (1.0, 1.0)
        psi[[2, 4]], beta[[2, 4]] = (top / 2, -top / 2), (top / 4, -top / 4)
        params = ScalingParams(alpha=alpha, psi=psi, theta=theta, beta=beta)
        assert scaling._reach(params) == top
        eta = _eta(params)
        assert eta[1, 2] == top and eta[3, 4] == -top
        np.testing.assert_array_equal(scaling._rates(params), clamped_rates(eta))
        counts = rng.poisson(2.0, size=eta.shape)
        matrix = CountMatrix(tuple("abcdef"), tuple("stuvwxyz"), counts)
        assert log_likelihood(matrix, params) == float(np.sum(counts * eta - clamped_rates(eta)))

    @pytest.mark.parametrize("clamps", [False, True])
    def test_clamp_activated_is_whether_eta_passes_the_clamp(self, clamps):
        if clamps:  # two one-document features: their betas run off
            counts = np.array([[8, 0, 0], [4, 0, 0], [4, 2, 0], [0, 0, 2]])
            matrix = CountMatrix(tuple("abcd"), tuple("xyz"), counts)
        else:
            matrix, _ = random_matrix(3, n=6, k=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the clamp warns
            result = fit(matrix)
        assert result.clamp_activated == clamps
        assert bool((np.abs(_eta(result.params)) > 30.0).any()) == clamps


class TestLogLikelihood:
    def test_all_ones_zero_params(self):
        matrix = CountMatrix(("a", "b"), ("x", "y"), np.ones((2, 2), dtype=int))
        params = ScalingParams(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
        assert log_likelihood(matrix, params) == pytest.approx(-4.0)

    def test_unimodal_in_eta(self):
        # per-cell term y*eta - exp(eta) peaks at eta = log(y)
        y = 5.0
        etas = np.linspace(-1, 4, 200)
        vals = y * etas - np.exp(etas)
        assert etas[np.argmax(vals)] == pytest.approx(np.log(y), abs=0.05)

    def test_fit_improves_on_init(self):
        matrix, _ = random_matrix(3, n=6, k=7)
        init_ll = log_likelihood(matrix, initialize(matrix))
        result = fit(matrix)
        assert result.loglik_trace[-1] >= init_ll

    def test_non_finite_rejected(self):
        matrix = CountMatrix(("a", "b"), ("x", "y"), np.ones((2, 2), dtype=int))
        params = ScalingParams(np.array([np.nan, 0]), np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ScalingError, match="non-finite"):
            log_likelihood(matrix, params)


class TestFit:
    def test_recovers_planted_positions(self):
        matrix, spec = random_matrix(7, n=25, k=40, row_total=500)
        result = fit(matrix, FitConfig())
        rho = abs(np.corrcoef(result.params.theta, spec.theta_star)[0, 1])
        assert rho >= 0.95

    def test_identical_rows_get_equal_theta(self):
        rng = np.random.default_rng(5)
        counts = rng.poisson(8.0, size=(5, 8))
        counts[3] = counts[1]
        counts = np.maximum(counts, 0) + 1
        matrix = CountMatrix(tuple("abcde"), tuple("pqrstuvw"), counts)
        result = fit(matrix)
        assert abs(result.params.theta[1] - result.params.theta[3]) < 1e-6

    @pytest.mark.parametrize("axis, message", [(0, "document 'd2' has no counts"),
                                               (1, "feature 'f0' has no counts")])
    def test_zero_row_or_column_is_an_error(self, axis, message):
        counts = np.random.default_rng(0).poisson(3.0, size=(6, 5)) + 1
        if axis == 0:
            counts[2] = 0
        else:
            counts[:, 0] = 0
        matrix = CountMatrix(tuple(f"d{i}" for i in range(6)), tuple(f"f{j}" for j in range(5)),
                             counts)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ScalingError, match=f"^{message}$"):
                fit(matrix)

    def test_holds_one_array_of_the_matrix_size(self):
        # the counts are built before tracing starts; the fit itself holds
        # one rate array of their shape, and initialize, before it, one log
        # array. Its vectors of one entry per feature, some 40 of them live
        # at once, add about 40 / n arrays: n is large enough for them to
        # stay small
        rng = np.random.default_rng(2)
        n, k = 200, 2000
        theta, beta = rng.normal(size=n), rng.normal(scale=0.5, size=k)
        counts = rng.poisson(np.exp(1.0 + np.outer(theta, beta))) + 1
        matrix = CountMatrix(tuple(f"d{i}" for i in range(n)),
                             tuple(f"f{j}" for j in range(k)), counts)
        tracemalloc.start()
        try:
            result = fit(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak < 1.5 * 8 * n * k  # bytes

    def test_trace_non_decreasing(self):
        matrix, _ = random_matrix(11, n=10, k=12)
        result = fit_checking_ascent(matrix)
        diffs = np.diff(result.loglik_trace)
        assert (diffs >= -1e-9).all()

    @pytest.mark.parametrize("n, k", [(60, 10), (8, 300)])
    def test_trace_ends_at_log_likelihood(self, n, k):
        matrix, _ = random_matrix(23, n=n, k=k, row_total=20 * k)
        result = fit(matrix)
        assert result.converged
        assert result.loglik_trace[-1] == pytest.approx(
            log_likelihood(matrix, result.params), rel=1e-12)

    def test_ascent_checked_on_wide_matrix(self):
        matrix, _ = random_matrix(23, n=8, k=300, row_total=6000)
        result = fit_checking_ascent(matrix)
        assert result.converged

    @pytest.mark.filterwarnings("ignore::UserWarning")  # the broken fit clamps
    def test_ascent_check_fails_when_the_trace_is_wrong(self, monkeypatch):
        # a constant added to psi after the loop has summed its log
        # likelihood: the trace no longer holds the points' log likelihoods
        standardize = scaling._standardize

        def shifted(alpha, theta, psi, beta):
            x, degenerate = standardize(alpha, theta, psi, beta)
            scaling._split(x, theta.shape[-1])[2][...] += 0.1
            return x, degenerate

        monkeypatch.setattr(scaling, "_standardize", shifted)
        matrix, _ = random_matrix(11, n=10, k=12)
        with pytest.raises(AssertionError, match="trace ends at"):
            fit_checking_ascent(matrix)

    def test_singleton_columns_in_extreme_documents(self):
        # a word seen once, only in the most extreme document, has no finite
        # maximum likelihood estimate; the fit must still ascend and stop
        matrix, _ = random_matrix(3, n=12, k=24)
        order = np.argsort(fit(matrix).params.theta)
        counts = matrix.counts.copy()
        counts[:, :4] = 0
        counts[order[0], :2] = 1
        counts[order[-1], 2:4] = 1
        matrix = CountMatrix(matrix.doc_ids, matrix.feature_labels, counts)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the clamp may engage
            result = fit_checking_ascent(matrix)
        assert result.converged
        assert (np.diff(result.loglik_trace) >= -1e-9).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_tight_fit_has_small_score(self, seed):
        matrix, _ = random_matrix(seed)
        result = fit(matrix, FitConfig(tol=1e-12))
        assert result.converged
        assert result.score < 1e-4
        assert result.map_evaluations >= len(result.loglik_trace) - 1

    def test_score_is_the_scaled_gradient(self):
        matrix, _ = random_matrix(4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # not converged
            result = fit(matrix, FitConfig(max_iter=3))
        params = result.params
        mu = np.exp(params.alpha[:, None] + params.psi + np.outer(params.theta, params.beta))
        grads = gradients(matrix, params)
        diag = {"alpha": mu.sum(axis=1), "theta": mu @ params.beta**2,
                "psi": mu.sum(axis=0), "beta": mu.T @ params.theta**2}
        expected = max(np.max(np.abs(grads[b]) / np.sqrt(diag[b])) for b in grads)
        assert result.score == pytest.approx(expected, rel=1e-8)

    def test_identification_constraints(self):
        matrix, _ = random_matrix(13, n=9, k=11)
        result = fit(matrix)
        theta = result.params.theta
        assert abs(theta.mean()) < 1e-10
        assert abs(theta.std(ddof=1) - 1.0) < 1e-8
        assert result.params.alpha[0] == 0.0
        assert theta[0] <= theta[-1]

    def test_anchor_direction(self):
        matrix, _ = random_matrix(17, n=9, k=11)
        doc_ids = matrix.doc_ids
        result = fit(matrix, FitConfig(anchor_low=doc_ids[2], anchor_high=doc_ids[5]))
        assert result.params.theta[2] <= result.params.theta[5]

    def test_identical_anchors_rejected(self):
        matrix, _ = random_matrix(17, n=5, k=6)
        with pytest.raises(ScalingError, match="distinct"):
            fit(matrix, FitConfig(anchor_low="doc_0", anchor_high="doc_0"))

    def test_column_permutation_invariance(self):
        matrix, _ = random_matrix(19, n=8, k=9)
        perm = np.random.default_rng(1).permutation(9)
        permuted = CountMatrix(
            matrix.doc_ids,
            tuple(matrix.feature_labels[j] for j in perm),
            matrix.counts[:, perm],
        )
        a = fit(matrix, FitConfig(tol=1e-12))
        b = fit(permuted, FitConfig(tol=1e-12))
        assert np.allclose(a.params.theta, b.params.theta, atol=1e-8)
        assert np.allclose(a.params.beta[perm], b.params.beta, atol=1e-6)
        assert np.allclose(a.params.psi[perm], b.params.psi, atol=1e-6)

    def test_rate_scaling_preserves_theta_order(self):
        spec = SyntheticSpec.create(10, 12, 300, seed=23)
        matrix, spec = generate_matrix(spec)
        boosted = dataclasses.replace(spec, psi_star=spec.psi_star + np.log(3.0))
        matrix2, _ = generate_matrix(boosted)
        spearmanr = pytest.importorskip("scipy.stats").spearmanr
        t1 = fit(matrix, FitConfig()).params.theta
        t2 = fit(matrix2, FitConfig()).params.theta
        rho = spearmanr(t1, t2).statistic
        assert abs(rho) > 0.95

    def test_too_small_matrix(self):
        matrix = CountMatrix(("a",), ("x", "y"), np.array([[1, 2]]))
        with pytest.raises(ScalingError):
            fit(matrix)

    def test_nonconvergence_still_returns(self):
        matrix, _ = random_matrix(29, n=8, k=9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result = fit(matrix, FitConfig(max_iter=1))
        assert result.converged is False

    @pytest.mark.parametrize("key", ["tol"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_config_rejects_non_positive_or_non_finite(self, key, value):
        with pytest.raises(ScalingError, match=f"^{key} must be finite and positive"):
            FitConfig(**{key: value})


def newton_block(y, offset, slope, a, b, mu=None):
    """_newton_block on a batch of one replicate; mu None computes the rates,
    with the linear predictor clamped to +-30."""
    if mu is None:
        mu = np.exp(np.clip(a[:, None] + offset[None, :] + b[:, None] * slope[None, :],
                            -30.0, 30.0))
    stacked = _newton_block(y[None], offset[None], slope[None], a[None], b[None], mu[None])
    return tuple(v[0] for v in stacked)


class TestLineSearch:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        k=st.integers(2, 30),
        scales=st.lists(st.sampled_from([0.3, 5.0, 3000.0]), min_size=8, max_size=8),
    )
    def test_no_row_loses_likelihood(self, seed, n, k, scales):
        rng = np.random.default_rng(seed)
        rates = np.array(scales[:n])[:, None] * rng.gamma(2.0, 0.5, size=(n, k))
        y = rng.poisson(rates).astype(float)
        offset, slope = rng.normal(size=k), rng.normal(size=k)
        a, b = rng.normal(size=n), rng.normal(size=n)

        def row_ll(a, b):
            eta = a[:, None] + offset[None, :] + b[:, None] * slope[None, :]
            return np.sum(y * eta - np.exp(np.clip(eta, -30.0, 30.0)), axis=1)

        start = row_ll(a, b)
        a_new, b_new, ll, mu, _ = newton_block(y, offset, slope, a, b)
        assert np.isfinite(a_new).all() and np.isfinite(b_new).all()
        assert (row_ll(a_new, b_new) >= start - 1e-12 * (1.0 + np.abs(start))).all()
        np.testing.assert_allclose(ll, row_ll(a_new, b_new), rtol=1e-12, atol=1e-9)
        eta = a_new[:, None] + offset[None, :] + b_new[:, None] * slope[None, :]
        np.testing.assert_allclose(mu, np.exp(np.clip(eta, -30.0, 30.0)), rtol=1e-12)

    def test_row_failing_every_trial_keeps_its_point(self):
        # every cell of row 1 sits above the clamp, where the Newton
        # direction from the clamped rates lowers the likelihood
        rng = np.random.default_rng(0)
        y = np.vstack([rng.poisson(20.0, size=6), np.full(6, 1e12)])
        offset, slope = 0.1 * rng.normal(size=6), rng.normal(size=6)
        a, b, _, mu, halvings = newton_block(
            y, offset, slope, np.array([0.0, 40.0]), np.zeros(2))
        assert a[1] == 40.0 and b[1] == 0.0
        assert a[0] != 0.0
        assert 29 <= halvings < 2 * 29  # row 1 backtracks through every trial
        assert (mu[1] == np.exp(30.0)).all()  # its rates stay at the start's

    @pytest.mark.parametrize("n, k", [(5, 40), (40, 5)])
    def test_passed_rates_give_the_same_step(self, n, k):
        rng = np.random.default_rng(n)
        y = rng.poisson(3.0, size=(n, k)).astype(float)
        offset, slope = rng.normal(size=k), rng.normal(size=k)
        a, b = rng.normal(size=n), rng.normal(size=n)
        mu = np.exp(a[:, None] + offset[None, :] + b[:, None] * slope[None, :])
        fresh = newton_block(y, offset, slope, a, b)
        passed = newton_block(y, offset, slope, a, b, mu=mu)
        for x, z in zip(fresh[:4], passed[:4]):
            np.testing.assert_allclose(z, x, rtol=1e-12, atol=1e-12)
        assert fresh[4] == passed[4]

    def test_converged_start_refit_does_not_backtrack(self):
        # row log likelihoods near 1e6, where float noise alone exceeds an
        # absolute acceptance bound
        matrix, _ = random_matrix(1, n=20, k=30, row_total=50000)
        result = fit(matrix)
        refit = refit_from(matrix.counts, result.params, result.config)
        assert refit.converged[0] and len(refit.traces[0]) == 2
        assert refit.evaluations[0] > 0
        assert refit.halvings[0] <= 5


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_central_finite_differences(self, seed):
        matrix, _ = random_matrix(seed, n=6, k=7)
        result = fit(matrix)
        params = result.params
        grads = gradients(matrix, params)
        h = 1e-5
        for block in ("alpha", "theta", "psi", "beta"):
            vec = getattr(params, block)
            for idx in range(len(vec)):
                up = vec.copy()
                up[idx] += h
                down = vec.copy()
                down[idx] -= h
                ll_up = log_likelihood(matrix, dataclasses.replace(params, **{block: up}))
                ll_dn = log_likelihood(matrix, dataclasses.replace(params, **{block: down}))
                fd = (ll_up - ll_dn) / (2 * h)
                scale = max(abs(fd), abs(grads[block][idx]), 1.0)
                assert abs(grads[block][idx] - fd) / scale < 1e-4


class TestExtrapolate:
    def test_non_finite_point_falls_back_to_x2(self):
        # flat points of n = k = 2, one row per replicate. Replicate 0:
        # |r| = 1e100 over |v| = 1e-100, whose S3 point overflows; 1: a step
        # of -2 to the point 2; 2: no movement, s = -1
        x0 = np.array([[0.0] * 8, [0.0] * 8, [3.0] * 8])
        x1 = np.array([[1e100] + [0.0] * 7, [1.0] * 8, [3.0] * 8])
        x2 = np.array([[2e100, 0.0, 1e-100] + [0.0] * 5, [1.5] * 8, [3.0] * 8])
        with np.errstate(over="ignore", invalid="ignore"):
            x, extrapolated = scaling._extrapolate(x0, x1, x2)
        assert extrapolated.tolist() == [False, True, False]
        np.testing.assert_array_equal(x[[0, 2]], x2[[0, 2]])
        np.testing.assert_array_equal(x[1], 2.0)


class TestBootstrap:
    def test_deterministic(self):
        matrix, _ = random_matrix(31, n=8, k=10)
        result = fit(matrix)
        a = bootstrap(result, B=20, seed=9)
        b = bootstrap(result, B=20, seed=9)
        assert (a.theta_ci_low == b.theta_ci_low).all()
        assert (a.theta_ci_high == b.theta_ci_high).all()
        assert (a.theta_se == b.theta_se).all()

    def test_single_replicate_degenerate_ci(self):
        matrix, _ = random_matrix(37, n=8, k=10)
        result = fit(matrix)
        boot = bootstrap(result, B=1, seed=2)
        assert np.allclose(boot.theta_ci_low, boot.theta_ci_high)
        assert (boot.theta_se == 0).all()

    def test_zero_replicates_rejected(self):
        matrix, _ = random_matrix(37, n=8, k=10)
        result = fit(matrix)
        with pytest.raises(ScalingError):
            bootstrap(result, B=0)

    def test_nonconverged_fit_rejected(self):
        matrix, _ = random_matrix(37, n=8, k=10)
        result = dataclasses.replace(fit(matrix), converged=False)
        with pytest.raises(ScalingError, match="^bootstrap requires a converged fit$"):
            bootstrap(result, B=10)

    def test_replicate_with_one_nonzero_column_is_an_error(self):
        # every rate but the first column's is e^-30 at the clamp: each
        # replicate keeps one column, and no fit scales one feature
        matrix, _ = random_matrix(31, n=8, k=10)
        result = fit(matrix)
        params = ScalingParams(alpha=np.zeros(8), psi=np.r_[5.0, np.full(9, -50.0)],
                               theta=result.params.theta, beta=np.zeros(10))
        with pytest.raises(ScalingError, match=r"failed on 10/10 replicates "
                           r"\(zero_row 0, not_converged 0, error 10\)"):
            bootstrap(dataclasses.replace(result, params=params), B=10, seed=0)

    def test_nonconverged_replicates_are_failures(self):
        matrix, _ = random_matrix(31, n=8, k=10)
        result = fit(matrix)
        with pytest.raises(ScalingError, match=r"failed on 10/10 replicates "
                           r"\(zero_row 0, not_converged 10, error 0\)"):
            bootstrap(dataclasses.replace(result, config=FitConfig(max_iter=1)), B=10, seed=9)

    @staticmethod
    def _with_sparse_cells(row_or_col):
        # one count in the median-theta document: a column (or a row) whose
        # total is 1, so about e^-1 of the replicates leave it all zero
        matrix, _ = random_matrix(5, n=10, k=12)
        mid = np.argsort(fit(matrix).params.theta)[5]
        counts = matrix.counts.copy()
        if row_or_col == "col":
            counts[:, -1] = 0
            counts[mid, -1] = 1
        else:
            counts[mid] = 0
            counts[mid, 0] = 1
        matrix = CountMatrix(matrix.doc_ids, matrix.feature_labels, counts)
        return matrix, fit(matrix)

    def test_all_zero_column_is_left_out_of_the_refit(self):
        matrix, result = self._with_sparse_cells("col")
        boot = bootstrap(result, B=40, seed=4)
        assert boot.bootstrap_failures == 0
        assert np.isfinite(boot.theta_se).all() and (boot.theta_se > 0).all()

    def test_all_zero_row_is_a_failure(self):
        matrix, result = self._with_sparse_cells("row")
        with pytest.raises(ScalingError, match=r"failed on (\d+)/40 replicates "
                           r"\(zero_row \1, not_converged 0, error 0\)"):
            bootstrap(result, B=40, seed=4)

    def test_failures_are_counted_by_reason(self):
        matrix, result = self._with_zero_row_failures()
        boot = bootstrap(result, B=60, seed=1)
        assert boot.bootstrap_failures > 0
        assert boot.bootstrap_failure_reasons == {
            "zero_row": boot.bootstrap_failures, "not_converged": 0, "error": 0}

    @staticmethod
    def _one_fit_per_replicate(result, B, seed):
        """The bootstrap as one fit per replicate: the same draws in order,
        each refit alone by refit_from, under the fit's config on its non-zero
        columns from the point estimate, theta sign-aligned by correlation.
        Also counts the replicates that drop a column."""
        rng = np.random.default_rng(seed)
        mu = np.exp(np.clip(_eta(result.params), -30.0, 30.0))
        n = len(mu)
        failures = dict.fromkeys(("zero_row", "not_converged", "error"), 0)
        reps, dropped = [], 0
        for _ in range(B):
            y = rng.poisson(mu)
            if not y.any(axis=1).all():
                failures["zero_row"] += 1
                continue
            cols = y.any(axis=0)
            dropped += not cols.all()
            if np.count_nonzero(cols) < 2:  # no fit of one feature
                failures["error"] += 1
                continue
            start = dataclasses.replace(result.params, psi=result.params.psi[cols],
                                        beta=result.params.beta[cols])
            rep = refit_from(y[:, cols], start, result.config)
            if rep.degenerate[0]:
                failures["error"] += 1
                continue
            if not rep.converged[0]:
                failures["not_converged"] += 1
                continue
            theta = rep.x[0, n:2 * n]
            reps.append(-theta if np.corrcoef(theta, result.params.theta)[0, 1] < 0 else theta)
        thetas = np.array(reps)
        return (thetas.std(axis=0, ddof=1), np.percentile(thetas, 2.5, axis=0),
                np.percentile(thetas, 97.5, axis=0), failures, dropped)

    def _bootstrap_equal_to_one_fit_per_replicate(self, result):
        """bootstrap(result, B=40, seed=4), checked against
        _one_fit_per_replicate; also returns how many replicates dropped a
        column."""
        boot = bootstrap(result, B=40, seed=4)
        se, low, high, failures, dropped = self._one_fit_per_replicate(result, 40, 4)
        np.testing.assert_allclose(boot.theta_se, se, rtol=0, atol=1e-10)
        np.testing.assert_allclose(boot.theta_ci_low, low, rtol=0, atol=1e-10)
        np.testing.assert_allclose(boot.theta_ci_high, high, rtol=0, atol=1e-10)
        assert boot.bootstrap_failure_reasons == failures
        return boot, dropped

    @pytest.mark.parametrize("sparse", [False, True])
    def test_batches_equal_one_fit_per_replicate(self, sparse):
        if sparse:
            matrix, result = self._with_sparse_cells("col")
        else:
            matrix, _ = random_matrix(31, n=8, k=10)
            result = fit(matrix)
        _, dropped = self._bootstrap_equal_to_one_fit_per_replicate(result)
        if sparse:  # some replicates keep the sparse column, others drop it
            assert 0 < dropped < 40

    def test_refits_run_under_the_fits_config(self):
        # a loose tol stops the refits sooner than the default tol would
        matrix, _ = random_matrix(31, n=8, k=10)
        result = fit(matrix, FitConfig(tol=1e-5))
        boot, _ = self._bootstrap_equal_to_one_fit_per_replicate(result)
        default = bootstrap(fit(matrix), B=40, seed=4)
        assert boot.bootstrap_map_evaluations < default.bootstrap_map_evaluations

    @staticmethod
    def _with_zero_row_failures():
        # a row total of 3 leaves the row all zero in about e^-3 of the
        # replicates: some failures, fewer than the 20% that is an error
        matrix, _ = random_matrix(5, n=10, k=12)
        counts = matrix.counts.copy()
        counts[4] = 0
        counts[4, :3] = 1
        matrix = CountMatrix(matrix.doc_ids, matrix.feature_labels, counts)
        return matrix, fit(matrix)

    @pytest.mark.parametrize("zero_row", [False, True])
    def test_results_do_not_depend_on_batch_size(self, monkeypatch, zero_row):
        if zero_row:
            matrix, result = self._with_zero_row_failures()
        else:
            matrix, _ = random_matrix(41, n=10, k=12)
            result = fit(matrix)
        assert scaling.BATCH_CELLS // matrix.counts.size >= 60  # one batch
        batched = bootstrap(result, B=60, seed=1)
        monkeypatch.setattr(scaling, "BATCH_CELLS", 1)  # one replicate a batch
        alone = bootstrap(result, B=60, seed=1)
        for name in ("theta_se", "theta_ci_low", "theta_ci_high"):
            np.testing.assert_array_equal(getattr(alone, name), getattr(batched, name))
        assert alone.bootstrap_failures == batched.bootstrap_failures
        assert alone.bootstrap_failure_reasons == batched.bootstrap_failure_reasons
        assert alone.bootstrap_map_evaluations == batched.bootstrap_map_evaluations
        assert (batched.bootstrap_failures > 0) == zero_row

    def test_square_matrix_results_do_not_depend_on_batch_size(self, monkeypatch):
        # neither axis is the longer one: the rates must still reach the
        # document block in one memory layout, whichever path made them (a
        # batch mixes replicates that extrapolate with some that do not)
        rng = np.random.default_rng(0)
        eta = rng.normal(size=20) + np.outer(rng.normal(size=20), rng.normal(scale=1.5, size=20))
        labels = tuple(f"d{i}" for i in range(20)), tuple(f"w{j}" for j in range(20))
        matrix = CountMatrix(*labels, rng.poisson(3.0 * np.exp(eta)))
        result = fit(matrix)
        assert scaling.BATCH_CELLS // matrix.counts.size >= 12  # one batch
        batched = bootstrap(result, B=12, seed=0)
        monkeypatch.setattr(scaling, "BATCH_CELLS", 1)
        alone = bootstrap(result, B=12, seed=0)
        for name in ("theta_se", "theta_ci_low", "theta_ci_high"):
            np.testing.assert_array_equal(getattr(alone, name), getattr(batched, name))
        assert alone.bootstrap_map_evaluations == batched.bootstrap_map_evaluations

    def test_batches_stay_independent_when_refits_halve(self, monkeypatch):
        # heavy counts (up to 374) on wide discriminations: the refits' Newton
        # steps overshoot, and rows halve their steps replicate by replicate
        rng = np.random.default_rng(12)
        eta = rng.normal(size=50) + np.outer(rng.normal(size=10), rng.normal(scale=1.5, size=50))
        counts = rng.poisson(3.0 * np.exp(eta))
        matrix = CountMatrix(tuple(f"d{i}" for i in range(10)),
                             tuple(f"w{j}" for j in range(50)), counts)
        result = fit(matrix)
        newton_block, halvings = scaling._newton_block, []

        def counting(*args):
            out = newton_block(*args)
            halvings.append(out[-1])
            return out

        monkeypatch.setattr(scaling, "_newton_block", counting)
        batched = bootstrap(result, B=12, seed=0)
        # some batch had replicates that halved next to others
        assert any(h.size > 1 and h.any() for h in halvings)
        monkeypatch.setattr(scaling, "BATCH_CELLS", 1)
        alone = bootstrap(result, B=12, seed=0)
        for name in ("theta_se", "theta_ci_low", "theta_ci_high"):
            np.testing.assert_array_equal(getattr(alone, name), getattr(batched, name))
        assert alone.bootstrap_failure_reasons == batched.bootstrap_failure_reasons
        assert alone.bootstrap_map_evaluations == batched.bootstrap_map_evaluations

    def test_mixed_stabilisations_stay_in_step(self, monkeypatch):
        # by its own state, a replicate's stabilisation step starts from x2
        # (not extrapolated), from x0 (F of it lands near x1, so the step is
        # rejected) or from the real S3 point; batches mix all three
        matrix, _ = random_matrix(41, n=10, k=12)
        result = fit(matrix)
        n = matrix.shape[0]
        extrapolate, mixed = scaling._extrapolate, []

        def three_ways(x0, x1, x2):
            x, extrapolated = extrapolate(x0, x1, x2)
            case = np.floor(x2[:, n] * 1e4) % 3  # by the first theta
            x = np.where((case == 0)[:, None], x2, np.where((case == 1)[:, None], x0, x))
            mixed.append(len(set(case)) == 3)
            return x, np.where(case == 0, False, np.where(case == 1, True, extrapolated))

        monkeypatch.setattr(scaling, "_extrapolate", three_ways)
        batched = bootstrap(result, B=30, seed=2)
        monkeypatch.setattr(scaling, "BATCH_CELLS", 1)
        alone = bootstrap(result, B=30, seed=2)
        assert any(mixed)
        for name in ("theta_se", "theta_ci_low", "theta_ci_high"):
            np.testing.assert_array_equal(getattr(alone, name), getattr(batched, name))
        assert alone.bootstrap_map_evaluations == batched.bootstrap_map_evaluations

    def test_large_bootstrap_memory_stays_bounded(self):
        # refitting all 50 replicates of this 60 x 2000 matrix in one batch
        # peaks near 234 MiB; batches of at most BATCH_CELLS cells near 6 MiB
        matrix, _ = generate_matrix(SyntheticSpec.create(60, 2000, 20000, seed=3))
        result = fit(matrix)
        tracemalloc.start()
        try:
            boot = bootstrap(result, B=50, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert boot.bootstrap_failures == 0
        assert peak < 16e6  # bytes

    def test_refit_of_fewer_columns_does_not_hold_the_draws(self):
        # each replicate of this sparse 200 x 2424 matrix is a batch of its
        # own, and its draw has all-zero columns: the refit reads a copy of
        # the kept columns, besides the point rates and its rate array.
        # Holding the draws as well peaks near five arrays of the matrix's size
        n, k = 200, 2424
        matrix, _ = generate_matrix(SyntheticSpec.create(n, k, 400, seed=3))
        result = fit(matrix)
        tracemalloc.start()
        try:
            boot = bootstrap(result, B=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert boot.bootstrap_failures == 0
        assert peak < 4.5 * 8 * n * k  # bytes

    def test_ci_brackets_point_estimate_mostly(self):
        matrix, _ = random_matrix(41, n=10, k=12)
        result = fit(matrix)
        boot = bootstrap(result, B=60, seed=3)
        inside = (boot.theta_ci_low <= result.params.theta) & (
            result.params.theta <= boot.theta_ci_high
        )
        assert inside.mean() >= 0.8


def test_analytic_se_positive_and_ordered():
    matrix, _ = random_matrix(43, n=10, k=12, row_total=400)
    se = analytic_theta_se(fit(matrix)).theta_se
    assert (se > 0).all()
    assert se.max() < 1.0


class TestAnalyticSE:
    @pytest.mark.parametrize("n, k", [(30, 8), (8, 120)])
    def test_matches_the_three_sum_formula(self, n, k):
        matrix, _ = random_matrix(44, n=n, k=k, row_total=40 * k)
        result = fit(matrix)
        se = analytic_theta_se(result).theta_se
        np.testing.assert_allclose(se, oracles.analytic_se(result), rtol=1e-14, atol=0)

    def test_interval_is_theta_plus_minus_1_96_se(self):
        matrix, _ = random_matrix(45, n=10, k=12)
        result = analytic_theta_se(fit(matrix))
        theta, se = result.params.theta, result.theta_se
        np.testing.assert_array_equal(result.theta_ci_low, theta - 1.96 * se)
        np.testing.assert_array_equal(result.theta_ci_high, theta + 1.96 * se)

    def test_singular_block_raises(self):
        matrix, _ = random_matrix(46, n=6, k=8)
        result = fit(matrix)
        flat = dataclasses.replace(result.params, beta=np.zeros(8))
        with pytest.raises(ScalingError, match="document '.*' has singular information"):
            analytic_theta_se(dataclasses.replace(result, params=flat))


@pytest.mark.parametrize("uncertainty", [
    analytic_theta_se, lambda result: bootstrap(result, B=10, seed=1)])
def test_uncertainty_keeps_the_point_fit(uncertainty):
    matrix, _ = random_matrix(49, n=10, k=12)
    result = fit(matrix)
    described = uncertainty(result)
    assert described.theta_se is not None
    assert described.dispersion == result.dispersion
    assert described.config is result.config
    assert described.params is result.params
    assert described.loglik_trace == result.loglik_trace


def test_dispersion_near_one_for_true_poisson():
    matrix, _ = random_matrix(47, n=20, k=30, row_total=500)
    assert 0.5 < fit(matrix).dispersion < 2.0


@pytest.mark.parametrize("n, k", [(40, 6), (6, 200)])
def test_dispersion_is_the_pearson_statistic_of_the_fit(n, k):
    matrix, _ = random_matrix(50, n=n, k=k, row_total=30 * k)
    result = fit(matrix)
    assert result.dispersion == oracles.dispersion(matrix, result.params)


def test_dispersion_is_none_without_residual_degrees_of_freedom():
    # 4 x 2 cells against 2n + 2k - 3 = 9 parameters: df = -1
    matrix, _ = random_matrix(48, n=4, k=2, row_total=200)
    assert fit(matrix).dispersion is None

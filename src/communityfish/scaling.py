"""One-dimensional Poisson scaling of count matrices.

The model has rate log lambda_ij = alpha_i + psi_j + theta_i * beta_j with
document fixed effect alpha, feature fixed effect psi, document position
theta, and feature discrimination beta. Estimation alternates exact Newton
maximization of the per-document (alpha_i, theta_i) blocks and the
per-feature (psi_j, beta_j) blocks; both conditional problems are concave.
Identification: alpha of the first document is 0, theta is z-scored, and
the direction is fixed by an anchor document pair.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, replace
from itertools import compress

import numpy as np

from .features import CountMatrix


class ScalingError(ValueError):
    """Raised for matrices or configurations the model cannot estimate."""


@dataclass(frozen=True)
class ScalingParams:
    alpha: np.ndarray  # (n_docs,)
    psi: np.ndarray  # (n_features,)
    theta: np.ndarray  # (n_docs,)
    beta: np.ndarray  # (n_features,)


@dataclass(frozen=True)
class FitConfig:
    tol: float = 1e-8
    max_iter: int = 500
    anchor_low: str | None = None  # defaults to first document
    anchor_high: str | None = None  # defaults to last document
    linear_predictor_clamp: float = 30.0
    seed: int = 0
    # cross-check every accepted half-step against a full LL recomputation
    debug_ascent: bool = False

    def __post_init__(self):
        for name in ("tol", "linear_predictor_clamp"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ScalingError(f"{name} must be finite and positive, got {value!r}")
        if self.max_iter < 1:
            raise ScalingError(f"max_iter must be >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class ScalingResult:
    matrix: CountMatrix
    params: ScalingParams
    loglik_trace: tuple[float, ...]
    converged: bool
    runtime: float
    clamp_activated: bool = False
    theta_se: np.ndarray | None = None
    theta_ci_low: np.ndarray | None = None
    theta_ci_high: np.ndarray | None = None
    bootstrap_failures: int = 0
    # inner Newton steps and row step halvings, summed over both blocks of
    # every outer iteration
    newton_steps: int = 0
    line_search_halvings: int = 0


def _clamped_mu(eta: np.ndarray, clamp: float, out: np.ndarray | None = None) -> np.ndarray:
    mu = np.clip(eta, -clamp, clamp, out=out)
    return np.exp(mu, out=mu)


def _eta(params: ScalingParams) -> np.ndarray:
    return (
        params.alpha[:, None]
        + params.psi[None, :]
        + params.theta[:, None] * params.beta[None, :]
    )


def log_likelihood(
    matrix: CountMatrix, params: ScalingParams, clamp: float = 30.0
) -> float:
    """Poisson log likelihood up to the constant -sum(log y!)."""
    for arr in (params.alpha, params.psi, params.theta, params.beta):
        if not np.all(np.isfinite(arr)):
            raise ScalingError("non-finite parameter")
    eta = _eta(params)
    return float(np.sum(matrix.counts * eta - _clamped_mu(eta, clamp)))


def initialize(matrix: CountMatrix) -> ScalingParams:
    """Standard starting values: log row-sum ratios for alpha, log column
    means for psi, first singular pair of the doubly centered log counts
    for (theta, beta)."""
    y = matrix.counts.astype(float)
    n, k = y.shape
    if k < 2:
        raise ScalingError("need >= 2 features to identify discrimination")
    if n < 2:
        raise ScalingError("need >= 2 documents")
    rowsum = y.sum(axis=1)
    alpha = np.log(rowsum / rowsum[0])
    psi = np.log(y.mean(axis=0))
    logy = np.log(y + 0.1)
    centered = (
        logy
        - logy.mean(axis=1, keepdims=True)
        - logy.mean(axis=0, keepdims=True)
        + logy.mean()
    )
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    theta_raw = u[:, 0]
    sd = theta_raw.std(ddof=1)
    if sd < 1e-12:
        rng = np.random.default_rng(0)
        theta_raw = rng.normal(size=n)
        sd = theta_raw.std(ddof=1)
    theta = (theta_raw - theta_raw.mean()) / sd
    beta = s[0] * vt[0, :] * sd
    return ScalingParams(alpha=alpha, psi=psi, theta=theta, beta=beta)


def _predictor(a, offset, b, slope):
    """eta_ij = a_i + offset_j + b_i * slope_j, built with the longer axis
    contiguous: numpy's broadcast loops run fastest along long rows."""
    if offset.size >= a.size:
        return a[:, None] + offset[None, :] + b[:, None] * slope[None, :]
    return (a[None, :] + offset[:, None] + b[None, :] * slope[:, None]).T


def _newton_block(y, offset, slope, a, b, clamp, max_inner=40, gtol=1e-10):
    """Maximize sum_j y_ij*eta - exp(eta) over (a_i, b_i) for every row i,
    with eta_ij = a_i + offset_j + b_i * slope_j. Rows are independent and
    each row problem is concave; damped Newton with per-row backtracking.

    The gradient, the Hessian and the row log likelihood depend on the counts
    only through y @ (1, offset, slope) and on the rates only through
    mu @ (1, slope, slope^2), so each trial step costs one exp over the rows
    it covers and one product, and those sums of the accepted point carry
    over to the next step. A row accepts a trial step when its log
    likelihood drops by no more than a relative 1e-12 (float noise on sums
    of 1e3-1e5); only rows still failing are re-evaluated at half the step,
    and a row failing all 30 trials keeps its point and takes no further
    step (the same step would fail again).

    Returns the updated (a, b), the row log likelihoods there, the number of
    Newton steps taken and the number of row step halvings."""
    a = a.copy()
    b = b.copy()
    ysum, yoff, yslope = (y @ np.column_stack([np.ones_like(offset), offset, slope])).T
    weights = np.column_stack([np.ones_like(slope), slope, slope**2])

    def evaluate(a, b, rows):
        """Rate sums (h11, h12, h22) and log likelihood of the given rows,
        whose parameters are (a, b)."""
        mu = _predictor(a, offset, b, slope)
        h = _clamped_mu(mu, clamp, out=mu) @ weights
        return h, a * ysum[rows] + yoff[rows] + b * yslope[rows] - h[:, 0]

    h, ll = evaluate(a, b, slice(None))
    stuck = np.zeros(a.shape, dtype=bool)
    steps = halvings = 0
    for _ in range(max_inner):
        h11, h12, h22 = h.T
        g1 = ysum - h11
        g2 = yslope - h12
        det = h11 * h22 - h12**2
        # fall back to an alpha-only step where the block is singular
        # (e.g. all slopes ~ 0)
        singular = det <= 1e-12 * np.maximum(h11 * h22, 1e-300)
        det_safe = np.where(singular, 1.0, det)
        da = np.where(singular, g1 / np.maximum(h11, 1e-300), (h22 * g1 - h12 * g2) / det_safe)
        db = np.where(singular, 0.0, (h11 * g2 - h12 * g1) / det_safe)
        gnorm = np.maximum(np.abs(g1), np.abs(g2))
        active = (gnorm > gtol * (1.0 + h11)) & ~stuck
        if not active.any():
            break
        steps += 1
        rows = np.flatnonzero(active)
        step = 1.0
        for trial in range(30):
            if trial:
                step /= 2.0
                halvings += rows.size
            a_try = a[rows] + step * da[rows]
            b_try = b[rows] + step * db[rows]
            h_try, ll_try = evaluate(a_try, b_try, rows)
            ll_old = ll[rows]
            ok = ll_try >= ll_old - 1e-12 * (1.0 + np.abs(ll_old))
            done = rows[ok]
            a[done], b[done], h[done], ll[done] = a_try[ok], b_try[ok], h_try[ok], ll_try[ok]
            rows = rows[~ok]
            if not rows.size:
                break
        else:
            stuck[rows] = True
    return a, b, ll, steps, halvings


def _standardize(params: ScalingParams) -> ScalingParams:
    """Apply the identification constraints without changing the linear
    predictor: theta is z-scored (shift absorbed into psi, scale into beta)
    and alpha_0 is set to zero (shift absorbed into psi)."""
    theta = params.theta
    mean = theta.mean()
    sd = theta.std(ddof=1)
    if sd < 1e-12:
        raise ScalingError("degenerate theta: zero variance")
    theta_new = (theta - mean) / sd
    beta_new = params.beta * sd
    psi_new = params.psi + mean * params.beta
    shift = params.alpha[0]
    alpha_new = params.alpha - shift
    alpha_new[0] = 0.0
    psi_new = psi_new + shift
    return ScalingParams(alpha=alpha_new, psi=psi_new, theta=theta_new, beta=beta_new)


def fit(matrix: CountMatrix, config: FitConfig = FitConfig(),
        start: ScalingParams | None = None) -> ScalingResult:
    """Alternating conditional Newton maximization of the Poisson likelihood."""
    t0 = time.perf_counter()
    y = matrix.counts.astype(float)
    n, k = y.shape
    if n < 2 or k < 2:
        raise ScalingError("need >= 2 documents and >= 2 features")
    clamp = config.linear_predictor_clamp
    params = _standardize(start if start is not None else initialize(matrix))
    doc_index = {d: i for i, d in enumerate(matrix.doc_ids)}
    for anchor in (config.anchor_low, config.anchor_high):
        if anchor and anchor not in doc_index:
            raise ScalingError(f"anchor document {anchor!r} is not in the matrix "
                               "(unknown id, or dropped by trimming)")
    lo = doc_index[config.anchor_low] if config.anchor_low else 0
    hi = doc_index[config.anchor_high] if config.anchor_high else n - 1
    if lo == hi:
        raise ScalingError("anchor documents must be distinct")

    trace = [log_likelihood(matrix, params, clamp)]
    converged = False
    steps = halvings = 0
    for _ in range(config.max_iter):
        ll_prev = trace[-1]
        # document half-step: (alpha_i, theta_i) given (psi, beta)
        alpha, theta, _, s, h = _newton_block(
            y, params.psi, params.beta, params.alpha, params.theta, clamp
        )
        steps, halvings = steps + s, halvings + h
        params = replace(params, alpha=alpha, theta=theta)
        if config.debug_ascent:
            _check_ascent(matrix, params, ll_prev, clamp)
        # feature half-step: (psi_j, beta_j) given (alpha, theta); its row
        # log likelihoods sum to the total, which _standardize keeps
        psi, beta, ll_cols, s, h = _newton_block(
            y.T, params.alpha, params.theta, params.psi, params.beta, clamp
        )
        steps, halvings = steps + s, halvings + h
        params = _standardize(replace(params, psi=psi, beta=beta))
        ll = float(ll_cols.sum())
        if config.debug_ascent:
            _check_ascent(matrix, params, ll_prev, clamp)
        trace.append(ll)
        if abs(ll - ll_prev) < config.tol * (1.0 + abs(ll_prev)):
            converged = True
            break
    if params.theta[lo] > params.theta[hi]:
        params = replace(params, theta=-params.theta, beta=-params.beta)
    eta = _eta(params)
    clamped = bool(np.any(np.abs(eta) > clamp))
    if clamped:
        warnings.warn("linear predictor clamp active; extreme rates truncated")
    if not converged:
        warnings.warn("fit did not converge within max_iter")
    return ScalingResult(
        matrix=matrix,
        params=params,
        loglik_trace=tuple(trace),
        converged=converged,
        runtime=time.perf_counter() - t0,
        clamp_activated=clamped,
        newton_steps=steps,
        line_search_halvings=halvings,
    )


def _check_ascent(matrix, params, ll_prev, clamp):
    ll = log_likelihood(matrix, params, clamp)
    if ll < ll_prev - 1e-9:
        raise ScalingError(f"log-likelihood decreased: {ll_prev} -> {ll}")


def gradients(matrix: CountMatrix, params: ScalingParams, clamp: float = 30.0):
    """Analytic gradients of the log likelihood for every parameter block."""
    y = matrix.counts.astype(float)
    mu = _clamped_mu(_eta(params), clamp)
    r = y - mu
    return {
        "alpha": r.sum(axis=1),
        "theta": r @ params.beta,
        "psi": r.sum(axis=0),
        "beta": r.T @ params.theta,
    }


def bootstrap(
    matrix: CountMatrix,
    result: ScalingResult,
    B: int,
    seed: int = 0,
    config: FitConfig | None = None,
) -> ScalingResult:
    """Parametric bootstrap for theta uncertainty.

    Simulates B count matrices from the fitted rates, refits each replicate
    warm-started from the fitted parameters, sign-aligns every replicate's
    theta to the point estimate, and reports the empirical standard
    deviation and the 2.5/97.5 percentile interval per document. A
    replicate's all-zero columns carry no information about theta, so its
    refit leaves them out. A replicate with an all-zero row, or whose refit
    fails or does not converge within ``max_iter``, counts in
    ``bootstrap_failures`` instead; more than 20% failures is an error.
    """
    if B < 1:
        raise ScalingError("need at least one bootstrap replicate")
    if not result.converged:
        raise ScalingError("bootstrap requires a converged fit")
    config = config or FitConfig()
    rng = np.random.default_rng(seed)
    mu = _clamped_mu(_eta(result.params), config.linear_predictor_clamp)
    theta_hat = result.params.theta
    reps = []
    failures = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(B):
            y_star = rng.poisson(mu)
            cols = y_star.any(axis=0)
            try:
                if not y_star.any(axis=1).all():
                    raise ScalingError("replicate has an all-zero row")
                rep = fit(
                    CountMatrix(matrix.doc_ids, tuple(compress(matrix.feature_labels, cols)),
                                y_star[:, cols]),
                    config,
                    start=replace(result.params, psi=result.params.psi[cols],
                                  beta=result.params.beta[cols]),
                )
                if not rep.converged:
                    raise ScalingError("replicate did not converge")
                theta_b = rep.params.theta
                if np.corrcoef(theta_b, theta_hat)[0, 1] < 0:
                    theta_b = -theta_b
                reps.append(theta_b)
            except ScalingError:
                failures += 1
    if failures > 0.2 * B:
        raise ScalingError(f"bootstrap failed on {failures}/{B} replicates")
    thetas = np.array(reps)
    se = thetas.std(axis=0, ddof=1) if len(reps) > 1 else np.zeros(theta_hat.shape)
    ci_low = np.percentile(thetas, 2.5, axis=0)
    ci_high = np.percentile(thetas, 97.5, axis=0)
    return replace(
        result,
        theta_se=se,
        theta_ci_low=ci_low,
        theta_ci_high=ci_high,
        bootstrap_failures=failures,
    )


def analytic_theta_se(result: ScalingResult, clamp: float = 30.0) -> np.ndarray:
    """Standard errors from the observed information of the per-document
    (alpha_i, theta_i) blocks, conditioning on (psi, beta)."""
    params = result.params
    mu = _clamped_mu(_eta(params), clamp)
    beta = params.beta
    h11 = mu.sum(axis=1)
    h12 = mu @ beta
    h22 = mu @ beta**2
    det = h11 * h22 - h12**2
    return np.sqrt(h11 / det)


def dispersion(matrix: CountMatrix, params: ScalingParams, clamp: float = 30.0) -> float:
    """Pearson chi-square over residual degrees of freedom; values well above
    1 indicate overdispersion relative to the Poisson assumption."""
    y = matrix.counts.astype(float)
    mu = _clamped_mu(_eta(params), clamp)
    chi2 = float(np.sum((y - mu) ** 2 / mu))
    n, k = y.shape
    df = n * k - (2 * n + 2 * k - 3)
    return chi2 / max(df, 1)

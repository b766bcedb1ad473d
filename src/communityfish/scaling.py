"""One-dimensional Poisson scaling of count matrices.

The model has rate log lambda_ij = alpha_i + psi_j + theta_i * beta_j with
document fixed effect alpha, feature fixed effect psi, document position
theta, and feature discrimination beta. Estimation iterates one map: a
damped Newton step on every per-document (alpha_i, theta_i) block, then on
every per-feature (psi_j, beta_j) block (both conditional problems are
concave), accelerated by monotone SQUAREM (Varadhan & Roland 2008, scheme
S3).
Identification: alpha of the first document is 0, theta is z-scored, and
the direction is fixed by an anchor document pair.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace
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


FAILURE_REASONS = ("zero_row", "not_converged", "error")


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
    # bootstrap_failures by reason; they sum to it
    bootstrap_failure_reasons: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(FAILURE_REASONS, 0))
    # row step halvings of the Newton steps, summed over all evaluations
    line_search_halvings: int = 0
    # evaluations of the fit's map, rejected extrapolations included
    map_evaluations: int = 0
    # max over parameters of |gradient| / sqrt(Hessian diagonal) at params
    score: float = 0.0


def _clamped_mu(eta: np.ndarray, clamp: float, out: np.ndarray | None = None) -> np.ndarray:
    mu = np.clip(eta, -clamp, clamp, out=out)
    return np.exp(mu, out=mu)


def _predictor(a, offset, b, slope):
    """eta_ij = a_i + offset_j + b_i * slope_j in one array, built with the
    longer axis contiguous: numpy's broadcast loops run fastest along long
    rows."""
    if offset.size >= a.size:
        eta = np.multiply.outer(b, slope)
        eta += a[:, None]
        eta += offset
        return eta
    eta = np.multiply.outer(slope, b)
    eta += offset[:, None]
    eta += a
    return eta.T


def _eta(params: ScalingParams) -> np.ndarray:
    return _predictor(params.alpha, params.psi, params.theta, params.beta)


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
    for (theta, beta). The pair comes from the top eigenvector of the
    smaller Gram matrix, which costs a fraction of a thin SVD of a wide
    matrix."""
    y = matrix.counts
    n, k = y.shape
    if k < 2:
        raise ScalingError("need >= 2 features to identify discrimination")
    if n < 2:
        raise ScalingError("need >= 2 documents")
    rowsum = y.sum(axis=1, dtype=float)
    alpha = np.log(rowsum / rowsum[0])
    psi = np.log(y.mean(axis=0))
    centered = np.log(y + 0.1)
    row_means = centered.mean(axis=1, keepdims=True)
    col_means = centered.mean(axis=0, keepdims=True)
    grand_mean = centered.mean()
    centered -= row_means
    centered -= col_means
    centered += grand_mean
    wide = n <= k
    gram = centered @ centered.T if wide else centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(gram)  # ascending
    s = math.sqrt(max(eigvals[-1], 0.0))
    first = eigvecs[:, -1]
    other = centered.T @ first if wide else centered @ first
    if s > 0:  # else the centered counts are all zero, and so is other
        other /= s
    theta_raw, v = (first, other) if wide else (other, first)
    sd = theta_raw.std(ddof=1)
    if sd < 1e-12:
        rng = np.random.default_rng(0)
        theta_raw = rng.normal(size=n)
        sd = theta_raw.std(ddof=1)
    theta = (theta_raw - theta_raw.mean()) / sd
    beta = s * v * sd
    return ScalingParams(alpha=alpha, psi=psi, theta=theta, beta=beta)


def _rates(y, params: ScalingParams, clamp: float):
    """Clamped rates at params and the log likelihood there, from one exp."""
    eta = _eta(params)
    ll = float(np.vdot(y, eta))
    mu = _clamped_mu(eta, clamp, out=eta)
    return mu, ll - float(mu.sum())


def _newton_block(y, offset, slope, a, b, clamp, mu=None):
    """One damped Newton step on every row's (a_i, b_i), towards the maximum
    of sum_j y_ij*eta - exp(eta) with eta_ij = a_i + offset_j + b_i * slope_j.
    Rows are independent and each row problem is concave.

    mu holds the clamped rates at (a, b); it is updated in place, and None
    computes it. The gradient, the Hessian and the row log likelihood depend
    on the counts only through y @ (1, offset, slope) and on the rates only
    through mu @ (1, slope, slope^2), so the full step costs one exp over the
    matrix. A row accepts a trial step when its log likelihood drops by no
    more than a relative 1e-12 (float noise on sums of 1e3-1e5); only rows
    still failing are re-evaluated at half the step, and a row failing all
    30 trials keeps its point.

    Returns the updated (a, b), the row log likelihoods there, the rates
    there and the number of row step halvings."""
    ysum, yoff, yslope = (y @ np.column_stack([np.ones_like(offset), offset, slope])).T
    weights = np.column_stack([np.ones_like(slope), slope, slope**2])
    if mu is None:
        mu = _predictor(a, offset, b, slope)
        _clamped_mu(mu, clamp, out=mu)
    h11, h12, h22 = (mu @ weights).T
    ll = a * ysum + yoff + b * yslope - h11
    g1 = ysum - h11
    g2 = yslope - h12
    det = h11 * h22 - h12**2
    # fall back to an a-only step where the block is singular (e.g. all
    # slopes ~ 0)
    singular = det <= 1e-12 * np.maximum(h11 * h22, 1e-300)
    det_safe = np.where(singular, 1.0, det)
    da = np.where(singular, g1 / np.maximum(h11, 1e-300), (h22 * g1 - h12 * g2) / det_safe)
    db = np.where(singular, 0.0, (h11 * g2 - h12 * g1) / det_safe)
    a, b = a.copy(), b.copy()
    rows = np.arange(a.size)
    step = 1.0
    halvings = 0
    for trial in range(30):
        if trial:
            step /= 2.0
            halvings += rows.size
        a_try = a[rows] + step * da[rows]
        b_try = b[rows] + step * db[rows]
        eta = _predictor(a_try, offset, b_try, slope)
        mu_try = _clamped_mu(eta, clamp, out=eta)
        h_try = mu_try @ weights
        ll_try = a_try * ysum[rows] + yoff[rows] + b_try * yslope[rows] - h_try[:, 0]
        ll_old = ll[rows]
        ok = ll_try >= ll_old - 1e-12 * (1.0 + np.abs(ll_old))
        if not trial and ok.all():
            return a_try, b_try, ll_try, mu_try, 0
        done = rows[ok]
        a[done], b[done], ll[done], mu[done] = a_try[ok], b_try[ok], ll_try[ok], mu_try[ok]
        rows = rows[~ok]
        if not rows.size:
            break
    return a, b, ll, mu, halvings


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


def _flat(params: ScalingParams) -> np.ndarray:
    return np.concatenate([params.alpha, params.theta, params.psi, params.beta])


def _extrapolate(x0: ScalingParams, x1: ScalingParams, x2: ScalingParams):
    """The SQUAREM S3 point x0 - 2*s*r + s^2*v with r = x1 - x0,
    v = x2 - 2*x1 + x0 and step s = min(-|r|/|v|, -1). That is x2 itself
    at s = -1 or where the step is undefined; None if it is not finite."""
    f0, f1, f2 = _flat(x0), _flat(x1), _flat(x2)
    r = f1 - f0
    v = f2 - 2.0 * f1 + f0
    v_norm = np.linalg.norm(v)
    s = -np.linalg.norm(r) / v_norm if v_norm > 0 else -1.0
    if not s < -1.0:
        return x2
    x = f0 - 2.0 * s * r + s * s * v
    if not np.isfinite(x).all():
        return None
    n = x0.alpha.size
    alpha, theta, psi, beta = np.split(x, [n, 2 * n, 2 * n + x0.psi.size])
    return ScalingParams(alpha=alpha, psi=psi, theta=theta, beta=beta)


def _score(y, params: ScalingParams, mu) -> float:
    """Max over every parameter of |gradient| / sqrt(Hessian diagonal): the
    document rows (alpha_i, theta_i), then the feature rows (psi_j, beta_j)."""
    score = 0.0
    for counts, rates, slope in ((y, mu, params.beta), (y.T, mu.T, params.theta)):
        w = np.column_stack([np.ones_like(slope), slope])
        g = counts @ w - rates @ w
        h = rates @ (w * w)
        score = max(score, float(np.max(np.abs(g) / np.sqrt(np.maximum(h, 1e-300)))))
    return score


def fit(matrix: CountMatrix, config: FitConfig = FitConfig(),
        start: ScalingParams | None = None) -> ScalingResult:
    """Maximize the Poisson likelihood by SQUAREM-accelerated block ascent.

    One evaluation of the map F takes a damped Newton step on every document
    block (alpha_i, theta_i), then on every feature block (psi_j, beta_j),
    then re-standardizes; the feature step reuses the rates the document
    step ended on, and the next document step those of the feature step.
    Each cycle takes F(x0), F(F(x0)) and F of the S3 extrapolation of the
    three, and keeps that last point only if its log likelihood is at least
    that of F(F(x0)). The fit stops when a kept point raises the log
    likelihood by less than tol * (1 + |LL|); max_iter bounds the number of
    evaluations of F, rejected extrapolations included."""
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

    mu, ll = _rates(y, params, clamp)  # the rates at params
    trace = [ll]
    evaluations = halvings = 0
    converged = False

    def evaluate_map(x: ScalingParams):
        """F(x), taking over mu, the rates at x, so that one rate matrix is
        carried between the blocks: the new point, its log likelihood (the
        feature rows' sum, which _standardize keeps) and its rates."""
        nonlocal mu, evaluations, halvings
        rates, mu = mu, None
        evaluations += 1
        alpha, theta, _, rates, h_doc = _newton_block(
            y, x.psi, x.beta, x.alpha, x.theta, clamp, rates)
        psi, beta, ll_cols, rates, h_feat = _newton_block(
            y.T, alpha, theta, x.psi, x.beta, clamp, rates.T)
        halvings += h_doc + h_feat
        new = _standardize(ScalingParams(alpha=alpha, psi=psi, theta=theta, beta=beta))
        return new, float(ll_cols.sum()), rates.T

    def keep(new: ScalingParams, ll: float, rates) -> bool:
        """Move to a point whose log likelihood is at least the last kept
        one's; True once the fit has converged or spent max_iter."""
        nonlocal params, mu, converged
        ll_prev = trace[-1]
        if config.debug_ascent:
            _check_ascent(matrix, new, ll_prev, clamp)
        params, mu = new, rates
        trace.append(ll)
        converged = abs(ll - ll_prev) < config.tol * (1.0 + abs(ll_prev))
        return converged or evaluations >= config.max_iter

    while True:
        x0 = params
        if keep(*evaluate_map(params)):
            break
        x1 = params
        if keep(*evaluate_map(params)):
            break
        x2, ll2 = params, trace[-1]
        x_ext = _extrapolate(x0, x1, x2)
        if x_ext is None:
            continue
        if x_ext is not x2:
            mu = None  # x2's rates go before those of x_ext exist
            mu = _rates(y, x_ext, clamp)[0]
        try:
            stabilized = evaluate_map(x_ext)
        except ScalingError:
            stabilized = None
        if stabilized is not None and stabilized[1] >= ll2:
            if keep(*stabilized):
                break
            continue
        # fall back to x2, whose rates evaluate_map took over or were
        # dropped; the rejected point's rates go first
        stabilized = None
        mu = _rates(y, x2, clamp)[0]
        if evaluations >= config.max_iter:
            break
    if params.theta[lo] > params.theta[hi]:
        params = replace(params, theta=-params.theta, beta=-params.beta)
    eta = _eta(params)
    clamped = bool(eta.max() > clamp or eta.min() < -clamp)
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
        line_search_halvings=halvings,
        map_evaluations=evaluations,
        score=_score(y, params, mu),
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
    ``bootstrap_failures`` instead, and by reason (``zero_row``,
    ``error``, ``not_converged``) in ``bootstrap_failure_reasons``; more
    than 20% failures is an error.
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
    failures = dict.fromkeys(FAILURE_REASONS, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for _ in range(B):
            y_star = rng.poisson(mu)
            if not y_star.any(axis=1).all():
                failures["zero_row"] += 1
                continue
            cols = y_star.any(axis=0)
            try:
                rep = fit(
                    CountMatrix(matrix.doc_ids, tuple(compress(matrix.feature_labels, cols)),
                                y_star[:, cols]),
                    config,
                    start=replace(result.params, psi=result.params.psi[cols],
                                  beta=result.params.beta[cols]),
                )
            except ScalingError:
                failures["error"] += 1
                continue
            if not rep.converged:
                failures["not_converged"] += 1
                continue
            theta_b = rep.params.theta
            if np.corrcoef(theta_b, theta_hat)[0, 1] < 0:
                theta_b = -theta_b
            reps.append(theta_b)
    failed = sum(failures.values())
    if failed > 0.2 * B:
        reasons = ", ".join(f"{reason} {count}" for reason, count in failures.items())
        raise ScalingError(f"bootstrap failed on {failed}/{B} replicates ({reasons})")
    thetas = np.array(reps)
    se = thetas.std(axis=0, ddof=1) if len(reps) > 1 else np.zeros(theta_hat.shape)
    ci_low = np.percentile(thetas, 2.5, axis=0)
    ci_high = np.percentile(thetas, 97.5, axis=0)
    return replace(
        result,
        theta_se=se,
        theta_ci_low=ci_low,
        theta_ci_high=ci_high,
        bootstrap_failures=failed,
        bootstrap_failure_reasons=failures,
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

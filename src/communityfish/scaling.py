"""One-dimensional Poisson scaling of count matrices.

The model has rate log lambda_ij = alpha_i + psi_j + theta_i * beta_j with
document fixed effect alpha, feature fixed effect psi, document position
theta, and feature discrimination beta. Estimation iterates one map: a
damped Newton step on every per-document (alpha_i, theta_i) block, then on
every per-feature (psi_j, beta_j) block (both conditional problems are
concave), accelerated by monotone SQUAREM (Varadhan & Roland 2008, scheme
S3). One loop runs it over a leading replicate axis: a fit is a batch of
one, and the bootstrap refits its replicates in batches.
Identification: alpha of the first document is 0, theta is z-scored, and
the direction is fixed by an anchor document pair.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field, replace

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

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ScalingError(f"tol must be finite and positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ScalingError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if self.anchor_low and self.anchor_low == self.anchor_high:
            raise ScalingError("anchor documents must be distinct")


FAILURE_REASONS = ("zero_row", "not_converged", "error")


@dataclass(frozen=True)
class ScalingResult:
    matrix: CountMatrix
    params: ScalingParams
    loglik_trace: tuple[float, ...]
    converged: bool
    runtime: float
    config: FitConfig  # the settings of the fit, under which bootstrap refits
    clamp_activated: bool = False
    theta_se: np.ndarray | None = None
    theta_ci_low: np.ndarray | None = None
    theta_ci_high: np.ndarray | None = None
    # failed bootstrap replicates by reason
    bootstrap_failure_reasons: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(FAILURE_REASONS, 0))
    # row step halvings of the Newton steps, summed over all evaluations
    line_search_halvings: int = 0
    # evaluations of the fit's map, rejected extrapolations included
    map_evaluations: int = 0
    # max over parameters of |gradient| / sqrt(Hessian diagonal) at params
    score: float = 0.0
    # evaluations of the map summed over the bootstrap refits
    bootstrap_map_evaluations: int = 0
    # Pearson chi-square over residual degrees of freedom; None without any
    dispersion: float | None = None

    @property
    def bootstrap_failures(self) -> int:
        return sum(self.bootstrap_failure_reasons.values())


_CLAMP = 30.0  # bound on the linear predictor inside every exponential


def _peak(x: np.ndarray) -> float:
    """max |x| over all of x, every replicate's entries included."""
    return float(np.abs(x).max())


def _reach(params: ScalingParams) -> float:
    """An upper bound on every |eta_ij| at params: max|alpha| + max|psi| +
    max|theta| * max|beta|."""
    return _peak(params.alpha) + _peak(params.psi) + _peak(params.theta) * _peak(params.beta)


def _clamped_mu(eta: np.ndarray, reach: float, out: np.ndarray | None = None) -> np.ndarray:
    """exp(clip(eta, -_CLAMP, _CLAMP)), into out if given. reach bounds
    every |eta|; the rounding of a three-term eta is far below 1, so below
    reach = _CLAMP - 1 no eta reaches the clamp, and the clip, a no-op there,
    is skipped."""
    if reach >= _CLAMP - 1.0:
        eta = out = np.clip(eta, -_CLAMP, _CLAMP, out=out)
    return np.exp(eta, out=out)


def _columns(*columns) -> np.ndarray:
    """The matrix whose columns, along a new last axis, are the given arrays
    or scalars, all of the shape of the last."""
    out = np.empty(np.shape(columns[-1]) + (len(columns),))
    for j, column in enumerate(columns):
        out[..., j] = column
    return out


def _predictor(a, b, right, transposed: bool = False,
               out: np.ndarray | None = None) -> np.ndarray:
    """eta_ij = a_i + offset_j + b_i * slope_j as one matrix product per
    replicate, [a, 1, b] @ [1, offset, slope]^T, where right is
    _columns(1.0, offset, slope); transposed forms it as the transpose of
    [1, offset, slope] @ [a, 1, b]^T, a view of an array whose rows run
    over j. Leading axes, if any, index replicates. Each replicate's product
    has the same shape whatever else is in its batch, so its values do not
    depend on the batch. With out, an array of the result's shape and
    layout, the product is written there: the same BLAS call, the same
    bits."""
    left = _columns(a, 1.0, b)
    if transposed:
        out = None if out is None else out.swapaxes(-1, -2)
        return np.matmul(right, left.swapaxes(-1, -2), out=out).swapaxes(-1, -2)
    return np.matmul(left, right.swapaxes(-1, -2), out=out)


def _eta(params: ScalingParams, out: np.ndarray | None = None) -> np.ndarray:
    """The linear predictor at params, documents by features in C order,
    into out if given."""
    return _predictor(params.alpha, params.theta, _columns(1.0, params.psi, params.beta),
                      out=out)


def _rates(params: ScalingParams, out: np.ndarray | None = None) -> np.ndarray:
    """Clamped rates at params, computed in place of the linear predictor,
    into out if given."""
    eta = _eta(params, out)
    return _clamped_mu(eta, _reach(params), out=eta)


def _split(x: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Views of the four blocks of flat points [alpha | theta | psi | beta]
    of n documents; leading axes index replicates."""
    k = (x.shape[-1] - 2 * n) // 2
    return x[..., :n], x[..., n:2 * n], x[..., 2 * n:2 * n + k], x[..., 2 * n + k:]


def _params(x: np.ndarray, n: int) -> ScalingParams:
    """The flat points x of n documents as ScalingParams of views into x."""
    alpha, theta, psi, beta = _split(x, n)
    return ScalingParams(alpha=alpha, psi=psi, theta=theta, beta=beta)


def log_likelihood(matrix: CountMatrix, params: ScalingParams) -> float:
    """Poisson log likelihood up to the constant -sum(log y!), with the
    linear predictor clamped to +-30 inside the exponential."""
    for arr in (params.alpha, params.psi, params.theta, params.beta):
        if not np.all(np.isfinite(arr)):
            raise ScalingError("non-finite parameter")
    eta = _eta(params)
    return float(np.sum(matrix.counts * eta - _clamped_mu(eta, _reach(params))))


def initialize(matrix: CountMatrix) -> ScalingParams:
    """Standard starting values: log row-sum ratios for alpha, log column
    means for psi, first singular pair of the doubly centered log counts
    log(y + 0.1) for (theta, beta). The pair comes from the top eigenvector
    of the smaller Gram matrix, which costs a fraction of a thin SVD of a
    wide matrix."""
    y = matrix.counts
    n, k = y.shape
    if k < 2:
        raise ScalingError("need >= 2 features to identify discrimination")
    if n < 2:
        raise ScalingError("need >= 2 documents")
    rowsum = y.sum(axis=1)
    alpha = np.log(rowsum / rowsum[0])
    psi = np.log(y.mean(axis=0))
    centered = y + 0.1
    np.log(centered, out=centered)
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


def _newton_block(y, offset, slope, a, b, mu, out=None):
    """One damped Newton step on every row's (a_i, b_i) of every replicate,
    towards the maximum of sum_j y_ij*eta - exp(eta) with
    eta_ij = a_i + offset_j + b_i * slope_j. y is (R, m, n), a and b are
    (R, m), offset and slope (R, n): each replicate has its own. Rows are
    independent and each row problem is concave.

    mu holds the clamped rates at (a, b); it is only read. The rates at the
    new point go to out, an array of mu's shape and layout (a new one if not
    given), where the full step's trial forms them. The gradient,
    the Hessian and the row log likelihood depend on the counts only through
    y @ [1, offset, slope] and on the rates only through
    mu @ [1, slope, slope^2], and a trial's linear predictor is
    [a, 1, b] @ [1, offset, slope]^T, with the same right factor as the
    count sums. So a trial costs one product for eta, one exp over the
    matrix, a clip only where max|a| + max|offset| + max|b| * max|slope| lets
    eta come near the clamp, and one product for the rate sums. The trial
    rates take the memory layout of mu, so the rates keep the one layout
    _eta gives them, whichever path made them: the next block's Hessian
    sums are a matrix product, whose bits depend on the layout of its
    operands. A row accepts a trial step when its log likelihood drops by
    no more than a relative 1e-12 (float noise on sums of 1e3-1e5); only
    rows still failing are re-evaluated at half the step, and a row failing
    all 30 trials keeps its point. The full step is tried on all replicates
    at once, the halved ones replicate by replicate: a matrix product's
    values depend on its number of rows, and each replicate's must not
    depend on the others in its batch.

    Returns the updated (a, b), the row log likelihoods there, out and each
    replicate's number of row step halvings."""
    right = _columns(1.0, offset, slope)
    sums = y @ right
    ysum, yoff, yslope = sums[..., 0], sums[..., 1], sums[..., 2]
    weights = _columns(1.0, slope, slope**2)
    h = mu @ weights
    h11, h12, h22 = h[..., 0], h[..., 1], h[..., 2]
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

    offset_peak, slope_peak = _peak(offset), _peak(slope)
    transposed = mu.strides[-1] > mu.strides[-2]  # mu is a transposed view

    def trial(a_try, b_try, right, ysum, yoff, yslope, weights, ll_old, out=None):
        eta = _predictor(a_try, b_try, right, transposed, out)
        reach = _peak(a_try) + offset_peak + _peak(b_try) * slope_peak
        mu_try = _clamped_mu(eta, reach, out=eta)
        ll_try = a_try * ysum + yoff + b_try * yslope - (mu_try @ weights)[..., 0]
        return ll_try, mu_try, ll_try >= ll_old - 1e-12 * (1.0 + np.abs(ll_old))

    a_try, b_try = a + da, b + db
    ll_try, mu_try, ok = trial(a_try, b_try, right, ysum, yoff, yslope, weights, ll, out)
    halvings = np.zeros(len(a), dtype=int)
    if ok.all():
        return a_try, b_try, ll_try, mu_try, halvings
    a, b, ll = np.where(ok, a_try, a), np.where(ok, b_try, b), np.where(ok, ll_try, ll)
    for r in np.flatnonzero(~ok.all(axis=1)):
        rows = np.flatnonzero(~ok[r])
        step = 1.0
        for _ in range(29):
            step /= 2.0
            halvings[r] += rows.size
            a_try = a[r, rows] + step * da[r, rows]
            b_try = b[r, rows] + step * db[r, rows]
            ll_try, mu_rows, done = trial(a_try, b_try, right[r], ysum[r, rows],
                                          yoff[r, rows], yslope[r, rows], weights[r], ll[r, rows])
            accepted = rows[done]
            a[r, accepted], b[r, accepted] = a_try[done], b_try[done]
            ll[r, accepted] = ll_try[done]
            # every trial row, with no copy of the accepted ones: a failing
            # row is written again by a later trial or restored below. The
            # trial's rates go before the next trial forms its own
            mu_try[r, rows] = mu_rows
            del mu_rows
            rows = rows[~done]
            if not rows.size:
                break
        mu_try[r, rows] = mu[r, rows]  # failed every trial: the rates at its point
    return a, b, ll, mu_try, halvings


def _standardize(alpha, theta, psi, beta) -> tuple[np.ndarray, np.ndarray]:
    """The flat point [alpha | theta | psi | beta] under the identification
    constraints, with the same linear predictor: theta is z-scored (shift
    absorbed into psi, scale into beta) and alpha_0 is set to zero (shift
    absorbed into psi). Leading axes index replicates. Also returns where
    theta has zero variance: there the new point is meaningless."""
    n = theta.shape[-1]
    mean = theta.sum(axis=-1, keepdims=True) / n
    centered = theta - mean
    # theta.std(ddof=1), step by step, so that centered serves twice
    sd = np.sqrt(np.square(centered).sum(axis=-1, keepdims=True) / (n - 1))
    degenerate = sd[..., 0] < 1e-12
    sd[degenerate] = 1.0
    shift = alpha[..., :1]
    x = np.concatenate([alpha - shift, centered / sd, psi + mean * beta + shift, beta * sd], -1)
    x[..., 0] = 0.0
    return x, degenerate


def _norms(x: np.ndarray) -> np.ndarray:
    """Each row's Euclidean norm, from the dot product np.linalg.norm takes."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _extrapolate(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray):
    """Each replicate's SQUAREM S3 point x0 - 2*s*r + s^2*v of flat points,
    with r = x1 - x0, v = x2 - 2*x1 + x0 and step s = min(-|r|/|v|, -1). That
    is x2 itself at s = -1, where the step is undefined, and where the point
    is not finite. Returns the points and where each was extrapolated."""
    r = x1 - x0
    v = x2 - 2.0 * x1 + x0
    v_norm = _norms(v)
    s = np.divide(-_norms(r), v_norm, out=np.full_like(v_norm, -1.0), where=v_norm > 0)
    s = s[:, None]
    x = x0 - 2.0 * s * r + s * s * v
    extrapolated = (s[:, 0] < -1.0) & np.isfinite(x).all(axis=1)
    np.copyto(x, x2, where=~extrapolated[:, None])
    return x, extrapolated


def _dispersion(y: np.ndarray, mu: np.ndarray, out: np.ndarray) -> float | None:
    """Pearson chi-square of the counts y at the rates mu over the residual
    degrees of freedom n*k - (2n + 2k - 3); values well above 1 indicate
    overdispersion relative to the Poisson assumption. None when the fit
    leaves no residual degrees of freedom. The residuals are formed in out,
    an array of y's shape."""
    n, k = y.shape
    df = n * k - (2 * n + 2 * k - 3)
    if df <= 0:
        return None
    r = np.subtract(y, mu, out=out)
    r *= r
    r /= mu
    return float(np.sum(r)) / df


def _score(y, params: ScalingParams, mu) -> float:
    """Max over every parameter of |gradient| / sqrt(Hessian diagonal): the
    document rows (alpha_i, theta_i), then the feature rows (psi_j, beta_j)."""
    score = 0.0
    for counts, rates, slope in ((y, mu, params.beta), (y.T, mu.T, params.theta)):
        w = _columns(1.0, slope)
        g = counts @ w - rates @ w
        h = rates @ (w * w)
        score = max(score, float(np.max(np.abs(g) / np.sqrt(np.maximum(h, 1e-300)))))
    return score


@dataclass(frozen=True)
class _Refits:
    """Where _squarem leaves each of its R replicates."""
    x: np.ndarray  # (R, 2n + 2k) flat points [alpha | theta | psi | beta]
    traces: list[list[float]]  # the log likelihoods of the kept points
    converged: np.ndarray
    evaluations: np.ndarray
    halvings: np.ndarray
    degenerate: np.ndarray  # stopped because theta lost its variance


def _squarem(y: np.ndarray, start: np.ndarray, config: FitConfig,
             rates: tuple[np.ndarray, np.ndarray]) -> _Refits:
    """Maximize the Poisson likelihood of R replicates at once by
    SQUAREM-accelerated block ascent: y is (R, n, k), start the standardized
    (R, 2n + 2k) flat points [alpha | theta | psi | beta], the loop's state.
    rates, two C-order arrays of y's shape, are the only other full-size
    state: the rates at the live points, and the spare in which the next
    ones are formed. Their contents on entry and on return mean nothing, and
    as replicates stop, the others' counts move to the front of y.

    One evaluation of the map F takes a damped Newton step on every document
    block (alpha_i, theta_i), then on every feature block (psi_j, beta_j),
    then re-standardizes; the feature step reuses the rates the document
    step ended on, and the next document step those of the feature step.
    Each cycle takes F(x0), F(F(x0)) and F of the S3 extrapolation of the
    three, and keeps that last point only if its log likelihood is at least
    that of F(F(x0)); where the extrapolation is not finite it falls back to
    F(F(x0)), as it does at a step of -1. A replicate stops when a kept
    point raises its log likelihood by less than tol * (1 + |LL|), once it
    has spent max_iter evaluations of F, rejected extrapolations included,
    or with an error when F(x0) or F(F(x0)) leaves theta without variance.
    Every replicate still running takes every phase of the cycle together,
    each with the numbers of its run alone."""
    R, n = y.shape[:2]
    final = np.empty_like(start)
    traces = [[] for _ in range(R)]
    converged = np.zeros(R, dtype=bool)
    evaluations = np.zeros(R, dtype=int)
    halvings = np.zeros(R, dtype=int)
    zero_variance = np.zeros(R, dtype=bool)
    live = np.arange(R)  # the replicates still running, by position
    x = start
    mu, spare = rates  # the rates at x, and the buffer for the next ones
    _eta(at := _params(x, n), out=mu)
    ll = np.array([np.vdot(y_r, eta_r) for y_r, eta_r in zip(y, mu)])
    _clamped_mu(mu, _reach(at), out=mu)
    ll -= [mu_r.sum() for mu_r in mu]
    for trace, ll_r in zip(traces, ll):
        trace.append(float(ll_r))

    def evaluate(x: np.ndarray):
        """F(x) for the live replicates, moving mu from the rates at x to
        those at F(x): the new points, their log likelihoods (the feature
        rows' sums, which _standardize keeps) and where theta lost its
        variance."""
        nonlocal mu, spare
        alpha, theta, psi, beta = _split(x, n)
        alpha, theta, _, _, h_doc = _newton_block(y, psi, beta, alpha, theta, mu, spare)
        mu, spare = spare, mu
        psi, beta, ll_cols, _, h_feat = _newton_block(
            y.swapaxes(1, 2), alpha, theta, psi, beta, mu.swapaxes(1, 2), spare.swapaxes(1, 2))
        mu, spare = spare, mu
        evaluations[live] += 1
        halvings[live] += h_doc + h_feat
        new, degenerate = _standardize(alpha, theta, psi, beta)
        return new, ll_cols.sum(axis=-1), degenerate

    def refresh(where: np.ndarray, points: np.ndarray) -> None:
        """Set mu to the rates at points for the live replicates where
        `where` holds, forming them in spare."""
        nonlocal mu, spare
        count = np.count_nonzero(where)
        if count == live.size:
            mu, spare = _rates(_params(points, n), out=spare), mu
        elif count:
            mu[where] = _rates(_params(points[where], n), out=spare[:count])

    def keep(new: np.ndarray, ll_new, accept) -> np.ndarray:
        """Move the live replicates where accept holds to the points new,
        whose log likelihoods ll_new are at least their last kept ones', and
        write the others' points into new, which becomes x; returns where the
        live replicates stop: converged or out of evaluations."""
        nonlocal x, ll
        ll_new = np.where(accept, ll_new, ll)
        stop = accept & (np.abs(ll_new - ll) < config.tol * (1.0 + np.abs(ll)))
        converged[live] = stop
        for i in np.flatnonzero(accept):
            traces[live[i]].append(float(ll_new[i]))
        np.copyto(new, x, where=~accept[:, None])
        x, ll = new, ll_new
        return stop | (evaluations[live] >= config.max_iter)

    def finish(stop: np.ndarray) -> np.ndarray:
        """Record the live replicates where stop holds and drop them; returns
        where the others were."""
        nonlocal live, y, x, mu, spare, ll
        final[live[stop]] = x[stop]
        going = ~stop
        live = live[going]
        if live.size:
            x, ll, m = x[going], ll[going], live.size
            # in place, in the memory they had
            y[:m] = y[going]
            mu[:m] = mu[going]
            y, mu, spare = y[:m], mu[:m], spare[:m]
        return going

    while live.size:
        points = [x]  # x0, x1 and x2 of this cycle
        for _ in range(2):
            new, ll_new, degenerate = evaluate(x)
            stop = keep(new, ll_new, np.ones(live.size, dtype=bool))
            zero_variance[live] = degenerate
            if (stop := stop | degenerate).any():
                going = finish(stop)
                if not live.size:
                    break
                points = [p[going] for p in points]
            points.append(x)
        if not live.size:
            break
        x_ext, extrapolated = _extrapolate(*points)  # x is x2 until keep
        refresh(extrapolated, x_ext)
        new, ll_new, degenerate = evaluate(x_ext)
        ascended = ~degenerate & (ll_new >= ll)
        # a rejected point falls back to x2, with x2's rates
        refresh(~ascended, x)
        if (stop := keep(new, ll_new, ascended)).any():
            finish(stop)
    converged &= ~zero_variance
    return _Refits(final, traces, converged, evaluations, halvings, zero_variance)


def fit(matrix: CountMatrix, config: FitConfig = FitConfig(),
        start: ScalingParams | None = None) -> ScalingResult:
    """Maximize the Poisson likelihood by SQUAREM-accelerated block ascent:
    _squarem on one replicate, from start or from initialize's values. A
    document or feature without counts has no finite estimate: a
    ScalingError."""
    t0 = time.perf_counter()
    y = matrix.counts
    n, k = y.shape
    if n < 2 or k < 2:
        raise ScalingError("need >= 2 documents and >= 2 features")
    for kind, labels, axis in (("document", matrix.doc_ids, 1),
                               ("feature", matrix.feature_labels, 0)):
        if not (nonzero := y.any(axis=axis)).all():
            raise ScalingError(f"{kind} {labels[np.argmin(nonzero)]!r} has no counts")
    start = start if start is not None else initialize(matrix)
    x, degenerate = _standardize(start.alpha, start.theta, start.psi, start.beta)
    if degenerate.any():
        raise ScalingError("degenerate theta: zero variance")
    doc_index = {d: i for i, d in enumerate(matrix.doc_ids)}
    for anchor in (config.anchor_low, config.anchor_high):
        if anchor and anchor not in doc_index:
            raise ScalingError(f"anchor document {anchor!r} is not in the matrix "
                               "(unknown id, or dropped by trimming)")
    lo = doc_index[config.anchor_low] if config.anchor_low else 0
    hi = doc_index[config.anchor_high] if config.anchor_high else n - 1
    if lo == hi:  # FitConfig rejects two equal anchors, so one is unset
        given, unset, end = (("anchor_high", "anchor_low", "first") if config.anchor_high
                             else ("anchor_low", "anchor_high", "last"))
        raise ScalingError(f"{given} names the {end} document, where the unset {unset} defaults")

    # the fit's two n x k arrays: _squarem's rates, then the fitted rates
    # and the residuals of the dispersion. Two arrays of the counts' size,
    # not one of twice it: the allocator reuses the holes they leave
    rates = np.empty((1, n, k)), np.empty((1, n, k))
    run = _squarem(y[np.newaxis], x[np.newaxis], config, rates)
    if run.degenerate[0]:
        raise ScalingError("degenerate theta: zero variance")
    params = _params(run.x[0], n)
    if params.theta[lo] > params.theta[hi]:
        params = replace(params, theta=-params.theta, beta=-params.beta)
    eta, reach = _eta(params, out=rates[0][0]), _reach(params)
    clamped = reach >= _CLAMP - 1.0 and bool(eta.max() > _CLAMP or eta.min() < -_CLAMP)
    if clamped:
        warnings.warn("linear predictor clamp active; extreme rates truncated")
    converged = bool(run.converged[0])
    if not converged:
        warnings.warn("fit did not converge within max_iter")
    mu = _clamped_mu(eta, reach, out=eta)
    return ScalingResult(
        matrix=matrix,
        params=params,
        loglik_trace=tuple(run.traces[0]),
        converged=converged,
        runtime=time.perf_counter() - t0,
        config=config,
        clamp_activated=clamped,
        line_search_halvings=int(run.halvings[0]),
        map_evaluations=int(run.evaluations[0]),
        score=_score(y, params, mu),
        dispersion=_dispersion(y, mu, out=rates[1][0]),
    )


# Cells (replicates x documents x features) in one batch of bootstrap
# refits: ten replicates of a 100 x 30 matrix. A replicate larger than this
# is refit alone.
BATCH_CELLS = 2**15


def bootstrap(result: ScalingResult, B: int, seed: int = 0) -> ScalingResult:
    """Parametric bootstrap for theta uncertainty.

    Simulates B count matrices from the fitted rates, refits each replicate
    under the fit's ``result.config``, warm-started from the fitted
    parameters, sign-aligns every replicate's theta to the point estimate,
    and reports the empirical standard deviation and the 2.5/97.5
    percentile interval per document. A
    replicate's all-zero columns carry no information about theta, so its
    refit leaves them out. A replicate with an all-zero row, or whose refit
    fails or does not converge within ``max_iter``, counts in
    ``bootstrap_failures`` instead, and by reason (``zero_row``,
    ``error``, ``not_converged``) in ``bootstrap_failure_reasons``; more
    than 20% failures is an error.

    Replicates are drawn and refit in batches of at most BATCH_CELLS cells,
    those with the same non-zero columns together. The draws come from one
    stream in replicate order, and a refit's numbers do not depend on the
    other replicates in its batch, so the results do not depend on the
    batching.
    """
    if B < 1:
        raise ScalingError("need at least one bootstrap replicate")
    if not result.converged:
        raise ScalingError("bootstrap requires a converged fit")
    rng = np.random.default_rng(seed)
    p = result.params
    mu = _rates(p)
    n, k = mu.shape
    start = _standardize(p.alpha, p.theta, p.psi, p.beta)[0]  # where every refit starts
    batch = max(1, BATCH_CELLS // mu.size)
    thetas = np.empty((B, n))
    refit = np.zeros(B, dtype=bool)  # replicates whose refit converged
    failures = dict.fromkeys(FAILURE_REASONS, 0)
    evaluations = 0
    for first in range(0, B, batch):
        # one draw per replicate, in replicate order, straight into floats:
        # the same stream as one draw of the whole batch
        y_star = np.empty((min(batch, B - first), n, k))
        for y_b in y_star:
            y_b[...] = rng.poisson(mu)
        full_rows = y_star.any(axis=2).all(axis=1)
        failures["zero_row"] += int(np.count_nonzero(~full_rows))
        nonzero = y_star.any(axis=1)
        groups: dict[bytes, list[int]] = {}
        for b in np.flatnonzero(full_rows):
            groups.setdefault(nonzero[b].tobytes(), []).append(b)
        for members in map(np.array, groups.values()):
            cols = nonzero[members[0]]
            if np.count_nonzero(cols) < 2:  # fit needs two features
                failures["error"] += members.size
                continue
            # copied out of the batch only where it is a strict part of it
            y = y_star if members.size == len(y_star) else y_star[members]
            if not cols.all():
                y = y[:, :, cols]
            kept = np.concatenate([np.ones(2 * n, dtype=bool), cols, cols])
            run = _squarem(y, np.tile(start[kept], (members.size, 1)), result.config,
                           (np.empty(y.shape), np.empty(y.shape)))
            evaluations += int(run.evaluations.sum())
            failures["error"] += int(np.count_nonzero(run.degenerate))
            failures["not_converged"] += int(np.count_nonzero(~run.degenerate & ~run.converged))
            thetas[first + members] = run.x[:, n:2 * n]
            refit[first + members] = run.converged
    failed = sum(failures.values())
    if failed > 0.2 * B:
        reasons = ", ".join(f"{reason} {count}" for reason, count in failures.items())
        raise ScalingError(f"bootstrap failed on {failed}/{B} replicates ({reasons})")
    theta_hat = result.params.theta
    thetas = thetas[refit]
    # flip the replicates whose correlation with the point estimate is negative
    flip = (thetas - thetas.mean(axis=1, keepdims=True)) @ (theta_hat - theta_hat.mean()) < 0
    thetas[flip] *= -1.0
    se = thetas.std(axis=0, ddof=1) if len(thetas) > 1 else np.zeros(theta_hat.shape)
    ci_low = np.percentile(thetas, 2.5, axis=0)
    ci_high = np.percentile(thetas, 97.5, axis=0)
    return replace(
        result,
        theta_se=se,
        theta_ci_low=ci_low,
        theta_ci_high=ci_high,
        bootstrap_failure_reasons=failures,
        bootstrap_map_evaluations=evaluations,
    )


def analytic_theta_se(result: ScalingResult) -> ScalingResult:
    """The result with theta_se, the standard errors from the observed
    information of the per-document (alpha_i, theta_i) blocks, conditioning
    on (psi, beta), and the interval theta -+ 1.96 * theta_se, as bootstrap
    returns its own. A block singular to the rounding error of its k-term
    sums has none: a ``ScalingError``."""
    p = result.params
    h = _rates(p) @ _columns(1.0, p.beta, p.beta**2)
    h11, h12, h22 = h[:, 0], h[:, 1], h[:, 2]
    det = h11 * h22 - h12**2
    if (singular := ~(det > len(p.beta) * np.finfo(float).eps * h11 * h22)).any():
        doc = result.matrix.doc_ids[np.argmax(singular)]
        raise ScalingError(f"analytic SE undefined: document {doc!r} has singular information")
    se = np.sqrt(h11 / det)
    return replace(result, theta_se=se, theta_ci_low=p.theta - 1.96 * se,
                   theta_ci_high=p.theta + 1.96 * se)

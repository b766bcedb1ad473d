"""Reference implementations the tests check the package against: bigram
counts to and from plain dicts, node strengths, an exhaustive modularity
maximizer, the fit's elementwise kernels (linear predictor, clamped rates),
analytic gradients of the log likelihood, the Pearson dispersion and
analytic standard errors of a fit, and a fit whose every step is checked to
ascend."""

import dataclasses
import warnings

import numpy as np

from communityfish.corpus import BigramCounts
from communityfish.graph import GraphError, Partition, WordGraph, modularity
from communityfish.scaling import (
    FitConfig, ScalingParams, ScalingResult, _rates, fit, log_likelihood)


def bigram_counts(pairs: dict[frozenset, int]) -> BigramCounts:
    """The counts of a ``{frozenset({u, w}): count}`` dict, its pairs in the
    dict's order."""
    words = tuple(sorted({x for pair in pairs for x in pair}))
    index = dict(zip(words, range(len(words))))
    ends = np.array([sorted(map(index.__getitem__, pair)) for pair in pairs],
                    dtype=np.int32).reshape(-1, 2)
    return BigramCounts(words, ends, np.fromiter(pairs.values(), np.int64, len(pairs)))


def pair_dict(counts: BigramCounts) -> dict[frozenset, int]:
    """The counts as a ``{frozenset({u, w}): count}`` dict, in pair order."""
    word = counts.words.__getitem__
    return {frozenset(map(word, pair)): count
            for pair, count in zip(counts.pairs.tolist(), counts.counts.tolist())}


def strengths(graph: WordGraph) -> np.ndarray:
    """Each node's strength: the summed weight of its edges."""
    return np.bincount(graph.edges.ravel(), np.repeat(graph.weights, 2), len(graph))


def brute_force_best_partition(graph: WordGraph) -> tuple[Partition, float]:
    """Exhaustive modularity maximization over all set partitions.

    Ties break toward fewer communities, then the lexicographically smallest
    assignment in node order. Only for graphs with at most 10 nodes.
    """
    n = len(graph)
    if n > 10:
        raise GraphError("brute force limited to graphs with <= 10 nodes")
    if graph.total_weight == 0:
        raise GraphError("no edges")
    best = None
    for rgs in _restricted_growth_strings(n):
        part = Partition({w: rgs[i] for i, w in enumerate(graph.nodes)})
        q = modularity(graph, part)
        key = (-q, max(rgs) + 1, rgs)
        if best is None or key < best[0]:
            best = (key, part, q)
    _, part, q = best
    return Partition(part.assignment, quality=q), q


def _restricted_growth_strings(n: int):
    """All set partitions of n items as canonical restricted growth strings."""
    rgs = [0] * n

    def rec(i: int, max_used: int):
        if i == n:
            yield tuple(rgs)
            return
        for c in range(max_used + 2):
            rgs[i] = c
            yield from rec(i + 1, max(max_used, c))

    yield from rec(1, 0) if n > 0 else iter(())


def predictor(a, offset, b, slope) -> np.ndarray:
    """eta_ij = a_i + offset_j + b_i * slope_j by broadcasting: one multiply
    and two adds over the matrix. Leading axes index replicates."""
    eta = b[..., :, None] * slope[..., None, :]
    eta += a[..., :, None]
    eta += offset[..., None, :]
    return eta


def clamped_rates(eta: np.ndarray) -> np.ndarray:
    """exp of eta clipped to +-30, every cell clipped."""
    return np.exp(np.clip(eta, -30.0, 30.0))


def gradients(matrix, params: ScalingParams) -> dict[str, np.ndarray]:
    """Analytic gradients of the log likelihood for every parameter block,
    with the linear predictor clamped to +-30 as in ``log_likelihood``."""
    eta = params.alpha[:, None] + params.psi + np.outer(params.theta, params.beta)
    r = matrix.counts - np.exp(np.clip(eta, -30.0, 30.0))
    return {
        "alpha": r.sum(axis=1),
        "theta": r @ params.beta,
        "psi": r.sum(axis=0),
        "beta": r.T @ params.theta,
    }


def dispersion(matrix, params: ScalingParams) -> float | None:
    """Pearson chi-square of the counts at the package's rates at params, over
    n*k - (2n + 2k - 3) residual degrees of freedom; None when that is not
    positive. The same operations on the same rates as the fit's."""
    n, k = matrix.shape
    df = n * k - (2 * n + 2 * k - 3)
    if df <= 0:
        return None
    mu = _rates(params)
    r = matrix.counts - mu
    r *= r
    r /= mu
    return float(np.sum(r)) / df


def analytic_se(result: ScalingResult) -> np.ndarray:
    """sqrt(h11 / det) of each document's (alpha_i, theta_i) information
    block, its three sums taken as separate passes over the rates."""
    mu, beta = _rates(result.params), result.params.beta
    h11, h12, h22 = mu.sum(axis=1), mu @ beta, mu @ beta**2
    return np.sqrt(h11 / (h11 * h22 - h12**2))


def fit_checking_ascent(matrix, config: FitConfig = FitConfig()) -> ScalingResult:
    """``fit(matrix, config)``, with its ascent checked by refitting at
    ``max_iter`` = 1, 2, ... up to the fit's map evaluations. Each truncated
    fit's trace must be a prefix of the full trace and end at the log
    likelihood of its parameters, within a relative 1e-12; that log
    likelihood must not fall by more than 1e-9 from one truncated fit to the
    next. A failed check is an ``AssertionError``."""
    result = fit(matrix, config)
    previous = -np.inf
    for max_iter in range(1, result.map_evaluations + 1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # not converged
            part = fit(matrix, dataclasses.replace(config, max_iter=max_iter))
        trace = part.loglik_trace
        assert trace == result.loglik_trace[:len(trace)], f"max_iter={max_iter}: not a prefix"
        ll = log_likelihood(matrix, part.params)
        assert abs(ll - trace[-1]) <= 1e-12 * abs(ll), \
            f"max_iter={max_iter}: trace ends at {trace[-1]}, log likelihood {ll}"
        assert ll >= previous - 1e-9, f"max_iter={max_iter}: {previous} -> {ll}"
        previous = ll
    return result

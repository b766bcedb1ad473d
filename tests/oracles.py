"""Reference implementations the tests check the package against: node
strengths, an exhaustive modularity maximizer, analytic gradients of the log
likelihood, and a fit whose every step is checked to ascend."""

import dataclasses
import warnings

import numpy as np

from communityfish.graph import GraphError, Partition, WordGraph, modularity
from communityfish.scaling import FitConfig, ScalingParams, ScalingResult, fit, log_likelihood


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

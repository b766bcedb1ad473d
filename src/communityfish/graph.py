"""Weighted word co-occurrence graph and modularity-based community detection."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .corpus import BigramCounts


class GraphError(ValueError):
    """Raised for degenerate graphs or invalid partitions."""


class _Graph:
    """The word graph or a Louvain level, as arrays: each edge stored from
    both ends as arcs ``first -> second``, sorted by their ends, parallel
    arcs merged. ``self_loops`` holds each node's inner community weight
    after aggregation, counted twice in its strength. Weights are
    integer-valued, so every sum of them is exact."""

    def __init__(self, first, second, weight, self_loops):
        n = len(self_loops)
        arcs, arc_of = np.unique(first.astype(np.int64) * n + second, return_inverse=True)
        self.first, self.second = np.divmod(arcs, n)
        self.weight = np.bincount(arc_of, weight, len(arcs))
        self.self_loops = self_loops
        self.strength = np.bincount(self.first, self.weight, n) + 2.0 * self_loops

    @cached_property
    def neighbours(self) -> list[list[tuple[int, float]]]:
        """Each node's arcs as ``(second end, weight)``, for the local moves."""
        bounds = np.searchsorted(self.first, np.arange(len(self) + 1)).tolist()
        arcs = list(zip(self.second.tolist(), self.weight.tolist()))
        return [arcs[a:b] for a, b in zip(bounds, bounds[1:])]

    def __len__(self):
        return len(self.self_loops)


@dataclass(frozen=True, eq=False)
class WordGraph:
    """Undirected weighted graph over words, built from filtered bigram counts."""

    nodes: tuple[str, ...]  # sorted
    # one row (i, j) per edge, i < j indexing ``nodes``; no self loops
    edges: np.ndarray
    weights: np.ndarray  # each edge's pair count, as a float

    @cached_property
    def _level(self) -> _Graph:
        """This graph as the first level of the Louvain passes."""
        i, j = self.edges.T
        return _Graph(np.concatenate((i, j)), np.concatenate((j, i)),
                      np.concatenate((self.weights, self.weights)), np.zeros(len(self)))

    @property
    def total_weight(self) -> float:
        return float(self.weights.sum())

    # ``adjacency[i]`` maps each neighbour of node i to the edge weight, built
    # on each access. The package never reads it: perfbench/child.py's
    # graph.build edge counter and the graph tests do.
    @property
    def adjacency(self) -> tuple[dict[int, float], ...]:
        return tuple(map(dict, self._level.neighbours))

    def __len__(self):
        return len(self.nodes)


@dataclass(frozen=True)
class Partition:
    """Assignment of words to communities; ids are contiguous from 0."""

    assignment: Mapping[str, int]
    quality: float | None = None

    @property
    def num_communities(self) -> int:
        return len(set(self.assignment.values())) if self.assignment else 0

    @cached_property
    def members(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for word, cid in self.assignment.items():
            out.setdefault(cid, []).append(word)
        return {cid: sorted(words) for cid, words in sorted(out.items())}


def build_graph(counts: BigramCounts) -> WordGraph:
    """One node per word in a retained pair; edge weight = pair count."""
    if not len(counts.pairs):
        raise GraphError("empty graph: no bigrams survive threshold")
    # word ids index the sorted vocabulary, so nodes in id order are sorted
    in_graph = np.zeros(len(counts.words), dtype=bool)
    in_graph[counts.pairs] = True
    nodes = tuple(map(counts.words.__getitem__, np.flatnonzero(in_graph).tolist()))
    node_of = np.cumsum(in_graph) - 1
    return WordGraph(nodes=nodes, edges=node_of[counts.pairs], weights=counts.counts.astype(float))


def modularity(graph: WordGraph, partition: Partition) -> float:
    """Newman modularity of a partition covering every node of the graph."""
    missing = set(graph.nodes) - set(partition.assignment)
    if missing:
        raise GraphError(f"partition does not cover nodes: {sorted(missing)[:5]}")
    m = graph.total_weight
    if m == 0:
        raise GraphError("modularity undefined for a graph with no edges")
    labels = {c: k for k, c in enumerate(sorted(set(partition.assignment.values())))}
    comm = [labels[partition.assignment[w]] for w in graph.nodes]
    return _level_modularity(graph._level, comm, m)


def _local_move(level: _Graph, comm: list[int], m: float, rng) -> None:
    """One full Louvain phase 1 by Leiden's fast local moving (Traag et al.
    2019): single-node moves to the neighbouring community of maximal positive
    gain, every node in a seeded order, then each moved node's neighbours
    outside its new community. A community's changed total can make any node
    movable, so passes over all nodes repeat until one moves none."""
    strength, neighbours = level.strength.tolist(), level.neighbours
    sigma_tot = np.bincount(comm, level.strength).tolist()
    order = rng.permutation(len(level)).tolist()
    queue, moved = deque(), True
    while queue or moved:
        if not queue:
            queue.extend(order)
            queued, moved = [True] * len(level), False
        i = queue.popleft()
        queued[i] = False
        ci = comm[i]
        k_i = strength[i]
        # weight from i to each neighboring community
        w_to: dict[int, float] = {}
        for j, w in neighbours[i]:
            w_to[comm[j]] = w_to.get(comm[j], 0.0) + w
        sigma_tot[ci] -= k_i
        base = w_to.get(ci, 0.0) / m - sigma_tot[ci] * k_i / (2.0 * m * m)
        best_c, best_gain = ci, base
        for c in sorted(w_to):
            if c == ci:
                continue
            gain = w_to[c] / m - sigma_tot[c] * k_i / (2.0 * m * m)
            # a move is accepted only on strictly positive gain; targets
            # come in id order, so among equal-gain ones the lowest id wins
            if gain > best_gain + 1e-14:
                best_c, best_gain = c, gain
        comm[i] = best_c
        sigma_tot[best_c] += k_i
        if best_c != ci:
            moved = True
            for j, _ in neighbours[i]:
                if not queued[j] and comm[j] != best_c:
                    queued[j] = True
                    queue.append(j)


def _level_modularity(level: _Graph, comm, m: float) -> float:
    comm = np.asarray(comm)
    ncomm = int(comm.max()) + 1
    first = comm[level.first]
    inner = first == comm[level.second]
    sigma_in = (2.0 * np.bincount(comm, level.self_loops, ncomm)
                + np.bincount(first[inner], level.weight[inner], ncomm))
    sigma_tot = np.bincount(comm, level.strength, ncomm)
    terms = sigma_in / (2.0 * m) - (sigma_tot / (2.0 * m)) ** 2
    # summed in community order, one term at a time
    return sum(terms.tolist())


def _relabel(comm: list[int]) -> tuple[list[int], int]:
    """Contiguous ids in order of first appearance by node index."""
    mapping = {c: k for k, c in enumerate(dict.fromkeys(comm))}
    return [mapping[c] for c in comm], len(mapping)


def _aggregate(level: _Graph, comm: list[int], ncomm: int) -> _Graph:
    """The graph of the communities, each one's inner weight as its self loop."""
    comm = np.asarray(comm)
    first, second = comm[level.first], comm[level.second]
    inner = first == second
    # an edge inside a community is stored from both ends: half the sum counts it once
    self_loops = (np.bincount(comm, level.self_loops, ncomm)
                  + np.bincount(first[inner], level.weight[inner], ncomm) / 2.0)
    return _Graph(first[~inner], second[~inner], level.weight[~inner], self_loops)


# independent Louvain runs per clustering; the best modularity is kept
_RESTARTS = 8
# a Louvain run stops after a pass that raises Q by less than this
_Q_TOL = 1e-12


def _louvain_assignment(graph: WordGraph, seed: int,
                        singleton_q: float) -> tuple[list[int], float]:
    """Raw Louvain over all nodes, from ``singleton_q``, the all-singletons
    modularity: a community id per node index, and the last level's modularity."""
    m = graph.total_weight
    rng = np.random.default_rng(seed)
    level = graph._level
    node_comm = list(range(len(graph)))  # original node -> current top community
    prev_q = singleton_q
    while True:
        comm = list(range(len(level)))
        _local_move(level, comm, m, rng)
        comm, ncomm = _relabel(comm)
        q = _level_modularity(level, comm, m)
        node_comm = [comm[c] for c in node_comm]
        if q - prev_q < _Q_TOL or ncomm == len(level):
            break
        prev_q = q
        level = _aggregate(level, comm, ncomm)
    return _relabel(node_comm)[0], q


def louvain(graph: WordGraph, seed: int = 0, min_community_size: int = 2) -> Partition:
    """Two-phase modularity maximization with seeded, reproducible node order.

    The greedy sweeps can stall in seed-dependent local optima on small dense
    graphs, so ``_RESTARTS`` independent runs (sub-seeds derived from ``seed``)
    are performed and the highest-modularity one kept. Its communities can be
    disconnected (Traag, Waltman & van Eck 2019), so each is split into its
    connected components and local moving rerun, until none splits. The
    result is still a deterministic function of the seed. Communities smaller
    than ``min_community_size`` are dropped from the returned partition;
    their words carry no feature downstream.
    """
    if len(graph) == 0:
        raise GraphError("empty graph")
    m = graph.total_weight
    if m == 0:
        raise GraphError("clustering requires a graph with at least one edge")
    level = graph._level
    singleton_q = _level_modularity(level, range(len(graph)), m)
    comm, best_q = None, -np.inf
    for sub_seed in np.random.SeedSequence(seed).generate_state(_RESTARTS):
        run_comm, q = _louvain_assignment(graph, int(sub_seed), singleton_q)
        if q > best_q + 1e-14:
            comm, best_q = run_comm, q
    rng = np.random.default_rng(seed + 1)
    for _ in range(10):
        refined = _split_disconnected(level, comm)
        if refined == comm:
            break
        comm = refined
        _local_move(level, comm, m, rng)
        comm, _ = _relabel(comm)
    else:
        comm = _split_disconnected(level, comm)
    kept = np.flatnonzero(np.bincount(comm) >= min_community_size).tolist()
    remap = dict(zip(kept, range(len(kept))))
    assignment = {w: remap[comm[i]] for i, w in enumerate(graph.nodes) if comm[i] in remap}
    return Partition(assignment=assignment, quality=_level_modularity(level, comm, m))


def _split_disconnected(level: _Graph, comm: list[int]) -> list[int]:
    """Split every community into its connected components."""
    comm = np.asarray(comm)
    inner = comm[level.first] == comm[level.second]
    first, second = level.first[inner], level.second[inner]
    # every node takes the least index in its component: the least label of
    # itself and its neighbours in the community, then that label's label
    label = np.arange(len(comm))
    while True:
        least = label.copy()
        np.minimum.at(least, first, label[second])
        least = least[least]
        if np.array_equal(least, label):
            return _relabel(label.tolist())[0]
        label = least

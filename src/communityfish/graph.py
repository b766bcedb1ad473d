"""Weighted word co-occurrence graph and modularity-based community detection."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .corpus import BigramCounts


class GraphError(ValueError):
    """Raised for degenerate graphs or invalid partitions."""


@dataclass(frozen=True)
class WordGraph:
    """Undirected weighted graph over words, built from filtered bigram counts."""

    nodes: tuple[str, ...]
    # adjacency[i] maps neighbor index -> edge weight; symmetric, no self loops
    adjacency: tuple[Mapping[int, float], ...]

    @cached_property
    def strengths(self) -> np.ndarray:
        return np.array(self._level.strength)

    @cached_property
    def _level(self) -> "_LevelGraph":
        """This graph as the first level of the Louvain passes (no self loops)."""
        return _LevelGraph(self.adjacency, [0.0] * len(self.nodes))

    @property
    def total_weight(self) -> float:
        return float(self.strengths.sum()) / 2.0

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
    pairs = counts.pairs
    if not pairs:
        raise GraphError("empty graph: no bigrams survive threshold")
    # word ids index the sorted vocabulary, so nodes in id order are sorted
    in_graph = np.zeros(len(pairs.words), dtype=bool)
    in_graph[pairs.u] = in_graph[pairs.w] = True
    nodes = tuple(map(pairs.words.__getitem__, np.flatnonzero(in_graph).tolist()))
    node_of = np.cumsum(in_graph) - 1
    adjacency: list[dict[int, float]] = [dict() for _ in nodes]
    # each node's neighbours in pair order
    for iu, iw, weight in zip(node_of[pairs.u].tolist(), node_of[pairs.w].tolist(),
                              pairs.counts.astype(float).tolist()):
        adjacency[iu][iw] = weight
        adjacency[iw][iu] = weight
    return WordGraph(nodes=nodes, adjacency=tuple(adjacency))


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


class _LevelGraph:
    """Multigraph used internally by the Louvain passes.

    Self-loop weights hold intra-community weight after aggregation; node
    strength counts a self loop twice. The passes only read a level; each
    aggregation builds a new one.
    """

    def __init__(self, adjacency, self_loops):
        self.adjacency = adjacency
        self.self_loops = self_loops
        self.strength = [
            sum(nbrs.values()) + 2.0 * s
            for nbrs, s in zip(self.adjacency, self.self_loops)
        ]

    def __len__(self):
        return len(self.adjacency)


def _local_move(level: _LevelGraph, comm: list[int], m: float, rng) -> bool:
    """One full Louvain phase-1: repeated seeded-order sweeps of single-node
    moves to the neighboring community with maximal positive gain."""
    n = len(level)
    sigma_tot = [0.0] * (max(comm) + 1)
    for i in range(n):
        sigma_tot[comm[i]] += level.strength[i]
    order = np.arange(n)
    improved_ever = False
    while True:
        rng.shuffle(order)
        moved = 0
        for i in order:
            i = int(i)
            ci = comm[i]
            k_i = level.strength[i]
            # weight from i to each neighboring community
            w_to: dict[int, float] = {}
            for j, w in level.adjacency[i].items():
                w_to[comm[j]] = w_to.get(comm[j], 0.0) + w
            sigma_tot[ci] -= k_i
            base = w_to.get(ci, 0.0) / m - sigma_tot[ci] * k_i / (2.0 * m * m)
            best_c, best_gain = ci, base
            for c in sorted(w_to):
                if c == ci:
                    continue
                gain = w_to[c] / m - sigma_tot[c] * k_i / (2.0 * m * m)
                # a move is accepted only on strictly positive gain; among
                # equal-gain targets the lowest community id wins
                if gain > best_gain + 1e-14 or (
                    best_c != ci and abs(gain - best_gain) <= 1e-14 and c < best_c
                ):
                    best_c, best_gain = c, gain
            comm[i] = best_c
            sigma_tot[best_c] += k_i
            if best_c != ci:
                moved += 1
        if moved == 0:
            return improved_ever
        improved_ever = True


def _level_modularity(level: _LevelGraph, comm: list[int], m: float) -> float:
    ncomm = max(comm) + 1
    sigma_in = [0.0] * ncomm
    sigma_tot = [0.0] * ncomm
    for i in range(len(level)):
        c = comm[i]
        sigma_tot[c] += level.strength[i]
        sigma_in[c] += 2.0 * level.self_loops[i]
        for j, w in level.adjacency[i].items():
            if comm[j] == c:
                sigma_in[c] += w
    return sum(
        s_in / (2.0 * m) - (s_tot / (2.0 * m)) ** 2
        for s_in, s_tot in zip(sigma_in, sigma_tot)
    )


def _relabel(comm: list[int]) -> tuple[list[int], int]:
    """Contiguous ids in order of first appearance by node index."""
    mapping: dict[int, int] = {}
    out = []
    for c in comm:
        if c not in mapping:
            mapping[c] = len(mapping)
        out.append(mapping[c])
    return out, len(mapping)


def _aggregate(level: _LevelGraph, comm: list[int], ncomm: int) -> _LevelGraph:
    adjacency: list[dict[int, float]] = [dict() for _ in range(ncomm)]
    self_loops = [0.0] * ncomm
    for i in range(len(level)):
        ci = comm[i]
        self_loops[ci] += level.self_loops[i]
        for j, w in level.adjacency[i].items():
            cj = comm[j]
            if ci == cj:
                if i < j:
                    self_loops[ci] += w
            else:
                adjacency[ci][cj] = adjacency[ci].get(cj, 0.0) + w
    return _LevelGraph(adjacency, self_loops)


# independent Louvain runs per clustering; the best modularity is kept
_RESTARTS = 8
# a Louvain run stops after a pass that raises Q by less than this
_Q_TOL = 1e-12


def _louvain_assignment(graph: WordGraph, seed: int, singleton_q: float) -> list[int]:
    """Raw Louvain over all nodes; returns a community id per node index.
    ``singleton_q`` is the modularity of the all-singletons partition."""
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
    return _relabel(node_comm)[0]


def louvain(graph: WordGraph, seed: int = 0, min_community_size: int = 2) -> Partition:
    """Two-phase modularity maximization with seeded, reproducible node order.

    The greedy sweeps can stall in seed-dependent local optima on small dense
    graphs, so ``_RESTARTS`` independent runs (sub-seeds derived from ``seed``)
    are performed and the highest-modularity partition kept; the result is
    still a deterministic function of the seed. Communities smaller than
    ``min_community_size`` are dropped from the returned partition; their
    words carry no feature downstream.
    """
    comm, q = _best_louvain_assignment(graph, seed)
    return _finalize_partition(graph, comm, q, min_community_size)


def _best_louvain_assignment(graph: WordGraph, seed: int) -> tuple[list[int], float]:
    """The highest-modularity assignment of ``_RESTARTS`` Louvain runs, and
    its modularity. Both clustering algorithms start here, so the checks
    for a graph they cannot cluster live here."""
    if len(graph) == 0:
        raise GraphError("empty graph")
    m = graph.total_weight
    if m == 0:
        raise GraphError("clustering requires a graph with at least one edge")
    level = graph._level
    singleton_q = _level_modularity(level, list(range(len(level))), m)
    best_comm, best_q = None, -np.inf
    for sub_seed in np.random.SeedSequence(seed).generate_state(_RESTARTS):
        comm = _louvain_assignment(graph, int(sub_seed), singleton_q)
        q = _level_modularity(level, comm, m)
        if q > best_q + 1e-14:
            best_comm, best_q = comm, q
    return best_comm, best_q


def leiden(graph: WordGraph, seed: int = 0, min_community_size: int = 2) -> Partition:
    """Louvain plus a refinement that guarantees internally connected
    communities: disconnected communities are split into their connected
    components and local moving is re-run until stable."""
    comm, _ = _best_louvain_assignment(graph, seed)
    m = graph.total_weight
    rng = np.random.default_rng(seed + 1)
    level = graph._level
    for _ in range(10):
        refined = _split_disconnected(graph, comm)
        if refined == comm:
            break
        comm = refined
        _local_move(level, comm, m, rng)
        comm, _ = _relabel(comm)
    comm = _split_disconnected(graph, comm)
    return _finalize_partition(graph, comm, _level_modularity(level, comm, m),
                               min_community_size)


def _split_disconnected(graph: WordGraph, comm: list[int]) -> list[int]:
    """Split every community into its connected components."""
    out = [-1] * len(comm)
    next_id = 0
    by_comm: dict[int, list[int]] = {}
    for i, c in enumerate(comm):
        by_comm.setdefault(c, []).append(i)
    for c in sorted(by_comm):
        nodes = set(by_comm[c])
        unseen = set(nodes)
        while unseen:
            start = min(unseen)
            stack = [start]
            unseen.discard(start)
            while stack:
                i = stack.pop()
                out[i] = next_id
                for j in graph.adjacency[i]:
                    if j in unseen:
                        unseen.discard(j)
                        stack.append(j)
            next_id += 1
    return _relabel(out)[0]


def _finalize_partition(
    graph: WordGraph, comm: list[int], q: float, min_community_size: int
) -> Partition:
    """The partition of ``comm``, a contiguous id per node index whose
    modularity is ``q``, without its communities below the minimum size."""
    sizes: dict[int, int] = {}
    for c in comm:
        sizes[c] = sizes.get(c, 0) + 1
    kept = sorted(c for c, n in sizes.items() if n >= min_community_size)
    remap = {c: k for k, c in enumerate(kept)}
    assignment = {
        w: remap[comm[i]] for i, w in enumerate(graph.nodes) if comm[i] in remap
    }
    return Partition(assignment=assignment, quality=q)


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


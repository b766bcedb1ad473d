from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from communityfish import graph as graph_module
from communityfish.corpus import Corpus, Document, count_bigrams, filter_bigrams
from communityfish.graph import (
    GraphError,
    Partition,
    WordGraph,
    build_graph,
    louvain,
    modularity,
)

from oracles import bigram_counts, brute_force_best_partition, strengths


def graph_from_edges(edges):
    return build_graph(bigram_counts({frozenset((u, v)): w for u, v, w in edges}))


TWO_EDGES = graph_from_edges([("a", "b", 1), ("c", "d", 1)])
SINGLE_EDGE = graph_from_edges([("a", "b", 1)])
TWO_TRIANGLES = graph_from_edges(
    [("a", "b", 1), ("b", "c", 1), ("a", "c", 1),
     ("d", "e", 1), ("e", "f", 1), ("d", "f", 1)]
)


def random_graph(seed, n_nodes=6, p=0.6, max_weight=4):
    rng = np.random.default_rng(seed)
    names = [f"n{i}" for i in range(n_nodes)]
    pairs = {}
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < p:
                pairs[frozenset((names[i], names[j]))] = int(rng.integers(1, max_weight + 1))
    if not pairs:
        pairs[frozenset((names[0], names[1]))] = 1
    return build_graph(bigram_counts(pairs))


class TestBuildGraph:
    def test_single_pair(self):
        g = graph_from_edges([("a", "b", 4)])
        assert g.nodes == ("a", "b")
        assert g.total_weight == 4
        assert list(strengths(g)) == [4, 4]

    def test_path(self):
        g = graph_from_edges([("a", "b", 2), ("b", "c", 3)])
        assert g.total_weight == 5
        assert strengths(g)[g.nodes.index("b")] == 5

    def test_empty_is_error(self):
        with pytest.raises(GraphError, match="empty"):
            build_graph(bigram_counts({}))

    @given(st.lists(
        st.lists(st.sampled_from("abcdef"), max_size=15), min_size=1, max_size=4,
    ))
    def test_counted_pairs_match_reference_fold(self, docs):
        # the reference: ordered pairs counted, then folded into unordered
        # keys at whichever order came first
        ordered = Counter()
        for toks in docs:
            ordered.update(zip(toks, toks[1:]))
        reference = {}
        for (u, w), c in ordered.items():
            if u != w:
                key = frozenset((u, w))
                reference[key] = reference.get(key, 0) + c
        assume(reference)
        corpus = Corpus(tuple(Document(id=f"d{i}", text=" ".join(toks))
                              for i, toks in enumerate(docs)))
        g = build_graph(filter_bigrams(count_bigrams(corpus), 1))
        want = build_graph(bigram_counts(reference))
        assert g.nodes == want.nodes
        assert [dict(a) for a in g.adjacency] == [dict(a) for a in want.adjacency]

    def test_adjacency_symmetric_no_self_loops(self):
        g = random_graph(3)
        for i, nbrs in enumerate(g.adjacency):
            assert i not in nbrs
            for j, w in nbrs.items():
                assert g.adjacency[j][i] == w


class TestModularity:
    def test_two_disconnected_edges_paired(self):
        q = modularity(TWO_EDGES, Partition({"a": 0, "b": 0, "c": 1, "d": 1}))
        assert q == pytest.approx(0.5, abs=1e-12)

    def test_two_disconnected_edges_singletons(self):
        q = modularity(TWO_EDGES, Partition({"a": 0, "b": 1, "c": 2, "d": 3}))
        assert q == pytest.approx(-0.25, abs=1e-12)

    def test_single_edge_one_community(self):
        q = modularity(SINGLE_EDGE, Partition({"a": 0, "b": 0}))
        assert q == pytest.approx(0.0, abs=1e-12)

    def test_partial_partition_rejected(self):
        with pytest.raises(GraphError, match="cover"):
            modularity(TWO_EDGES, Partition({"a": 0, "b": 0}))

    @given(st.integers(0, 200))
    def test_singleton_partition_closed_form(self, seed):
        g = random_graph(seed)
        part = Partition({w: i for i, w in enumerate(g.nodes)})
        q = modularity(g, part)
        k = strengths(g)
        m = g.total_weight
        assert q == pytest.approx(-float(np.sum(k**2)) / (2 * m) ** 2, abs=1e-12)

    @given(st.integers(0, 100))
    def test_bounded(self, seed):
        g = random_graph(seed)
        part, q = brute_force_best_partition(g)
        assert -1.0 <= q <= 1.0


class TestBruteForce:
    def test_two_edges(self):
        part, q = brute_force_best_partition(TWO_EDGES)
        assert q == pytest.approx(0.5)
        assert part.members == {0: ["a", "b"], 1: ["c", "d"]}

    def test_single_edge(self):
        part, q = brute_force_best_partition(SINGLE_EDGE)
        assert q == pytest.approx(0.0)
        assert part.num_communities == 1

    def test_triangle(self):
        g = graph_from_edges([("a", "b", 1), ("b", "c", 1), ("a", "c", 1)])
        part, q = brute_force_best_partition(g)
        assert part.num_communities == 1
        assert q == pytest.approx(0.0)

    def test_too_many_nodes(self):
        g = random_graph(0, n_nodes=11, p=1.0)
        with pytest.raises(GraphError, match="10 nodes"):
            brute_force_best_partition(g)


class TestLouvain:
    def test_two_triangles(self):
        part = louvain(TWO_TRIANGLES, seed=0)
        assert {frozenset(v) for v in part.members.values()} == {
            frozenset("abc"),
            frozenset("def"),
        }

    def test_single_edge_merges(self):
        part = louvain(SINGLE_EDGE, seed=0)
        assert part.members == {0: ["a", "b"]}

    def test_complete_graph_one_community(self):
        names = "abcd"
        g = graph_from_edges(
            [(u, v, 1) for i, u in enumerate(names) for v in names[i + 1:]]
        )
        part = louvain(g, seed=0)
        assert part.num_communities == 1

    @pytest.mark.parametrize("nodes, message", [
        ((), "^empty graph$"),
        (("a", "b"), "^clustering requires a graph with at least one edge$"),
    ], ids=["empty", "edgeless"])
    def test_graph_without_edges_rejected(self, nodes, message):
        graph = WordGraph(nodes, np.empty((0, 2), dtype=np.int64), np.empty(0))
        with pytest.raises(GraphError, match=message):
            louvain(graph)

    def test_seed_determinism(self):
        g = random_graph(17, n_nodes=9)
        a = louvain(g, seed=5, min_community_size=1)
        b = louvain(g, seed=5, min_community_size=1)
        assert a.assignment == b.assignment

    def test_min_community_size_drops_small(self):
        # one triangle plus a pendant pair attached weakly: force a singleton
        g = graph_from_edges([("a", "b", 5), ("b", "c", 5), ("a", "c", 5), ("x", "a", 1)])
        part = louvain(g, seed=0, min_community_size=2)
        for words in part.members.values():
            assert len(words) >= 2

    @given(st.integers(0, 60))
    @settings(deadline=None, max_examples=30)
    def test_never_below_singleton_q(self, seed):
        g = random_graph(seed, n_nodes=7)
        part = louvain(g, seed=seed, min_community_size=1)
        singleton = Partition({w: i for i, w in enumerate(g.nodes)})
        assert part.quality >= modularity(g, singleton) - 1e-12

    # louvain computes the quality of its refined partition outside modularity()
    @given(st.integers(0, 60))
    @settings(deadline=None, max_examples=30)
    def test_reported_q_matches_recomputation(self, seed):
        g = random_graph(seed, n_nodes=7)
        part = louvain(g, seed=seed, min_community_size=1)
        assert part.quality == pytest.approx(modularity(g, part), abs=1e-10)

    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=20)
    def test_near_optimal_small_graphs(self, seed):
        g = random_graph(seed, n_nodes=7)
        part = louvain(g, seed=seed, min_community_size=1)
        _, q_best = brute_force_best_partition(g)
        if q_best > 0:
            assert part.quality >= 0.95 * q_best


def connected(graph, words) -> bool:
    """Whether the edges among words join them all."""
    index = {w: i for i, w in enumerate(graph.nodes)}
    nodes = {index[w] for w in words}
    arcs = [(i, j) for i, j in graph.edges.tolist() if i in nodes and j in nodes]
    arcs += [(j, i) for i, j in arcs]
    reached = {min(nodes)}
    while grown := {j for i, j in arcs if i in reached} - reached:
        reached |= grown
    return reached == nodes


def block_model_graph(seed):
    """A planted-partition graph: blocks of 3 to 24 words, denser inside a
    block than between blocks, integer weights."""
    rng = np.random.default_rng(seed)
    k = rng.integers(3, 30)
    sizes = rng.integers(3, 25, size=k)
    p_in, p_out = rng.uniform(0.1, 0.6), rng.uniform(0.002, 0.05)
    block = np.repeat(np.arange(k), sizes)
    u, w = np.triu_indices(sizes.sum(), 1)
    keep = rng.random(u.size) < np.where(block[u] == block[w], p_in, p_out)
    weights = rng.integers(1, rng.integers(2, 12), size=int(keep.sum()))
    names = [f"w{i:04d}" for i in range(sizes.sum())]
    return build_graph(bigram_counts({frozenset((names[i], names[j])): int(c)
                                      for i, j, c in zip(u[keep], w[keep], weights)}))


class TestLeiden:
    """Louvain can return a community whose words share no path (Traag,
    Waltman & van Eck 2019); ``louvain`` splits such communities as Leiden
    does, so each of its communities is connected."""

    def test_block_model_graph_communities_are_connected(self):
        # the best of the restarts puts five words that share no path in one
        # community, at Q 0.537043; split, the graph has 9 communities
        g = block_model_graph(2294)
        assert (len(g), len(g.weights)) == (52, 89)
        part = louvain(g, seed=2294)
        assert all(connected(g, words) for words in part.members.values())
        assert part.num_communities == 9
        assert part.quality == pytest.approx(0.537889, abs=1e-6)

    @given(st.integers(0, 10**6), st.integers(3, 12), st.sampled_from([0.2, 0.35, 0.6]))
    @settings(deadline=None, max_examples=60)
    def test_is_louvain_where_louvain_communities_are_connected(self, seed, n_nodes, p):
        # the best restart's assignment and Q bits, where its communities are connected
        g = random_graph(seed, n_nodes=n_nodes, p=p)
        m = g.total_weight
        singleton_q = graph_module._level_modularity(g._level, range(len(g)), m)
        comm, q = None, -np.inf
        for sub_seed in np.random.SeedSequence(seed).generate_state(graph_module._RESTARTS):
            restart = graph_module._louvain_assignment(g, int(sub_seed), singleton_q)
            if restart[1] > q + 1e-14:  # the first restart of the best modularity
                comm, q = restart
        expected = Partition(dict(zip(g.nodes, comm)))
        assume(all(connected(g, words) for words in expected.members.values()))
        part = louvain(g, seed=seed, min_community_size=1)
        assert part.assignment == expected.assignment
        assert part.quality == q

    def test_single_edge(self):
        assert louvain(SINGLE_EDGE, seed=0).members == {0: ["a", "b"]}

    @given(st.integers(0, 40))
    @settings(deadline=None, max_examples=20)
    def test_communities_are_connected(self, seed):
        g = random_graph(seed, n_nodes=8, p=0.35)
        part = louvain(g, seed=seed, min_community_size=1)
        assert all(connected(g, words) for words in part.members.values())

    def test_path_graph(self):
        g = graph_from_edges([("a", "b", 1), ("b", "c", 1)])
        part = louvain(g, seed=0, min_community_size=1)
        assert part.quality is not None


class TestPairOrder:
    """Edge weights are bigram counts, so every sum the clustering forms is
    exact: the order of the pairs, which sets each node's neighbour order,
    cannot change a partition or its modularity."""

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_partition_does_not_depend_on_pair_order(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 31))
        names = [f"w{i:02d}" for i in range(n)]
        u, w = np.triu_indices(n, 1)
        keep = rng.random(u.size) < rng.uniform(0.1, 0.6)
        # few distinct weights: many equal gains, so ties are broken often
        weights = rng.integers(1, int(rng.integers(2, 9)), size=u.size)
        pairs = [(frozenset((names[i], names[j])), int(c))
                 for i, j, c in zip(u[keep], w[keep], weights[keep])]
        assume(pairs)
        shuffled = [pairs[k] for k in rng.permutation(len(pairs))]
        results = []
        for order in (pairs, shuffled):
            with mock.patch.object(graph_module, "_aggregate",
                                   wraps=graph_module._aggregate) as aggregate:
                results.append(louvain(build_graph(bigram_counts(dict(order))),
                                       seed=seed, min_community_size=1))
            assert aggregate.call_count > 0  # the run reached an aggregated level
        assert results[1].assignment == results[0].assignment
        assert results[1].quality == results[0].quality


def _random_partition(rng, n):
    """Contiguous community ids for ``n`` nodes, in 1 to 4 communities."""
    return graph_module._relabel(rng.integers(0, int(rng.integers(1, 5)), size=n).tolist())


class TestLevels:
    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_split_disconnected_is_exactly_the_connected_components(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(seed, n_nodes=int(rng.integers(2, 13)), p=float(rng.uniform(0.1, 0.6)))
        comm, _ = _random_partition(rng, len(g))
        parts = graph_module._split_disconnected(g._level, comm)
        adjacency = g.adjacency
        members: dict[int, set[int]] = {}
        for i, p in enumerate(parts):
            members.setdefault(p, set()).add(i)
        for nodes in members.values():
            # a refinement: every part lies inside one input community
            assert len({comm[i] for i in nodes}) == 1
            # connected inside itself
            seen = {min(nodes)}
            stack = list(seen)
            while stack:
                for j in adjacency[stack.pop()]:
                    if j in nodes and j not in seen:
                        seen.add(j)
                        stack.append(j)
            assert seen == nodes
        # not over-split: an edge inside an input community stays inside a part
        for i, nbrs in enumerate(adjacency):
            for j in nbrs:
                if comm[i] == comm[j]:
                    assert parts[i] == parts[j]

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_aggregation_preserves_modularity_exactly(self, seed):
        # integer weights make every sum exact, so Q is equal, not close
        rng = np.random.default_rng(seed)
        g = random_graph(seed, n_nodes=int(rng.integers(2, 13)), p=float(rng.uniform(0.1, 0.8)),
                         max_weight=9)
        level, m = g._level, g.total_weight
        node_comm = list(range(len(g)))
        # twice, so the second aggregation starts from self loops
        for _ in range(2):
            comm, ncomm = _random_partition(rng, len(level))
            q = graph_module._level_modularity(level, comm, m)
            level = graph_module._aggregate(level, comm, ncomm)
            assert graph_module._level_modularity(level, range(ncomm), m) == q
            node_comm = [comm[c] for c in node_comm]
            assert graph_module._level_modularity(g._level, node_comm, m) == q

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(deadline=None, max_examples=100)
    def test_local_move_stops_only_at_a_local_optimum(self, seed, singletons):
        # from singletons, as Louvain starts, or from a random partition, as
        # Leiden's refinement does: no node has a neighbouring community
        # whose gain beats staying by more than the tolerance. The weights
        # are integers, so the community totals here equal the running ones
        rng = np.random.default_rng(seed)
        g = random_graph(seed, n_nodes=int(rng.integers(2, 40)), p=float(rng.uniform(0.05, 0.8)),
                         max_weight=9)
        level, m = g._level, g.total_weight
        comm = list(range(len(g))) if singletons else _random_partition(rng, len(g))[0]
        graph_module._local_move(level, comm, m, rng)
        sigma_tot = np.bincount(comm, level.strength)
        for i, arcs in enumerate(level.neighbours):
            k_i, ci = level.strength[i], comm[i]
            w_to: dict[int, float] = {}
            for j, w in arcs:
                w_to[comm[j]] = w_to.get(comm[j], 0.0) + w
            stay = w_to.pop(ci, 0.0) / m - (sigma_tot[ci] - k_i) * k_i / (2.0 * m * m)
            for c, w in w_to.items():
                assert w / m - sigma_tot[c] * k_i / (2.0 * m * m) <= stay + 1e-14, (i, c)

    @given(st.integers(0, 2**32 - 1))
    @settings(deadline=None, max_examples=60)
    def test_louvain_run_reports_the_modularity_of_its_assignment(self, seed):
        # the last level's Q is the Q of the returned assignment on the word
        # graph, equal and not only close, so no restart recomputes it
        rng = np.random.default_rng(seed)
        g = random_graph(seed, n_nodes=int(rng.integers(2, 25)), p=float(rng.uniform(0.05, 0.8)),
                         max_weight=9)
        level, m = g._level, g.total_weight
        singleton_q = graph_module._level_modularity(level, range(len(g)), m)
        comm, q = graph_module._louvain_assignment(g, seed, singleton_q)
        assert graph_module._level_modularity(level, comm, m) == q

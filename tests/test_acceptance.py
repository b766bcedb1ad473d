"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured quantity."""

import csv
import dataclasses
import json
import time

import numpy as np
import pytest
from scipy.optimize import minimize

import communityfish as cf
from communityfish.cli import main

import oracles


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def graph_from_edges(edges):
    return cf.build_graph(oracles.bigram_counts({frozenset((u, v)): w for u, v, w in edges}))


def clique(names, weight=1):
    return [(u, v, weight) for i, u in enumerate(names) for v in names[i + 1:]]


def random_connected_graph(seed, n_nodes):
    rng = np.random.default_rng(seed)
    names = [f"n{i}" for i in range(n_nodes)]
    pairs = {}
    order = list(range(n_nodes))
    rng.shuffle(order)
    for a, b in zip(order, order[1:]):  # spanning path keeps it connected
        pairs[frozenset((names[a], names[b]))] = int(rng.integers(1, 5))
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < 0.35:
                pairs.setdefault(frozenset((names[i], names[j])), int(rng.integers(1, 5)))
    return cf.build_graph(oracles.bigram_counts(pairs))


def test_criterion_1_modularity_hand_values():
    two_edges = graph_from_edges([("a", "b", 1), ("c", "d", 1)])
    q_pair = cf.modularity(two_edges, cf.Partition({"a": 0, "b": 0, "c": 1, "d": 1}))
    q_single = cf.modularity(two_edges, cf.Partition({"a": 0, "b": 1, "c": 2, "d": 3}))
    one_edge = graph_from_edges([("a", "b", 1)])
    q_one = cf.modularity(one_edge, cf.Partition({"a": 0, "b": 0}))
    ok = (
        abs(q_pair - 0.5) < 1e-12
        and abs(q_single + 0.25) < 1e-12
        and abs(q_one) < 1e-12
    )
    report(1, "modularity hand values", ok,
           f"Q={q_pair:.15f}, {q_single:.15f}, {q_one:.15f}")


def test_criterion_2_clustering_oracle():
    t0 = time.perf_counter()
    suite = [random_connected_graph(s, n) for s in range(8) for n in (5, 6, 7)]
    suite += [
        graph_from_edges([("a", "b", 1), ("b", "c", 1), ("c", "d", 1)]),  # path
        graph_from_edges([("h", x, 1) for x in "abcde"]),  # star
        graph_from_edges(clique("abc") + clique("def", 2) + [("c", "d", 1)]),
    ]
    worst_ratio = 1.0
    for g in suite:
        part = cf.louvain(g, seed=0, min_community_size=1)
        _, q_best = oracles.brute_force_best_partition(g)
        if q_best > 0:
            worst_ratio = min(worst_ratio, part.quality / q_best)
    cliques_exact = True
    for g in (
        graph_from_edges(clique("abc") + clique("def")),
        graph_from_edges(clique("abcd") + clique("efgh")),
    ):
        part = cf.louvain(g, seed=0, min_community_size=1)
        _, q_best = oracles.brute_force_best_partition(g)
        cliques_exact &= abs(part.quality - q_best) < 1e-12
    elapsed = time.perf_counter() - t0
    ok = worst_ratio >= 0.95 and cliques_exact and elapsed < 5.0
    report(2, "clustering oracle", ok,
           f"worst Q ratio={worst_ratio:.4f}, cliques exact={cliques_exact}, "
           f"{elapsed:.2f}s")


def _independent_max_loglik(matrix, n_starts=6, seed=0):
    """Best log likelihood found by a general-purpose optimizer over all
    parameters (alpha_0 fixed at 0; other identification constraints are
    pure reparameterizations and do not change the maximum)."""
    y = matrix.counts.astype(float)
    n, k = y.shape

    def negll_and_grad(x):
        alpha = np.concatenate([[0.0], x[: n - 1]])
        psi = x[n - 1 : n - 1 + k]
        theta = x[n - 1 + k : 2 * n - 1 + k]
        beta = x[2 * n - 1 + k :]
        eta = alpha[:, None] + psi[None, :] + theta[:, None] * beta[None, :]
        mu = np.exp(np.clip(eta, -30, 30))
        g_eta = mu - y
        grad = np.concatenate(
            [g_eta.sum(1)[1:], g_eta.sum(0), g_eta @ beta, g_eta.T @ theta]
        )
        return -np.sum(y * eta - mu), grad

    rng = np.random.default_rng(seed)
    best = np.inf
    for s in range(n_starts):
        x0 = np.zeros(2 * n + 2 * k - 1) if s == 0 else rng.normal(
            scale=0.5, size=2 * n + 2 * k - 1
        )
        res = minimize(negll_and_grad, x0, jac=True, method="L-BFGS-B",
                       options={"maxiter": 5000, "ftol": 1e-15, "gtol": 1e-10})
        best = min(best, res.fun)
    return -best


def test_criterion_3_estimator_oracle():
    t0 = time.perf_counter()
    worst_gap = 0.0
    for seed in (11, 12, 13):
        spec = cf.SyntheticSpec.create(5, 6, 200, seed=seed)
        matrix, _ = cf.generate_matrix(spec)
        result = cf.fit(matrix, cf.FitConfig(tol=1e-12))
        reference = _independent_max_loglik(matrix, seed=seed)
        worst_gap = max(worst_gap, abs(result.loglik_trace[-1] - reference))
    elapsed = time.perf_counter() - t0
    ok = worst_gap < 1e-4 and elapsed < 10.0
    report(3, "estimator oracle", ok, f"worst |LL gap|={worst_gap:.2e}, {elapsed:.2f}s")


def test_criterion_4_theta_recovery():
    t0 = time.perf_counter()
    worst = 1.0
    for seed in range(20):
        spec = cf.SyntheticSpec.create(25, 40, 500, seed=seed)
        matrix, spec = cf.generate_matrix(spec)
        result = cf.fit(matrix, cf.FitConfig())
        rho = cf.recovery_report(spec.theta_star, result)["pearson"]
        worst = min(worst, abs(rho))
    elapsed = time.perf_counter() - t0
    ok = worst >= 0.95 and elapsed < 60.0
    report(4, "theta recovery", ok, f"worst |rho|={worst:.4f}, {elapsed:.2f}s")


def test_criterion_5_identification_and_gradients():
    ident_ok = True
    grad_ok = True
    worst_rel = 0.0
    for seed in (3, 7, 21):
        spec = cf.SyntheticSpec.create(10, 12, 300, seed=seed)
        matrix, _ = cf.generate_matrix(spec)
        result = oracles.fit_checking_ascent(matrix, cf.FitConfig())
        theta = result.params.theta
        ident_ok &= result.converged
        ident_ok &= abs(theta.mean()) < 1e-10
        ident_ok &= abs(theta.std(ddof=1) - 1.0) < 1e-8
        ident_ok &= result.params.alpha[0] == 0.0
        ident_ok &= theta[0] <= theta[-1]
        grads = oracles.gradients(matrix, result.params)
        h = 1e-5
        for block in ("alpha", "theta", "psi", "beta"):
            vec = getattr(result.params, block)
            for idx in range(len(vec)):
                up, dn = vec.copy(), vec.copy()
                up[idx] += h
                dn[idx] -= h
                fd = (
                    cf.log_likelihood(matrix, dataclasses.replace(result.params, **{block: up}))
                    - cf.log_likelihood(matrix, dataclasses.replace(result.params, **{block: dn}))
                ) / (2 * h)
                rel = abs(grads[block][idx] - fd) / max(abs(fd), abs(grads[block][idx]), 1.0)
                worst_rel = max(worst_rel, rel)
        grad_ok &= worst_rel < 1e-4
    report(5, "identification and gradients", ident_ok and grad_ok,
           f"identification={ident_ok}, worst grad rel err={worst_rel:.2e}")


def test_criterion_6_bootstrap_coverage():
    t0 = time.perf_counter()
    covered = 0
    total = 0
    for rep in range(20):
        spec = cf.SyntheticSpec.create(25, 40, 500, seed=500 + rep)
        matrix, spec = cf.generate_matrix(spec)
        result = cf.fit(matrix, cf.FitConfig())
        result = cf.bootstrap(result, B=100, seed=9000 + rep)
        metrics = cf.recovery_report(spec.theta_star, result)
        covered += metrics["ci_coverage"] * 25
        total += 25
    coverage = covered / total
    elapsed = time.perf_counter() - t0
    ok = coverage >= 0.85 and elapsed < 300.0
    report(6, "bootstrap coverage", ok, f"coverage={coverage:.3f}, {elapsed:.1f}s")


def test_criterion_7_end_to_end_community_recovery():
    t0 = time.perf_counter()
    com_a = tuple(f"alpha{i}" for i in range(6))
    com_b = tuple(f"beta{i}" for i in range(6))
    exact = 0
    community_wins = 0
    for seed in range(20):
        spec = cf.PlantedCorpusSpec(
            communities=(com_a, com_b),
            polarity=(0.6, -0.6),
            n_docs=20,
            runs_per_doc=150,
            run_length=6,
            word_concentration=0.5,
            seed=seed,
        )
        corpus, spec = cf.generate_corpus(spec)
        counts = cf.filter_bigrams(cf.count_bigrams(corpus), 30)
        part = cf.louvain(cf.build_graph(counts), seed=seed)
        got = {frozenset(v) for v in part.members.values()}
        exact += got == {frozenset(com_a), frozenset(com_b)}
        comparison = cf.compare_models(corpus, cf.RunConfig(min_bigram_count=30, seed=seed))
        rho_com = abs(np.corrcoef(
            comparison.community_result.params.theta, spec.theta_star)[0, 1])
        rho_uni = abs(np.corrcoef(
            comparison.unigram_result.params.theta, spec.theta_star)[0, 1])
        community_wins += rho_com >= rho_uni
    elapsed = time.perf_counter() - t0
    ok = exact == 20 and community_wins >= 18
    report(7, "end-to-end community recovery", ok,
           f"exact partition {exact}/20, community wins {community_wins}/20, "
           f"{elapsed:.1f}s")


def test_criterion_8_dimensionality_reduction():
    ok = True
    details = []
    for seed, n_com, size in [(0, 2, 6), (1, 5, 4), (2, 8, 3)]:
        communities = tuple(
            tuple(f"c{k}w{i}" for i in range(size)) for k in range(n_com)
        )
        rng = np.random.default_rng(seed)
        polarity = tuple(float(p) for p in rng.normal(scale=0.7, size=n_com))
        spec = cf.PlantedCorpusSpec(communities, polarity, n_docs=15,
                                    runs_per_doc=120, run_length=6, seed=seed)
        corpus, _ = cf.generate_corpus(spec)
        comparison = cf.compare_models(corpus, cf.RunConfig(min_bigram_count=30, seed=seed))
        ok &= comparison.k_community_features < comparison.vocabulary_size
        details.append(f"{comparison.k_community_features}<{comparison.vocabulary_size}")
    report(8, "dimensionality reduction", ok, ", ".join(details))


def test_criterion_9_historical_scale_shape(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    communities = []
    polarity = []
    for k in range(30):
        size = int(rng.integers(2, 7))
        communities.append(tuple(f"w{k}_{i}" for i in range(size)))
        polarity.append(float(rng.normal(scale=0.8)))
    years = list(range(1860, 1900, 2)) + list(range(1950, 2020, 4))
    theta = np.array([-1.0 if y < 1900 else 1.0 for y in years])
    theta = theta + rng.normal(scale=0.25, size=len(years))
    theta = (theta - theta.mean()) / theta.std(ddof=1)
    spec = cf.PlantedCorpusSpec(
        tuple(communities), tuple(polarity), n_docs=len(years),
        runs_per_doc=250, run_length=6, word_concentration=2.0, seed=7,
        theta_star=theta,
    )
    corpus, spec = cf.generate_corpus(
        spec, doc_metadata=[{"year": str(y)} for y in years]
    )
    corpus_path = tmp_path / "era_corpus.jsonl"
    with open(corpus_path, "w") as fh:
        for d in corpus.documents:
            fh.write(json.dumps({"id": d.id, "text": d.text,
                                 "year": d.metadata["year"]}) + "\n")
    out = tmp_path / "run"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"input = {corpus_path}\nformat = jsonl\nmin_bigram_count = 30\n"
        f"bootstrap_b = 50\nout = {out}\n"
    )
    rc1 = main(["communities", "--config", str(cfg), "--quiet"])
    rc2 = main(["scale", "--config", str(cfg), "--quiet"])
    stats = json.load(open(out / "graph_stats.json"))
    k = stats["num_communities"]
    sizes_ok = min(stats["community_sizes"]) >= 2
    rows = list(csv.DictReader(open(out / "positions.csv")))
    pre = [float(r["theta"]) for r in rows if int(r["year"]) < 1900]
    post = [float(r["theta"]) for r in rows if int(r["year"]) > 1950]
    separated = (max(pre) < 0 < min(post)) or (max(post) < 0 < min(pre))
    elapsed = time.perf_counter() - t0
    ok = (rc1 == 0 and rc2 == 0 and 20 <= k <= 100 and sizes_ok
          and separated and elapsed < 120.0)
    report(9, "historical scale shape", ok,
           f"K={k}, min size ok={sizes_ok}, era separation={separated}, "
           f"{elapsed:.1f}s")

#!/usr/bin/env python3
"""Community-feature vs unigram scaling on planted corpora.

Generates corpora with planted word communities and theta-dependent usage,
then fits both pipelines and reports which recovers the planted positions
better, along with feature counts and runtimes.
"""

import argparse
import json

import numpy as np

import communityfish as cf


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-communities", type=int, default=2)
    parser.add_argument("--community-size", type=int, default=6)
    parser.add_argument("--n-docs", type=int, default=20)
    parser.add_argument("--runs-per-doc", type=int, default=150)
    parser.add_argument("--polarity", type=float, default=0.6)
    parser.add_argument("--pi", type=int, default=30, help="bigram threshold")
    parser.add_argument("--replications", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="comparison_report.json")
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    communities = tuple(
        tuple(f"c{k}w{i}" for i in range(args.community_size))
        for k in range(args.n_communities)
    )
    if args.n_communities == 2:
        polarity = (args.polarity, -args.polarity)
    else:
        polarity = tuple(float(p) for p in rng.normal(
            scale=args.polarity, size=args.n_communities))

    rows = []
    wins = both = 0
    for rep in range(args.replications):
        seed = args.seed + rep
        spec = cf.PlantedCorpusSpec(
            communities, polarity, n_docs=args.n_docs,
            runs_per_doc=args.runs_per_doc, run_length=6,
            word_concentration=0.5, seed=seed,
        )
        corpus, spec = cf.generate_corpus(spec)
        comparison = cf.compare_models(corpus, args.pi, cf.FitConfig(seed=seed))
        # a branch that failed has no rho; its error goes into the row
        rho = {
            branch: None if result is None else float(abs(np.corrcoef(
                result.params.theta, spec.theta_star)[0, 1]))
            for branch, result in (("community", comparison.community_result),
                                   ("unigram", comparison.unigram_result))
        }
        if None not in rho.values():
            both += 1
            wins += int(rho["community"] >= rho["unigram"])
        rows.append({
            "seed": seed,
            "rho_community": rho["community"],
            "rho_unigram": rho["unigram"],
            "k_features": comparison.k_community_features,
            "vocabulary": comparison.vocabulary_size,
            "runtime_community": comparison.runtime_community,
            "runtime_unigram": comparison.runtime_unigram,
            "errors": {branch: str(exc) for branch, exc in comparison.errors.items()},
        })
        print(f"seed {seed}: " + " vs ".join(
            f"{branch} {value:.4f}" if value is not None
            else f"{branch} failed ({comparison.errors[branch]})"
            for branch, value in rho.items()))

    def mean(key):
        values = [r[key] for r in rows if r[key] is not None]
        return float(np.mean(values)) if values else None

    summary = {
        "replications": rows,
        "both_fitted": both,
        "community_wins": wins,
        "mean_rho_community": mean("rho_community"),
        "mean_rho_unigram": mean("rho_unigram"),
    }
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"\ncommunity wins {wins}/{both} with both branches fitted -> {args.out}")


if __name__ == "__main__":
    main()

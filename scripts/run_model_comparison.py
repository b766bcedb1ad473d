#!/usr/bin/env python3
"""Community-feature vs unigram scaling on planted corpora.

Generates corpora with planted word communities and theta-dependent usage,
then fits both pipelines and reports which recovers the planted positions
better, along with each comparison's summary, as ``compare``'s report.json
holds it.
"""

import argparse
import dataclasses
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

    communities = tuple(
        tuple(f"c{k}w{i}" for i in range(args.community_size))
        for k in range(args.n_communities)
    )
    try:  # a size, threshold, seed or polarity out of its domain
        config = cf.RunConfig(min_bigram_count=args.pi, seed=args.seed)
        if args.n_communities == 2:
            polarity = (args.polarity, -args.polarity)
        else:
            polarity = tuple(float(p) for p in np.random.default_rng(args.seed).normal(
                scale=args.polarity, size=args.n_communities))
        base = cf.PlantedCorpusSpec(
            communities, polarity, n_docs=args.n_docs,
            runs_per_doc=args.runs_per_doc, run_length=6,
            word_concentration=0.5, seed=args.seed,
        )
    except ValueError as exc:
        parser.error(str(exc))

    rows = []
    # a fit that stopped at max_iter, or whose linear predictor was clamped,
    # has no trustworthy rho: wins and means count only the sound rows, those
    # whose comparison is both_converged
    sound = []
    both = 0
    for rep in range(args.replications):
        seed = args.seed + rep
        corpus, spec = cf.generate_corpus(dataclasses.replace(base, seed=seed))
        comparison = cf.compare_models(corpus, dataclasses.replace(config, seed=seed))
        planted = dict(zip((d.id for d in corpus.documents), spec.theta_star))
        # rho is over the documents a branch fitted, which trimming may have
        # thinned; a branch that failed has no rho, and its error goes into the row
        rho = {
            branch: float(abs(np.corrcoef(list(theta.values()),
                                          [planted[d] for d in theta])[0, 1])) if theta else None
            for branch, theta in comparison.thetas.items()
        }
        both += None not in rho.values()
        rows.append({"seed": seed, "rho_community": rho["community"],
                     "rho_unigram": rho["unigram"], **comparison.summary()})
        if comparison.both_converged:
            sound.append(rows[-1])
        print(f"seed {seed}: " + " vs ".join(
            f"{branch} {value:.4f}" if value is not None
            else f"{branch} failed ({comparison.errors[branch]})"
            for branch, value in rho.items()))

    wins = sum(r["rho_community"] >= r["rho_unigram"] for r in sound)

    def mean(key):
        return float(np.mean([r[key] for r in sound])) if sound else None

    summary = {
        "replications": rows,
        "both_fitted": both,
        "both_converged": len(sound),
        "community_wins": wins,
        "mean_rho_community": mean("rho_community"),
        "mean_rho_unigram": mean("rho_unigram"),
    }
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"\ncommunity wins {wins}/{len(sound)} with both branches converged "
          f"({both} fitted) -> {args.out}")


if __name__ == "__main__":
    main()

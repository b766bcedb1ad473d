#!/usr/bin/env python3
"""Position-recovery experiment on planted-truth count matrices.

Fits the scaling model on seeded synthetic matrices, reports recovery
correlations, and optionally checks bootstrap CI coverage.
"""

import argparse
import json

import numpy as np

import communityfish as cf


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-docs", type=int, default=25)
    parser.add_argument("--n-features", type=int, default=40)
    parser.add_argument("--row-total", type=int, default=500)
    parser.add_argument("--replications", type=int, default=20)
    parser.add_argument("--bootstrap-b", type=int, default=0,
                        help="replicates per fit; 0 skips coverage")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="recovery_report.json")
    args = parser.parse_args()

    rows = []
    for rep in range(args.replications):
        seed = args.seed + rep
        spec = cf.SyntheticSpec.create(
            args.n_docs, args.n_features, args.row_total, seed=seed
        )
        # a replication whose draw, fit or bootstrap fails records the error
        try:
            matrix, spec = cf.generate_matrix(spec)
            result = cf.fit(matrix)
            if args.bootstrap_b > 0:
                result = cf.bootstrap(result, B=args.bootstrap_b, seed=seed)
        except ValueError as exc:
            rows.append({"seed": seed, "error": str(exc)})
            print(f"seed {seed}: failed ({exc})")
            continue
        metrics = cf.recovery_report(spec.theta_star, result)
        metrics["seed"] = seed
        metrics["converged"] = result.converged
        metrics["error"] = None
        rows.append(metrics)
        print(f"seed {seed}: pearson={metrics['pearson']:.4f} "
              f"rmse={metrics['rmse_affine']:.4f}"
              + (f" coverage={metrics['ci_coverage']:.3f}"
                 if "ci_coverage" in metrics else ""))

    # the summary is over the replications that fitted; null when none did
    fitted = [r for r in rows if r["error"] is None]

    def over_fitted(stat, key):
        return float(stat([r[key] for r in fitted])) if fitted else None

    summary = {
        "replications": rows,
        "mean_pearson": over_fitted(np.mean, "pearson"),
        "min_pearson": over_fitted(np.min, "pearson"),
    }
    if args.bootstrap_b > 0:
        summary["mean_coverage"] = over_fitted(np.mean, "ci_coverage")
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=2)
    if fitted:
        print(f"\n{len(fitted)}/{len(rows)} fitted: mean pearson {summary['mean_pearson']:.4f}, "
              f"min {summary['min_pearson']:.4f} -> {args.out}")
    else:
        print(f"\nno replication fitted -> {args.out}")


if __name__ == "__main__":
    main()

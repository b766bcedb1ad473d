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
        matrix, spec = cf.generate_matrix(spec)
        result = cf.fit(matrix)
        if args.bootstrap_b > 0:
            result = cf.bootstrap(result, B=args.bootstrap_b, seed=seed)
        metrics = cf.recovery_report(spec.theta_star, result)
        metrics["seed"] = seed
        metrics["converged"] = result.converged
        rows.append(metrics)
        print(f"seed {seed}: pearson={metrics['pearson']:.4f} "
              f"rmse={metrics['rmse_affine']:.4f}"
              + (f" coverage={metrics['ci_coverage']:.3f}"
                 if "ci_coverage" in metrics else ""))

    summary = {
        "replications": rows,
        "mean_pearson": float(np.mean([r["pearson"] for r in rows])),
        "min_pearson": float(np.min([r["pearson"] for r in rows])),
    }
    if args.bootstrap_b > 0:
        summary["mean_coverage"] = float(np.mean([r["ci_coverage"] for r in rows]))
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"\nmean pearson {summary['mean_pearson']:.4f}, "
          f"min {summary['min_pearson']:.4f} -> {args.out}")


if __name__ == "__main__":
    main()

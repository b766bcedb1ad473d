#!/usr/bin/env python3
"""Position-recovery experiment on planted-truth count matrices.

Runs ``communityfish.synthbench.simulate``, the run behind ``communityfish
simulate``, on seeded synthetic matrices, reports recovery correlations, and
optionally checks bootstrap CI coverage.
"""

import argparse
import json

import numpy as np

import communityfish as cf
from communityfish.synthbench import SimulationSpec, simulate


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
    try:
        sim = SimulationSpec(args.n_docs, args.n_features, args.row_total)
    except ValueError as exc:
        parser.error(str(exc))

    rows = []
    # a fit that stopped at max_iter, or whose linear predictor was clamped,
    # has no trustworthy recovery: the means and the minimum count only the
    # sound rows, those that converged with the clamp inactive
    sound = []
    for rep in range(args.replications):
        seed = args.seed + rep
        # a replication whose draw, fit or bootstrap fails records the error
        try:
            row = {"seed": seed, **simulate(sim, cf.FitConfig(), seed, args.bootstrap_b),
                   "error": None}
        except ValueError as exc:
            rows.append({"seed": seed, "error": str(exc)})
            print(f"seed {seed}: failed ({exc})")
            continue
        rows.append(row)
        if row["converged"] and not row["clamp_activated"]:
            sound.append(row)
        print(f"seed {seed}: pearson={row['pearson']:.4f} "
              f"rmse={row['rmse_affine']:.4f}"
              + (f" coverage={row['ci_coverage']:.3f}" if "ci_coverage" in row else ""))

    def over_sound(stat, key):
        return float(stat([r[key] for r in sound])) if sound else None

    summary = {
        "replications": rows,
        "converged": len(sound),
        "mean_pearson": over_sound(np.mean, "pearson"),
        "min_pearson": over_sound(np.min, "pearson"),
    }
    if args.bootstrap_b > 0:
        summary["mean_coverage"] = over_sound(np.mean, "ci_coverage")
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=2)
    fitted = sum(r["error"] is None for r in rows)
    if sound:
        print(f"\n{len(sound)}/{len(rows)} converged ({fitted} fitted): mean pearson "
              f"{summary['mean_pearson']:.4f}, min {summary['min_pearson']:.4f} -> {args.out}")
    else:
        print(f"\nno replication converged ({fitted} fitted) -> {args.out}")


if __name__ == "__main__":
    main()

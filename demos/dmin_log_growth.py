"""Measure how the minimal sufficient attention width grows with length.

For each sequence length the harness draws fresh targets, walks an
ascending width grid, and records the first width at which some projection
redraw satisfies both ratio conditions.  The found widths hug a straight
line in log(L) while staying far below the theoretical upper bound, which
grows with the same log factor but a much larger constant.

Takes a minute or two on a desktop CPU.  The sweep's records run in spawned
worker processes, which re-import this script, so the work sits under a main
guard.
"""

import math
import sys

from sparseattn import ApproxParams, SweepConfig, log_fit, run_sweep, theoretical_d


def main():
    cfg = SweepConfig(
        params=ApproxParams(L=256, k=1, gamma=1.0, eps1=0.15, eps2=1.41),
        L_grid=[32, 64, 128, 256],
        d_lower=10,
        d_upper=400,
        d_points=30,
        q=1.0,
        trials_per_L=3,
        master_seed=7,
    )

    try:
        records = run_sweep(cfg, csv_path="dmin_growth.csv")
    except ValueError as exc:  # a CSV left by another config or version
        print(f"error: {exc} (to start afresh, remove dmin_growth.csv and "
              "dmin_growth.csv.json)", file=sys.stderr)
        return 2

    print(f"{'L':>6} {'trial':>5} {'d_min':>6} {'bound':>8} {'redraws':>8}")
    for r in records:
        d = r.d_min if r.d_min is not None else "-"
        print(f"{r.L:>6} {r.trial:>5} {d:>6} {r.theoretical_d:>8.0f} {r.redraws_used:>8}")

    a, b, r2 = log_fit(records)
    print(f"\nleast-squares fit: d_min = {a:.1f} + {b:.1f} * log(L)   (r2 = {r2:.3f})")

    # The bound is a constant prefactor times 2 log L + log(L-1) + log 2 ~ 3 log L,
    # so its asymptotic slope is 3x the prefactor; at L = 2 that factor is 3 log 2.
    slope = theoretical_d(cfg.params, 2) / math.log(2)
    print(f"theoretical-bound slope for comparison: {slope:.0f} per log L")
    print("records saved to dmin_growth.csv (rerunning resumes/skips completed cells)")


if __name__ == "__main__":
    sys.exit(main())

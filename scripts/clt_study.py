#!/usr/bin/env python3
"""Asymptotic-normality study of the spacings CPI estimator.

For the exponential spacing model (rate 1, record index 2, alpha = 0.5) this
replicates the estimator at growing sample sizes, standardizes with the exact
moments, and reports the KS distance of the z-scores from N(0,1) alongside
the Lyapunov third-moment quotient and its n^(-1/6) reference decay.

Usage: python scripts/clt_study.py [--replicates 1000] [--seed 0]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from concomitant_measures.empirical import ks_critical_value, lyapunov_ratio, mc_validate
from concomitant_measures.fgm import record_value
from concomitant_measures.marginals import GeneralizedExponential
from concomitant_measures.numerics import RngStream


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--replicates", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alpha", type=float, default=0.5)
    parser.add_argument("--r", type=int, default=2)
    args = parser.parse_args()

    marginal = GeneralizedExponential(theta=1.0, lam=1.0)
    gos = record_value(args.r)
    crit = ks_critical_value(args.replicates)

    print(f"KS(z-scores vs N(0,1)), {args.replicates} replicates, 1% critical {crit:.4f}")
    print(f"{'n':>6} {'emp mean':>10} {'theo mean':>10} {'emp var':>10} {'theo var':>10} "
          f"{'KS':>8} {'lyapunov':>9}")
    for n in (25, 50, 100, 200, 400, 800):
        report = mc_validate(marginal, gos, args.alpha, n, args.replicates,
                             RngStream(args.seed, n))
        lyap = lyapunov_ratio(n, 1.0, args.alpha, args.r)
        mark = "" if report.ks_normality < crit else "  <-- above critical"
        print(f"{n:>6} {report.empirical_mean:>10.4f} {report.theoretical_mean:>10.4f} "
              f"{report.empirical_variance:>10.5f} {report.theoretical_variance:>10.5f} "
              f"{report.ks_normality:>8.4f} {lyap:>9.4f}{mark}")

    print()
    print("Lyapunov quotient decay vs the n^(-1/6) reference:")
    base = lyapunov_ratio(10, 1.0, args.alpha, args.r)
    for n in (10, 40, 160, 640, 2560, 10240):
        ratio = lyapunov_ratio(n, 1.0, args.alpha, args.r) / base
        print(f"  n={n:>6}: ratio {ratio:.4f}   (n/10)^(-1/6) = {(n / 10.0) ** (-1 / 6):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

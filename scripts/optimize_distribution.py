#!/usr/bin/env python3
"""Search degree distributions on a restricted support and compare designs.

Optimizes the threshold-plus-floor objective on degrees {3, 8} at n=200,
eps=0 (floor-dominant weights by default) and prints the winner next to the
classic low-floor reference distribution.
"""

import argparse

import numpy as np

from csa_floor.density_evolution import threshold
from csa_floor.distributions import ChannelModel, format_distribution, parse_distribution
from csa_floor.optimizer import ObjectiveSpec, optimize
from csa_floor.predictor import analytic_report


def describe(name, dist, spec):
    g_star = threshold(dist)
    floor = analytic_report(spec.m, spec.n, dist, ChannelModel(0.0)).average
    print(f"{name:>24}: {format_distribution(dist, digits=4):<28} "
          f"threshold={g_star:.4f} analytic_floor@g={spec.g_target}: {floor:.3e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--support", default="3,8")
    ap.add_argument("--w-threshold", type=float, default=0.4)
    ap.add_argument("--w-floor", type=float, default=0.6)
    ap.add_argument("--g-target", type=float, default=0.5)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--budget", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    spec = ObjectiveSpec(
        support=tuple(int(d) for d in args.support.split(",")),
        w_threshold=args.w_threshold,
        w_floor=args.w_floor,
        g_target=args.g_target,
        n=args.n,
        epsilon=0.0,
    )
    result = optimize(spec, budget=args.budget, rng=np.random.default_rng(args.seed))
    print(f"evaluations: {len(result.trace)}  best score: {result.best_score:.5f}\n")
    describe("optimized", result.best, spec)
    describe("reference 3/8 design", parse_distribution("3:0.87,8:0.13"), spec)
    describe("low-floor classic", parse_distribution("2:0.25,3:0.6,8:0.15"), spec)


if __name__ == "__main__":
    main()

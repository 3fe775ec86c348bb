"""Measure the regression/feasibility loss identity across a parameter sweep.

For each (instance size, lambda, noise kind) cell this draws fresh random
instances and random tabular models (``with_random_params``: drawdowns
jittered around -0.1 on a log scale), evaluates both losses exactly, and
records the absolute gap between the regression loss and the shifted
feasibility loss. The gap should sit at float-rounding level everywhere;
the variance floor and the overshoot hinge are reported alongside so the
two sides can be audited term by term.

Usage:
    python scripts/identity_sweep.py --out out/identity_sweep.jsonl
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tarpath.instance import InstanceSpec, NoiseModel, random_instance
from tarpath.losses import surrogate_gap
from tarpath.model import TabularAdvantage
from tarpath.serialize import dump_jsonl

LAMBDAS = (0.5, 1.0, 10.0, 100.0, 1000.0)
SIZES = ((2, 2, 3), (3, 3, 6), (4, 4, 12), (4, 6, 25))  # (actions, depth, paths)
NOISES = ("noiseless", "bernoulli")


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="JSONL results path")
    parser.add_argument("--reps", type=int, default=5, help="instances per cell")
    parser.add_argument("--seed", type=int, default=0)
    return parser.parse_args()


def with_noise(instance, kind):
    noise = NoiseModel.noiseless() if kind == "noiseless" else NoiseModel.bernoulli()
    return dataclasses.replace(instance, noise=noise)


def main():
    args = parse_args()
    rows = []
    worst = 0.0
    counter = 0
    for n_actions, max_depth, n_paths in SIZES:
        available = sum((n_actions - 1) ** d for d in range(max_depth + 1))
        spec = InstanceSpec(
            n_actions=n_actions,
            max_depth=max_depth,
            n_paths=min(n_paths, available),
            noise=NoiseModel.noiseless(),
        )
        for rep in range(args.reps):
            counter += 1
            inst_seed = args.seed + 7919 * counter
            base = random_instance(spec, inst_seed)
            rng = np.random.default_rng(inst_seed)
            model = TabularAdvantage.default(base.trie).with_random_params(rng)
            for kind in NOISES:
                instance = with_noise(base, kind)
                for lam in LAMBDAS:
                    report = surrogate_gap(model, instance, lam=lam)
                    worst = max(worst, report["gap"])
                    rows.append(
                        {
                            "n_actions": n_actions,
                            "max_depth": max_depth,
                            "n_paths": spec.n_paths,
                            "rep": rep,
                            "noise": kind,
                            "lambda": lam,
                            "lhs": report["lhs"],
                            "rhs": report["rhs"],
                            "sigma2_term": report["sigma2_term"],
                            "hinge_excess_term": report["hinge_excess_term"],
                            "gap": report["gap"],
                        }
                    )

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    dump_jsonl(rows, args.out)

    print(f"{len(rows)} cells -> {args.out}")
    print(f"worst |gap| anywhere: {worst:.3e}")
    by_lam = {}
    for row in rows:
        by_lam.setdefault(row["lambda"], []).append(row["gap"])
    print(f"{'lambda':>8}  {'cells':>5}  {'max gap':>12}")
    for lam in LAMBDAS:
        gaps = by_lam[lam]
        print(f"{lam:>8g}  {len(gaps):>5}  {max(gaps):>12.3e}")


if __name__ == "__main__":
    main()

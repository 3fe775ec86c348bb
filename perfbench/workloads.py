"""Seeded workloads: each turns a seed into the CLI argument lists of its pipelines.

A pipeline is the user's whole workflow,
``gen -> oracle -> sample -> train -> plan -> attribute -> verify``, on each
instance of a batch (one instance for the large workloads), and the program
receives nothing but the files those calls write and the arguments built
here. Inputs depend only on the seed and the pipeline's index, so the same
seed replays the same stream of instances.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

# Criterion-6 training settings (tests/test_acceptance.py); every workload uses them.
LAMBDA = 100.0
KAPPA = 1000.0
TOL = 1e-7


@dataclass(frozen=True)
class Stage:
    """One CLI call on the instance whose files live in ``workdir``. ``argv``
    may hold the placeholder PLAN_PATH, which the runner replaces with the
    tokens of the path that this instance's ``plan`` call wrote."""

    name: str
    argv: tuple[str, ...]
    workdir: str


PLAN_PATH = "<plan path>"


@dataclass(frozen=True)
class Workload:
    name: str
    # layer expected to hold the largest share of self time in the traced run
    dominant: str
    actions: int
    depth: int
    max_iters: int
    # every pipeline repeats the first one's inputs (one instance per seed)
    repeat: bool
    # a pipeline takes one instance of each path count in this range, in order,
    # so every pipeline has the same mix of sizes whatever its seed
    paths: tuple[int, int]
    rows: int
    # every instance also trains the (nonconvex) linear family
    linear: bool = False

    def shape(self) -> dict:
        return {
            "actions": self.actions,
            "depth": self.depth,
            "paths": list(self.paths),
            "instances_per_pipeline": self.paths[1] - self.paths[0] + 1,
            "rows": self.rows,
            "max_iters": self.max_iters,
            "linear_train": self.linear,
            "inputs": "one instance per seed, repeated" if self.repeat else "new instances per pipeline",
            "loop": "closed",
            "clients": 1,
        }

    def pipeline(self, seed: int, index: int, workdir: str) -> list[Stage]:
        lo, hi = self.paths
        stages = []
        for j, n_paths in enumerate(range(lo, hi + 1)):
            key = 0 if self.repeat else index * (hi - lo + 1) + j
            stages += self._instance(np.random.default_rng([seed, key]), n_paths, os.path.join(workdir, f"i{j}"))
        return stages

    def _instance(self, rng: np.random.Generator, n_paths: int, d: str) -> list[Stage]:
        gen_seed, sample_seed = (int(s) for s in rng.integers(0, 2**31 - 1, size=2))
        f = lambda name: os.path.join(d, name)  # noqa: E731
        train = (
            "train", "--instance", f("instance.json"), "--data", f("data.jsonl"),
            "--lambda", repr(LAMBDA), "--kappa", repr(KAPPA), "--tol", repr(TOL),
            "--max-iters", str(self.max_iters),
        )
        calls = [
            ("gen", ("gen", "--actions", str(self.actions), "--depth", str(self.depth),
                     "--paths", str(n_paths), "--seed", str(gen_seed), "--out", f("instance.json"))),
            ("oracle", ("oracle", "--instance", f("instance.json"), "--out", f("oracle.json"))),
            ("sample", ("sample", "--instance", f("instance.json"), "--n", str(self.rows),
                        "--seed", str(sample_seed), "--out", f("data.jsonl"), "--rl-out", f("rl.jsonl"))),
            ("train", train + ("--out", f("model.json"), "--report", f("report.json"))),
        ]
        if self.linear:
            calls.append(("train_linear", train + (
                "--family", "linear", "--out", f("linear_model.json"), "--report", f("linear_report.json"),
            )))
        calls += [
            ("plan", ("plan", "--model", f("model.json"), "--instance", f("instance.json"),
                      "--out", f("plan.json"))),
            ("attribute", ("attribute", "--model", f("model.json"), "--path", PLAN_PATH,
                           "--out", f("attribution.json"))),
            ("verify", ("verify", "--instance", f("instance.json"), "--report", f("verify.json"))),
        ]
        return [Stage(name, argv, d) for name, argv in calls]


# BENCHMARK.json gives each workload's one-line reason. small-batch is bound
# by the training loop and blind to data size; wide-log by per-row data work
# (dataset I/O, objective compile, evaluation over rows); deep-support by work
# that grows with the support (instance I/O, sampling, tries, oracle and
# exact-mode verify, whose loss identity check is the largest layer), while its
# trainer does little. small-batch takes its instances five at a time: a lone
# small instance's time depends on whether its training converges early or
# runs to the iteration cap, so a batch of five gives steadier samples.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small-batch",
            dominant="losses",
            actions=3, depth=4, paths=(2, 6), rows=200, max_iters=4000,
            repeat=False, linear=True,
        ),
        Workload(
            name="wide-log",
            dominant="losses",
            actions=5, depth=6, paths=(2000, 2000), rows=50_000, max_iters=50,
            repeat=True,
        ),
        Workload(
            name="deep-support",
            dominant="losses",
            actions=5, depth=8, paths=(3000, 3000), rows=3000, max_iters=20,
            repeat=True,
        ),
    )
}

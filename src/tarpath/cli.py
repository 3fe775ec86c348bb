"""Command-line pipeline: gen, sample, oracle, train, plan, attribute, verify.

One subcommand per pipeline stage, JSON artifacts everywhere, no environment
configuration. Exit codes: 0 on success, 1 on domain errors (bad instances,
failed verification, divergence), 2 on usage errors. Every output is written
atomically, and fixed seeds make reruns byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import serialize
from .attribution import attribute
from .errors import InvalidInputError, TarPathError
from .instance import (
    InstanceSpec,
    NoiseModel,
    PathDistribution,
    load_dataset,
    load_instance,
    random_instance,
    sample_dataset,
    save_dataset,
    save_instance,
)
from .losses import (
    TrainConfig,
    surrogate_gap,
    tar_objective,
    train,
)
from .model import (
    LinearAdvantage,
    TabularAdvantage,
    load_model,
    save_model,
)
from .oracle import (
    check_decomposition,
    compute_optimal,
    save_oracle,
)
from .pathspace import ActionAlphabet, PrefixTrie, json_seq
from .planner import default_max_len, evaluate_plan, greedy_path
from .reduction import build_offline_dataset, save_rl_dataset

DECOMPOSITION_TOL = 1e-12
GAP_TOL = 1e-9


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.noise == NoiseModel.TRUNCATED_GAUSSIAN:
        noise = NoiseModel.truncated_gaussian(args.stddev)
    elif args.stddev is not None:
        raise InvalidInputError("--stddev only applies to truncated_gaussian noise")
    else:
        noise = NoiseModel(kind=args.noise)
    spec = InstanceSpec(
        n_actions=args.actions,
        max_depth=args.depth,
        n_paths=args.paths,
        yield_range=(args.yield_min, args.yield_max),
        noise=noise,
    )
    save_instance(random_instance(spec, args.seed), args.out)
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    data = sample_dataset(instance, args.n, args.seed)
    save_dataset(data, args.out)
    if args.rl_out:
        save_rl_dataset(build_offline_dataset(instance, data, args.seed), args.rl_out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    save_oracle(compute_optimal(load_instance(args.instance)), args.out)
    return 0


def _load_p0(path: str, alphabet: ActionAlphabet) -> PathDistribution:
    """A ``--p0`` file: a nonempty JSON list of rows ``{"state": [...],
    "weight": w}``, each state proper over ``alphabet``. Errors name the
    file, and a bad row its number (1-based)."""
    rows = serialize.load_json(path)
    if not isinstance(rows, list) or not rows:
        raise InvalidInputError(f"{path}: p0 must be a nonempty list of rows")
    states, weights, first_row = [], [], {}
    for i, row in enumerate(rows, 1):
        try:
            state, weight = json_seq(row["state"]), float(row["weight"])
            proper = alphabet.is_proper(state)
        except InvalidInputError as exc:  # an unknown token
            raise InvalidInputError(f"{path}: p0 row {i}: {exc}") from exc
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"{path}: malformed p0 row {i}: {row!r}") from exc
        first = first_row.setdefault(state, i)
        if first != i:
            raise InvalidInputError(f"{path}: p0 row {i} repeats state {state!r} of row {first}")
        if not proper:
            raise InvalidInputError(f"{path}: p0 row {i}: state {state!r} is improper")
        if not 0.0 <= weight <= 1.0:  # NaN fails too
            raise InvalidInputError(f"{path}: p0 row {i}: weight must be in [0, 1], got {weight!r}")
        states.append(state)
        weights.append(weight)
    try:
        return PathDistribution(paths=tuple(states), weights=tuple(weights))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def _cmd_train(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    data = load_dataset(args.data, instance)
    # build orders the trie's nodes itself
    trie = PrefixTrie.build(instance.alphabet, data.paths)
    if args.family == "tabular":
        model = TabularAdvantage.default(trie)
    else:
        model = LinearAdvantage.default(instance.alphabet, kind=args.features)
    p0 = (
        PathDistribution.uniform(trie.nodes)
        if args.p0 == "trie"
        else _load_p0(args.p0, instance.alphabet)
    )
    kappa = 10.0 * args.lam if args.kappa is None else args.kappa
    config = TrainConfig(max_iters=args.max_iters, tol=args.tol)
    result = train(model, tar_objective(model, p0, data, args.lam, kappa), config)
    save_model(result.model, args.out)
    if args.report:
        serialize.dump_json({**result.report_json(), "lambda": args.lam, "kappa": kappa}, args.report)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    instance = load_instance(args.instance)
    model.require_alphabet(instance.alphabet)
    max_len = default_max_len(model, instance) if args.max_len is None else args.max_len
    result = greedy_path(model, max_len)
    result = evaluate_plan(result, instance)
    serialize.dump_json(result.to_json(), args.out)
    return 0


def _cmd_attribute(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    report = attribute(model, tuple(args.path))
    serialize.dump_json(report.to_json(), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.gap_tol) and args.gap_tol >= 0.0):
        raise InvalidInputError(f"--gap-tol must be finite and nonnegative, got {args.gap_tol!r}")
    instance = load_instance(args.instance)
    ov = compute_optimal(instance)
    model = load_model(args.model) if args.model else TabularAdvantage.from_oracle(ov)

    gap = surrogate_gap(model, instance, lam=args.lam, kappa=args.kappa, ov=ov)

    worst = float(np.max(np.abs(check_decomposition(ov))))
    passed = (
        gap["gap"] <= args.gap_tol
        and worst <= DECOMPOSITION_TOL
    )
    report = {
        "j_star": ov.j_star,
        "lambda": args.lam,
        "kappa": args.kappa,
        "gap": gap,
        "decomposition_max_abs_residual": worst,
        "passed": passed,
    }
    serialize.dump_json(report, args.report)
    if not passed:
        print(f"verification failed: {report}", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tarpath",
        description="Offline path learning: generate, sample, train, plan, explain, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random problem instance")
    gen.add_argument("--actions", type=int, required=True, help="alphabet size incl. terminal")
    gen.add_argument("--depth", type=int, required=True, help="max nonterminal steps per path")
    gen.add_argument("--paths", type=int, required=True, help="number of support paths")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.add_argument(
        "--noise",
        choices=[NoiseModel.NOISELESS, NoiseModel.BERNOULLI, NoiseModel.TRUNCATED_GAUSSIAN],
        default=NoiseModel.BERNOULLI,
    )
    gen.add_argument("--stddev", type=float, default=None)
    gen.add_argument("--yield-min", type=float, default=0.0)
    gen.add_argument("--yield-max", type=float, default=1.0)
    gen.set_defaults(func=_cmd_gen)

    sample = sub.add_parser("sample", help="draw a path-yield dataset")
    sample.add_argument("--instance", required=True)
    sample.add_argument("--n", type=int, required=True)
    sample.add_argument("--seed", type=int, required=True)
    sample.add_argument("--out", required=True)
    sample.add_argument("--rl-out", default=None, help="also emit one-step transitions")
    sample.set_defaults(func=_cmd_sample)

    oracle = sub.add_parser("oracle", help="write the exact tabular model; off the trie it reads -B, not -v")
    oracle.add_argument("--instance", required=True)
    oracle.add_argument("--out", required=True)
    oracle.set_defaults(func=_cmd_oracle)

    tr = sub.add_parser("train", help="fit a model to a dataset")
    tr.add_argument("--instance", required=True)
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--report", default=None)
    tr.add_argument("--lambda", dest="lam", type=float, default=100.0)
    tr.add_argument("--kappa", type=float, default=None, help="default: 10*lambda")
    tr.add_argument("--family", choices=["tabular", "linear"], default="tabular")
    tr.add_argument(
        "--features", choices=["edge_pair", "depth_edge_pair"], default="edge_pair"
    )
    tr.add_argument("--p0", default="trie", help="'trie' or a JSON file of weighted states")
    tr.add_argument(
        "--max-iters", type=int, default=50_000,
        help="iteration cap of the linear family's solver; the tabular solve is exact and finite",
    )
    tr.add_argument("--tol", type=float, default=1e-8)
    tr.set_defaults(func=_cmd_train)

    plan = sub.add_parser("plan", help="extract and score the greedy path")
    plan.add_argument("--model", required=True)
    plan.add_argument("--instance", required=True)
    plan.add_argument("--out", required=True)
    plan.add_argument("--max-len", type=int, default=None)
    plan.set_defaults(func=_cmd_plan)

    attr = sub.add_parser("attribute", help="explain a path's predicted value")
    attr.add_argument("--model", required=True)
    attr.add_argument("--path", nargs="+", required=True, help="tokens, e.g. --path a b END")
    attr.add_argument("--out", required=True)
    attr.set_defaults(func=_cmd_attribute)

    verify = sub.add_parser("verify", help="check the loss identity, and the value decomposition at every trie node")
    verify.add_argument("--instance", required=True)
    verify.add_argument("--lambda", dest="lam", type=float, default=100.0)
    verify.add_argument("--kappa", type=float, default=0.0)
    verify.add_argument("--model", default=None, help="a model file, oracle's too; default: the oracle's model")
    verify.add_argument("--report", required=True)
    verify.add_argument("--gap-tol", type=float, default=GAP_TOL)
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TarPathError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

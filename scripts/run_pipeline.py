"""Run the whole pipeline on one instance and print what happened at each stage.

Either point --instance at an instance JSON (e.g. fixtures/e2.json) or let the
script generate a random one. Artifacts land in --outdir; reruns with the same
seeds produce byte-identical files.

Usage:
    python scripts/run_pipeline.py --outdir out/demo
    python scripts/run_pipeline.py --instance fixtures/e2.json --outdir out/e2
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from tarpath.attribution import attribute
from tarpath.instance import (
    InstanceSpec,
    NoiseModel,
    PathDistribution,
    load_instance,
    random_instance,
    sample_dataset,
    save_dataset,
    save_instance,
)
from tarpath.losses import TrainConfig, surrogate_gap, tar_objective, train
from tarpath.model import TabularAdvantage, save_model
from tarpath.oracle import compute_optimal, save_oracle
from tarpath.pathspace import PrefixTrie
from tarpath.planner import default_max_len, evaluate_plan, greedy_path
from tarpath.serialize import dump_json


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instance", default=None, help="instance JSON; omit to generate one")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--seed", type=int, default=0, help="generation/sampling seed")
    parser.add_argument("--n", type=int, default=400, help="observations to sample")
    parser.add_argument("--lambda", dest="lam", type=float, default=10.0)
    parser.add_argument("--kappa", type=float, default=100.0)
    parser.add_argument("--tol", type=float, default=1e-7)
    return parser.parse_args()


def main():
    args = parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    out = lambda name: os.path.join(args.outdir, name)

    if args.instance:
        instance = load_instance(args.instance)
        print(f"loaded instance from {args.instance}")
    else:
        spec = InstanceSpec(n_actions=3, max_depth=4, n_paths=6, noise=NoiseModel.bernoulli())
        instance = random_instance(spec, args.seed)
        print(f"generated a random instance (seed {args.seed})")
    save_instance(instance, out("instance.json"))
    print(f"  support paths: {len(instance.psi)}, trie nodes: {len(instance.trie.nodes)}")

    ov = compute_optimal(instance)
    save_oracle(ov, out("oracle.json"))
    print(f"  optimal yield J*: {ov.j_star:.6f}")

    data = sample_dataset(instance, args.n, args.seed + 1)
    save_dataset(data, out("data.jsonl"))
    print(f"sampled {len(data)} noisy observations")

    trie = PrefixTrie.build(instance.alphabet, dict.fromkeys(p for p, _ in data.pairs))
    model = TabularAdvantage.default(trie)
    p0 = PathDistribution.uniform(trie.nodes)
    result = train(model, tar_objective(model, p0, data, args.lam, args.kappa), TrainConfig(tol=args.tol))
    save_model(result.model, out("model.json"))
    dump_json({**result.report_json(), "lambda": args.lam, "kappa": args.kappa}, out("train_report.json"))
    print(
        f"trained tabular model by {result.solver}: loss {result.final_loss:.8f}, "
        f"{result.blocks} blocks after {result.iterations} merges, "
        f"{result.zero_drawdowns} drawdowns exactly 0 "
        f"(grad max-norm {result.grad_norm:.2e}, converged={result.converged})"
    )

    plan = evaluate_plan(greedy_path(result.model, default_max_len(result.model, instance)), instance)
    dump_json(plan.to_json(), out("plan.json"))
    print(
        f"greedy plan {' '.join(plan.path)}: predicted {plan.predicted_value:.6f}, "
        f"achieved {plan.true_yield:.6f}, regret {plan.regret:.2e}"
    )

    report = attribute(result.model, plan.path)
    dump_json(report.to_json(), out("attribution.json"))
    print("per-step value breakdown:")
    print(f"  base estimate {report.base:+.6f}")
    for step in report.steps:
        print(f"  after {' '.join(step.prefix) or '<start>'} take {step.action}: {step.drawdown:+.6f}")

    gap = surrogate_gap(result.model, instance, lam=args.lam, ov=ov)
    dump_json(gap, out("identity_check.json"))
    print(f"loss identity gap on the trained model: {gap['gap']:.2e}")
    print(f"artifacts written to {args.outdir}")


if __name__ == "__main__":
    main()

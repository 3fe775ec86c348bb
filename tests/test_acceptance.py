"""End-to-end acceptance gate: nine checks, one test function each.

Each check prints a single PASS line with its headline numbers; run with
``-rA`` (or ``-s``) to see the lines for passing tests. The first three
checks share one pool of 200 random instances.
"""

import filecmp

import numpy as np
import pytest

from tarpath.cli import main
from tarpath.instance import (
    InstanceSpec,
    NoiseModel,
    PathDistribution,
    PathYieldDataset,
    PLInstance,
    load_dataset,
    load_instance,
    random_instance,
    save_dataset,
    save_instance,
)
from tarpath.losses import (
    PenaltyMix,
    TrainConfig,
    surrogate_gap,
    tar_loss,
    tar_objective,
    train,
    vlp_objective,
)
from tarpath.model import (
    LinearAdvantage,
    TabularAdvantage,
    load_model,
    predict_value,
    save_model,
)
from tarpath.oracle import (
    check_decomposition,
    compute_optimal,
)
from tarpath.attribution import attribute
from tarpath.pathspace import random_improper
from tarpath.planner import default_max_len, evaluate_plan, greedy_path, greedy_rollout
from tarpath.reduction import load_rl_dataset, save_rl_dataset

from .reference import enumeration_advantage, enumeration_value, fixture_e1, fixture_e2

POOL_SIZE = 200
IMPROPER_PER_INSTANCE = 1000


def _pool_instance(seed: int) -> PLInstance:
    rng = np.random.default_rng(seed)
    n_actions = int(rng.integers(2, 5))  # alphabet of at most 4 tokens
    max_depth = int(rng.integers(1, 7))
    total = sum((n_actions - 1) ** d for d in range(max_depth + 1))
    n_paths = int(rng.integers(1, min(30, total) + 1))
    spec = InstanceSpec(
        n_actions=n_actions,
        max_depth=max_depth,
        n_paths=n_paths,
        noise=NoiseModel.noiseless(),
    )
    return random_instance(spec, seed)


@pytest.fixture(scope="module")
def pool():
    instances = [_pool_instance(seed) for seed in range(POOL_SIZE)]
    return [(inst, compute_optimal(inst)) for inst in instances]


def test_criterion_1_advantage_decomposition(pool):
    worst = 0.0
    for seed, (inst, ov) in enumerate(pool):
        for node in inst.trie.nodes:
            worst = max(worst, abs(check_decomposition(ov, node)))
        rng = np.random.default_rng(seed)
        max_len = inst.trie.depth + 3
        for _ in range(IMPROPER_PER_INSTANCE):
            seq = random_improper(inst.alphabet, rng, max_len=max_len)
            worst = max(worst, abs(check_decomposition(ov, seq)))
    assert worst <= 1e-12
    print(
        f"ACCEPTANCE 1 advantage decomposition: PASS "
        f"(max |residual| {worst:.3e} over {POOL_SIZE} instances, "
        f"{IMPROPER_PER_INSTANCE} improper draws each)"
    )


def test_criterion_2_oracle_cross_validation(pool):
    states = 0
    advantages = 0
    for inst, ov in pool:
        for node in inst.trie.nodes:
            assert ov.value_at(node) == enumeration_value(inst, node)
            states += 1
            if node in inst.yields:
                continue
            for a in inst.alphabet.tokens:
                assert ov.advantage_at(node, a) == enumeration_advantage(inst, node, a)
                advantages += 1
    print(
        f"ACCEPTANCE 2 oracle cross-validation: PASS "
        f"({states} state values and {advantages} advantages equal exactly)"
    )


def test_criterion_3_greedy_rollout_optimal(pool):
    for inst, ov in pool:
        path, truncated, _ = greedy_rollout(inst.alphabet, ov.advantage_at, inst.trie.depth + 2)
        assert not truncated
        assert inst.yield_of(path) == ov.j_star
    print(
        f"ACCEPTANCE 3 greedy rollout optimality: PASS "
        f"(true yield equals the optimum exactly on all {POOL_SIZE} instances)"
    )


def test_criterion_4_loss_identity():
    lams = (1.0, 10.0, 100.0)
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        n_actions = int(rng.integers(2, 4))
        max_depth = int(rng.integers(1, 5))
        total = sum((n_actions - 1) ** d for d in range(max_depth + 1))
        spec = InstanceSpec(
            n_actions=n_actions,
            max_depth=max_depth,
            n_paths=int(rng.integers(1, min(8, total) + 1)),
            noise=NoiseModel.noiseless(),
        )
        noiseless = random_instance(spec, 1000 + i)
        bernoulli = PLInstance(
            alphabet=noiseless.alphabet,
            yields=noiseless.yields,
            path_dist=noiseless.path_dist,
            noise=NoiseModel.bernoulli(),
        )
        model = TabularAdvantage.default(noiseless.trie).with_random_params(rng)
        lam = lams[i % 3]
        for inst in (noiseless, bernoulli):
            gap = surrogate_gap(model, inst, lam=lam)["gap"]
            worst = max(worst, gap)
            assert gap <= 1e-9

    e2 = fixture_e2(NoiseModel.bernoulli())
    model = TabularAdvantage.from_oracle(compute_optimal(e2))
    p0 = PathDistribution.uniform(e2.trie.nodes)
    for lam in lams:
        loss, _ = tar_loss(model, p0, e2, lam=lam)
        assert loss == pytest.approx(0.625 + lam / 12.0, abs=1e-6)
    print(
        f"ACCEPTANCE 4 loss identity: PASS "
        f"(max gap {worst:.3e} over 100 triples x 2 noise kinds; "
        f"pinned fixture values at lambda in {{1, 10, 100}})"
    )


def test_criterion_5_shared_minimizers():
    lam, kappa = 10.0, 100.0
    config = TrainConfig(tol=3e-8, max_iters=30_000)
    summary = []
    for name, inst, best_path in (
        ("E1", fixture_e1(), ("a", "END")),
        ("E2", fixture_e2(), ("a", "a", "END")),
    ):
        p0 = PathDistribution.uniform(inst.trie.nodes)
        mix = PenaltyMix.default(inst)
        shift = 0.5 * lam * inst.noise_variance()  # zero: the fixtures are noiseless
        rng = np.random.default_rng(0)
        finals = []
        paths = set()
        for _ in range(20):
            init = TabularAdvantage.default(inst.trie).with_random_params(rng)
            for make in (
                lambda m: tar_objective(m, p0, inst, lam, kappa),
                lambda m: vlp_objective(m, p0, mix, inst, lam, kappa),
            ):
                result = train(init, make(init), config)
                assert result.converged
                is_vlp = make.__code__.co_names[0] == "vlp_objective"
                finals.append(result.final_loss + (shift if is_vlp else 0.0))
                paths.add(greedy_path(result.model, default_max_len(result.model)).path)
        spread = max(finals) - min(finals)
        assert spread <= 1e-6
        assert paths == {best_path}
        summary.append(f"{name} spread {spread:.3e}")
    print(
        "ACCEPTANCE 5 shared minimizers: PASS "
        f"({'; '.join(summary)}; greedy paths identical across all 40 runs each)"
    )


def test_criterion_6_end_to_end_learning():
    lam, kappa = 100.0, 1000.0
    config = TrainConfig(tol=1e-7, max_iters=4000)
    regrets = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        spec = InstanceSpec(
            n_actions=3,
            max_depth=4,
            n_paths=int(rng.integers(2, 7)),
            noise=NoiseModel.noiseless(),
        )
        inst = random_instance(spec, seed)
        data = PathYieldDataset(pairs=tuple((p, inst.yields[p]) for p in inst.psi))
        model = TabularAdvantage.default(inst.trie)
        p0 = PathDistribution.uniform(inst.trie.nodes)
        result = train(model, tar_objective(model, p0, data, lam, kappa), config)
        plan = evaluate_plan(greedy_path(result.model, default_max_len(result.model)), inst)
        regrets.append(plan.regret)
    hits = sum(r <= 1e-6 for r in regrets)
    remainder = sorted(r for r in regrets if r > 1e-6)
    assert hits >= 90, f"only {hits}/100 instances solved; remainder {remainder}"
    print(
        f"ACCEPTANCE 6 end-to-end learning: PASS "
        f"({hits}/100 instances at regret <= 1e-6; remainder regrets {remainder})"
    )


def test_criterion_6_every_run_converges():
    """Stricter than criterion 6: on each of its 100 instances the tabular
    train meets the optimality tolerance before the iteration cap."""
    lam, kappa = 100.0, 1000.0
    config = TrainConfig(tol=1e-7, max_iters=4000)
    iterations = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        spec = InstanceSpec(
            n_actions=3,
            max_depth=4,
            n_paths=int(rng.integers(2, 7)),
            noise=NoiseModel.noiseless(),
        )
        inst = random_instance(spec, seed)
        data = PathYieldDataset(pairs=tuple((p, inst.yields[p]) for p in inst.psi))
        model = TabularAdvantage.default(inst.trie)
        p0 = PathDistribution.uniform(inst.trie.nodes)
        result = train(model, tar_objective(model, p0, data, lam, kappa), config)
        assert result.converged, f"seed {seed}: {result.stop_reason}, grad_norm {result.grad_norm}"
        assert result.stop_reason == "converged"
        iterations.append(result.iterations)
    print(
        f"ACCEPTANCE 6 (strict): PASS (100/100 runs converged; "
        f"iterations median {int(np.median(iterations))}, max {max(iterations)})"
    )


def test_criterion_6_linear_every_run_converges():
    """The linear family on criterion 6's 100 instances: the regression loss
    and the feasibility loss at kappa 0 and 100, each with both feature
    maps, 600 runs, every one meeting the optimality tolerance before the
    iteration cap."""
    lam, kappa = 100.0, 1000.0
    config = TrainConfig(tol=1e-7, max_iters=4000)
    iterations = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        spec = InstanceSpec(
            n_actions=3,
            max_depth=4,
            n_paths=int(rng.integers(2, 7)),
            noise=NoiseModel.noiseless(),
        )
        inst = random_instance(spec, seed)
        data = PathYieldDataset(pairs=tuple((p, inst.yields[p]) for p in inst.psi))
        p0 = PathDistribution.uniform(inst.trie.nodes)
        mix = PenaltyMix.default(inst)
        for features in ("edge_pair", "depth_edge_pair"):
            model = LinearAdvantage.default(inst.alphabet, kind=features)
            objectives = {
                "tar": tar_objective(model, p0, data, lam, kappa),
                "vlp kappa 0": vlp_objective(model, p0, mix, inst, lam, 0.0),
                "vlp kappa 100": vlp_objective(model, p0, mix, inst, lam, 100.0),
            }
            for name, objective in objectives.items():
                result = train(model, objective, config)
                assert result.stop_reason == "converged", (
                    f"seed {seed}, {name}, {features}: {result.stop_reason}, grad_norm {result.grad_norm}"
                )
                iterations.append(result.iterations)
    print(
        f"ACCEPTANCE 6 (linear): PASS ({len(iterations)}/600 runs converged; "
        f"iterations median {int(np.median(iterations))}, max {max(iterations)})"
    )


def test_criterion_7_gradient_check():
    h = 1e-5
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(2000 + i)
        n_actions = int(rng.integers(2, 4))
        max_depth = int(rng.integers(1, 4))
        total = sum((n_actions - 1) ** d for d in range(max_depth + 1))
        spec = InstanceSpec(
            n_actions=n_actions,
            max_depth=max_depth,
            n_paths=int(rng.integers(1, min(6, total) + 1)),
            noise=NoiseModel.noiseless() if i % 2 else NoiseModel.bernoulli(),
        )
        inst = random_instance(spec, 2000 + i)
        model = TabularAdvantage.default(inst.trie).with_random_params(rng)
        p0 = PathDistribution.uniform(inst.trie.nodes)
        lam = (1.0, 10.0, 100.0)[i % 3]
        kappa = (0.0, 100.0)[i % 2]
        if i % 2:
            objective = tar_objective(model, p0, inst, lam, kappa)
        else:
            mix = PenaltyMix.default(inst)
            objective = vlp_objective(model, p0, mix, inst, lam, kappa)
        x = model.drawdown_vector()
        _, grad = objective(x)
        fd = np.zeros_like(x)
        for j in range(x.size):
            e = np.zeros_like(x)
            e[j] = h
            fd[j] = (objective(x + e)[0] - objective(x - e)[0]) / (2 * h)
        rel = float(np.max(np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))))
        worst = max(worst, rel)
        assert rel <= 1e-5
    print(
        f"ACCEPTANCE 7 gradient check: PASS "
        f"(max relative error {worst:.3e} over 100 configurations, h = {h})"
    )


def test_criterion_8_attribution_additivity(pool):
    checked = 0
    rng = np.random.default_rng(42)
    for inst, _ in pool[:25]:
        tokens = inst.alphabet.tokens
        model = None
        for k in range(400):
            if k % 10 == 0:
                base = (
                    TabularAdvantage.default(inst.trie)
                    if k % 20 == 0
                    else LinearAdvantage.default(inst.alphabet)
                )
                model = base.with_random_params(rng)
            mode = k % 4
            if mode == 0:
                path = inst.psi[int(rng.integers(0, len(inst.psi)))]
            elif mode == 1:
                support = inst.psi[int(rng.integers(0, len(inst.psi)))]
                path = support[: int(rng.integers(0, len(support) + 1))]
            elif mode == 2:
                support = inst.psi[int(rng.integers(0, len(inst.psi)))]
                cut = support[: int(rng.integers(0, len(support) + 1))]
                extra = tuple(
                    tokens[int(t)]
                    for t in rng.integers(0, len(tokens), size=int(rng.integers(1, 4)))
                )
                path = cut + extra
            else:
                path = random_improper(inst.alphabet, rng, max_len=inst.trie.depth + 3)
            report = attribute(model, path)
            assert report.total == predict_value(model, path)
            checked += 1
    assert checked == 10_000

    e2 = fixture_e2()
    report = attribute(TabularAdvantage.from_oracle(compute_optimal(e2)), ("a", "b", "END"))
    assert report.base == pytest.approx(0.9, abs=1e-6)
    assert [s.drawdown for s in report.steps] == pytest.approx([0.0, -0.7, 0.0], abs=1e-6)
    assert report.total == pytest.approx(0.2, abs=1e-6)
    print(
        f"ACCEPTANCE 8 attribution additivity: PASS "
        f"({checked} (model, path) pairs with zero float discrepancy; "
        f"fixture breakdown (0.9, [0, -0.7, 0], 0.2) confirmed)"
    )


def _run_pipeline(base):
    base.mkdir()
    paths = {
        "instance": base / "instance.json",
        "data": base / "data.jsonl",
        "rl": base / "rl.jsonl",
        "oracle": base / "oracle.json",
        "model": base / "model.json",
        "report": base / "report.json",
        "plan": base / "plan.json",
        "attr": base / "attr.json",
        "verify": base / "verify.json",
    }

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    run("gen", "--actions", 3, "--depth", 3, "--paths", 5, "--seed", 4,
        "--out", paths["instance"])
    run("sample", "--instance", paths["instance"], "--n", 100, "--seed", 9,
        "--out", paths["data"], "--rl-out", paths["rl"])
    run("oracle", "--instance", paths["instance"], "--out", paths["oracle"])
    run("train", "--instance", paths["instance"], "--data", paths["data"],
        "--out", paths["model"], "--report", paths["report"],
        "--lambda", 10.0, "--kappa", 100.0, "--max-iters", 4000, "--tol", 1e-7)
    run("plan", "--model", paths["model"], "--instance", paths["instance"],
        "--out", paths["plan"])
    run("attribute", "--model", paths["model"], "--path", "a", "END",
        "--out", paths["attr"])
    run("verify", "--instance", paths["instance"], "--report", paths["verify"])
    return paths


def test_criterion_9_reproducibility(tmp_path):
    first = _run_pipeline(tmp_path / "run1")
    second = _run_pipeline(tmp_path / "run2")
    for key in first:
        assert filecmp.cmp(first[key], second[key], shallow=False), key

    # every artifact with a loader round-trips to identical bytes
    round_trips = 0
    inst_copy = tmp_path / "instance_copy.json"
    save_instance(load_instance(str(first["instance"])), str(inst_copy))
    assert inst_copy.read_bytes() == first["instance"].read_bytes()
    round_trips += 1

    data_copy = tmp_path / "data_copy.jsonl"
    save_dataset(load_dataset(str(first["data"])), str(data_copy))
    assert data_copy.read_bytes() == first["data"].read_bytes()
    round_trips += 1

    rl_copy = tmp_path / "rl_copy.jsonl"
    save_rl_dataset(load_rl_dataset(str(first["rl"])), str(rl_copy))
    assert rl_copy.read_bytes() == first["rl"].read_bytes()
    round_trips += 1

    model_copy = tmp_path / "model_copy.json"
    save_model(load_model(str(first["model"])), str(model_copy))
    assert model_copy.read_bytes() == first["model"].read_bytes()
    round_trips += 1

    print(
        f"ACCEPTANCE 9 reproducibility: PASS "
        f"(two pipeline runs byte-identical across {len(first)} artifacts; "
        f"{round_trips} formats round-trip to identical bytes)"
    )

"""Loss construction, the regression/feasibility identity, and the trainer."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tarpath.errors import InvalidInputError, TrainingDivergedError
from tarpath.instance import (
    InstanceSpec,
    NoiseModel,
    PathDistribution,
    PathYieldDataset,
    random_instance,
    sample_dataset,
)
from tarpath.losses import (
    CONVERGED,
    ITERATION_CAP,
    NO_DECREASE,
    PROJECTED_NEWTON,
    TREE_POOLING,
    UNCERTIFIED,
    Evaluation,
    PenaltyMix,
    TrainConfig,
    surrogate_gap,
    tar_loss,
    _ValueBatch,
    _block_min,
    _cholesky_solve,
    _hessian_terms,
    _projected_grad_norm,
    _solve_drawdown,
    _value_grad,
    tar_objective,
    train,
    vlp_loss,
    vlp_objective,
)
from tarpath.model import (
    DEPTH_EDGE_PAIR,
    EDGE_PAIR,
    LinearAdvantage,
    TabularAdvantage,
)
from tarpath.oracle import compute_optimal
from tarpath.pathspace import EMPTY, ActionAlphabet, PrefixTrie, SeqClass

from .reference import fixture_e1, fringe_states, node_index, pair, predict_value
from .strategies import instances, tabular_models


def step_slot(model, s, a):
    """The slot of the step (s, a) in ``drawdown_vector``, or None where it
    falls back: the edge's trie node for a tabular model, 1 + its feature
    pair for a linear one."""
    if isinstance(model, TabularAdvantage):
        return node_index(model.trie).get(s + (a,))
    return 1 + pair(model, s, a)


def flat_model(trie, c):
    """Tabular model whose every edge advantage is 0."""
    return TabularAdvantage(alphabet=trie.alphabet, c=c, a=np.zeros(len(trie) - 1), trie=trie)


def central_diff(objective, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        f_plus, _ = objective(x + e)
        f_minus, _ = objective(x - e)
        g[i] = (f_plus - f_minus) / (2 * h)
    return g


class TestPenaltyMix:
    def test_default_avoids_support_and_complete_states(self, e2):
        mix = PenaltyMix.default(e2)
        fringe = set(fringe_states(e2.trie))
        for (s, a), w in zip(mix.tilde_pairs, mix.tilde_weights):
            assert s in fringe
            assert s not in e2.row_of
            assert e2.alphabet.classify(s) is not SeqClass.COMPLETE
            assert w > 0
        assert math.fsum(mix.tilde_weights) == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ["e1", "e2"])
    def test_default_lists_every_action_at_each_non_complete_fringe_state(self, request, name):
        inst = request.getfixturevalue(name)
        alphabet = inst.alphabet
        want = tuple(
            (s, a)
            for s in fringe_states(inst.trie)
            if alphabet.classify(s) is not SeqClass.COMPLETE
            for a in alphabet.tokens
        )
        mix = PenaltyMix.default(inst)
        assert mix.tilde_pairs == want
        assert mix.tilde_weights == (1.0 / len(want),) * len(want)
        assert mix.states == tuple(dict.fromkeys(s for s, _ in want))
        assert mix.actions == alphabet.tokens
        # its rows, read off the trie, rank the states as any alphabet it meets does
        for other in (alphabet, ActionAlphabet(tokens=alphabet.tokens[::-1], terminal=alphabet.terminal)):
            assert np.array_equal(mix.ranks(other), other.encode(mix.states))

    def test_hand_pairs_listed_as_given(self):
        pairs = TestVlpHandMix.PAIRS
        n = len(pairs)
        weights = tuple((i + 1.0) / (n * (n + 1) / 2) for i in range(n))
        mix = PenaltyMix(tilde_pairs=[(list(s), a) for s, a in pairs], tilde_weights=weights)
        assert mix.tilde_pairs == pairs
        assert mix.tilde_weights == weights
        # each distinct state and action once, in order of first appearance
        assert mix.states == tuple(dict.fromkeys(s for s, _ in pairs))
        assert mix.actions == tuple(dict.fromkeys(a for _, a in pairs))

    def test_weight_count_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            PenaltyMix(tilde_pairs=((EMPTY, "a"), (EMPTY, "b")), tilde_weights=(1.0,))

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(InvalidInputError):
            PenaltyMix(
                tilde_pairs=((EMPTY, "a"), (EMPTY, "a")),
                tilde_weights=(0.5, 0.5),
            )

    @pytest.mark.parametrize("mu_weight", [-0.1, 1.1])
    def test_mu_weight_range(self, mu_weight):
        with pytest.raises(InvalidInputError):
            PenaltyMix(
                tilde_pairs=((EMPTY, "a"),),
                tilde_weights=(1.0,),
                mu_weight=mu_weight,
            )

    def test_support_tilde_state_rejected_at_compile(self, e1):
        model = TabularAdvantage.default(e1.trie)
        p0 = PathDistribution.uniform(e1.trie.nodes)
        mix = PenaltyMix(
            tilde_pairs=((("a", "END"), "a"),), tilde_weights=(1.0,)
        )
        with pytest.raises(InvalidInputError):
            vlp_objective(model, p0, mix, e1, 2.0, 0.0)


class TestTrainConfig:
    def test_holds_how_to_solve_only(self):
        # lam and kappa are the compiled objective's
        assert [f.name for f in dataclasses.fields(TrainConfig)] == ["max_iters", "tol"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": -1},
            {"tol": 0.0},
            {"tol": float("nan")},
        ],
    )
    def test_bad_fields_rejected(self, kwargs):
        with pytest.raises(InvalidInputError):
            TrainConfig(**kwargs)


class TestTarLoss:
    def test_hand_value_single_pair(self, e1):
        model = flat_model(e1.trie, c=0.5)
        p0 = PathDistribution(paths=(EMPTY,), weights=(1.0,))
        data = PathYieldDataset.from_pairs(((("b", "END"), 0.5),))
        loss, _ = tar_loss(model, p0, data, lam=2.0, kappa=0.0)
        assert loss == pytest.approx(0.5, abs=1e-12)

    def test_clamped_oracle_exact_noiseless(self, e2):
        model = TabularAdvantage.from_oracle(compute_optimal(e2))
        p0 = PathDistribution.uniform(e2.trie.nodes)
        loss, _ = tar_loss(model, p0, e2, lam=7.0, kappa=5.0)
        assert loss == pytest.approx(0.625, abs=1e-12)

    @pytest.mark.parametrize("lam", [2.0, 100.0])
    def test_clamped_oracle_exact_bernoulli(self, e2_bernoulli, lam):
        model = TabularAdvantage.from_oracle(compute_optimal(e2_bernoulli))
        p0 = PathDistribution.uniform(e2_bernoulli.trie.nodes)
        loss, _ = tar_loss(model, p0, e2_bernoulli, lam=lam)
        assert loss == pytest.approx(0.625 + lam / 12.0, abs=1e-12)

    def test_empirical_approaches_exact(self, e2_bernoulli):
        model = TabularAdvantage.default(e2_bernoulli.trie, c=0.4)
        p0 = PathDistribution.uniform(e2_bernoulli.trie.nodes)
        data = sample_dataset(e2_bernoulli, n=100_000, seed=7)
        exact, _ = tar_loss(model, p0, e2_bernoulli, lam=2.0)
        empirical, _ = tar_loss(model, p0, data, lam=2.0)
        assert abs(exact - empirical) <= 0.01

    def test_empty_dataset_rejected(self, e1):
        model = TabularAdvantage.default(e1.trie)
        p0 = PathDistribution.uniform(e1.trie.nodes)
        with pytest.raises(InvalidInputError):
            tar_loss(model, p0, PathYieldDataset.from_pairs(()), lam=1.0)

    def test_alphabet_mismatch_rejected(self, e2):
        other = ActionAlphabet(tokens=("x", "END"))
        trie = PrefixTrie.build(other, [("x", "END")])
        model = TabularAdvantage.default(trie)
        p0 = PathDistribution.uniform(trie.nodes)
        with pytest.raises(InvalidInputError):
            tar_loss(model, p0, e2, lam=1.0)

    @pytest.mark.parametrize("what", ["p0", "data"])
    def test_improper_state_rejected(self, e1, what):
        model = TabularAdvantage.default(e1.trie)
        improper = ("END", "a")
        p0 = PathDistribution.uniform(e1.trie.nodes + (improper,) if what == "p0" else e1.trie.nodes)
        data = PathYieldDataset.from_pairs(((("a", "END"), 1.0), (improper if what == "data" else ("b", "END"), 0.0)))
        with pytest.raises(InvalidInputError, match=rf"^{what} state \('END', 'a'\) is improper$"):
            tar_loss(model, p0, data, lam=1.0)

    @pytest.mark.parametrize("kind", ["tar", "vlp"])
    def test_empty_p0_rejected(self, e1, kind):
        # an empty law is a valid PathDistribution, but no covering law
        model = TabularAdvantage.default(e1.trie)
        p0 = PathDistribution(paths=(), weights=())
        with pytest.raises(InvalidInputError, match="^p0 must weight at least one state$"):
            if kind == "tar":
                tar_objective(model, p0, e1, lam=1.0, kappa=0.0)
            else:
                vlp_objective(model, p0, PenaltyMix.default(e1), e1, 1.0, 0.0)

    def test_hinge_penalty_counts_negative_values(self, e1):
        model = flat_model(e1.trie, c=-0.25)
        p0 = PathDistribution.uniform(e1.trie.nodes)
        base, _ = tar_loss(model, p0, e1, lam=2.0, kappa=0.0)
        penalized, _ = tar_loss(model, p0, e1, lam=2.0, kappa=10.0)
        expected = 10.0 * math.fsum(
            w * max(-predict_value(model, s), 0.0) ** 2 for s, w in zip(p0.paths, p0.weights)
        )
        assert penalized - base == pytest.approx(expected, abs=1e-12)


class TestVlpLoss:
    def test_clamped_oracle_zero_penalty(self, e2):
        model = TabularAdvantage.from_oracle(compute_optimal(e2))
        p0 = PathDistribution.uniform(e2.trie.nodes)
        mix = PenaltyMix.default(e2)
        loss, _ = vlp_loss(model, p0, mix, e2, lam=3.0)
        assert loss == pytest.approx(0.625, abs=1e-12)

    def test_hand_value_flat_model(self, e1):
        model = flat_model(e1.trie, c=0.5)
        p0 = PathDistribution(paths=(EMPTY,), weights=(1.0,))
        mix = PenaltyMix.default(e1)
        loss, _ = vlp_loss(model, p0, mix, e1, lam=2.0)
        assert loss == pytest.approx(0.545, abs=1e-9)

    def test_kappa_term_matches_direct_sum(self, e1):
        model = flat_model(e1.trie, c=-1.0)
        p0 = PathDistribution.uniform(e1.trie.nodes)
        mix = PenaltyMix.default(e1)
        base, _ = vlp_loss(model, p0, mix, e1, lam=2.0, kappa=0.0)
        penalized, _ = vlp_loss(model, p0, mix, e1, lam=2.0, kappa=4.0)
        expected = 4.0 * math.fsum(
            w * max(-predict_value(model, s), 0.0) ** 2 for s, w in zip(p0.paths, p0.weights)
        )
        assert penalized - base == pytest.approx(expected, abs=1e-12)


class TestSurrogateGap:
    @given(
        inst=instances(max_tokens=3, max_depth=4, max_paths=8),
        lam=st.sampled_from([1.0, 10.0, 100.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bernoulli=st.booleans(),
    )
    @settings(max_examples=40)
    def test_identity_holds_for_random_models(self, inst, lam, seed, bernoulli):
        if bernoulli:
            inst = fixture_like_with_noise(inst, NoiseModel.bernoulli())
        model = TabularAdvantage.default(inst.trie).with_random_params(
            np.random.default_rng(seed)
        )
        report = surrogate_gap(model, inst, lam=lam)
        assert report["gap"] <= 1e-9
        assert report["hinge_excess_term"] >= 0.0
        assert report["lhs"] >= report["sigma2_term"] - 1e-12

    def test_inflated_constant_shows_as_hinge_excess(self, e2):
        lam = 4.0
        oracle_model = TabularAdvantage.from_oracle(compute_optimal(e2))
        vec = oracle_model.drawdown_vector()
        vec[0] += 0.1
        inflated = oracle_model.with_drawdowns(vec)
        report = surrogate_gap(inflated, e2, lam=lam)
        assert report["hinge_excess_term"] == pytest.approx(lam * 0.005, abs=1e-9)
        assert report["gap"] <= 1e-9

    def test_hinge_excess_sums_predict_value_bit_for_bit(self):
        # the model's trie holds every other support path, so half the paths
        # leave it and take fallback steps; c sits above every optimal value
        inst = random_instance(
            InstanceSpec(n_actions=5, max_depth=6, n_paths=200, noise=NoiseModel.bernoulli()), 3
        )
        trie = PrefixTrie.build(inst.alphabet, inst.psi[::2])
        model = TabularAdvantage.default(trie, fallback_B=0.037).with_random_params(
            np.random.default_rng(4), c_range=(1.5, 1.5), log_scale=2.0
        )
        lam = 100.0
        ov = compute_optimal(inst)
        report = surrogate_gap(model, inst, lam=lam, ov=ov)
        weights, optimal = inst.psi_weights.tolist(), ov.v[inst.trie.members].tolist()
        want = 0.5 * lam * math.fsum(
            w * max(predict_value(model, p) - v_star, 0.0) ** 2 for p, w, v_star in zip(inst.psi, weights, optimal)
        )
        assert report["hinge_excess_term"] == want
        assert report["gap"] <= 1e-9
        # the value batch of the compiled losses sums in the same order
        batch = _ValueBatch(model, inst.psi)
        values = batch.values(model.drawdown_vector())[batch.node]
        batched = 0.5 * lam * math.fsum(
            w * max(v - v_star, 0.0) ** 2 for w, v, v_star in zip(weights, values.tolist(), optimal)
        )
        assert batched == want

    def test_tar_dominates_vlp_plus_floor(self, e2_bernoulli):
        model = TabularAdvantage.default(e2_bernoulli.trie, c=0.3)
        report = surrogate_gap(model, e2_bernoulli, lam=10.0)
        vlp_part = report["rhs"] - report["sigma2_term"] - report["hinge_excess_term"]
        assert report["lhs"] + 1e-12 >= report["sigma2_term"] + vlp_part



class TestPenaltyWeights:
    """One check of lam and kappa, shared by every function that takes them."""

    @pytest.mark.parametrize(
        "lam, kappa, message",
        [
            (0.0, 1.0, "lambda must be finite and positive, got 0.0"),
            (-2.0, 1.0, "lambda must be finite and positive, got -2.0"),
            (float("nan"), 1.0, "lambda must be finite and positive, got nan"),
            (float("inf"), 1.0, "lambda must be finite and positive, got inf"),
            (1.0, -1.0, "kappa must be finite and nonnegative, got -1.0"),
            (1.0, float("nan"), "kappa must be finite and nonnegative, got nan"),
            (1.0, float("inf"), "kappa must be finite and nonnegative, got inf"),
        ],
    )
    @pytest.mark.parametrize("function", ["tar_objective", "vlp_objective", "surrogate_gap"])
    def test_bad_values_rejected_alike(self, e2, function, lam, kappa, message):
        model = TabularAdvantage.default(e2.trie)
        p0 = PathDistribution.uniform(e2.trie.nodes)
        calls = {
            "tar_objective": lambda: tar_objective(model, p0, e2, lam, kappa),
            "vlp_objective": lambda: vlp_objective(model, p0, PenaltyMix.default(e2), e2, lam, kappa),
            "surrogate_gap": lambda: surrogate_gap(model, e2, lam=lam, kappa=kappa),
        }
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            calls[function]()


def fixture_like_with_noise(inst, noise):
    return dataclasses.replace(inst, noise=noise)


class TestGradients:
    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=15)
    def test_tar_gradient_matches_central_difference(self, e2, seed):
        model = TabularAdvantage.default(e2.trie).with_random_params(
            np.random.default_rng(seed)
        )
        p0 = PathDistribution.uniform(e2.trie.nodes)
        objective = tar_objective(model, p0, e2, lam=10.0, kappa=100.0)
        x = model.drawdown_vector()
        _, grad = objective(x)
        fd = central_diff(objective, x)
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=15)
    def test_vlp_gradient_matches_central_difference(self, e2, seed):
        model = TabularAdvantage.default(e2.trie).with_random_params(
            np.random.default_rng(seed)
        )
        p0 = PathDistribution.uniform(e2.trie.nodes)
        mix = PenaltyMix.default(e2)
        objective = vlp_objective(model, p0, mix, e2, lam=10.0, kappa=100.0)
        x = model.drawdown_vector()
        _, grad = objective(x)
        fd = central_diff(objective, x)
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_tar_gradient_on_empirical_data(self, e2_bernoulli):
        model = TabularAdvantage.default(e2_bernoulli.trie, c=0.4)
        p0 = PathDistribution.uniform(e2_bernoulli.trie.nodes)
        data = sample_dataset(e2_bernoulli, n=200, seed=3)
        objective = tar_objective(model, p0, data, lam=10.0, kappa=100.0)
        x = model.drawdown_vector()
        _, grad = objective(x)
        fd = central_diff(objective, x)
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)


    @pytest.mark.parametrize("kind", [EDGE_PAIR, DEPTH_EDGE_PAIR])
    def test_linear_tar_gradient_matches_central_difference(self, e2_bernoulli, kind):
        model = LinearAdvantage.default(e2_bernoulli.alphabet, kind=kind).with_random_params(
            np.random.default_rng(5)
        )
        p0 = PathDistribution.uniform(e2_bernoulli.trie.nodes)
        data = sample_dataset(e2_bernoulli, n=200, seed=3)
        objective = tar_objective(model, p0, data, lam=10.0, kappa=100.0)
        x = model.drawdown_vector()
        _, grad = objective(x)
        fd = central_diff(objective, x)
        assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)


class TestValueBatch:
    """A batch's prefix tree sums each state's value as ``predict_value``
    does, bit for bit, classifies each state, and differentiates its values
    exactly."""

    @staticmethod
    def model_and_states(inst, family, seed):
        """A model with random parameters, and states on and off its trie:
        the instance's trie nodes and proper fringe states, paths that extend
        support paths, incomplete states deeper than any support path (as a
        ``--p0`` file may hold), and repeats. A tabular model holds every
        other support path and falls back by 0.1, which is inexact in
        binary."""
        rng = np.random.default_rng(seed)
        if family == "tabular":
            trie = PrefixTrie.build(inst.alphabet, inst.psi[::2])
            model = TabularAdvantage.default(trie, fallback_B=0.1)
        else:
            model = LinearAdvantage.default(inst.alphabet, kind=family)
        model = model.with_random_params(rng, c_range=(-1.0, 2.0), log_scale=3.0)
        alphabet = inst.alphabet
        fringe = [s for s in fringe_states(inst.trie) if alphabet.is_proper(s)]
        longer = [p[:-1] + p for p in inst.psi]
        incomplete = [p[:-1] * 2 for p in inst.psi]
        states = list(inst.trie.nodes) + fringe + longer + incomplete
        repeats = [states[int(i)] for i in rng.integers(len(states), size=5)]
        return model, tuple(states + repeats)

    @given(
        inst=instances(max_tokens=4, max_depth=4, max_paths=8),
        family=st.sampled_from(["tabular", EDGE_PAIR, DEPTH_EDGE_PAIR]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60)
    def test_values_equal_predict_value_bit_for_bit(self, inst, family, seed):
        model, states = self.model_and_states(inst, family, seed)
        batch = _ValueBatch(model, states)
        values = batch.values(model.drawdown_vector())[batch.node]
        want = np.array([predict_value(model, s) for s in states])
        assert values.tobytes() == want.tobytes()
        # one node per distinct state; a tabular model's trie nodes keep
        # their ids, which are their slots
        nodes = dict(zip(states, batch.node.tolist()))
        assert len(set(nodes.values())) == len(nodes)
        if family == "tabular":
            for i, s in enumerate(model.trie.nodes):
                assert nodes.get(s, i) == i
        # the same bits whatever order the states come in
        order = np.random.default_rng(seed).permutation(len(states))
        shuffled = _ValueBatch(model, [states[j] for j in order])
        assert shuffled.values(model.drawdown_vector())[shuffled.node].tobytes() == want[order].tobytes()

    def test_classes(self, e2):
        model = LinearAdvantage.default(e2.alphabet)
        states = (EMPTY, ("a",), ("a", "END"), ("END", "a"), ("b", "END", "END"), ("END",), ("a", "a", "b"))
        batch = _ValueBatch(model, states)
        nodes = batch.node
        classes = [e2.alphabet.classify(s) for s in states]
        assert batch.improper[nodes].tolist() == [c is SeqClass.IMPROPER for c in classes]
        complete = batch.ended[nodes] & ~batch.improper[nodes]
        assert complete.tolist() == [c is SeqClass.COMPLETE for c in classes]

    @pytest.mark.parametrize("family", ["tabular", EDGE_PAIR, DEPTH_EDGE_PAIR])
    def test_gradient_and_direction_count_every_step(self, e2_bernoulli, family):
        model, states = self.model_and_states(e2_bernoulli, family, 5)
        batch = _ValueBatch(model, states)
        pairs = batch.pairs(batch.node)
        # d(value_j)/dx: 1 in c's slot, plus 1 per step that reads a slot
        jac = np.zeros((len(states), model.drawdown_vector().size))
        for j, s in enumerate(states):
            jac[j, 0] = 1.0
            for k in range(len(s)):
                slot = step_slot(model, s[:k], s[k])
                if slot is not None:
                    jac[j, slot] += 1.0
        rng = np.random.default_rng(6)
        coef, d = rng.normal(size=len(states)), rng.normal(size=jac.shape[1])
        assert np.allclose(_value_grad(pairs, coef, jac.shape[1]), coef @ jac, rtol=1e-12, atol=1e-12)
        want = jac.T @ (coef * (jac @ d))
        assert np.allclose(_hessian_terms(pairs, jac.shape[1])(coef) @ d, want, rtol=1e-12, atol=1e-12)

    def test_trie_prefixes(self, e2_bernoulli):
        # a tabular state reads its deepest trie prefix plus its fallback steps
        model, states = self.model_and_states(e2_bernoulli, "tabular", 7)
        batch = _ValueBatch(model, states)
        deep, offset = batch.trie_prefixes(batch.node, batch.pairs(batch.node))
        trie = model.trie
        values = batch.values(model.drawdown_vector())
        for s, node, i, off in zip(states, batch.node.tolist(), deep.tolist(), offset.tolist()):
            k = max(k for k in range(len(s) + 1) if s[:k] in trie)
            assert trie.nodes[i] == s[:k]
            assert off == pytest.approx(-0.1 * (len(s) - k), abs=1e-15)
            assert values[node] == pytest.approx(values[i] + off, abs=1e-12)

    @pytest.mark.parametrize("family", ["tabular", EDGE_PAIR, DEPTH_EDGE_PAIR])
    def test_empirical_loss_equals_row_by_row_sum(self, e2_bernoulli, family):
        # 300 rows of three paths with 0/1 yields: the objective compiles
        # the three distinct paths, and must still equal the sum over rows
        inst = e2_bernoulli
        data = sample_dataset(inst, n=300, seed=8)
        if family == "tabular":
            model = TabularAdvantage.default(inst.trie)
        else:
            model = LinearAdvantage.default(inst.alphabet, kind=family)
        model = model.with_random_params(np.random.default_rng(9), c_range=(-0.5, 1.0), log_scale=2.0)
        p0 = PathDistribution.uniform(inst.trie.nodes)
        lam, kappa = 10.0, 100.0
        loss, grad = tar_objective(model, p0, data, lam, kappa)(model.drawdown_vector())

        def value_and_grad(s):
            g = np.zeros(grad.size)
            g[0] = 1.0
            for k in range(len(s)):
                g[step_slot(model, s[:k], s[k])] += 1.0
            return predict_value(model, s), g

        terms, grad_terms = [], []
        for s, w in zip(p0.paths, p0.weights):
            v, g = value_and_grad(s)
            neg = max(-v, 0.0)
            terms.append(w * v + kappa * w * neg * neg)
            grad_terms.append(w * (1.0 - 2.0 * kappa * neg) * g)
        n = len(data)
        for p, y in data.pairs:
            v, g = value_and_grad(p)
            terms.append(0.5 * lam * (v - y) ** 2 / n)
            grad_terms.append(lam * (v - y) / n * g)
        want_grad = [math.fsum(column) for column in zip(*grad_terms)]
        assert {y for _, y in data.pairs} == {0.0, 1.0}
        assert loss == pytest.approx(math.fsum(terms), rel=1e-12, abs=0.0)
        assert np.allclose(grad, want_grad, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("y, shown", [(float("nan"), "nan"), (7.0, "7.0"), (-0.5, "-0.5"), (math.inf, "inf")])
    @pytest.mark.parametrize("family", ["tabular", "linear"])
    def test_bad_dataset_yield_rejected(self, e2, family, y, shown):
        paths = e2.psi
        data = PathYieldDataset.from_pairs(((paths[0], 1.0), (paths[1], 0.0), (paths[0], y), (paths[2], 0.5)))
        model = TabularAdvantage.default(e2.trie) if family == "tabular" else LinearAdvantage.default(e2.alphabet)
        p0 = PathDistribution.uniform(e2.trie.nodes)
        message = rf"^dataset row 3: yield must be finite and in \[0, 1\], got {shown}$"
        with pytest.raises(InvalidInputError, match=message):
            tar_objective(model, p0, data, lam=1.0, kappa=0.0)


class TestVlpHandMix:
    """The feasibility loss on a hand-built mix equals the backup residual
    summed pair by pair, whatever class each pair's state is in."""

    PAIRS = (
        (("a",), "a"),  # on-trie incomplete, its state repeated
        (("a",), "END"),
        (("b", "a"), "b"),  # off-trie incomplete: a fallback step
        (("b", "a"), "END"),
        (("END",), "a"),  # complete, off the support, repeated
        (("END",), "b"),
        (("a", "a", "b", "END"), "END"),  # complete and off the trie
        (("b", "END", "a"), "a"),  # improper
        ((), "b"),
        (("a", "b"), "a"),  # on-trie state, off-trie edge
    )

    @staticmethod
    def value_at(model, x, s):
        """The value of s at the point x = [c, a_0, a_1, ...], summed step by
        step: c, then each step's drawdown or the fallback; 0 if improper."""
        if not model.alphabet.is_proper(s):
            return 0.0
        total = x[0]
        for k in range(len(s)):
            slot = step_slot(model, s[:k], s[k])
            total += model.fallback_advantage if slot is None else x[slot]
        return total

    @staticmethod
    def value_gradient(model, s):
        """d value(s) / dx, the same at every x: 1 at c and 1 at each
        on-trie step's slot; 0 for an improper state."""
        grad = np.zeros(model.drawdown_vector().size)
        if model.alphabet.is_proper(s):
            grad[0] = 1.0
            for k in range(len(s)):
                slot = step_slot(model, s[:k], s[k])
                if slot is not None:
                    grad[slot] += 1.0
        return grad

    def direct(self, model, p0, mix, inst, lam, kappa, x=None):
        """(loss, gradient) at x, by default the model's own point, summed
        state by state and pair by pair."""
        x = model.drawdown_vector() if x is None else x
        v = lambda s: self.value_at(model, x, s)  # noqa: E731
        g = lambda s: self.value_gradient(model, s)  # noqa: E731
        mu = mix.mu_weight
        loss, grad = 0.0, np.zeros(model.drawdown_vector().size)
        for s, w in zip(p0.paths, p0.weights):
            neg = max(-v(s), 0.0)
            loss += w * v(s) + kappa * w * neg * neg
            grad += (w - 2.0 * kappa * w * neg) * g(s)
        for p, w in zip(inst.psi, inst.psi_weights.tolist()):
            r = max(inst.yield_of(p) - v(p), 0.0)
            loss += lam * mu * w * r * r
            grad -= 2.0 * lam * mu * w * r * g(p)
        for (s, a), w in zip(mix.tilde_pairs, mix.tilde_weights):
            # backup residual: reward at s plus the successor's value, minus s's
            r = max(inst.yield_of(s) + v(s + (a,)) - v(s), 0.0)
            loss += lam * (1.0 - mu) * w * r * r
            grad += 2.0 * lam * (1.0 - mu) * w * r * (g(s + (a,)) - g(s))
        return loss, grad

    @pytest.mark.parametrize("family", ["tabular", EDGE_PAIR, DEPTH_EDGE_PAIR])
    def test_matches_direct_per_pair_sum(self, e2, family):
        rng = np.random.default_rng(5)
        if family == "tabular":
            model = TabularAdvantage.default(e2.trie, fallback_B=0.7)
        else:
            model = LinearAdvantage.default(e2.alphabet, kind=family)
        # c < 0 puts the complete off-support states' residuals above zero
        model = model.with_random_params(rng, c_range=(-0.4, -0.1))
        raw = rng.uniform(0.5, 1.5, size=len(self.PAIRS))
        mix = PenaltyMix(
            tilde_pairs=self.PAIRS, tilde_weights=tuple(raw / raw.sum()), mu_weight=0.3
        )
        p0 = PathDistribution.uniform(e2.trie.nodes)
        loss, grad = vlp_objective(model, p0, mix, e2, lam=3.0, kappa=2.0)(model.drawdown_vector())
        want_loss, want_grad = self.direct(model, p0, mix, e2, lam=3.0, kappa=2.0)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert np.allclose(grad, want_grad, rtol=1e-10, atol=1e-12)
        # the penalty is live: complete off-support states contribute
        no_tilde = PenaltyMix(tilde_pairs=((("b", "END", "a"), "a"),), tilde_weights=(1.0,), mu_weight=0.3)
        assert loss > vlp_loss(model, p0, no_tilde, e2, lam=3.0, kappa=2.0)[0]

    @pytest.mark.parametrize(
        "bad",
        [
            (("a", "a", "END"), "a"),  # on the support
            (("a",), "z"),  # unknown action, after the state was seen
            (("z",), "a"),  # unknown token in the state
            (("a", "z", "b"), "a"),  # unknown token past a trie prefix
        ],
    )
    def test_bad_pairs_still_rejected(self, e2, bad):
        model = TabularAdvantage.default(e2.trie)
        pairs = self.PAIRS + (bad,)
        n = len(pairs)
        mix = PenaltyMix(tilde_pairs=pairs, tilde_weights=(1.0 / n,) * n)
        message = "lies on the support" if bad[0] == ("a", "a", "END") else "unknown token 'z'"
        with pytest.raises(InvalidInputError, match=message):
            vlp_objective(model, PathDistribution.uniform(e2.trie.nodes), mix, e2, 3.0, 0.0)

    @staticmethod
    def random_mix(inst, rng, mu_weight):
        """A hand mix over up to three states of each kind (incomplete on the
        trie, incomplete off it, complete off the support, improper), each
        with a random nonempty subset of the actions, at random weights."""
        alphabet, trie = inst.alphabet, inst.trie
        tokens, terminal, nonterminal = alphabet.tokens, alphabet.terminal, alphabet.nonterminal

        def body(length):
            return tuple(nonterminal[i] for i in rng.integers(0, len(nonterminal), size=length))

        # a path of nonterminals as long as the deepest trie node is off the
        # trie, and with the terminal appended, longer than any support path
        deep = [body(trie.depth + int(rng.integers(0, 3))) for _ in range(3)]
        kinds = [
            [s for s in trie.nodes if terminal not in s],
            deep + [s for s in fringe_states(trie) if terminal not in s],
            [s + (terminal,) for s in deep]
            + [s for s in fringe_states(trie) if alphabet.classify(s) is SeqClass.COMPLETE],
            [s + (terminal,) + s for s in deep] + [s + (terminal, terminal) for s in deep],
        ]
        pairs = []
        for states in kinds:
            states = list(dict.fromkeys(s for s in states if s not in inst.row_of))
            for i in rng.permutation(len(states))[:3]:
                actions = [a for a in tokens if rng.random() < 0.6] or [tokens[int(rng.integers(len(tokens)))]]
                pairs += [(states[i], a) for a in actions]
        raw = rng.uniform(0.1, 1.0, size=len(pairs))
        return PenaltyMix(tilde_pairs=pairs, tilde_weights=tuple(raw / raw.sum()), mu_weight=mu_weight)

    @given(
        inst=instances(max_tokens=3, max_depth=4, max_paths=6, noise=NoiseModel.bernoulli()),
        family=st.sampled_from(["tabular", EDGE_PAIR, DEPTH_EDGE_PAIR]),
        mu_weight=st.sampled_from([0.0, 0.3]),
        kappa=st.sampled_from([0.0, 2.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60)
    def test_compiled_tilde_half_matches_per_pair_sum(self, inst, family, mu_weight, kappa, seed):
        rng = np.random.default_rng(seed)
        if family == "tabular":
            model = TabularAdvantage.default(inst.trie, fallback_B=0.7)
        else:
            model = LinearAdvantage.default(inst.alphabet, kind=family)
        mix = self.random_mix(inst, rng, mu_weight=mu_weight)
        p0 = PathDistribution.uniform(inst.trie.nodes)
        # drawdowns of both signs, and c of either sign: incomplete pairs
        # with a step above 0 and complete states below 0 have positive
        # residuals, and fallback steps (at -0.7) have negative ones
        x = rng.normal(0.0, 1.0, size=model.drawdown_vector().size)
        objective = vlp_objective(model, p0, mix, inst, 3.0, kappa)
        loss, grad = objective(x)
        want_loss, want_grad = self.direct(model, p0, mix, inst, 3.0, kappa, x)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=1e-12)
        assert np.allclose(grad, want_grad, rtol=1e-10, atol=1e-12)


def linear_model(inst, features, seed, c=None):
    """A random linear model, with c drawn from [0, 1] or given."""
    rng = np.random.default_rng(seed)
    c_range = (0.0, 1.0) if c is None else (c, c)
    return LinearAdvantage.default(inst.alphabet, kind=features).with_random_params(rng, c_range)


def criterion_6_instance(seed):
    """The instance and its one-row-per-path dataset from acceptance criterion 6."""
    spec = InstanceSpec(
        n_actions=3,
        max_depth=4,
        n_paths=int(np.random.default_rng(seed).integers(2, 7)),
        noise=NoiseModel.noiseless(),
    )
    inst = random_instance(spec, seed)
    return inst, PathYieldDataset.from_pairs(tuple((p, inst.yield_of(p)) for p in inst.psi))


class TestDrawdownView:
    """Compiled objectives evaluate in drawdown coordinates (c, a): one
    drawdown per edge of a tabular model, one per feature pair of a linear
    one."""

    @staticmethod
    def inputs(kind, inst):
        """(p0, what the loss is over: the instance, a dataset or a mix)."""
        p0 = PathDistribution.uniform(inst.trie.nodes)
        if kind == "tar_exact":
            return p0, inst
        if kind == "tar_empirical":
            return p0, sample_dataset(inst, n=200, seed=3)
        # every fringe state, complete ones included, so that each penalty
        # term of the feasibility loss is present
        pairs = tuple((s, a) for s in fringe_states(inst.trie) for a in inst.alphabet.tokens)
        return p0, PenaltyMix(tilde_pairs=pairs, tilde_weights=(1.0 / len(pairs),) * len(pairs))

    @classmethod
    def compile(cls, kind, inst, model, kappa=100.0):
        p0, over = cls.inputs(kind, inst)
        if kind == "vlp":
            return vlp_objective(model, p0, over, inst, lam=10.0, kappa=kappa)
        return tar_objective(model, p0, over, lam=10.0, kappa=kappa)

    @classmethod
    def direct_loss(cls, kind, inst, model, kappa=100.0):
        """The loss summed state by state from ``predict_value``."""
        p0, over = cls.inputs(kind, inst)
        if kind == "vlp":
            return TestVlpHandMix().direct(model, p0, over, inst, 10.0, kappa)[0]
        if kind == "tar_exact":
            rows = [(p, w, inst.yield_of(p)) for p, w in zip(inst.psi, inst.psi_weights.tolist())]
            floor = inst.noise_variance()
        else:
            rows = [(p, 1.0 / len(over), y) for p, y in over.pairs]
            floor = 0.0
        v = lambda s: predict_value(model, s)  # noqa: E731
        loss = sum(w * v(s) + kappa * w * max(-v(s), 0.0) ** 2 for s, w in zip(p0.paths, p0.weights))
        return loss + 0.5 * 10.0 * (sum(w * (v(p) - y) ** 2 for p, w, y in rows) + floor)

    KINDS = ("tar_exact", "tar_empirical", "vlp")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_direct_sum(self, e2_bernoulli, kind, seed):
        model = TabularAdvantage.default(e2_bernoulli.trie).with_random_params(
            np.random.default_rng(seed)
        )
        loss, _ = self.compile(kind, e2_bernoulli, model)(model.drawdown_vector())
        assert loss == pytest.approx(self.direct_loss(kind, e2_bernoulli, model), rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_central_difference(self, e2_bernoulli, kind, seed):
        model = TabularAdvantage.default(e2_bernoulli.trie).with_random_params(
            np.random.default_rng(seed)
        )
        objective = self.compile(kind, e2_bernoulli, model)
        x = model.drawdown_vector()
        _, grad = objective(x)
        assert np.allclose(grad, central_diff(objective, x), rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("c", [-2.0, 5.0])
    def test_hessian_matches_gradient_difference(self, e2_bernoulli, kind, c):
        # every value sits below 0 (all hinges on) or above every yield
        # (all off) along the whole segment, so the gradient is affine on it
        rng = np.random.default_rng(7)
        model = TabularAdvantage.default(e2_bernoulli.trie, c=c).with_random_params(
            rng, c_range=(c, c)
        )
        objective = self.compile(kind, e2_bernoulli, model)
        x = model.drawdown_vector()
        start = objective(x)
        h = 1e-3
        for _ in range(3):
            d = rng.normal(size=x.size)
            _, g_end = objective(x + h * d)
            assert np.allclose(start.hessian() @ d, (g_end - start[1]) / h, rtol=1e-7, atol=1e-9)

    FEATURES = (EDGE_PAIR, DEPTH_EDGE_PAIR)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("features", FEATURES)
    @pytest.mark.parametrize("seed", range(3))
    def test_linear_equals_direct_sum(self, e2_bernoulli, kind, features, seed):
        model = linear_model(e2_bernoulli, features, seed)
        x = model.drawdown_vector()
        loss, _ = self.compile(kind, e2_bernoulli, model)(x)
        assert loss == pytest.approx(self.direct_loss(kind, e2_bernoulli, model), rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("features", FEATURES)
    @pytest.mark.parametrize("seed", range(3))
    def test_linear_gradient_matches_central_difference(self, e2_bernoulli, kind, features, seed):
        model = linear_model(e2_bernoulli, features, seed)
        objective = self.compile(kind, e2_bernoulli, model)
        x = model.drawdown_vector()
        _, grad = objective(x)
        assert np.allclose(grad, central_diff(objective, x), rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("features", FEATURES)
    def test_linear_gradient_off_the_bound(self, e2_bernoulli, features):
        # with some a > 0 the incomplete-state terms of the feasibility loss,
        # (a)_+^2 of one step, are live
        model = linear_model(e2_bernoulli, features, 0)
        objective = self.compile("vlp", e2_bernoulli, model)
        x = model.drawdown_vector()
        x[1:] = np.random.default_rng(4).uniform(-0.5, 0.5, size=x.size - 1)
        _, grad = objective(x)
        assert np.allclose(grad, central_diff(objective, x), rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("features", FEATURES)
    @pytest.mark.parametrize("c", [-2.0, 5.0])
    def test_linear_hessian_matches_gradient_difference(self, e2_bernoulli, kind, features, c):
        # as for the tabular model: every hinge stays on (c = -2) or off
        # (c = 5) along the whole segment
        model = linear_model(e2_bernoulli, features, 7, c=c)
        objective = self.compile(kind, e2_bernoulli, model)
        x = model.drawdown_vector()
        start = objective(x)
        rng = np.random.default_rng(7)
        h = 1e-3
        for _ in range(3):
            d = rng.normal(size=x.size)
            _, g_end = objective(x + h * d)
            assert np.allclose(start.hessian() @ d, (g_end - start[1]) / h, rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("features", FEATURES)
    def test_linear_optimum_sandwiched_by_tabular(self, features):
        # on a trie, a linear model is the tabular model whose edges share
        # their pair's drawdown: the tabular optimum is a lower bound
        lam, kappa = 100.0, 1000.0
        config = TrainConfig(tol=1e-7, max_iters=4000)
        for seed in range(20):
            inst, data = criterion_6_instance(seed)
            p0 = PathDistribution.uniform(inst.trie.nodes)
            linear = LinearAdvantage.default(inst.alphabet, kind=features)
            tied = train(linear, tar_objective(linear, p0, data, lam, kappa), config)
            assert tied.stop_reason == CONVERGED, (seed, tied.grad_norm)
            tabular = TabularAdvantage.default(inst.trie)
            free = train(tabular, tar_objective(tabular, p0, data, lam, kappa), config)
            assert free.converged
            assert free.final_loss <= tied.final_loss + 1e-9, seed


def column_hessian(model, states, curvature, size):
    """J^T diag(curvature) J built one column per slot: column k is the
    gradient term ``_value_grad`` of curvature times J e_k, each state's
    change along the k-th unit vector, where a fallback step moves nothing."""
    batch = _ValueBatch(model, states)
    pairs = batch.pairs(batch.node)
    h = np.empty((size, size))
    for k in range(size):
        unit = np.zeros(size + 1)  # each step reads [fallback, c, a_0, ...]
        unit[k + 1] = 1.0
        count = batch._pass(unit[batch.step])[batch.node]
        h[:, k] = _value_grad(pairs, curvature * count, size)
    return h


class TestHessian:
    """``Evaluation.hessian()`` forms the dense Hessian in one pass, bit for
    bit as the matrix built one column per slot."""

    @pytest.mark.parametrize("family", ["tabular", EDGE_PAIR])
    def test_equals_the_column_by_column_matrix(self, e2, family):
        rng = np.random.default_rng(11)
        if family == "tabular":
            model = TabularAdvantage.default(e2.trie)
        else:
            model = LinearAdvantage.default(e2.alphabet, kind=family)
        # c = -2: every value is below 0, so every p0 hinge is on and each
        # state's curvature is its hinge's or its misfit's weight
        model = model.with_random_params(rng, c_range=(-2.0, -2.0))
        # a linear state reads the pair (a, a) up to three times; a tabular
        # one off the trie falls back
        states = list(e2.trie.nodes) + [("a", "a", "a"), ("a", "a", "a", "END"), ("b", "a")]
        w = rng.uniform(0.5, 1.5, size=len(states))
        p0 = PathDistribution(paths=tuple(states), weights=tuple(w / w.sum()))
        lam, kappa = 10.0, 100.0
        x = model.drawdown_vector()
        start = tar_objective(model, p0, e2, lam, kappa)(x)
        curvature = np.concatenate((2.0 * kappa * np.array(p0.weights), lam * e2.psi_weights))
        want = column_hessian(model, p0.paths + e2.psi, curvature, x.size)
        assert start.hessian().tobytes() == want.tobytes()
        # a slot read twice by one state rounds (l, k) and (k, l) apart, so
        # the bits also pin the order of the terms
        assert family == "tabular" or np.any(want != want.T)


class TestTrain:
    def make_objective(self, inst, lam=10.0, kappa=100.0):
        model = TabularAdvantage.default(inst.trie)
        p0 = PathDistribution.uniform(inst.trie.nodes)
        return model, tar_objective(model, p0, inst, lam=lam, kappa=kappa)

    def make_linear_objective(self, inst, features=DEPTH_EDGE_PAIR, lam=10.0, kappa=100.0):
        """The linear family keeps the iterative solver and its cap."""
        model = LinearAdvantage.default(inst.alphabet, kind=features)
        p0 = PathDistribution.uniform(inst.trie.nodes)
        return model, tar_objective(model, p0, inst, lam=lam, kappa=kappa)

    def test_trace_strictly_decreases(self, e2_bernoulli):
        model, objective = self.make_linear_objective(e2_bernoulli)
        result = train(model, objective, TrainConfig(max_iters=300, tol=1e-12))
        assert result.solver == PROJECTED_NEWTON
        assert result.iterations >= 3
        assert np.all(np.diff(result.trace) < 0)

    def test_linear_train_evaluates_no_point_twice_in_a_row(self, e2_bernoulli):
        model, objective = self.make_linear_objective(e2_bernoulli, features=DEPTH_EDGE_PAIR)
        points = []

        def counting(x):
            points.append(x.copy())
            return objective(x)

        result = train(model, counting, TrainConfig(max_iters=300))
        assert result.solver == PROJECTED_NEWTON
        assert len(points) >= 3
        assert not any(np.array_equal(a, b) for a, b in zip(points, points[1:]))

    def test_converges_on_small_instance(self, e1):
        model, objective = self.make_objective(e1)
        config = TrainConfig(max_iters=30_000, tol=3e-8)
        result = train(model, objective, config)
        assert result.converged
        assert result.stop_reason == CONVERGED
        assert result.grad_norm <= config.tol
        assert result.iterations < config.max_iters
        final, _ = objective(result.model.drawdown_vector())
        assert final == pytest.approx(result.final_loss)

    def test_deterministic(self, e2):
        model, objective = self.make_objective(e2)
        config = TrainConfig(max_iters=500, tol=1e-10)
        first = train(model, objective, config)
        second = train(model, objective, config)
        assert np.array_equal(first.model.drawdown_vector(), second.model.drawdown_vector())
        assert np.array_equal(first.trace, second.trace)
        assert first.final_loss == second.final_loss

    def test_zero_iteration_budget(self, e2_bernoulli):
        model, objective = self.make_linear_objective(e2_bernoulli)
        result = train(model, objective, TrainConfig(max_iters=0))
        assert result.iterations == 0
        assert len(result.trace) == 1
        assert not result.converged
        assert result.stop_reason == ITERATION_CAP

    def test_solution_is_feasible_and_stored_as_solved(self, e2):
        model, objective = self.make_objective(e2)
        result = train(model, objective, TrainConfig(max_iters=5000, tol=1e-9))
        assert result.converged
        assert np.all(result.model.a <= 0.0)
        # the reported loss, zeros and certificate are those of the stored model
        loss, grad = objective(result.model.drawdown_vector())
        assert loss == result.final_loss == result.trace[-1]
        assert np.count_nonzero(result.model.a == 0.0) == result.zero_drawdowns > 0
        assert _projected_grad_norm(result.model.drawdown_vector(), grad) == result.grad_norm

    def test_plain_callable_rejected(self, e1):
        model, compiled = self.make_objective(e1)

        def plain(params):
            loss, grad = compiled(params)
            return loss, grad

        # the same function, returning a plain tuple
        assert train(model, compiled, TrainConfig(max_iters=200, tol=1e-12)).converged
        with pytest.raises(InvalidInputError):
            train(model, plain, TrainConfig())

    @pytest.mark.parametrize("features", [EDGE_PAIR, DEPTH_EDGE_PAIR])
    def test_linear_start_is_written_back(self, e2, features):
        # no iterations: the written model is the start, bit for bit
        model = linear_model(e2, features, 3)
        p0 = PathDistribution.uniform(e2.trie.nodes)
        objective = tar_objective(model, p0, e2, lam=10.0, kappa=100.0)
        result = train(model, objective, TrainConfig(max_iters=0))
        assert result.model.drawdown_vector().tobytes() == model.drawdown_vector().tobytes()
        assert result.final_loss == objective(model.drawdown_vector())[0]

    def test_no_decrease_is_reported(self, e1):
        model, _ = self.make_objective(e1)

        def flat(x):
            return Evaluation(1.0, np.ones_like(x))

        result = train(model, flat, TrainConfig(max_iters=10))
        assert result.iterations == 0
        assert result.stop_reason == NO_DECREASE
        assert not result.converged

    def test_evaluation_without_curvature(self, e2):
        # |x - t|^2 by hand: the Newton step sees a zero Hessian, and its
        # damping makes every step a gradient step
        model = LinearAdvantage.default(e2.alphabet)
        t = -np.linspace(0.1, 1.0, model.drawdown_vector().size)

        def quadratic(x):
            return Evaluation(float((x - t) @ (x - t)), 2.0 * (x - t))

        result = train(model, quadratic, TrainConfig(max_iters=100))
        assert result.stop_reason == CONVERGED
        assert np.allclose(result.model.drawdown_vector(), t)

    def test_level_step_reaches_the_tolerance(self):
        # the exact optimum of this objective rounds 1 ulp above an iterate
        # at a projected gradient of 2.2e-7: only a step that leaves the loss
        # level while lowering the projected gradient certifies it
        inst = random_instance(InstanceSpec(n_actions=3, max_depth=4, n_paths=2), 643499635)
        data = sample_dataset(inst, 200, 1126166762)
        observed = sorted({p for p, _ in data.pairs}, key=inst.alphabet.sort_key)
        p0 = PathDistribution.uniform(PrefixTrie.build(inst.alphabet, observed).nodes)
        model = LinearAdvantage.default(inst.alphabet)
        config = TrainConfig(tol=1e-7, max_iters=4000)
        result = train(model, tar_objective(model, p0, data, 100.0, 1000.0), config)
        assert result.stop_reason == CONVERGED, (result.stop_reason, result.grad_norm)
        assert result.final_loss == 3.5387500000000003

    def test_nonfinite_start_diverges(self, e1):
        model, _ = self.make_objective(e1)

        def bad(x):
            return Evaluation(float("nan"), np.zeros_like(x))

        with pytest.raises(TrainingDivergedError, match="^non-finite loss or gradient at iteration 0"):
            train(model, bad, TrainConfig())

    def test_nonfinite_gradient_mid_run_diverges(self, e1):
        model, _ = self.make_objective(e1)
        start = model.drawdown_vector()
        start_loss = float(start @ start)

        def leaky(x):
            # |x|^2, whose gradient breaks below the loss at the start
            f = float(x @ x)
            grad = 2.0 * x
            if f < start_loss:
                grad = grad + float("inf")
            return Evaluation(f, grad)

        with pytest.raises(TrainingDivergedError) as exc:
            train(model, leaky, TrainConfig(max_iters=1000, tol=1e-12))
        assert exc.value.iteration == 1

    def test_unbounded_linear_solve_diverges(self):
        # no mu half and no complete tilde states: the feasibility loss is c
        # plus nonpositive drawdowns, unbounded below. The solve used to stop
        # "converged" at c = -1.4e16, where c - g rounds back to c and the
        # rounded projected gradient reads 0.
        e1 = fixture_e1()
        model = LinearAdvantage.default(e1.alphabet)
        p0 = PathDistribution.uniform(e1.trie.nodes)
        base = PenaltyMix.default(e1)
        mix = PenaltyMix(tilde_pairs=base.tilde_pairs, tilde_weights=base.tilde_weights, mu_weight=0.0)
        with pytest.raises(TrainingDivergedError, match="^the loss is unbounded below at iteration "):
            train(model, vlp_objective(model, p0, mix, e1, lam=100.0, kappa=0.0), TrainConfig())

    def test_report_json_fields(self, e1):
        model, objective = self.make_objective(e1)
        result = train(model, objective, TrainConfig(max_iters=50))
        report = result.report_json()
        assert set(report) == {
            "final_loss",
            "iterations",
            "grad_norm",
            "converged",
            "stop_reason",
            "solver",
            "blocks",
            "zero_drawdowns",
        }
        assert report["solver"] == TREE_POOLING
        # e1's trie has 5 nodes: each pooling merge joins two blocks
        assert report["blocks"] == 5 - report["iterations"]
        x = result.model.drawdown_vector()
        assert report["zero_drawdowns"] == int(np.sum(x[1:] > -1e-17))

    def test_linear_report_json_fields(self, e2_bernoulli):
        model, objective = self.make_linear_objective(e2_bernoulli)
        report = train(model, objective, TrainConfig(max_iters=50)).report_json()
        assert set(report) == {
            "final_loss",
            "iterations",
            "grad_norm",
            "converged",
            "stop_reason",
            "solver",
        }
        assert report["solver"] == PROJECTED_NEWTON


class TestCholeskySolve:
    @given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_solves_positive_definite_systems(self, n, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(n, n))
        a = m @ m.T + 0.1 * np.eye(n)
        b = rng.normal(size=n)
        x = _cholesky_solve(a.copy(), b, 0.1)
        assert np.allclose(a @ x, b, rtol=1e-9, atol=1e-9)

    def test_floor_keeps_a_singular_system_a_descent_step(self):
        # rank one: every pivot after the first rounds to about 0 and is
        # raised to the floor, so the solve is finite and b . x > 0
        v = np.array([1.0, 1.0 / 3.0, 2.0 / 7.0, 0.1])
        b = np.array([1.0, -2.0, 0.5, 3.0])
        x = _cholesky_solve(np.multiply.outer(v, v), b, 1e-6)
        assert np.all(np.isfinite(x))
        assert b @ x > 0.0


def tree_case(inst, kind, lam, kappa, trie_paths, seed):
    """(model, objective) for one tree-solve case: the model's trie holds
    ``trie_paths`` of the instance's support (all of it for "tar_exact"),
    or the observed paths of a sampled dataset for "tar_empirical"."""
    alphabet = inst.alphabet
    if kind == "tar_empirical":
        data = sample_dataset(inst, n=40, seed=seed)
        trie_paths = sorted({p for p, _ in data.pairs}, key=alphabet.sort_key)
    elif kind == "tar_exact":
        trie_paths = inst.psi
    trie = PrefixTrie.build(alphabet, trie_paths)
    model = TabularAdvantage.default(trie)
    states = list(trie.nodes)
    if kind == "p0_off_trie":
        # every proper fringe state too: off the trie, read through the
        # deepest trie prefix and the fallback drawdown
        states += [s for s in fringe_states(trie) if alphabet.is_proper(s)]
    p0 = PathDistribution(paths=tuple(states), weights=(1.0 / len(states),) * len(states))
    if kind == "vlp":
        pairs = tuple(
            (s, a) for s in fringe_states(trie) if s not in inst.row_of for a in alphabet.tokens
        )
        mix = PenaltyMix(tilde_pairs=pairs, tilde_weights=(1.0 / len(pairs),) * len(pairs))
        return model, vlp_objective(model, p0, mix, inst, lam, kappa)
    return model, tar_objective(model, p0, data if kind == "tar_empirical" else inst, lam, kappa)


class TestTreeSolve:
    """Tabular objectives are isotonic regression on the trie, solved
    exactly by pooling; the iterative drawdown solver is the reference."""

    KINDS = ("tar_exact", "tar_empirical", "vlp", "p0_off_trie")

    @given(
        inst=instances(max_tokens=3, max_depth=5, max_paths=10, noise=NoiseModel.bernoulli()),
        kind=st.sampled_from(KINDS),
        lam=st.sampled_from([1.0, 10.0, 100.0]),
        kappa=st.sampled_from([0.0, 100.0]),
        keep=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=100)
    def test_matches_iterative_solve(self, inst, kind, lam, kappa, keep):
        # a nonempty subset of the support spans the model's trie
        chosen = [p for i, p in enumerate(inst.psi) if keep >> i & 1] or [inst.psi[0]]
        model, objective = tree_case(inst, kind, lam, kappa, chosen, keep)
        config = TrainConfig()
        result = train(model, objective, config)
        assert result.solver == TREE_POOLING
        assert result.converged, result.grad_norm
        assert result.grad_norm <= config.tol
        x = model.drawdown_vector()
        reference = _solve_drawdown(objective, objective(x), x, TrainConfig(tol=1e-10, max_iters=5000))
        assert result.trace[-1] <= reference[1][-1] + 1e-9
        assert result.final_loss == pytest.approx(result.trace[-1], rel=1e-12, abs=1e-12)

    def test_leaf_without_data_is_unbounded(self, e1):
        # with kappa 0 nothing bounds the extra leaf's p0 term from below
        trie = PrefixTrie.build(e1.alphabet, list(e1.psi) + [("b", "b", "END")])
        model = TabularAdvantage.default(trie)
        objective = tar_objective(model, PathDistribution.uniform(trie.nodes), e1, lam=10.0, kappa=0.0)
        with pytest.raises(TrainingDivergedError, match="^the loss is unbounded below at iteration "):
            train(model, objective, TrainConfig())
        # a hinge bounds it
        bounded = tar_objective(model, PathDistribution.uniform(trie.nodes), e1, lam=10.0, kappa=1.0)
        assert train(model, bounded, TrainConfig()).converged

    def test_root_block_without_hinges_is_unbounded(self, e1):
        # no mu half and no complete tilde states: the feasibility loss has
        # only its linear p0 term left, and every block pools into the root
        model = TabularAdvantage.default(e1.trie)
        p0 = PathDistribution.uniform(e1.trie.nodes)
        base = PenaltyMix.default(e1)
        mix = PenaltyMix(tilde_pairs=base.tilde_pairs, tilde_weights=base.tilde_weights, mu_weight=0.0)
        with pytest.raises(TrainingDivergedError, match="^the loss is unbounded below at iteration "):
            train(model, vlp_objective(model, p0, mix, e1, lam=10.0, kappa=0.0), TrainConfig())

    def test_iteration_cap_does_not_apply(self, e2_bernoulli):
        model = TabularAdvantage.default(e2_bernoulli.trie)
        objective = tar_objective(model, PathDistribution.uniform(e2_bernoulli.trie.nodes), e2_bernoulli, 10.0, 100.0)
        capped = train(model, objective, TrainConfig(max_iters=0))
        assert capped.stop_reason == CONVERGED
        free = train(model, objective, TrainConfig(max_iters=50_000))
        assert np.array_equal(capped.model.drawdown_vector(), free.model.drawdown_vector())

    def test_solution_ignores_the_start(self, e2_bernoulli):
        p0 = PathDistribution.uniform(e2_bernoulli.trie.nodes)
        fitted = []
        for seed in range(3):
            model = TabularAdvantage.default(e2_bernoulli.trie).with_random_params(np.random.default_rng(seed))
            fitted.append(train(model, tar_objective(model, p0, e2_bernoulli, 10.0, 100.0), TrainConfig()))
        assert all(np.array_equal(f.model.drawdown_vector(), fitted[0].model.drawdown_vector()) for f in fitted)

    def test_uncertified_solution_says_so(self, e1):
        model, objective = TestTrain().make_objective(e1)
        result = train(model, objective, TrainConfig(tol=1e-300))
        assert result.stop_reason == UNCERTIFIED
        assert not result.converged

    @given(
        k=st.floats(-10.0, 10.0),
        b=st.sampled_from([0.0, 0.5, 3.0]),
        g=st.sampled_from([0.0, 2.0]),
        hinges=st.lists(
            st.tuples(st.floats(-5.0, 5.0), st.floats(0.1, 4.0)), max_size=4
        ),
    )
    def test_block_minimizer(self, k, b, g, hinges):
        def slope(v):
            return k + 2 * b * v + 2 * g * min(v, 0.0) - 2 * sum(w * max(t - v, 0.0) for t, w in hinges)

        v = _block_min(k, b, g, hinges)
        if math.isinf(v):
            # +inf: the derivative never turns positive; -inf: it is
            # positive everywhere
            far = 1e6 if v > 0 else -1e6
            assert (slope(far) <= 0.0) if v > 0 else (slope(far) > 0.0)
        else:
            assert abs(slope(v)) <= 1e-9 * (1.0 + abs(k) + sum(w * abs(t) for t, w in hinges))
            assert slope(v + 1e-6) > 0.0 or (b == 0.0 and all(t < v for t, _ in hinges))
        # the closed form is the scan with one breakpoint at 0
        if not hinges and g > 0.0:
            assert _block_min(k, b, 0.0, [(0.0, g)]) == v

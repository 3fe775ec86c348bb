"""Greedy rollout from trained or encoded models, and regret scoring."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tarpath.errors import InvalidInputError
from tarpath.instance import PathDistribution
from tarpath.losses import TrainConfig, tar_objective, train
from tarpath.model import DEPTH_BUCKETS, DEPTH_EDGE_PAIR, EDGE_PAIR, LinearAdvantage, TabularAdvantage, value_steps
from tarpath.oracle import compute_optimal
from tarpath.pathspace import PrefixTrie
from tarpath.planner import default_max_len, evaluate_plan, greedy_path

from .reference import per_token_rollout, predict_value, step_drawdown
from .strategies import instances
from .test_losses import flat_model


class TestGreedyPath:
    def test_oracle_encoding_recovers_best_path_e1(self, e1):
        ov = compute_optimal(e1)
        model = TabularAdvantage.from_oracle(ov)
        result = greedy_path(model, max_len=5)
        assert result.path == ("a", "END")
        assert not result.truncated
        assert result.predicted_value == pytest.approx(0.8, abs=1e-9)

    def test_oracle_encoding_recovers_best_path_e2(self, e2):
        ov = compute_optimal(e2)
        model = TabularAdvantage.from_oracle(ov)
        result = greedy_path(model, max_len=5)
        assert result.path == ("a", "a", "END")
        assert result.predicted_value == pytest.approx(0.9, abs=1e-9)

    @given(inst=instances(max_tokens=3, max_depth=4, max_paths=8))
    @settings(max_examples=30)
    def test_oracle_encoding_has_zero_regret(self, inst):
        ov = compute_optimal(inst)
        model = TabularAdvantage.from_oracle(ov)
        result = greedy_path(model, max_len=default_max_len(model))
        scored = evaluate_plan(result, inst)
        assert not scored.truncated
        assert scored.regret == pytest.approx(0.0, abs=1e-9)

    def test_ties_break_by_declaration_order(self, e1):
        model = flat_model(e1.trie, c=0.5)
        result = greedy_path(model, max_len=4)
        assert result.path == ("a", "END")
        # a and b tie exactly at the root; at ("a",) END beats the fallbacks
        assert result.margins[0] == 0.0
        assert result.margins[1] == pytest.approx(model.fallback_B)
        assert result.to_json()["margins"] == list(result.margins)
        # one step rests on declaration order
        assert result.ties == 1
        assert result.to_json()["ties"] == 1

    @given(inst=instances(max_tokens=3, max_depth=4, max_paths=8))
    @settings(max_examples=30)
    def test_ties_count_the_zero_margins(self, inst):
        # a flat model ties on-trie siblings at the zero drawdown
        model = flat_model(inst.trie, c=0.5)
        result = greedy_path(model, max_len=default_max_len(model))
        assert result.ties == sum(m == 0.0 for m in result.margins)
        assert result.ties >= ((inst.trie.child[0] >= 0).sum() > 1)

    @given(inst=instances(max_tokens=3, max_depth=4, max_paths=8))
    @settings(max_examples=30)
    def test_oracle_encoding_margins_are_nonnegative(self, inst):
        model = TabularAdvantage.from_oracle(compute_optimal(inst))
        result = greedy_path(model, max_len=default_max_len(model))
        assert len(result.margins) == len(result.path)
        assert all(m >= 0.0 for m in result.margins)

    def test_truncation_at_budget(self, e2):
        model = TabularAdvantage.from_oracle(compute_optimal(e2))
        result = greedy_path(model, max_len=1)
        assert result.truncated
        assert result.path == ("a",)
        assert result.predicted_value == pytest.approx(0.9, abs=1e-9)

    def test_budget_must_be_positive(self, e1):
        model = TabularAdvantage.default(e1.trie)
        with pytest.raises(InvalidInputError):
            greedy_path(model, max_len=0)

    def test_trained_model_plans_e1_optimum(self, e1):
        model = TabularAdvantage.default(e1.trie)
        p0 = PathDistribution.uniform(e1.trie.nodes)
        objective = tar_objective(model, p0, e1, lam=10.0, kappa=100.0)
        result = train(model, objective, TrainConfig(max_iters=10_000, tol=1e-7))
        scored = evaluate_plan(greedy_path(result.model, default_max_len(result.model)), e1)
        assert scored.path == ("a", "END")
        assert scored.regret == pytest.approx(0.0, abs=1e-9)


class TestRolloutReference:
    """``greedy_path`` reads one row of drawdowns per state; the per-token
    rollout over the scalar step lookup (``tests/reference.py``) is what it
    replaced. The path, the truncation flag and the margins must match it
    bit for bit, signed zeros included, and the predicted value must be
    ``value_steps``' sum."""

    @given(
        inst=instances(),
        family=st.sampled_from(["tabular", EDGE_PAIR, DEPTH_EDGE_PAIR]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        zeros=st.sampled_from([0.0, 0.5, 1.0]),
        long=st.booleans(),
        max_len=st.integers(min_value=1, max_value=DEPTH_BUCKETS + 4),
    )
    def test_plan_is_the_per_token_rollout(self, inst, family, seed, zeros, long, max_len):
        rng = np.random.default_rng(seed)
        if family == "tabular":
            # a trie of half the support, and a fallback that can beat its
            # drawdowns or tie them at -0.0, so that plans leave the trie
            trie = PrefixTrie.build(inst.alphabet, inst.psi[::2])
            model = TabularAdvantage.default(trie, fallback_B=float(rng.choice([0.0, 0.3, 10.0])))
        else:
            model = LinearAdvantage.default(inst.alphabet, kind=family)
        x = model.with_random_params(rng, log_scale=2.0).drawdown_vector()
        # sibling ties at 0 and -0.0
        tied = np.flatnonzero(rng.random(x.size - 1) < zeros) + 1
        x[tied] = np.where(rng.random(tied.size) < 0.5, 0.0, -0.0)
        if long and family != "tabular":
            # a terminal step that never wins, so plans run past the last
            # depth bucket
            n = len(inst.alphabet.tokens)
            x[1:][np.arange(x.size - 1) % n == inst.alphabet.index(inst.alphabet.terminal)] = -1e3
        model = model.with_drawdowns(x)
        plan = greedy_path(model, max_len)
        path, truncated, margins = per_token_rollout(model.alphabet, partial(step_drawdown, model), max_len)
        assert (plan.path, plan.truncated) == (path, truncated)
        assert np.array(plan.margins).tobytes() == np.array(margins).tobytes()
        assert np.array(plan.predicted_value).tobytes() == np.array(value_steps(model, path)[0]).tobytes()
        assert np.array(plan.predicted_value).tobytes() == np.array(predict_value(model, path)).tobytes()

    def test_linear_plan_runs_past_the_depth_buckets(self, e2):
        model = LinearAdvantage.default(e2.alphabet, kind=DEPTH_EDGE_PAIR)
        x = model.drawdown_vector()
        slot = np.arange(x.size - 1)
        # a's drawdown is -0.1 per depth bucket, END's -1 and b's -log 2,
        # so every step takes a, and the margin stops shrinking at the last
        # bucket
        x[1:][slot % 3 == 0] = -(slot[slot % 3 == 0] // model.n_pairs) / 10
        x[1:][slot % 3 == 2] = -1.0
        model = model.with_drawdowns(x)
        plan = greedy_path(model, DEPTH_BUCKETS + 2)
        want = per_token_rollout(model.alphabet, partial(step_drawdown, model), DEPTH_BUCKETS + 2)
        assert (plan.path, plan.truncated, plan.margins) == want
        assert plan.path == ("a",) * (DEPTH_BUCKETS + 2)
        depths = np.minimum(np.arange(DEPTH_BUCKETS + 2), DEPTH_BUCKETS - 1)
        assert plan.margins == pytest.approx(np.log(2.0) - depths / 10, abs=1e-15)


class TestEvaluatePlan:
    def test_off_support_path_scores_zero_yield(self, e2):
        ov = compute_optimal(e2)
        model = TabularAdvantage.from_oracle(ov)
        truncated = greedy_path(model, max_len=1)
        scored = evaluate_plan(truncated, e2)
        assert scored.true_yield == 0.0
        assert scored.regret == pytest.approx(0.9)

    def test_to_json_round_trip_fields(self, e1):
        ov = compute_optimal(e1)
        model = TabularAdvantage.from_oracle(ov)
        scored = evaluate_plan(greedy_path(model, 4), e1)
        blob = scored.to_json()
        assert blob["path"] == ["a", "END"]
        assert blob["true_yield"] == pytest.approx(0.8)
        assert blob["regret"] == pytest.approx(0.0, abs=1e-9)
        assert blob["truncated"] is False


class TestDefaultMaxLen:
    def test_tabular_uses_model_trie(self, e2):
        model = TabularAdvantage.default(e2.trie)
        assert default_max_len(model) == e2.trie.depth + 2

    def test_linear_falls_back_to_instance(self, e2):
        model = LinearAdvantage.default(e2.alphabet)
        assert default_max_len(model, e2) == e2.trie.depth + 2

    def test_linear_without_instance_rejected(self, e2):
        model = LinearAdvantage.default(e2.alphabet)
        with pytest.raises(InvalidInputError):
            default_max_len(model)

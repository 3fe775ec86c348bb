"""Greedy rollout from trained or encoded models, and regret scoring."""

import pytest
from hypothesis import given, settings

from tarpath.errors import InvalidInputError
from tarpath.instance import PathDistribution
from tarpath.losses import TrainConfig, tar_objective, train
from tarpath.model import LinearAdvantage, TabularAdvantage
from tarpath.oracle import compute_optimal
from tarpath.planner import default_max_len, evaluate_plan, greedy_path

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
        assert result.ties >= ((inst.trie.child[inst.trie.index[()]] >= 0).sum() > 1)

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

"""The sequential-decision view and offline dataset relabeling."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tarpath import serialize
from tarpath.errors import InvalidInputError, RolloutError
from tarpath.instance import sample_dataset
from tarpath.reduction import (
    ReducedMDP,
    RLTransition,
    build_offline_dataset,
    load_rl_dataset,
    rollout_greedy,
    save_rl_dataset,
)

from .strategies import instances


class TestReducedMDP:
    def test_transition_appends(self, e1):
        mdp = ReducedMDP(e1)
        assert mdp.initial_state == ()
        assert mdp.transition((), "a") == ("a",)
        assert mdp.transition(("a",), "END") == ("a", "END")

    def test_transition_validates_token(self, e1):
        with pytest.raises(InvalidInputError):
            ReducedMDP(e1).transition((), "z")

    def test_reward_mean_on_and_off_support(self, e1):
        mdp = ReducedMDP(e1)
        assert mdp.reward_mean(("a", "END")) == 0.8
        assert mdp.reward_mean(("a",)) == 0.0
        assert mdp.reward_mean(("b", "b", "END")) == 0.0

    def test_sample_reward_noiseless(self, e1):
        mdp = ReducedMDP(e1)
        rng = np.random.default_rng(0)
        assert mdp.sample_reward(("a", "END"), "a", rng) == 0.8
        assert mdp.sample_reward(("a",), "a", rng) == 0.0

    def test_mu_marginal_sums_to_one(self, e2):
        weights = [w for _, _, w in ReducedMDP(e2).mu_marginal()]
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)

    @given(instances())
    def test_mu_marginal_pairs_support_times_tokens(self, inst):
        mdp = ReducedMDP(inst)
        entries = mdp.mu_marginal()
        states = {s for s, _, _ in entries}
        assert states == set(inst.path_dist.paths)
        per_state = len(inst.alphabet.tokens)
        assert len(entries) == len(states) * per_state


class TestRLTransition:
    def test_accepts_consistent_target(self):
        t = RLTransition(s=("a",), a="END", r=0.5, s_next=("a", "END"))
        assert t.s_next == ("a", "END")

    def test_rejects_inconsistent_target(self):
        with pytest.raises(InvalidInputError):
            RLTransition(s=("a",), a="END", r=0.5, s_next=("a", "a"))


class TestBuildOfflineDataset:
    def test_deterministic(self, e2_bernoulli):
        data = sample_dataset(e2_bernoulli, 30, seed=1)
        a = build_offline_dataset(e2_bernoulli, data, seed=2)
        b = build_offline_dataset(e2_bernoulli, data, seed=2)
        assert a.transitions == b.transitions

    def test_states_and_rewards_match_data(self, e2_bernoulli):
        data = sample_dataset(e2_bernoulli, 30, seed=1)
        rl = build_offline_dataset(e2_bernoulli, data, seed=2)
        assert len(rl) == len(data)
        for (path, y), t in zip(data.pairs, rl):
            assert t.s == path
            assert t.r == y
            assert t.s_next == path + (t.a,)
            assert t.a in e2_bernoulli.alphabet.tokens

    def test_rejects_off_support_path(self, e1):
        from tarpath.instance import PathYieldDataset

        bad = PathYieldDataset(pairs=((("a", "a", "END"), 0.1),), seed=0)
        with pytest.raises(InvalidInputError):
            build_offline_dataset(e1, bad, seed=0)


class TestRolloutGreedy:
    def test_mapping_policy_reaches_terminal(self, e1):
        policy = {(): "a", ("a",): "END"}
        result = rollout_greedy(policy, ReducedMDP(e1), max_steps=5)
        assert result.path == ("a", "END")
        assert not result.truncated

    def test_callable_policy(self, e1):
        result = rollout_greedy(lambda s: "END", ReducedMDP(e1), max_steps=5)
        assert result.path == ("END",)

    def test_undefined_state_raises(self, e1):
        with pytest.raises(RolloutError):
            rollout_greedy({(): "a"}, ReducedMDP(e1), max_steps=5)

    def test_truncation_without_terminal(self, e1):
        result = rollout_greedy(lambda s: "a", ReducedMDP(e1), max_steps=3)
        assert result.truncated
        assert result.path == ("a", "a", "a")

    def test_max_steps_validation(self, e1):
        with pytest.raises(InvalidInputError):
            rollout_greedy({}, ReducedMDP(e1), max_steps=0)


class TestPersistence:
    def test_round_trip(self, tmp_path, e2_bernoulli):
        data = sample_dataset(e2_bernoulli, 20, seed=3)
        rl = build_offline_dataset(e2_bernoulli, data, seed=4)
        path = tmp_path / "rl.jsonl"
        save_rl_dataset(rl, str(path))
        loaded = load_rl_dataset(str(path))
        assert loaded.transitions == rl.transitions

    def test_file_is_the_generic_jsonl(self, tmp_path, e2_bernoulli):
        rl = build_offline_dataset(e2_bernoulli, sample_dataset(e2_bernoulli, 60, seed=3), seed=5)
        fast, generic = tmp_path / "fast.jsonl", tmp_path / "generic.jsonl"
        save_rl_dataset(rl, str(fast))
        serialize.dump_jsonl(
            ({"s": list(t.s), "a": t.a, "r": t.r, "s_next": list(t.s_next)} for t in rl.transitions),
            str(generic),
        )
        assert fast.read_bytes() == generic.read_bytes()

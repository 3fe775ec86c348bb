"""The offline transition export, and policy rollouts of the sequential
decision view through the planner's argmax loop."""

import numpy as np
import pytest

from tarpath import serialize
from tarpath.errors import InvalidInputError
from tarpath.instance import PathYieldDataset, sample_dataset
from tarpath.planner import greedy_rollout
from tarpath.reduction import build_offline_dataset, load_rl_dataset, save_rl_dataset


def _write_rows(tmp_path, *rows):
    path = tmp_path / "rl.jsonl"
    serialize.dump_jsonl(rows, str(path))
    return str(path)


class TestRLTransition:
    def test_accepts_consistent_target(self, tmp_path):
        path = _write_rows(tmp_path, {"s": ["a"], "a": "END", "r": 0.5, "s_next": ["a", "END"]})
        assert load_rl_dataset(path).triples == ((("a",), "END", 0.5),)

    def test_rejects_inconsistent_target(self, tmp_path):
        path = _write_rows(
            tmp_path,
            {"s": [], "a": "a", "r": 0.0, "s_next": ["a"]},
            {"s": ["a"], "a": "END", "r": 0.5, "s_next": ["a", "a"]},
        )
        with pytest.raises(InvalidInputError, match=r"rl\.jsonl: row 2: transition target"):
            load_rl_dataset(path)

    @pytest.mark.parametrize(
        "row",
        [
            {"s": ["a"], "a": "END", "r": "x", "s_next": ["a", "END"]},
            {"s": ["a"], "a": "END", "r": 10**400, "s_next": ["a", "END"]},
            {"s": ["a"], "a": "END", "s_next": ["a", "END"]},
            {"s": [1], "a": "END", "r": 0.5, "s_next": [1, "END"]},
            ["a", "END"],
        ],
    )
    def test_rejects_malformed_row_naming_file_and_row(self, tmp_path, row):
        path = _write_rows(tmp_path, {"s": [], "a": "a", "r": 0.0, "s_next": ["a"]}, row)
        with pytest.raises(InvalidInputError, match=r"rl\.jsonl: malformed transition row 2"):
            load_rl_dataset(path)


class TestBuildOfflineDataset:
    def test_deterministic(self, e2_bernoulli):
        data = sample_dataset(e2_bernoulli, 30, seed=1)
        a = build_offline_dataset(e2_bernoulli, data, seed=2)
        b = build_offline_dataset(e2_bernoulli, data, seed=2)
        assert a.triples == b.triples

    def test_states_and_rewards_match_data(self, e2_bernoulli):
        data = sample_dataset(e2_bernoulli, 30, seed=1)
        transitions = build_offline_dataset(e2_bernoulli, data, seed=2)
        assert transitions.log is data
        assert len(transitions) == len(data)
        for (path, y), (s, a, r) in zip(data.pairs, transitions.triples):
            assert s == path
            assert r == y
            assert a in e2_bernoulli.alphabet.tokens

    def test_rejects_off_support_path(self, e1):
        bad = PathYieldDataset.from_pairs(((("a", "a", "END"), 0.1),))
        with pytest.raises(InvalidInputError):
            build_offline_dataset(e1, bad, seed=0)

    def test_rejects_negative_seed(self, e2_bernoulli):
        data = sample_dataset(e2_bernoulli, 5, seed=1)
        with pytest.raises(InvalidInputError, match="^seed must be nonnegative, got -2$"):
            build_offline_dataset(e2_bernoulli, data, seed=-2)


class TestRolloutGreedy:
    """A deterministic policy rolls out as the score 1 on its action, 0
    elsewhere, one row of scores per state."""

    def test_mapping_policy_reaches_terminal(self, e1):
        policy = {(): "a", ("a",): "END"}
        scores = lambda s: np.array([float(policy[s] == a) for a in e1.alphabet.tokens])  # noqa: E731
        path, truncated, _ = greedy_rollout(e1.alphabet, scores, 5)
        assert path == ("a", "END")
        assert not truncated

    def test_callable_policy(self, e1):
        path, _, margins = greedy_rollout(e1.alphabet, lambda s: np.array([0.0, 0.0, 1.0]), 5)
        assert path == ("END",)
        assert margins == (1.0,)

    def test_truncation_without_terminal(self, e1):
        path, truncated, _ = greedy_rollout(e1.alphabet, lambda s: np.array([1.0, 0.0, 0.0]), 3)
        assert truncated
        assert path == ("a", "a", "a")

    def test_max_steps_validation(self, e1):
        with pytest.raises(InvalidInputError):
            greedy_rollout(e1.alphabet, lambda s: np.zeros(3), 0)


class TestPersistence:
    def test_round_trip(self, tmp_path, e2_bernoulli):
        data = sample_dataset(e2_bernoulli, 20, seed=3)
        transitions = build_offline_dataset(e2_bernoulli, data, seed=4)
        path = tmp_path / "rl.jsonl"
        save_rl_dataset(transitions, str(path))
        assert load_rl_dataset(str(path)).triples == transitions.triples

    def test_file_is_the_generic_jsonl(self, tmp_path, e2_bernoulli):
        data = sample_dataset(e2_bernoulli, 60, seed=3)
        data = PathYieldDataset.from_pairs(data.pairs + ((("b", "END"), 0.1), (("b", "END"), -0.0)))
        self.check_generic(tmp_path, build_offline_dataset(e2_bernoulli, data, seed=5))

    def test_loaded_states_may_be_empty(self, tmp_path):
        path = _write_rows(
            tmp_path,
            {"s": [], "a": "a", "r": 0.0, "s_next": ["a"]},
            {"s": ["a"], "a": "END", "r": -2.5, "s_next": ["a", "END"]},
            {"s": [], "a": "END", "r": 1.0, "s_next": ["END"]},
        )
        transitions = load_rl_dataset(path)
        assert transitions.log.paths == ((), ("a",))
        assert transitions.tokens == ("a", "END")
        self.check_generic(tmp_path, transitions)

    def check_generic(self, tmp_path, transitions):
        fast, generic = tmp_path / "fast.jsonl", tmp_path / "generic.jsonl"
        save_rl_dataset(transitions, str(fast))
        serialize.dump_jsonl(
            ({"s": list(s), "a": a, "r": r, "s_next": list(s) + [a]} for s, a, r in transitions.triples),
            str(generic),
        )
        assert fast.read_bytes() == generic.read_bytes()

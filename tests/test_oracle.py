"""Backward-induction optimal values and their enumeration cross-check."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tarpath.errors import InvalidInstanceError
from tarpath.instance import NoiseModel, PathDistribution, PLInstance
from tarpath.oracle import (
    OptimalValues,
    check_decomposition,
    compute_optimal,
    max_bellman_violation,
    node_decomposition,
    save_oracle,
)
from tarpath.pathspace import EMPTY, ActionAlphabet, random_improper
from tarpath.planner import PlanResult, evaluate_plan, greedy_rollout
from tarpath.serialize import dump_json, load_json

from .reference import enumeration_advantage, enumeration_value, oracle_to_json
from .strategies import instances


class TestHandValues:
    def test_e1(self, e1):
        ov = compute_optimal(e1)
        assert ov.j_star == 0.8
        assert ov.value_at(("b",)) == 0.3
        assert ov.advantage_at(EMPTY, "a") == 0.0
        assert ov.advantage_at(EMPTY, "b") == -0.5

    def test_e2(self, e2):
        ov = compute_optimal(e2)
        assert ov.j_star == 0.9
        assert ov.value_at(("a",)) == 0.9
        assert ov.value_at(("a", "b")) == 0.2
        assert ov.value_at(("b",)) == 0.5
        assert ov.advantage_at(("a",), "b") == pytest.approx(-0.7)
        assert ov.advantage_at(EMPTY, "END") == pytest.approx(-0.9)
        assert ov.advantage_at(EMPTY, "b") == pytest.approx(-0.4)

    def test_off_trie_lookups_are_zero(self, e2):
        ov = compute_optimal(e2)
        assert ov.value_at(("b", "b")) == 0.0
        assert ov.advantage_at(("b", "b"), "a") == 0.0

    def test_empty_support_raises(self):
        alphabet = ActionAlphabet(tokens=("a", "END"))
        inst = PLInstance(
            alphabet=alphabet,
            yields={},
            path_dist=PathDistribution(paths=(), weights=()),
            noise=NoiseModel.noiseless(),
        )
        with pytest.raises(InvalidInstanceError):
            compute_optimal(inst)


class TestInvariants:
    @given(instances())
    def test_advantages_nonpositive(self, inst):
        ov = compute_optimal(inst)
        tokens = inst.alphabet.tokens
        assert all(ov.advantage_at(node, a) <= 0.0 for node in inst.trie.nodes for a in tokens)

    @given(instances())
    def test_terminal_advantage_zero_on_support(self, inst):
        # committing to the terminal at a support path costs nothing
        ov = compute_optimal(inst)
        for path in inst.psi:
            assert ov.advantage_at(path, inst.alphabet.terminal) == 0.0

    @given(instances())
    def test_bellman_feasibility_exact(self, inst):
        assert max_bellman_violation(compute_optimal(inst)) == 0.0

    @given(instances())
    def test_decomposition_residual_zero(self, inst):
        ov = compute_optimal(inst)
        for node in inst.trie.nodes:
            assert abs(check_decomposition(ov, node)) <= 1e-12

    @given(instances(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_node_pass_is_check_decomposition_bit_for_bit(self, inst, seed):
        # arbitrary values and drawdowns, so that the sums round
        trie = inst.trie
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.0, 1.0, size=len(trie))
        q = rng.uniform(-1.0, 1.0, size=(len(trie), len(inst.alphabet.tokens)))
        ov = OptimalValues(trie=trie, v=v, a=q - v[:, None], j_star=float(v[0]))
        want = np.array([check_decomposition(ov, node) for node in trie.nodes])
        assert node_decomposition(ov).tobytes() == want.tobytes()

    @given(instances(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_decomposition_on_improper(self, inst, seed):
        ov = compute_optimal(inst)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            seq = random_improper(inst.alphabet, rng)
            assert check_decomposition(ov, seq) == 0.0

    @given(instances())
    def test_j_star_is_max_yield(self, inst):
        ov = compute_optimal(inst)
        assert ov.j_star == max(inst.yields[p] for p in inst.psi)
        # the empty path yields 0.0, so its regret is evaluate_plan's j_star
        empty = PlanResult(path=EMPTY, predicted_value=0.0, truncated=True)
        assert evaluate_plan(empty, inst).regret == ov.j_star


class TestEnumerationAgreement:
    @given(instances())
    def test_values_equal_exactly(self, inst):
        ov = compute_optimal(inst)
        for node in inst.trie.nodes:
            assert ov.value_at(node) == enumeration_value(inst, node)

    @given(instances())
    def test_advantages_equal_exactly_off_support(self, inst):
        ov = compute_optimal(inst)
        for node in inst.trie.nodes:
            if node in inst.yields:
                continue
            for a in inst.alphabet.tokens:
                assert ov.advantage_at(node, a) == enumeration_advantage(inst, node, a)

    def test_enumeration_off_trie(self, e2):
        assert enumeration_value(e2, ("b", "a")) == 0.0
        assert enumeration_value(e2, EMPTY) == 0.9


class TestGreedyPolicy:
    @given(instances())
    def test_rollout_attains_j_star(self, inst):
        ov = compute_optimal(inst)
        path, truncated, _ = greedy_rollout(inst.alphabet, ov.advantage_at, inst.trie.depth + 1)
        assert not truncated
        assert inst.yield_of(path) == ov.j_star

    def test_ties_resolve_by_declaration_order(self):
        alphabet = ActionAlphabet(tokens=("a", "b", "END"))
        inst = PLInstance(
            alphabet=alphabet,
            yields={("a", "END"): 0.5, ("b", "END"): 0.5},
            path_dist=PathDistribution.uniform([("a", "END"), ("b", "END")]),
            noise=NoiseModel.noiseless(),
        )
        path, _, margins = greedy_rollout(alphabet, compute_optimal(inst).advantage_at, 3)
        assert path == ("a", "END")
        assert margins[0] == 0.0


class TestSerialization:
    def test_dump_structure(self, tmp_path, e2):
        ov = compute_optimal(e2)
        out = tmp_path / "oracle.json"
        save_oracle(ov, str(out))
        obj = load_json(str(out))
        assert obj["j_star"] == 0.9
        assert len(obj["nodes"]) == len(e2.trie)
        root = next(n for n in obj["nodes"] if n["state"] == [])
        assert root["v"] == 0.9
        assert root["adv"]["b"] == pytest.approx(-0.4)
        assert set(root) == {"state", "v", "adv"}
        assert set(root["adv"]) == set(e2.alphabet.tokens)

    @given(instances(noise=NoiseModel.bernoulli()))
    def test_file_is_the_generic_dump(self, tmp_path_factory, inst):
        ov = compute_optimal(inst)
        d = tmp_path_factory.mktemp("oracle")
        save_oracle(ov, str(d / "fast.json"))
        dump_json(oracle_to_json(ov), str(d / "generic.json"))
        assert (d / "fast.json").read_bytes() == (d / "generic.json").read_bytes()

    def test_json_matches_maps(self, e2):
        ov = compute_optimal(e2)
        obj = oracle_to_json(ov)
        for i, entry in enumerate(obj["nodes"]):
            node = tuple(entry["state"])
            assert node == e2.trie.nodes[i]
            assert entry["v"] == ov.value_at(node)
            for a in e2.alphabet.tokens:
                assert entry["adv"][a] == ov.advantage_at(node, a)

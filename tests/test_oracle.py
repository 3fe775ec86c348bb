"""Backward-induction optimal values and their enumeration cross-check."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tarpath.errors import InvalidInstanceError
from tarpath.instance import NoiseModel, PLInstance
from tarpath.oracle import (
    OptimalValues,
    check_decomposition,
    compute_optimal,
)
from tarpath.pathspace import EMPTY, ActionAlphabet, SeqClass, grow
from tarpath.planner import PlanResult, evaluate_plan, greedy_rollout

from .reference import (
    advantage_at,
    decomposition_at,
    enumeration_advantage,
    enumeration_value,
    load_oracle_file,
    oracle_scores,
    per_token_rollout,
    random_improper,
    random_improper_rows,
    step_drawdown,
    value_at,
)
from .strategies import alphabets, instances

AB = ActionAlphabet(tokens=("a", "b", "END"), terminal="END")


class TestHandValues:
    def test_e1(self, e1):
        ov = compute_optimal(e1)
        assert ov.j_star == 0.8
        assert value_at(ov, ("b",)) == 0.3
        assert advantage_at(ov, EMPTY, "a") == 0.0
        assert advantage_at(ov, EMPTY, "b") == -0.5

    def test_e2(self, e2):
        ov = compute_optimal(e2)
        assert ov.j_star == 0.9
        assert value_at(ov, ("a",)) == 0.9
        assert value_at(ov, ("a", "b")) == 0.2
        assert value_at(ov, ("b",)) == 0.5
        assert advantage_at(ov, ("a",), "b") == pytest.approx(-0.7)
        assert advantage_at(ov, EMPTY, "END") == pytest.approx(-0.9)
        assert advantage_at(ov, EMPTY, "b") == pytest.approx(-0.4)

    def test_off_trie_lookups_are_zero(self, e2):
        # off-trie states carry 0, as enumeration gives them, so an edge
        # that leaves the trie draws the whole value of its state down
        ov = compute_optimal(e2)
        assert value_at(ov, ("b", "b")) == 0.0 == enumeration_value(e2, ("b", "b"))
        assert advantage_at(ov, ("b", "b"), "a") == 0.0
        assert advantage_at(ov, ("b",), "b") == -value_at(ov, ("b",)) == -0.5

    def test_empty_support_raises(self):
        alphabet = ActionAlphabet(tokens=("a", "END"))
        inst = PLInstance(alphabet=alphabet, psi=(), psi_yields=(), psi_weights=(), noise=NoiseModel.noiseless())
        with pytest.raises(InvalidInstanceError):
            compute_optimal(inst)


class TestInvariants:
    @given(instances())
    def test_advantages_nonpositive(self, inst):
        ov = compute_optimal(inst)
        tokens = inst.alphabet.tokens
        assert all(advantage_at(ov, node, a) <= 0.0 for node in inst.trie.nodes for a in tokens)

    @given(instances())
    def test_terminal_advantage_zero_on_support(self, inst):
        # committing to the terminal at a support path costs nothing
        ov = compute_optimal(inst)
        for path in inst.psi:
            assert advantage_at(ov, path, inst.alphabet.terminal) == 0.0

    @given(instances())
    def test_bellman_feasibility_exact(self, inst):
        # each v is the max over its children and yields are >= 0, so no
        # backup exceeds the value it backs up to
        assert not np.any(compute_optimal(inst).a > 0.0)

    @given(instances())
    def test_decomposition_residual_zero(self, inst):
        assert np.max(np.abs(check_decomposition(compute_optimal(inst)))) <= 1e-12

    @given(instances(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_node_pass_is_check_decomposition_bit_for_bit(self, inst, seed):
        # arbitrary values and drawdowns, so that the sums round
        trie = inst.trie
        rng = np.random.default_rng(seed)
        v = rng.uniform(0.0, 1.0, size=len(trie))
        q = rng.uniform(-1.0, 1.0, size=(len(trie), len(inst.alphabet.tokens)))
        ov = OptimalValues(trie=trie, v=v, a=q - v[:, None], j_star=float(v[0]))
        want = np.array([decomposition_at(ov, node) for node in trie.nodes])
        assert check_decomposition(ov).tobytes() == want.tobytes()

    @given(instances(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_no_trie_node_is_improper(self, inst, seed):
        # the trie holds complete paths and their prefixes, so the check over
        # its nodes meets no improper sequence: each one ends off the trie
        trie = inst.trie
        assert not any(inst.alphabet.classify(node) is SeqClass.IMPROPER for node in trie.nodes)
        rng = np.random.default_rng(seed)
        rows = [random_improper(inst.alphabet, rng) for _ in range(10)]
        end, *_ = grow(trie, inst.alphabet.encode(rows))
        assert (end >= len(trie)).all()

    @given(instances())
    def test_j_star_is_max_yield(self, inst):
        ov = compute_optimal(inst)
        assert ov.j_star == max(inst.yield_of(p) for p in inst.psi)
        # the empty path yields 0.0, so its regret is evaluate_plan's j_star
        empty = PlanResult(path=EMPTY, predicted_value=0.0, truncated=True)
        assert evaluate_plan(empty, inst).regret == ov.j_star


class TestEnumerationAgreement:
    @given(instances())
    def test_values_equal_exactly(self, inst):
        ov = compute_optimal(inst)
        for node in inst.trie.nodes:
            assert value_at(ov, node) == enumeration_value(inst, node)

    @given(instances())
    def test_advantages_equal_exactly_off_support(self, inst):
        ov = compute_optimal(inst)
        for node in inst.trie.nodes:
            if node in inst.row_of:
                continue
            for a in inst.alphabet.tokens:
                assert advantage_at(ov, node, a) == enumeration_advantage(inst, node, a)

    def test_enumeration_off_trie(self, e2):
        assert enumeration_value(e2, ("b", "a")) == 0.0
        assert enumeration_value(e2, EMPTY) == 0.9


class TestGreedyPolicy:
    @given(instances())
    def test_rollout_attains_j_star(self, inst):
        ov = compute_optimal(inst)
        rollout = greedy_rollout(inst.alphabet, oracle_scores(ov), inst.trie.depth + 1)
        # one row of the oracle's drawdowns per state rolls out as one
        # ``advantage_at`` call per token did
        score = lambda s, a: advantage_at(ov, s, a)  # noqa: E731
        assert rollout == per_token_rollout(inst.alphabet, score, inst.trie.depth + 1)
        path, truncated, _ = rollout
        assert not truncated
        assert inst.yield_of(path) == ov.j_star

    def test_ties_resolve_by_declaration_order(self):
        alphabet = ActionAlphabet(tokens=("a", "b", "END"))
        inst = PLInstance(
            alphabet=alphabet,
            psi=(("a", "END"), ("b", "END")),
            psi_yields=(0.5, 0.5),
            psi_weights=(0.5, 0.5),
            noise=NoiseModel.noiseless(),
        )
        path, _, margins = greedy_rollout(alphabet, oracle_scores(compute_optimal(inst)), 3)
        assert path == ("a", "END")
        assert margins[0] == 0.0


class TestOracleFile:
    """The oracle file is the exact tabular model (``load_oracle_file``
    checks it field by field)."""

    @pytest.mark.parametrize("name", ["e1", "e2"])
    def test_fixture_file_is_the_exact_model(self, tmp_path, request, name):
        ov = compute_optimal(request.getfixturevalue(name))
        _, values = load_oracle_file(ov, str(tmp_path / "oracle.json"))
        # the decimal yields round on the way down and back: v(b) = 0.3 in e1
        # and v(a, b) = 0.2 in e2 come back 2**-54 off, the decomposition
        # residual that ``verify`` reports
        assert np.max(np.abs(values - ov.v)) == 2**-54

    @given(instances(noise=NoiseModel.bernoulli()))
    def test_file_is_the_exact_model(self, tmp_path_factory, inst):
        ov = compute_optimal(inst)
        _, values = load_oracle_file(ov, str(tmp_path_factory.mktemp("oracle") / "oracle.json"))
        assert np.max(np.abs(values - ov.v)) <= 1e-12

    def test_off_trie_steps_fall_back(self, tmp_path, e2):
        # the exact drawdown of ("b",) -> a is -v(("b",)); the file has no
        # slot for it and reads -fallback_B, as every tabular model does
        ov = compute_optimal(e2)
        model, _ = load_oracle_file(ov, str(tmp_path / "oracle.json"))
        assert advantage_at(ov, ("b",), "a") == -value_at(ov, ("b",)) == -0.5
        assert step_drawdown(model, ("b",), "a") == -model.fallback_B == -10.0


class TestRandomImproper:
    @given(alphabets(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_always_improper(self, alphabet, seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            seq = random_improper(alphabet, rng)
            assert alphabet.classify(seq) is SeqClass.IMPROPER
            assert len(seq) <= 8

    @given(alphabets(), st.integers(min_value=0, max_value=2**32 - 1))
    def test_rows_are_improper(self, alphabet, seed):
        rows = random_improper_rows(alphabet, np.random.default_rng(seed), 200, max_len=5)
        seqs = [tuple(alphabet.tokens[r] for r in row if r >= 0) for row in rows.tolist()]
        assert all(alphabet.classify(seq) is SeqClass.IMPROPER for seq in seqs)
        # padded with -1 after each row's tokens, as encode writes them
        width = max(map(len, seqs))
        assert np.array_equal(alphabet.encode(seqs), rows[:, :width]) and (rows[:, width:] == -1).all()
        assert {len(seq) for seq in seqs} <= {2, 3, 4, 5}

    def test_rows_span_the_lengths(self):
        rows = random_improper_rows(AB, np.random.default_rng(7), 200, max_len=5)
        assert sorted(set((rows >= 0).sum(1).tolist())) == [2, 3, 4, 5]

    def test_deterministic_given_seed(self):
        a = [random_improper(AB, np.random.default_rng(7)) for _ in range(5)]
        b = [random_improper(AB, np.random.default_rng(7)) for _ in range(5)]
        assert a == b

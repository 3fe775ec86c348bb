"""Advantage models: the raw-score transform, families, values, drawdown
vectors, the model file."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tarpath import serialize
from tarpath.errors import InvalidInputError
from tarpath.losses import _ValueBatch
from tarpath.model import (
    DEFAULT_DRAWDOWN,
    DEPTH_BUCKETS,
    DEPTH_EDGE_PAIR,
    EDGE_PAIR,
    Z_CLAMP,
    LinearAdvantage,
    TabularAdvantage,
    advantage_transform,
    load_model,
    model_from_json,
    model_to_json,
    raw_from_advantage,
    save_model,
    value_steps,
)
from tarpath.oracle import compute_optimal
from tarpath.pathspace import EMPTY, ActionAlphabet, PrefixTrie

from .reference import pair, predict_value, step_drawdown
from .strategies import alphabets, instances, linear_models, tabular_models

AB = ActionAlphabet(tokens=("a", "b", "END"), terminal="END")


def step(model, s, a):
    """The model's drawdown of the step (s, a), from ``step_drawdowns``."""
    return model.step_drawdowns(s)[model.alphabet.index(a)]


def slot(model, s, a):
    """The ``edge_slots`` slot of the step (s, a) out of a state off the tree."""
    last = model.alphabet.index(s[-1]) if s else -1
    return int(model.edge_slots(len(model.tree), last, len(s), model.alphabet.index(a)))


class TestTransform:
    def test_known_values(self):
        assert advantage_transform(0.0) == pytest.approx(-math.log(2.0))
        assert advantage_transform(5.0) == pytest.approx(-5.006715348, abs=1e-8)
        assert advantage_transform(-20.0) == pytest.approx(-2.0611536e-9, rel=1e-6)

    def test_extreme_arguments_do_not_overflow(self):
        assert advantage_transform(1e308) == -1e308
        assert advantage_transform(-1e308) == 0.0

    @given(st.floats(min_value=-700, max_value=700))
    def test_always_negative(self, z):
        assert advantage_transform(z) < 0.0 or (
            advantage_transform(z) == 0.0 and z < -745
        )

    @given(st.floats(min_value=-30, max_value=30))
    def test_strictly_decreasing(self, z):
        assert advantage_transform(z) > advantage_transform(z + 0.5)

    @given(st.floats(min_value=-0.999, max_value=-1e-6))
    def test_raw_round_trip(self, a):
        assert advantage_transform(raw_from_advantage(a)) == pytest.approx(a, rel=1e-12)

    def test_zero_advantage_clamps(self):
        assert raw_from_advantage(0.0) == Z_CLAMP
        # the clamp maps back to a numerically negligible advantage
        assert abs(advantage_transform(Z_CLAMP)) < 1e-17

    def test_rejects_positive_or_nonfinite(self):
        with pytest.raises(InvalidInputError):
            raw_from_advantage(0.25)
        with pytest.raises(InvalidInputError):
            raw_from_advantage(float("nan"))
        with pytest.raises(InvalidInputError):
            raw_from_advantage(np.array([-0.5, 0.25]))

    def test_array_inverts_elementwise(self):
        a = np.array([0.0, -1e-30, -0.1, -3.0, -800.0])
        z = raw_from_advantage(a)
        assert z.shape == a.shape
        assert np.allclose(z, [raw_from_advantage(float(v)) for v in a], rtol=1e-15, atol=0.0)
        assert z[0] == z[1] == Z_CLAMP
        # large drawdowns invert without overflow: softplus(z) ~ z there
        assert z[-1] == pytest.approx(800.0, rel=1e-15)
        assert advantage_transform(z[2]) == pytest.approx(-0.1, rel=1e-12)


class TestTabular:
    def test_default_scores_every_edge(self, e2):
        model = TabularAdvantage.default(e2.trie)
        assert model.drawdown_vector().size == 1 + 7
        for s, a, _ in e2.trie.iter_edges():
            assert step(model, s, a) == DEFAULT_DRAWDOWN == -0.1

    def test_off_trie_falls_back(self, e2):
        model = TabularAdvantage.default(e2.trie)
        assert model.raw_z(("b",), "a") is None
        assert step(model, ("b",), "a") == -model.fallback_B

    def test_from_oracle_reproduces_drawdowns(self, e2):
        ov = compute_optimal(e2)
        model = TabularAdvantage.from_oracle(ov)
        assert model.c == 0.9
        assert step(model, ("a",), "b") == pytest.approx(-0.7, abs=1e-12)
        # the exact drawdowns, zeros included
        assert np.array_equal(model.a, ov.edge_drawdowns)
        assert step(model, EMPTY, "a") == 0.0

    def test_drawdowns_round_trip(self, e2):
        model = TabularAdvantage.default(e2.trie, c=0.4)
        vec = model.drawdown_vector()
        assert vec[0] == 0.4
        again = model.with_drawdowns(vec * 2.0)
        assert again.c == 0.8
        assert np.array_equal(again.drawdown_vector(), vec * 2.0)

    def test_drawdown_length_validated(self, e2):
        with pytest.raises(InvalidInputError, match=re.escape("one drawdown per trie edge (7), got shape (3,)")):
            TabularAdvantage(alphabet=e2.alphabet, c=0.0, a=np.zeros(3), trie=e2.trie)

    @pytest.mark.parametrize("family", ["tabular", "linear"])
    @pytest.mark.parametrize("value", [0.25, float("nan"), float("inf"), -float("inf")])
    def test_drawdowns_must_be_finite_and_nonpositive(self, e2, family, value):
        model = TabularAdvantage.default(e2.trie) if family == "tabular" else LinearAdvantage.default(e2.alphabet)
        x = model.drawdown_vector()
        x[3] = value
        with pytest.raises(InvalidInputError, match=re.escape(f"drawdown a[2] must be finite and <= 0, got {value!r}")):
            model.with_drawdowns(x)

    @pytest.mark.parametrize("c", [float("nan"), float("inf")])
    def test_c_must_be_finite(self, e2, c):
        with pytest.raises(InvalidInputError, match="model constant c must be finite"):
            TabularAdvantage.default(e2.trie, c=c)

    @pytest.mark.parametrize("fallback_B", [-3.0, float("nan"), float("inf")])
    def test_fallback_B_validated(self, e2, fallback_B):
        with pytest.raises(InvalidInputError):
            TabularAdvantage.default(e2.trie, fallback_B=fallback_B)

    def test_copies_share_the_trie(self, e2):
        model = TabularAdvantage.default(e2.trie)
        again = model.with_drawdowns(model.drawdown_vector() * 2.0)
        assert again.trie is model.trie is e2.trie

    def test_with_random_params_deterministic(self, e2):
        model = TabularAdvantage.default(e2.trie)
        a = model.with_random_params(np.random.default_rng(5))
        b = model.with_random_params(np.random.default_rng(5))
        assert np.array_equal(a.drawdown_vector(), b.drawdown_vector())


class TestLinear:
    def test_default_predicts_log_two_everywhere(self):
        model = LinearAdvantage.default(AB)
        for s in (EMPTY, ("a",), ("b", "a")):
            for a in AB.tokens:
                # the bits of the raw score 0, where linear solves started
                assert step(model, s, a) == -math.log(2.0)

    def test_step_reads_its_pair_drawdown(self):
        model = LinearAdvantage.default(AB)
        x = model.drawdown_vector()
        x[1 + pair(model, ("a",), "b")] = -0.3
        model = model.with_drawdowns(x)
        assert step(model, ("a",), "b") == -0.3
        assert step(model, ("b",), "b") == -math.log(2.0)

    def test_never_falls_back(self):
        model = LinearAdvantage.default(AB)
        assert step(model, ("b", "b", "b"), "a") == -math.log(2.0)

    def test_slots_edge_pair(self):
        # (3 prev tokens + start) * 3 actions
        assert LinearAdvantage.default(AB, kind=EDGE_PAIR).n_slots == 12

    def test_slots_depth_edge_pair(self):
        assert LinearAdvantage.default(AB, kind=DEPTH_EDGE_PAIR).n_slots == DEPTH_BUCKETS * 12

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError, match="unknown feature kind 'mystery'"):
            LinearAdvantage(alphabet=AB, c=0.0, a=np.zeros(12), kind="mystery")
        with pytest.raises(InvalidInputError, match="unknown feature kind"):
            LinearAdvantage.default(AB, kind="mystery")

    def test_slots_come_from_its_own_alphabet(self):
        # the 20 pairs of a 4-token alphabet do not fit a 3-token model
        wider = LinearAdvantage.default(ActionAlphabet(tokens=("a", "b", "c", "END")))
        assert wider.n_slots == 20
        with pytest.raises(InvalidInputError, match=re.escape("one drawdown per feature pair (12)")):
            LinearAdvantage(alphabet=AB, c=0.0, a=wider.a, kind=EDGE_PAIR)

    def test_start_state_has_own_row(self):
        model = LinearAdvantage.default(AB, kind=EDGE_PAIR)
        assert slot(model, EMPTY, "a") != slot(model, ("a",), "a")

    def test_depth_buckets_distinguish_prefix_lengths(self):
        model = LinearAdvantage.default(AB, kind=DEPTH_EDGE_PAIR)
        rows = {slot(model, ("a",) * k, "b") for k in range(1, DEPTH_BUCKETS)}
        assert len(rows) == DEPTH_BUCKETS - 1
        # lengths at or past the last bucket share a row
        assert slot(model, ("a",) * DEPTH_BUCKETS, "b") == slot(model, ("a",) * (DEPTH_BUCKETS + 3), "b")


class TestPredictValue:
    """The scalar reference value, which ``value_steps`` must equal bit for
    bit (``TestDrawdownVector``)."""

    def test_improper_is_zero(self, e2):
        model = TabularAdvantage.default(e2.trie, c=0.7)
        assert predict_value(model, ("END", "a")) == 0.0
        assert value_steps(model, ("END", "a")) is None

    def test_empty_is_c(self, e2):
        model = TabularAdvantage.default(e2.trie, c=0.7)
        assert predict_value(model, EMPTY) == 0.7
        assert value_steps(model, EMPTY) == (0.7, ())

    @given(tabular_models())
    def test_value_is_c_plus_step_advantages(self, model):
        for s, a, child in model.trie.iter_edges():
            expected = predict_value(model, s) + step_drawdown(model, s, a)
            assert predict_value(model, child) == pytest.approx(expected, abs=1e-12)

    @given(instances())
    def test_oracle_encoding_matches_oracle_values(self, inst):
        ov = compute_optimal(inst)
        model = TabularAdvantage.from_oracle(ov)
        for node, v in zip(inst.trie.nodes, ov.v.tolist()):
            assert predict_value(model, node) == pytest.approx(v, abs=1e-9)


class TestDrawdownVector:
    """[c, a_0, a_1, ...]: each step's slot holds the step's advantage, as
    the scalar reference lookup reads it, and so do ``step_drawdowns`` and
    ``value_steps``."""

    @given(
        inst=instances(),
        family=st.sampled_from(["tabular", EDGE_PAIR, DEPTH_EDGE_PAIR]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_edge_slots_hold_step_advantages(self, inst, family, seed):
        # the edge-slot map at every (node, token) of a tree over states on
        # and off a tabular model's trie, and deeper than the last depth
        # bucket of a linear model's features
        rng = np.random.default_rng(seed)
        if family == "tabular":
            model = TabularAdvantage.default(PrefixTrie.build(inst.alphabet, inst.psi[::2]), fallback_B=0.3)
        else:
            model = LinearAdvantage.default(inst.alphabet, kind=family)
        model = model.with_random_params(rng, log_scale=2.0)
        x = model.drawdown_vector()
        assert x[0] == model.c
        assert np.array_equal(x[1:], model.a)
        runs = [(t,) * depth for t in inst.alphabet.nonterminal for depth in range(DEPTH_BUCKETS + 2)]
        states = list(inst.trie.nodes) + runs
        batch = _ValueBatch(model, states)
        tokens = np.arange(len(inst.alphabet.tokens))
        for s, node in zip(states, batch.node.tolist()):
            nodes = np.full(tokens.size, node)
            slots = model.edge_slots(nodes, batch.rank[nodes], batch.depth[nodes], tokens)
            want = [step_drawdown(model, s, a) for a in inst.alphabet.tokens]
            got = [model.fallback_advantage if slot < 0 else x[slot] for slot in slots.tolist()]
            assert got == want
            assert model.step_drawdowns(s).tobytes() == np.array(want).tobytes()
            total, steps = value_steps(model, s)
            assert np.array([total, *steps]).tobytes() == np.array(
                [predict_value(model, s)] + [step_drawdown(model, s[:k], s[k]) for k in range(len(s))]
            ).tobytes()


class TestSerialization:
    @given(tabular_models())
    def test_tabular_round_trip(self, model):
        obj = model_to_json(model)
        loaded = model_from_json(obj)
        assert isinstance(loaded, TabularAdvantage)
        assert loaded.c == model.c
        assert loaded.fallback_B == model.fallback_B
        assert loaded.drawdown_vector().tobytes() == model.drawdown_vector().tobytes()
        assert loaded.trie.nodes == model.trie.nodes

    @given(linear_models())
    def test_linear_round_trip(self, model):
        loaded = model_from_json(model_to_json(model))
        assert isinstance(loaded, LinearAdvantage)
        assert loaded.kind == model.kind
        assert loaded.drawdown_vector().tobytes() == model.drawdown_vector().tobytes()

    def test_file_round_trip(self, tmp_path, e2):
        model = TabularAdvantage.from_oracle(compute_optimal(e2))
        out = tmp_path / "model.json"
        save_model(model, str(out))
        loaded = load_model(str(out))
        # the exact drawdowns, zeros included, come back bit for bit
        assert loaded.drawdown_vector().tobytes() == model.drawdown_vector().tobytes()
        assert np.count_nonzero(loaded.a == 0.0) == np.count_nonzero(model.a == 0.0) > 0

    @given(tabular_models(), st.floats(min_value=0.0, max_value=50.0))
    def test_tabular_file_keeps_the_trie(self, tmp_path_factory, model, fallback_B):
        model = replace(model, fallback_B=fallback_B)
        out = tmp_path_factory.mktemp("model") / "model.json"
        save_model(model, str(out))
        loaded = load_model(str(out))
        assert loaded.c == model.c
        assert loaded.a.tobytes() == model.a.tobytes()
        assert loaded.fallback_B == model.fallback_B
        assert loaded.trie.nodes == model.trie.nodes
        # the file lists the member paths in canonical order, then one drawdown per edge
        raw = serialize.load_json(str(out))["raw"]
        assert [tuple(p) for p in raw["paths"]] == [node for node in model.trie.nodes if node[-1:] == ("END",)]
        assert len(raw["a"]) == len(model.trie) - 1

    def test_rejects_unknown_family(self, e2):
        obj = model_to_json(TabularAdvantage.default(e2.trie))
        obj["family"] = "mystery"
        with pytest.raises(InvalidInputError):
            model_from_json(obj)

    @pytest.mark.parametrize(
        "family, edit",
        [
            ("tabular", lambda doc: doc.update(c="x")),
            ("tabular", lambda doc: doc.update(c=float("nan"))),
            ("tabular", lambda doc: doc["raw"]["a"].__setitem__(0, "x")),
            ("tabular", lambda doc: doc["raw"]["a"].__setitem__(0, 10**400)),
            ("tabular", lambda doc: doc["raw"]["a"].__setitem__(0, 0.25)),
            ("tabular", lambda doc: doc["raw"]["paths"].__setitem__(0, [["a"]])),
            ("tabular", lambda doc: doc["raw"].pop("a")),
            ("tabular", lambda doc: doc.update(fallback_B=-3.0)),
            ("tabular", lambda doc: doc.update(fallback_B="x")),
            ("linear", lambda doc: doc["raw"]["a"].__setitem__(0, float("nan"))),
            ("linear", lambda doc: doc["raw"]["a"].__setitem__(0, 10**400)),
            ("linear", lambda doc: doc["raw"]["a"].__setitem__(0, 1e-300)),
            ("linear", lambda doc: doc["raw"].update(feature_kind="mystery")),
        ],
    )
    def test_load_rejects_bad_documents(self, tmp_path, e2, family, edit):
        model = TabularAdvantage.default(e2.trie) if family == "tabular" else LinearAdvantage.default(e2.alphabet)
        doc = model_to_json(model)
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match=re.escape(str(path))):
            load_model(str(path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["raw"]["a"].pop(), "a must hold one drawdown per trie edge (7), got shape (6,)"),
            (lambda doc: doc["raw"]["paths"][0].pop(), "trie paths must be complete sequences"),
            (lambda doc: doc["raw"]["paths"][0].insert(0, "z"), "unknown token 'z'"),
            (lambda doc: doc["raw"]["a"].__setitem__(3, float("nan")), "drawdown a[3] must be finite and <= 0, got nan"),
            (lambda doc: doc["raw"]["a"].__setitem__(3, 0.5), "drawdown a[3] must be finite and <= 0, got 0.5"),
            # the per-edge rows that tabular model files held before
            (lambda doc: doc.update(raw={"entries": [{"state": [], "action": "a", "z": -2.25}]}), "'paths'"),
        ],
    )
    def test_tabular_file_errors_name_the_file(self, tmp_path, e2, edit, message):
        doc = model_to_json(TabularAdvantage.default(e2.trie))
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match=re.escape(str(path))) as exc:
            load_model(str(path))
        assert message in str(exc.value)

    def test_linear_file_with_a_bias_entry_is_rejected(self, tmp_path, e2):
        # linear model files held one slot more, a bias, before
        doc = model_to_json(LinearAdvantage.default(e2.alphabet))
        doc["raw"]["a"].append(0.0)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match=re.escape(str(path))) as exc:
            load_model(str(path))
        assert "a must hold one drawdown per feature pair (12), got shape (13,)" in str(exc.value)

    @pytest.mark.parametrize("family, old_key", [("tabular", "z"), ("linear", "weights")])
    def test_raw_score_files_are_rejected(self, tmp_path, e2, family, old_key):
        # model files held softplus raw scores, z or weights, before
        model = TabularAdvantage.default(e2.trie) if family == "tabular" else LinearAdvantage.default(e2.alphabet)
        doc = model_to_json(model)
        doc["raw"][old_key] = [0.0] * len(doc["raw"].pop("a"))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError) as exc:
            load_model(str(path))
        assert str(exc.value).startswith(f"{path}: ") and "KeyError('a')" in str(exc.value)
        assert "\n" not in str(exc.value)

    def test_tabular_file_needs_fallback_B(self, tmp_path, e2):
        doc = model_to_json(TabularAdvantage.default(e2.trie))
        del doc["fallback_B"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidInputError, match=re.escape(str(path))) as exc:
            load_model(str(path))
        assert "KeyError('fallback_B')" in str(exc.value)

    def test_linear_file_holds_no_fallback_B(self, tmp_path, e2):
        model = LinearAdvantage.default(e2.alphabet, kind=DEPTH_EDGE_PAIR)
        path = tmp_path / "model.json"
        save_model(model, str(path))
        assert sorted(serialize.load_json(str(path))) == ["alphabet", "c", "family", "raw"]
        assert load_model(str(path)).drawdown_vector().tobytes() == model.drawdown_vector().tobytes()

"""Per-step decomposition of predicted path values."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from tarpath.attribution import attribute
from tarpath.model import TabularAdvantage, predict_advantage, predict_value
from tarpath.oracle import compute_optimal
from tarpath.pathspace import EMPTY

from .strategies import instances


class TestAdditivity:
    @given(
        inst=instances(max_tokens=3, max_depth=4, max_paths=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=30)
    def test_total_matches_prediction_exactly(self, inst, seed):
        import numpy as np

        model = TabularAdvantage.default(inst.trie).with_random_params(
            np.random.default_rng(seed)
        )
        for path in inst.psi:
            report = attribute(model, path)
            assert report.total == predict_value(model, path)
            assert len(report.steps) == len(path)
            assert report.base == model.c
            assert not report.improper

    def test_fallback_steps_are_included(self, e1):
        model = TabularAdvantage.default(e1.trie, c=0.7)
        path = ("b", "a", "END")  # leaves the trie after the first step
        report = attribute(model, path)
        assert report.total == predict_value(model, path)
        assert report.steps[1].drawdown == -model.fallback_B
        assert report.steps[2].drawdown == -model.fallback_B
        assert report.steps[0].drawdown == predict_advantage(model, EMPTY, "b")

    def test_empty_path_is_just_the_base(self, e1):
        model = TabularAdvantage.default(e1.trie, c=0.3)
        report = attribute(model, EMPTY)
        assert report.steps == ()
        assert report.total == 0.3
        assert not report.improper

    def test_improper_path_reports_zero(self, e1):
        model = TabularAdvantage.default(e1.trie, c=0.3)
        report = attribute(model, ("END", "a"))
        assert report.improper
        assert report.total == 0.0
        assert report.steps == ()


class TestOracleDecomposition:
    def test_e2_clamped_oracle_breakdown(self, e2):
        # the oracle's drawdowns, exact zeros included
        model = TabularAdvantage.from_oracle(compute_optimal(e2))
        report = attribute(model, ("a", "b", "END"))
        assert report.base == 0.9
        assert [s.drawdown for s in report.steps] == [0.0, -0.7, 0.0]
        assert report.total == pytest.approx(0.2, abs=1e-15)

    def test_step_prefixes_walk_the_path(self, e2):
        model = TabularAdvantage.from_oracle(compute_optimal(e2))
        report = attribute(model, ("a", "a", "END"))
        assert [s.prefix for s in report.steps] == [EMPTY, ("a",), ("a", "a")]
        assert [s.action for s in report.steps] == ["a", "a", "END"]


class TestJson:
    def test_report_serializes(self, e2):
        model = TabularAdvantage.from_oracle(compute_optimal(e2))
        blob = attribute(model, ("a", "b", "END")).to_json()
        text = json.dumps(blob)
        round_tripped = json.loads(text)
        assert round_tripped["path"] == ["a", "b", "END"]
        assert round_tripped["improper"] is False
        assert len(round_tripped["steps"]) == 3
        assert round_tripped["steps"][1]["action"] == "b"
        assert round_tripped["steps"][1]["prefix"] == ["a"]
        assert round_tripped["base"] + sum(
            s["drawdown"] for s in round_tripped["steps"]
        ) == pytest.approx(round_tripped["total"])

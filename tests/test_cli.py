"""End-to-end runs of every subcommand through main()."""

import filecmp
import hashlib
import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tarpath
from tarpath import serialize
from tarpath.cli import main
from tarpath.instance import (
    NoiseModel,
    PathDistribution,
    load_dataset,
    load_instance,
    save_instance,
)
from tarpath.losses import PenaltyMix, _projected_grad_norm, tar_objective
from tarpath.model import load_model
from tarpath.pathspace import PrefixTrie
from tarpath.reduction import load_rl_dataset

from .reference import fixture_e1, fixture_e2


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def e1_file(tmp_path):
    path = str(tmp_path / "e1.json")
    save_instance(fixture_e1(NoiseModel.bernoulli()), path)
    return path


@pytest.fixture
def e2_file(tmp_path):
    path = str(tmp_path / "e2.json")
    save_instance(fixture_e2(), path)
    return path


class TestGen:
    def test_writes_loadable_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        code = run(
            "gen", "--actions", 3, "--depth", 3, "--paths", 4, "--seed", 11, "--out", out
        )
        assert code == 0
        instance = load_instance(str(out))
        assert len(instance.psi) == 4
        assert instance.trie.depth <= 4

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert (
                run(
                    "gen",
                    "--actions", 3, "--depth", 3, "--paths", 4,
                    "--seed", 11, "--out", out,
                )
                == 0
            )
        assert filecmp.cmp(a, b, shallow=False)

    def test_stddev_requires_gaussian(self, tmp_path):
        code = run(
            "gen", "--actions", 3, "--depth", 2, "--paths", 2, "--seed", 0,
            "--noise", "bernoulli", "--stddev", 0.1, "--out", tmp_path / "x.json",
        )
        assert code == 1

    def test_impossible_request_fails_cleanly(self, tmp_path):
        code = run(
            "gen", "--actions", 2, "--depth", 1, "--paths", 50, "--seed", 0,
            "--out", tmp_path / "x.json",
        )
        assert code == 1


class TestSampleAndOracle:
    def test_sample_writes_dataset_and_transitions(self, tmp_path, e1_file):
        data_out = tmp_path / "data.jsonl"
        rl_out = tmp_path / "rl.jsonl"
        code = run(
            "sample", "--instance", e1_file, "--n", 40, "--seed", 5,
            "--out", data_out, "--rl-out", rl_out,
        )
        assert code == 0
        rows = list(serialize.load_jsonl(str(data_out)))
        assert len(rows) == 40
        transitions = load_rl_dataset(str(rl_out))
        assert len(transitions) > 0

    def test_oracle_dump(self, tmp_path, e2_file):
        out = tmp_path / "oracle.json"
        assert run("oracle", "--instance", e2_file, "--out", out) == 0
        blob = serialize.load_json(str(out))
        assert blob["j_star"] == pytest.approx(0.9)
        assert len(blob["nodes"]) == 8

    def test_missing_instance_file(self, tmp_path):
        code = run(
            "sample", "--instance", tmp_path / "nope.json", "--n", 5, "--seed", 0,
            "--out", tmp_path / "d.jsonl",
        )
        assert code == 1


class TestTrainPlanAttribute:
    def fit(self, tmp_path, e1_file):
        data = tmp_path / "data.jsonl"
        model = tmp_path / "model.json"
        report = tmp_path / "report.json"
        assert run("sample", "--instance", e1_file, "--n", 60, "--seed", 5, "--out", data) == 0
        code = run(
            "train", "--instance", e1_file, "--data", data, "--out", model,
            "--report", report, "--lambda", 10.0, "--kappa", 100.0,
            "--max-iters", 5000, "--tol", 1e-7,
        )
        assert code == 0
        return model, report

    def test_train_emits_model_and_report(self, tmp_path, e1_file):
        model_path, report_path = self.fit(tmp_path, e1_file)
        model = load_model(str(model_path))
        assert model.alphabet.tokens == ("a", "b", "END")
        report = serialize.load_json(str(report_path))
        assert set(report) >= {"final_loss", "iterations", "grad_norm"}
        assert report["lambda"] == 10.0 and report["kappa"] == 100.0
        assert report["converged"] is True
        assert report["stop_reason"] == "converged"
        assert report["grad_norm"] <= 1e-7
        assert report["solver"] == "tree_pooling"
        assert 1 <= report["blocks"] <= len(model.trie.nodes)
        assert 0 <= report["zero_drawdowns"] < len(model.trie.nodes)

    def test_capped_train_says_so(self, tmp_path, e1_file):
        # the linear family's solver is iterative; the tabular solve is finite
        data = tmp_path / "data.jsonl"
        report = tmp_path / "report.json"
        assert run("sample", "--instance", e1_file, "--n", 60, "--seed", 5, "--out", data) == 0
        code = run(
            "train", "--instance", e1_file, "--data", data, "--out", tmp_path / "m.json",
            "--report", report, "--max-iters", 2, "--family", "linear",
        )
        assert code == 0
        report = serialize.load_json(str(report))
        assert report["iterations"] == 2
        assert report["converged"] is False
        assert report["stop_reason"] == "iteration_cap"
        assert report["solver"] == "projected_newton"

    def test_plan_scores_the_greedy_path(self, tmp_path, e1_file):
        model_path, _ = self.fit(tmp_path, e1_file)
        out = tmp_path / "plan.json"
        assert run("plan", "--model", model_path, "--instance", e1_file, "--out", out) == 0
        plan = serialize.load_json(str(out))
        assert plan["path"] == ["a", "END"]
        assert plan["regret"] == pytest.approx(0.0, abs=1e-6)
        assert plan["truncated"] is False
        assert len(plan["margins"]) == 2 and min(plan["margins"]) >= 0.0
        assert plan["ties"] == plan["margins"].count(0.0)

    def test_plan_rejects_a_zero_step_budget(self, tmp_path, capsys, e1_file):
        model_path, _ = self.fit(tmp_path, e1_file)
        out = tmp_path / "plan.json"
        code = run("plan", "--model", model_path, "--instance", e1_file, "--out", out, "--max-len", 0)
        assert code == 1
        assert "error: max_len must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_attribute_explains_a_path(self, tmp_path, e1_file):
        model_path, _ = self.fit(tmp_path, e1_file)
        out = tmp_path / "attr.json"
        code = run(
            "attribute", "--model", model_path, "--path", "a", "END", "--out", out
        )
        assert code == 0
        blob = serialize.load_json(str(out))
        assert blob["base"] + sum(s["drawdown"] for s in blob["steps"]) == pytest.approx(
            blob["total"]
        )
        assert blob["improper"] is False

    def test_attribute_flags_improper_paths(self, tmp_path, e1_file):
        model_path, _ = self.fit(tmp_path, e1_file)
        out = tmp_path / "attr.json"
        assert (
            run("attribute", "--model", model_path, "--path", "END", "a", "--out", out)
            == 0
        )
        blob = serialize.load_json(str(out))
        assert blob["improper"] is True
        assert blob["total"] == 0.0

    def test_corrupt_dataset_fails_cleanly(self, tmp_path, e1_file):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        code = run(
            "train", "--instance", e1_file, "--data", bad, "--out", tmp_path / "m.json"
        )
        assert code == 1


class TestVerify:
    def test_identities_hold_on_fixture(self, tmp_path, e2_file):
        report_path = tmp_path / "verify.json"
        code = run(
            "verify", "--instance", e2_file, "--lambda", 10.0, "--report", report_path
        )
        assert code == 0
        report = serialize.load_json(str(report_path))
        assert report["passed"] is True
        assert report["gap"]["gap"] <= 1e-9
        assert report["bellman_violation"] == 0.0
        assert report["decomposition_max_abs_residual"] <= 1e-12

    def test_unreachable_tolerance_fails(self, tmp_path):
        # this model's loss identity holds to 1.8e-15, not to 0
        inst, report_path = tmp_path / "inst.json", tmp_path / "verify.json"
        assert run("gen", "--actions", 3, "--depth", 4, "--paths", 6, "--seed", 21, "--out", inst) == 0
        code = run(
            "verify", "--instance", inst, "--model", FIXTURES / "tabular_iterative_model.json",
            "--report", report_path, "--gap-tol", 0.0,
        )
        assert code == 1
        report = serialize.load_json(str(report_path))
        assert report["passed"] is False and report["gap"]["gap"] > 0.0

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--kappa", "nan", "kappa must be finite and nonnegative, got nan"),
            ("--kappa", "inf", "kappa must be finite and nonnegative, got inf"),
            ("--kappa", "-5", "kappa must be finite and nonnegative, got -5.0"),
            ("--improper-samples", "-3", "--improper-samples must be nonnegative, got -3"),
            ("--gap-tol", "-1", "--gap-tol must be finite and nonnegative, got -1.0"),
            ("--gap-tol", "nan", "--gap-tol must be finite and nonnegative, got nan"),
        ],
    )
    def test_bad_numbers_are_rejected(self, tmp_path, capsys, e2_file, flag, value, message):
        report_path = tmp_path / "verify.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning on the way
            code = run("verify", "--instance", e2_file, "--report", report_path, flag, value)
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not report_path.exists()


class TestVerifyGolden:
    """verify.json for trained models, pinned to the bytes written since
    values are summed in ``predict_value``'s order and every loss term in a
    fixed order (x86-64, numpy 2.4): a speed-up of the check must not move a
    bit of the report. The reports are pinned for the models that the tree
    solve (tabular) and the pair-drawdown solve (linear) write; the model the
    iterative tabular solve wrote before keeps its own pinned report."""

    REPORTS = {
        "tabular": "9f4c350f536be2b329056eadb9e85624b1d9ff5dd1ed675b2314bfb2e495eb12",
        "linear": "bdb6958b87ac48ee92cc49b65be4a816b795fb42a967484e74fe5418f7ff8afe",
    }

    @pytest.mark.parametrize("family", sorted(REPORTS))
    def test_seeded_verify_is_pinned(self, tmp_path, family):
        inst, data = tmp_path / "inst.json", tmp_path / "data.jsonl"
        model, verify = tmp_path / "model.json", tmp_path / "verify.json"
        assert run("gen", "--actions", 3, "--depth", 4, "--paths", 6, "--seed", 21, "--out", inst) == 0
        assert run("sample", "--instance", inst, "--n", 300, "--seed", 22, "--out", data) == 0
        fit = ["--max-iters", 4000] if family == "tabular" else [
            "--max-iters", 400, "--family", "linear", "--features", "depth_edge_pair"]
        assert run("train", "--instance", inst, "--data", data, "--lambda", 100.0, "--kappa", 1000.0,
                   "--tol", 1e-7, "--out", model, *fit) == 0
        assert run("verify", "--instance", inst, "--model", model, "--report", verify) == 0
        assert hashlib.sha256(verify.read_bytes()).hexdigest() == self.REPORTS[family]

    # verify.json at lambda 100, kappa 1000 on a 300-path instance that 300
    # rows leave 106 support paths short of: the tabular model's trie has 720
    # of the instance's 1050 nodes, so the compile tree of the 3751 default
    # mix states grows up to 6 levels off it
    FAR_REPORTS = {
        "oracle": "3e8d2849a0f6d99d161e0bf5395ce5f4da6fcfc97a2df97f5975f4fb905c842f",
        "tabular": "c80a8768339e1fc6faa4909217e4cbb22abd4228f91b2b1bbf832f6c6f692283",
        "linear": "1d0e1b698551e49f6f2ad479d05d0b812d08b90954da562299ef47ec0c686c5a",
    }

    def test_verify_far_off_the_model_trie_is_pinned(self, tmp_path):
        inst, data = tmp_path / "inst.json", tmp_path / "data.jsonl"
        assert run("gen", "--actions", 5, "--depth", 6, "--paths", 300, "--seed", 1, "--out", inst) == 0
        assert run("sample", "--instance", inst, "--n", 300, "--seed", 2, "--out", data) == 0
        fits = {"tabular": [], "linear": ["--max-iters", 400, "--family", "linear", "--features", "depth_edge_pair"]}
        for family, fit in fits.items():
            assert run("train", "--instance", inst, "--data", data, "--lambda", 100.0, "--kappa", 1000.0,
                       "--tol", 1e-7, "--out", tmp_path / f"{family}.json", *fit) == 0
        trie, instance = load_model(tmp_path / "tabular.json").trie, load_instance(inst)
        mix = PenaltyMix.default(instance)
        assert (len(trie), len(instance.trie), len(mix.states)) == (720, 1050, 3751)
        assert max(len(s) - max(k for k in range(len(s) + 1) if s[:k] in trie) for s in mix.states) == 6
        for family, digest in self.FAR_REPORTS.items():
            verify = tmp_path / f"verify_{family}.json"
            model = [] if family == "oracle" else ["--model", tmp_path / f"{family}.json"]
            assert run("verify", "--instance", inst, *model, "--lambda", 100.0, "--kappa", 1000.0,
                       "--report", verify) == 0
            assert hashlib.sha256(verify.read_bytes()).hexdigest() == digest, family

    def test_iterative_tabular_model_scores_as_before(self, tmp_path):
        # fixtures/tabular_iterative_model.json is the tabular model that the
        # projected Barzilai-Borwein solve wrote for this instance (final
        # loss 8.3293485349983598, as the tree solve's), its raw scores z
        # converted to the drawdowns -log(1 + exp(z)) that every reader took
        # from them; its verify.json keeps the bytes pinned for it then
        inst, verify = tmp_path / "inst.json", tmp_path / "verify.json"
        assert run("gen", "--actions", 3, "--depth", 4, "--paths", 6, "--seed", 21, "--out", inst) == 0
        assert run("verify", "--instance", inst, "--model", FIXTURES / "tabular_iterative_model.json",
                   "--report", verify) == 0
        digest = hashlib.sha256(verify.read_bytes()).hexdigest()
        assert digest == "80de7da93c8a1f35d0b9aa9d52590b9207c9f74183fb2dd66a26006a5ae30845"

    def test_biased_linear_model_scores_as_before(self, tmp_path):
        # fixtures/linear_biased_model.json is the linear model that the
        # softplus-coordinate trainer wrote for this instance, with its bias,
        # -15.09, added into each pair's weight as every prediction added it,
        # and each weight z converted to the drawdown -log(1 + exp(z)); its
        # verify.json keeps the bytes pinned for it then
        inst, verify = tmp_path / "inst.json", tmp_path / "verify.json"
        assert run("gen", "--actions", 3, "--depth", 4, "--paths", 6, "--seed", 21, "--out", inst) == 0
        assert run("verify", "--instance", inst, "--model", FIXTURES / "linear_biased_model.json",
                   "--report", verify) == 0
        digest = hashlib.sha256(verify.read_bytes()).hexdigest()
        assert digest == "434262a38edf197de4ebf3ec2788b117143da7ed463c1b7226fc0a5ea56abb7c"


class TestArtifactGolden:
    """oracle.json, plan.json and attribution.json, pinned to the bytes that
    the tuple-keyed oracle and trie wrote (x86-64, numpy 2.4) for the
    instance of ``TestVerifyGolden``'s tabular case, and oracle.json for a
    larger instance: the node-order arrays must not move a bit of them. The
    oracle pins are those bytes with every node's ``q`` removed and the file
    re-dumped. The plan and attribution pins are those of a model file that
    holds the solved drawdowns as they are (plan.json b64ab416... -> 6fbd4479...,
    attribution.json 763225e5... -> 52a680fc...): exact zeros where the
    raw-score file held -4.2e-18, and last-bit moves of the margins."""

    def test_pipeline_artifacts_are_pinned(self, tmp_path):
        inst, data, model = tmp_path / "inst.json", tmp_path / "data.jsonl", tmp_path / "model.json"
        oracle, plan, attr = tmp_path / "oracle.json", tmp_path / "plan.json", tmp_path / "attribution.json"
        assert run("gen", "--actions", 3, "--depth", 4, "--paths", 6, "--seed", 21, "--out", inst) == 0
        assert run("sample", "--instance", inst, "--n", 300, "--seed", 22, "--out", data) == 0
        assert run("train", "--instance", inst, "--data", data, "--lambda", 100.0, "--kappa", 1000.0,
                   "--tol", 1e-7, "--out", model, "--max-iters", 4000) == 0
        assert run("oracle", "--instance", inst, "--out", oracle) == 0
        assert run("plan", "--model", model, "--instance", inst, "--out", plan) == 0
        path = serialize.load_json(str(plan))["path"]
        assert path == ["b", "b", "a", "END"]
        assert run("attribute", "--model", model, "--path", *path, "--out", attr) == 0
        digests = [hashlib.sha256(f.read_bytes()).hexdigest() for f in (oracle, plan, attr)]
        assert digests == [
            "776752fd5ba25584412fbbe66b253e39ef715e2fded3082ae4b3fbb72bed9a37",
            "6fbd4479a748b0934e295c373976ff6070327a63e415925554d88f94736c1ec4",
            "52a680fcfcc01399e8d77ce5c2276bf7fd83039baba556cf67a16e622c5de44a",
        ]

    def test_larger_oracle_is_pinned(self, tmp_path):
        inst, oracle = tmp_path / "inst.json", tmp_path / "oracle.json"
        assert run("gen", "--actions", 5, "--depth", 6, "--paths", 300, "--seed", 1, "--out", inst) == 0
        assert run("oracle", "--instance", inst, "--out", oracle) == 0
        digest = hashlib.sha256(oracle.read_bytes()).hexdigest()
        assert digest == "b8788cfc2a29a08ad0550e09711f02860d8807bc555dfcf140a83b90a9c3cad0"


class TestReportMatchesModelFile:
    """The train report describes the model file it wrote: the file holds the
    solver's answer as it is, so its exact zeros are the report's
    ``zero_drawdowns`` and the certificate computed at the loaded model is the
    report's ``grad_norm``, bit for bit."""

    @pytest.mark.parametrize("family", ["tabular", "linear"])
    def test_report_certifies_the_saved_model(self, tmp_path, family):
        inst, data = tmp_path / "inst.json", tmp_path / "data.jsonl"
        model, report = tmp_path / "model.json", tmp_path / "report.json"
        assert run("gen", "--actions", 5, "--depth", 6, "--paths", 300, "--seed", 1, "--out", inst) == 0
        assert run("sample", "--instance", inst, "--n", 2000, "--seed", 2, "--out", data) == 0
        fit = [] if family == "tabular" else ["--family", "linear", "--features", "depth_edge_pair"]
        assert run("train", "--instance", inst, "--data", data, "--lambda", 100.0, "--kappa", 1000.0,
                   "--tol", 1e-7, "--out", model, "--report", report, *fit) == 0
        got = serialize.load_json(str(report))
        assert got["converged"] is True

        loaded = load_model(str(model))
        instance = load_instance(str(inst))
        dataset = load_dataset(str(data), instance)
        trie = PrefixTrie.build(instance.alphabet, dict.fromkeys(p for p, _ in dataset.pairs))
        objective = tar_objective(loaded, PathDistribution.uniform(trie.nodes), dataset, 100.0, 1000.0)
        x = loaded.drawdown_vector()
        loss, grad = objective(x)
        assert _projected_grad_norm(x, grad) == got["grad_norm"]
        assert loss == got["final_loss"]
        if family == "tabular":
            assert np.count_nonzero(loaded.a == 0.0) == got["zero_drawdowns"] > 0
        else:
            assert "zero_drawdowns" not in got


class TestBenchmarkReads:
    """perfbench/reference.py checks each reported tabular loss against its
    own evaluation of the objective at the saved model, through
    ``TabularAdvantage.edges``, ``TabularAdvantage.raw_z`` and
    ``model.advantage_transform``, which nothing else in the package calls."""

    # perfbench/run.py's LOSS_CHECK_RTOL
    LOSS_CHECK_RTOL = 1e-9

    def test_reference_objective_reads_a_trained_model(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(FIXTURES.parent / "perfbench"))
        reference = importlib.import_module("reference")
        e2 = FIXTURES / "e2.json"
        data, model, report = tmp_path / "data.jsonl", tmp_path / "model.json", tmp_path / "report.json"
        assert run("sample", "--instance", e2, "--n", 400, "--seed", 9, "--out", data) == 0
        assert run("train", "--instance", e2, "--data", data, "--lambda", 100.0, "--kappa", 1000.0,
                   "--tol", 1e-7, "--out", model, "--report", report) == 0
        reported = serialize.load_json(str(report))["final_loss"]
        objective = reference.TabularObjective(tarpath, str(e2), str(data), 100.0, 1000.0)
        at_model = objective.at_model(tarpath, str(model))
        assert abs(at_model - reported) <= self.LOSS_CHECK_RTOL * max(1.0, abs(reported))


class TestLoadTimeErrors:
    """Bad input exits 1 at load time, naming the file and the row."""

    @pytest.mark.parametrize(
        "row, field, value, message",
        [
            (4, None, None, "path row 4 repeats path ('b', 'END') of row 1"),
            (2, "yield", 1.5, "path row 2: yield must be finite and in [0, 1], got 1.5"),
            (2, "yield", float("nan"), "path row 2: yield must be finite and in [0, 1], got nan"),
            (2, "weight", -0.0001, "path row 2: weight must be in [0, 1], got -0.0001"),
            (None, "weight", 0.5, "weights must sum to 1"),  # every row: no row to name
            (2, "path", ["a", "a"], "path row 2: path ('a', 'a') is not complete"),
            (1, "path", ["z", "END"], "path row 1: unknown token 'z'"),
        ],
    )
    def test_bad_instance_file(self, tmp_path, capsys, row, field, value, message):
        inst = tmp_path / "bad.json"
        obj = serialize.load_json(str(FIXTURES / "e2.json"))
        rows = obj["paths"]
        if field is None:
            rows.append(dict(rows[0], **{"yield": 0.3}))
        else:
            for entry in rows if row is None else [rows[row - 1]]:
                entry[field] = value
        inst.write_text(json.dumps(obj))
        assert run("oracle", "--instance", inst, "--out", tmp_path / "o.json") == 1
        err = capsys.readouterr().err
        assert f"error: {inst}: " in err and message in err
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ('{"path": ["a", "END"], "y": NaN}', "yield must be finite"),
            ('{"path": ["a", "END"], "y": 7.0}', "yield must be finite"),
            ('{"path": ["b", "b", "END"], "y": 0.5}', "not a support path"),
        ],
    )
    def test_bad_dataset_row(self, tmp_path, capsys, e1_file, row, message):
        data = tmp_path / "data.jsonl"
        data.write_text('{"path": ["b", "END"], "y": 0.5}\n' + row + "\n")
        model = tmp_path / "m.json"
        assert run("train", "--instance", e1_file, "--data", data, "--out", model) == 1
        err = capsys.readouterr().err
        assert f"{data}: row 2: " in err and message in err
        assert not model.exists()

    def test_empty_dataset_file(self, tmp_path, capsys, e1_file):
        # sample --n 0 writes a dataset of no rows, which train cannot fit
        data, model = tmp_path / "data.jsonl", tmp_path / "m.json"
        assert run("sample", "--instance", e1_file, "--n", 0, "--seed", 1, "--out", data) == 0
        assert run("train", "--instance", e1_file, "--data", data, "--out", model) == 1
        assert capsys.readouterr().err == f"error: {data}: dataset has no rows\n"
        assert not model.exists()

    @pytest.mark.parametrize(
        "rows, message",
        [
            ('[{"state": [], "weight": 1.0}, {"state": [], "weight": "x"}]', "row 2"),
            ('[{"state": [], "weight": 1' + '0' * 400 + '}]', "row 1"),  # overflows a float
            ('{"state": [], "weight": 1.0}', "list of rows"),
            ('[{"state": [], "weight": 0.5}, {"state": [], "weight": 0.5}]', "distinct"),
            ("[]", "nonempty"),
            ('[{"state": ["END", "a"], "weight": 1.0}]', "p0 row 1: state ('END', 'a') is improper"),
            ('[{"state": [], "weight": 0.5}, {"state": ["z"], "weight": 0.5}]', "p0 row 2: unknown token 'z'"),
            ('[{"state": [], "weight": 1.5}, {"state": ["a"], "weight": -0.5}]', "p0 row 1: weight must be in [0, 1], got 1.5"),
        ],
    )
    def test_bad_p0_file(self, tmp_path, capsys, e1_file, rows, message):
        data, p0 = tmp_path / "data.jsonl", tmp_path / "p0.json"
        data.write_text('{"path": ["b", "END"], "y": 0.5}\n')
        p0.write_text(rows)
        model = tmp_path / "m.json"
        assert run("train", "--instance", e1_file, "--data", data, "--p0", p0, "--out", model) == 1
        err = capsys.readouterr().err
        assert f"{p0}: " in err and message in err
        assert not model.exists()


class TestUsageErrors:
    def test_missing_required_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestRejectedArguments:
    """Arguments that parse but cannot be used exit 1 with one error line,
    and write no file."""

    @pytest.mark.parametrize("command", ["gen", "sample", "verify"])
    def test_negative_seed(self, tmp_path, capsys, e1_file, command):
        out, rl = tmp_path / "out.json", tmp_path / "rl.jsonl"
        argv = {
            "gen": ("gen", "--actions", 3, "--depth", 2, "--paths", 2, "--seed", -1, "--out", out),
            "sample": ("sample", "--instance", e1_file, "--n", 5, "--seed", -3, "--out", out, "--rl-out", rl),
            "verify": ("verify", "--instance", e1_file, "--seed", -2, "--report", out),
        }[command]
        assert run(*argv) == 1
        seed = argv[argv.index("--seed") + 1]
        assert capsys.readouterr().err == f"error: seed must be nonnegative, got {seed}\n"
        assert not out.exists() and not rl.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--lambda", "0", "lambda must be finite and positive, got 0.0"),
            ("--lambda", "nan", "lambda must be finite and positive, got nan"),
            ("--kappa", "-1", "kappa must be finite and nonnegative, got -1.0"),
            ("--tol", "nan", "tol must be finite and positive, got nan"),
            ("--tol", "inf", "tol must be finite and positive, got inf"),
            ("--tol", "0", "tol must be finite and positive, got 0.0"),
            ("--max-iters", "-1", "max_iters must be nonnegative, got -1"),
        ],
    )
    def test_bad_penalty_weight_in_train(self, tmp_path, capsys, e1_file, flag, value, message):
        data, model, report = tmp_path / "data.jsonl", tmp_path / "model.json", tmp_path / "report.json"
        assert run("sample", "--instance", e1_file, "--n", 20, "--seed", 2, "--out", data) == 0
        capsys.readouterr()
        argv = ("train", "--instance", e1_file, "--data", data, "--out", model, "--report", report)
        assert run(*argv, flag, value) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not model.exists() and not report.exists()

    @pytest.mark.parametrize("command", ["plan", "verify"])
    def test_model_over_another_alphabet(self, tmp_path, capsys, command):
        # a model over (a, b, END) read against an instance over (a, b, c, END)
        small, big, data = tmp_path / "small.json", tmp_path / "big.json", tmp_path / "data.jsonl"
        model, out = tmp_path / "model.json", tmp_path / "out.json"
        assert run("gen", "--actions", 3, "--depth", 2, "--paths", 3, "--seed", 1, "--out", small) == 0
        assert run("gen", "--actions", 4, "--depth", 2, "--paths", 3, "--seed", 1, "--out", big) == 0
        assert run("sample", "--instance", small, "--n", 20, "--seed", 2, "--out", data) == 0
        assert run("train", "--instance", small, "--data", data, "--out", model) == 0
        capsys.readouterr()
        if command == "plan":
            argv = ("plan", "--model", model, "--instance", big, "--out", out)
        else:
            argv = ("verify", "--instance", big, "--model", model, "--report", out)
        assert run(*argv) == 1
        assert capsys.readouterr().err == "error: model and instance alphabets differ\n"
        assert not out.exists()

    def test_output_in_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "inst.json"
        assert run("gen", "--actions", 3, "--depth", 2, "--paths", 2, "--seed", 1, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"
        assert not out.parent.exists()


class TestPipelineDeterminism:
    def pipeline(self, base):
        base.mkdir()
        inst = base / "inst.json"
        data = base / "data.jsonl"
        model = base / "model.json"
        report = base / "report.json"
        plan = base / "plan.json"
        verify = base / "verify.json"
        assert run("gen", "--actions", 3, "--depth", 3, "--paths", 4, "--seed", 7, "--out", inst) == 0
        assert run("sample", "--instance", inst, "--n", 80, "--seed", 13, "--out", data) == 0
        assert (
            run(
                "train", "--instance", inst, "--data", data, "--out", model,
                "--report", report, "--lambda", 10.0, "--kappa", 100.0,
                "--max-iters", 4000, "--tol", 1e-7,
            )
            == 0
        )
        assert run("plan", "--model", model, "--instance", inst, "--out", plan) == 0
        assert run("verify", "--instance", inst, "--report", verify) == 0
        return [inst, data, model, report, plan, verify]

    def test_reruns_are_byte_identical(self, tmp_path):
        first = self.pipeline(tmp_path / "a")
        second = self.pipeline(tmp_path / "b")
        for fa, fb in zip(first, second):
            assert filecmp.cmp(fa, fb, shallow=False), fa.name


class TestThreadIndependence:
    """A train and a verify write the same bytes at any BLAS thread count,
    for a tabular and for a linear model. OpenBLAS splits a dot of more than
    10k entries across its threads, so a dot over the 20k logged rows, or
    over the 10,748 trie nodes that the covering law weights, would round by
    the thread count, and so would a LAPACK factorization of the linear
    solve's 121 x 121 Hessian. On a host with one CPU the split may not
    show."""

    def test_train_and_verify_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        inst, data = tmp_path / "inst.json", tmp_path / "data.jsonl"
        assert run("gen", "--actions", 5, "--depth", 8, "--paths", 2800, "--seed", 1, "--out", inst) == 0
        assert run("sample", "--instance", inst, "--n", 20_000, "--seed", 2, "--out", data) == 0
        # the subprocesses import this package, whatever PYTHONPATH says
        src = str(Path(tarpath.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        names = ("model.json", "report.json", "verify.json", "linear.json", "linear_report.json",
                 "linear_verify.json")
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
            model, report, verify, linear, linear_report, linear_verify = (out / name for name in names)
            for argv in (
                ("train", "--instance", inst, "--data", data, "--out", model, "--report", report),
                ("verify", "--instance", inst, "--model", model, "--report", verify),
                ("train", "--instance", inst, "--data", data, "--out", linear, "--report", linear_report,
                 "--family", "linear", "--features", "depth_edge_pair"),
                ("verify", "--instance", inst, "--model", linear, "--report", linear_verify),
            ):
                subprocess.run([sys.executable, "-m", "tarpath", *map(str, argv)], env=env, check=True)
            written.append([(out / name).read_bytes() for name in names])
        for name, one, two in zip(names, *written):
            assert one == two, name
        assert json.loads(written[0][names.index("linear_report.json")])["converged"] is True


class TestLinearGolden:
    """The linear family trains in pair-drawdown coordinates by projected
    Newton iterations. These bytes and report values pin its iterates on a
    seeded instance (x86-64, numpy 2.4); a change to the solver or to the
    objective code must leave them intact. The model files hold the solved
    pair drawdowns as they are (before, raw scores: edge_pair 9fabea9e...,
    depth_edge_pair 359bdfe7...); the reports did not move."""

    MODELS = {
        "edge_pair": "4467e6b2e8f21b02719bb6b0283ad796814019686365741a8e060bc5104cae2b",
        "depth_edge_pair": "fef8d9e3e54a2e1700e8a40b309b7f64b2231eb493c0575a7bdf01aeeb54c719",
    }
    REPORTS = {
        "edge_pair": (5.274744705177478, 9, 1.1607842465011231e-10),
        "depth_edge_pair": (5.2465391823017065, 8, 2.1044277431769842e-12),
    }
    # the final loss of the softplus-coordinate descent that trained this
    # family before, capped at 400 iterations; a convex solve must beat it
    DESCENT_LOSS = 12.7550

    @pytest.mark.parametrize("features", sorted(MODELS))
    def test_seeded_train_is_pinned(self, tmp_path, features):
        inst, data = tmp_path / "inst.json", tmp_path / "data.jsonl"
        model, report = tmp_path / "model.json", tmp_path / "report.json"
        assert run("gen", "--actions", 3, "--depth", 4, "--paths", 5, "--seed", 11,
                   "--out", inst) == 0
        assert run("sample", "--instance", inst, "--n", 200, "--seed", 12, "--out", data) == 0
        assert run("train", "--instance", inst, "--data", data, "--family", "linear",
                   "--features", features, "--lambda", 100.0, "--kappa", 1000.0,
                   "--max-iters", 400, "--tol", 1e-7, "--out", model, "--report", report) == 0
        assert hashlib.sha256(model.read_bytes()).hexdigest() == self.MODELS[features]
        got = serialize.load_json(str(report))
        assert (got["final_loss"], got["iterations"], got["grad_norm"]) == self.REPORTS[features]
        assert got["stop_reason"] == "converged"
        assert got["final_loss"] < self.DESCENT_LOSS

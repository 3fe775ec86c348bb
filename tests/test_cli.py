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
from tarpath.errors import InvalidInputError
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

    def test_sample_of_no_rows_writes_empty_files(self, tmp_path, e1_file):
        data_out, rl_out = tmp_path / "data.jsonl", tmp_path / "rl.jsonl"
        assert run("sample", "--instance", e1_file, "--n", 0, "--seed", 5, "--out", data_out, "--rl-out", rl_out) == 0
        assert data_out.read_bytes() == rl_out.read_bytes() == b""

    def test_oracle_dump(self, tmp_path, e2_file):
        out = tmp_path / "oracle.json"
        assert run("oracle", "--instance", e2_file, "--out", out) == 0
        blob = serialize.load_json(str(out))
        assert (blob["family"], blob["c"]) == ("tabular", 0.9)
        # one drawdown per edge of e2's 8-node trie
        assert len(blob["raw"]["a"]) == 7

    def test_oracle_file_is_a_model(self, tmp_path, e2_file):
        oracle, plan, attr = tmp_path / "oracle.json", tmp_path / "plan.json", tmp_path / "attr.json"
        assert run("oracle", "--instance", e2_file, "--out", oracle) == 0
        assert run("plan", "--model", oracle, "--instance", e2_file, "--out", plan) == 0
        got = serialize.load_json(str(plan))
        assert (got["path"], got["regret"], got["truncated"]) == (["a", "a", "END"], 0.0, False)
        assert run("attribute", "--model", oracle, "--path", "a", "b", "END", "--out", attr) == 0
        got = serialize.load_json(str(attr))
        assert (got["base"], got["total"]) == (0.9, pytest.approx(0.2))
        # verify's default model is the oracle's, so reading it from the file
        # changes no byte of the report
        reports = tmp_path / "verify.json", tmp_path / "verify_oracle.json"
        assert run("verify", "--instance", e2_file, "--report", reports[0]) == 0
        assert run("verify", "--instance", e2_file, "--model", oracle, "--report", reports[1]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()

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
        # v(a, b) = 0.2 sums back as 0.9 + 0 + (0.2 - 0.9), which rounds: the report
        # carries the residual that the check over the nodes finds
        assert report["decomposition_max_abs_residual"] == 2**-54

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
        "tabular": "37d0d0b9ce098075eb9aeb23d519a19b55ee742ff73c66bd4a5f6b944c79e393",
        "linear": "9934805e2346c647a30ab05897b327f68fd9fd66240afedcdd52ec7f8c0d3ae2",
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
        "oracle": "6d8435bc237e62e9ef8dbd1b471ad99db56169adb3c7f00832cee1bb3a22f949",
        "tabular": "d1553813f2017643e54d1618de652a22bd3cb27a54d2abf627a10d2bc4149cc3",
        "linear": "41d4fb09ffb686611021f18016b676d2fdf90b0cb7037b98e908b9ddb9a5543e",
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
        # from them; its verify.json keeps the bytes pinned for it then, but
        # for the improper_samples and bellman_violation lines that verify no
        # longer writes
        inst, verify = tmp_path / "inst.json", tmp_path / "verify.json"
        assert run("gen", "--actions", 3, "--depth", 4, "--paths", 6, "--seed", 21, "--out", inst) == 0
        assert run("verify", "--instance", inst, "--model", FIXTURES / "tabular_iterative_model.json",
                   "--report", verify) == 0
        digest = hashlib.sha256(verify.read_bytes()).hexdigest()
        assert digest == "faa0946bfcd705d54644e0bb48f864a2f33477a302be13ae93f9081fae0948cc"

    def test_biased_linear_model_scores_as_before(self, tmp_path):
        # fixtures/linear_biased_model.json is the linear model that the
        # softplus-coordinate trainer wrote for this instance, with its bias,
        # -15.09, added into each pair's weight as every prediction added it,
        # and each weight z converted to the drawdown -log(1 + exp(z)); its
        # verify.json keeps the bytes pinned for it then, but for the
        # improper_samples and bellman_violation lines that verify no longer
        # writes
        inst, verify = tmp_path / "inst.json", tmp_path / "verify.json"
        assert run("gen", "--actions", 3, "--depth", 4, "--paths", 6, "--seed", 21, "--out", inst) == 0
        assert run("verify", "--instance", inst, "--model", FIXTURES / "linear_biased_model.json",
                   "--report", verify) == 0
        digest = hashlib.sha256(verify.read_bytes()).hexdigest()
        assert digest == "1d1d13f88dedee550406298ea73e1cbfd1314610fe86497c189987fed15310fb"


class TestArtifactGolden:
    """oracle.json, plan.json and attribution.json, pinned to the bytes that
    the tuple-keyed oracle and trie wrote (x86-64, numpy 2.4) for the
    instance of ``TestVerifyGolden``'s tabular case, and oracle.json for a
    larger instance: the node-order arrays must not move a bit of them. The
    oracle pins are those of the exact tabular model file,
    ``dump_json(model_to_json(TabularAdvantage.from_oracle(ov)))`` computed
    while ``oracle`` still wrote a per-node ``state``/``v``/``adv`` dump
    (776752fd... -> c2de33eb..., larger instance b8788cfc... -> a941df72...).
    The plan and attribution pins are those of a model file that
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
            "c2de33eb7a8904156521918b803e23bd8dab65f97992dbaec41c00a4973269cb",
            "6fbd4479a748b0934e295c373976ff6070327a63e415925554d88f94736c1ec4",
            "52a680fcfcc01399e8d77ce5c2276bf7fd83039baba556cf67a16e622c5de44a",
        ]

    def test_larger_oracle_is_pinned(self, tmp_path):
        inst, oracle = tmp_path / "inst.json", tmp_path / "oracle.json"
        assert run("gen", "--actions", 5, "--depth", 6, "--paths", 300, "--seed", 1, "--out", inst) == 0
        assert run("oracle", "--instance", inst, "--out", oracle) == 0
        digest = hashlib.sha256(oracle.read_bytes()).hexdigest()
        assert digest == "a941df720e958bec12c3946d49def0593f682616d23c17c1f1f9fa698e8992e4"

    def test_truncated_plan_and_off_trie_attribution_are_pinned(self, tmp_path):
        # a plan cut short by --max-len, and an attribution whose last three
        # steps leave the model's trie and read -fallback_B
        inst, data, model = tmp_path / "inst.json", tmp_path / "data.jsonl", tmp_path / "model.json"
        plan, attr = tmp_path / "plan.json", tmp_path / "attribution.json"
        assert run("gen", "--actions", 3, "--depth", 4, "--paths", 6, "--seed", 21, "--out", inst) == 0
        assert run("sample", "--instance", inst, "--n", 300, "--seed", 22, "--out", data) == 0
        assert run("train", "--instance", inst, "--data", data, "--lambda", 100.0, "--kappa", 1000.0,
                   "--tol", 1e-7, "--out", model, "--max-iters", 4000) == 0
        assert run("plan", "--model", model, "--instance", inst, "--max-len", 2, "--out", plan) == 0
        assert serialize.load_json(str(plan))["truncated"] is True
        assert run("attribute", "--model", model, "--path", "b", "b", "b", "a", "END", "--out", attr) == 0
        steps = serialize.load_json(str(attr))["steps"]
        assert [s["drawdown"] for s in steps[2:]] == [-10.0] * 3
        digests = [hashlib.sha256(f.read_bytes()).hexdigest() for f in (plan, attr)]
        assert digests == [
            "49a34b838b414ae0148094bca30ba7c0d0379487e0f32e5978175dfe7625a492",
            "3e5c701866bac21866c067002c01b826e46af30658a9af82cddbb4389c16815b",
        ]


class TestLogGolden:
    """data.jsonl and rl.jsonl of ``sample --rl-out``, pinned to the bytes
    that the per-row sampler and writers wrote (one ``NoiseModel.sample``
    call and one formatted line per row, x86-64, numpy 2.4) for the instance
    of ``TestArtifactGolden`` under each noise kind: the columnar log must
    draw the same stream and write the same lines."""

    @pytest.mark.parametrize("noise, digests", [
        ([], ("47fb36479d72d075177c9f5d742c1b57ffa09447c58b6760317f3a439c6db84f",
              "a2430bee7d1484bb568edfa71c962664c94c48f4dc77be91195309e4162e4f65")),
        (["--noise", "noiseless"],
         ("785e5fa7c10b81e450ff2fa22d2c0196c69e78d1678f8b54a573d4ee07708bb3",
          "431ae0be2a296562c81c258ced2871b31b80b0ade7b801738500683a5029f381")),
        (["--noise", "truncated_gaussian", "--stddev", 0.2],
         ("234f45d4f4ed16e0c67c2bccd4d840eb906c28052e89a635c2616fb2591a9d70",
          "54f11d2a150ddc11a68984ce4ef2feec4cf6e69b6e6a87b4d0801755b7564f8e")),
    ], ids=["bernoulli", "noiseless", "truncated_gaussian"])
    def test_sampled_logs_are_pinned(self, tmp_path, noise, digests):
        inst, data, rl = tmp_path / "inst.json", tmp_path / "data.jsonl", tmp_path / "rl.jsonl"
        assert run("gen", "--actions", 3, "--depth", 4, "--paths", 6, "--seed", 21, *noise, "--out", inst) == 0
        assert run("sample", "--instance", inst, "--n", 300, "--seed", 22, "--out", data, "--rl-out", rl) == 0
        assert tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (data, rl)) == digests


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
        trie = PrefixTrie.build(instance.alphabet, dataset.paths)
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

    def test_partly_weighted_instance_file(self, tmp_path, capsys):
        inst = tmp_path / "bad.json"
        obj = serialize.load_json(str(FIXTURES / "e2.json"))
        del obj["paths"][2]["weight"]
        inst.write_text(json.dumps(obj))
        assert run("oracle", "--instance", inst, "--out", tmp_path / "o.json") == 1
        assert capsys.readouterr().err == (
            f"error: {inst}: path row 3 has no weight, unlike row 1: "
            "either all path rows carry a weight or none do\n"
        )
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
            ('[{"state": [], "weight": 0.5}, {"state": [], "weight": 0.5}]', "p0 row 2 repeats state () of row 1"),
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

    def test_repeated_model_path(self, tmp_path, capsys, e1_file):
        # the trie would hold the path once, and a rewrite of the model
        # would drop the copy
        doc = serialize.load_json(str(FIXTURES / "tabular_iterative_model.json"))
        doc["raw"]["paths"].insert(2, doc["raw"]["paths"][0])
        model = tmp_path / "m.json"
        model.write_text(json.dumps(doc))
        assert run("plan", "--model", model, "--instance", e1_file, "--out", tmp_path / "p.json") == 1
        first = tuple(doc["raw"]["paths"][0])
        assert capsys.readouterr().err == f"error: {model}: raw.paths row 3 repeats path {first!r} of row 1\n"
        assert not (tmp_path / "p.json").exists()


class TestTokenListsAreLists:
    """A token sequence in a file must be a JSON list. ``tuple`` of a string
    is its characters, so before the loaders checked, "ab" loaded as
    ('a', 'b') wherever the tokens are single letters; each loader now
    rejects it, naming the file and, where the file has rows, the row."""

    # single-letter tokens, the terminal among them, so that the string
    # "ab" spells the complete path ('a', 'b')
    ALPHABET = {"tokens": ["a", "b"], "terminal": "b"}

    def instance(self, tmp_path, alphabet=None, path=("a", "b")):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "alphabet": alphabet or self.ALPHABET,
            "paths": [{"path": list(path) if isinstance(path, tuple) else path, "yield": 0.5}],
            "noise": {"kind": "noiseless"},
        }))
        return inst

    def test_alphabet_tokens(self, tmp_path, capsys):
        inst = self.instance(tmp_path, alphabet={"tokens": "ab", "terminal": "b"})
        assert run("oracle", "--instance", inst, "--out", tmp_path / "o.json") == 1
        err = capsys.readouterr().err
        assert f"error: {inst}: malformed alphabet object: {{'tokens': 'ab'," in err
        assert err.endswith(": a token sequence must be a list of strings, got 'ab'\n")

    def test_instance_path_row(self, tmp_path, capsys):
        inst = self.instance(tmp_path, path="ab")
        assert run("oracle", "--instance", inst, "--out", tmp_path / "o.json") == 1
        assert f"error: {inst}: malformed path row 1: {{'path': 'ab', 'yield': 0.5}}" in capsys.readouterr().err
        assert not (tmp_path / "o.json").exists()

    def test_dataset_row(self, tmp_path):
        data = tmp_path / "data.jsonl"
        data.write_text('{"path": ["a", "b"], "y": 0.5}\n{"path": "ab", "y": 0.5}\n')
        assert str(load_error(load_dataset, data)) == f"{data}: malformed dataset row 2: {{'path': 'ab', 'y': 0.5}}"

    def test_p0_state(self, tmp_path, capsys):
        inst, data, p0 = self.instance(tmp_path), tmp_path / "data.jsonl", tmp_path / "p0.json"
        data.write_text('{"path": ["a", "b"], "y": 0.5}\n')
        p0.write_text('[{"state": [], "weight": 0.5}, {"state": "a", "weight": 0.5}]')
        model = tmp_path / "m.json"
        assert run("train", "--instance", inst, "--data", data, "--p0", p0, "--out", model) == 1
        assert f"error: {p0}: malformed p0 row 2: {{'state': 'a', 'weight': 0.5}}" in capsys.readouterr().err
        assert not model.exists()

    def test_model_paths(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        # the trie of ('a', 'b') has two edges
        model.write_text(json.dumps({
            "c": 0.5, "family": "tabular", "raw": {"paths": ["ab"], "a": [-0.1, -0.1]},
            "alphabet": self.ALPHABET, "fallback_B": 10.0,
        }))
        assert run("attribute", "--model", model, "--path", "a", "b", "--out", tmp_path / "a.json") == 1
        err = capsys.readouterr().err
        assert f"error: {model}: malformed tabular model" in err and "must be a list of strings, got 'ab'" in err

    @pytest.mark.parametrize("field", ["s", "s_next"])
    def test_transition_row(self, tmp_path, field):
        rl = tmp_path / "rl.jsonl"
        row = {"s": ["a"], "a": "b", "r": 0.5, "s_next": ["a", "b"]}
        rl.write_text(json.dumps(row) + "\n" + json.dumps(dict(row, **{field: "".join(row[field])})) + "\n")
        assert str(load_error(load_rl_dataset, rl)).startswith(f"{rl}: malformed transition row 2: ")


def load_error(load, path) -> InvalidInputError:
    with pytest.raises(InvalidInputError) as err:
        load(str(path))
    return err.value


class TestUsageErrors:
    def test_missing_required_arguments(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen"])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--seed", "--improper-samples"])
    def test_verify_draws_nothing(self, tmp_path, e1_file, flag):
        # verify checks every trie node and samples no sequence
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--instance", e1_file, "--report", str(tmp_path / "verify.json"), flag, "1"])
        assert exc.value.code == 2


class TestRejectedArguments:
    """Arguments that parse but cannot be used exit 1 with one error line,
    and write no file."""

    @pytest.mark.parametrize("command", ["gen", "sample"])
    def test_negative_seed(self, tmp_path, capsys, e1_file, command):
        out, rl = tmp_path / "out.json", tmp_path / "rl.jsonl"
        argv = {
            "gen": ("gen", "--actions", 3, "--depth", 2, "--paths", 2, "--seed", -1, "--out", out),
            "sample": ("sample", "--instance", e1_file, "--n", 5, "--seed", -3, "--out", out, "--rl-out", rl),
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
    # plan.json and the attribution of its path, both truncated plans
    PLANS = {
        "edge_pair": (
            "4d9f8e47be207b8fde9dbe64a6524d313047c05121e0f9c2ed3d9b9935ff0225",
            "6a1c9341fefc7fa3fbcb385ded67df342b6e62bda9e03de09f9a263aa63b68ca",
        ),
        "depth_edge_pair": (
            "1ca2be50809f477c7aa219e8df59ee161aa7e32f2c37d8dad054869b2105eea1",
            "ca0afaf6d198c79ba1c2e460ad323c85dfbc3bc72afa6448dfdb9b3aeb91ad93",
        ),
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

    @pytest.mark.parametrize("features", sorted(PLANS))
    def test_seeded_plan_and_attribution_are_pinned(self, tmp_path, features):
        inst, data, model = tmp_path / "inst.json", tmp_path / "data.jsonl", tmp_path / "model.json"
        plan, attr = tmp_path / "plan.json", tmp_path / "attribution.json"
        assert run("gen", "--actions", 3, "--depth", 4, "--paths", 5, "--seed", 11,
                   "--out", inst) == 0
        assert run("sample", "--instance", inst, "--n", 200, "--seed", 12, "--out", data) == 0
        assert run("train", "--instance", inst, "--data", data, "--family", "linear",
                   "--features", features, "--lambda", 100.0, "--kappa", 1000.0,
                   "--max-iters", 400, "--tol", 1e-7, "--out", model) == 0
        assert run("plan", "--model", model, "--instance", inst, "--out", plan) == 0
        got = serialize.load_json(str(plan))
        assert run("attribute", "--model", model, "--path", *got["path"], "--out", attr) == 0
        assert serialize.load_json(str(attr))["total"] == got["predicted"]
        digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in (plan, attr))
        assert digests == self.PLANS[features]

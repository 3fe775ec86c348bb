"""Yield tables, path laws, noise models, and the instance generator."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tarpath import serialize
from tarpath.errors import (
    GeneratorError,
    InvalidInputError,
    UnsupportedNoiseError,
)
from tarpath.instance import (
    InstanceSpec,
    NoiseModel,
    PathDistribution,
    PathYieldDataset,
    PLInstance,
    load_dataset,
    load_instance,
    random_instance,
    sample_dataset,
    save_dataset,
    save_instance,
)
from tarpath.pathspace import EMPTY, ActionAlphabet

from .reference import instance_columns, per_row_noise
from .strategies import instances

AB = ActionAlphabet(tokens=("a", "b", "END"), terminal="END")


class TestPathDistribution:
    """The covering law P_0 over proper states."""

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidInputError, match="equal length"):
            PathDistribution(paths=(EMPTY,), weights=(0.5, 0.5))

    @pytest.mark.parametrize(
        "paths", [(("a", "END"), ("a", "END")), (EMPTY, EMPTY)]
    )
    def test_rejects_duplicates(self, paths):
        with pytest.raises(InvalidInputError, match="distinct"):
            PathDistribution(paths=paths, weights=(0.5, 0.5))
        with pytest.raises(InvalidInputError, match="distinct"):
            PathDistribution.uniform(paths)

    @pytest.mark.parametrize(
        "paths, weights",
        [((("a", "END"),), (-1.0,)), ((EMPTY, ("a",)), (1.5, -0.5))],
    )
    def test_rejects_negative_weight(self, paths, weights):
        with pytest.raises(InvalidInputError, match=r"must lie in \[0, 1\]"):
            PathDistribution(paths=paths, weights=weights)

    @pytest.mark.parametrize(
        "paths, weights",
        [((("a", "END"), ("b", "END")), (0.5, 0.6)), ((EMPTY, ("a",)), (0.4, 0.4))],
    )
    def test_rejects_bad_sum(self, paths, weights):
        with pytest.raises(InvalidInputError, match="must sum to 1"):
            PathDistribution(paths=paths, weights=weights)

    def test_uniform(self, e2):
        dist = PathDistribution.uniform([("a", "END"), ("b", "END")])
        assert dist.paths == (("a", "END"), ("b", "END"))
        assert dist.weights == (0.5, 0.5)
        # the default covering law P_0
        p0 = PathDistribution.uniform(e2.trie.nodes)
        assert p0.paths == e2.trie.nodes and len(p0.paths) == 8
        assert p0.weights == (1 / 8,) * 8
        assert math.fsum(p0.weights) == 1.0


class TestNoiseModel:
    def test_noiseless_passes_mean_through(self):
        rng = np.random.default_rng(0)
        assert NoiseModel.noiseless().sample(rng, np.array([0.37])).tolist() == [0.37]
        assert NoiseModel.noiseless().conditional_variance(0.37) == 0.0

    def test_bernoulli_support_and_variance(self):
        noise = NoiseModel.bernoulli()
        rng = np.random.default_rng(1)
        draws = noise.sample(rng, np.full(2000, 0.7))
        assert set(draws.tolist()) <= {0.0, 1.0}
        assert abs(np.mean(draws) - 0.7) < 0.05
        assert noise.conditional_variance(0.7) == pytest.approx(0.21)

    def test_truncated_gaussian_stays_in_unit_interval(self):
        noise = NoiseModel.truncated_gaussian(stddev=0.4)
        rng = np.random.default_rng(2)
        draws = noise.sample(rng, np.full(500, 0.9))
        assert np.all((draws >= 0.0) & (draws <= 1.0))

    @pytest.mark.parametrize(
        "noise", [NoiseModel.noiseless(), NoiseModel.bernoulli(), NoiseModel.truncated_gaussian(stddev=0.3)],
        ids=["noiseless", "bernoulli", "truncated_gaussian"],
    )
    def test_draw_is_the_per_row_draw(self, noise):
        """The one call over the means draws the bits of one scalar draw per
        mean, in order, and leaves the generator where that loop does."""
        means = np.array([0.0, 1.0, 0.5, 0.3, 1.0, 0.0, 0.9, 0.01, 0.99, 0.5] * 30)
        vectorized, per_row = np.random.default_rng(7), np.random.default_rng(7)
        draws = noise.sample(vectorized, means)
        assert draws.tobytes() == np.array(per_row_noise(noise, per_row, means.tolist())).tobytes()
        assert vectorized.random() == per_row.random()

    def test_truncated_gaussian_needs_positive_stddev(self):
        with pytest.raises(InvalidInputError):
            NoiseModel.truncated_gaussian(stddev=0.0)

    def test_stddev_rejected_elsewhere(self):
        with pytest.raises(InvalidInputError):
            NoiseModel(kind=NoiseModel.BERNOULLI, stddev=0.1)

    def test_truncated_gaussian_has_no_analytic_variance(self):
        noise = NoiseModel.truncated_gaussian(stddev=0.1)
        with pytest.raises(UnsupportedNoiseError):
            noise.conditional_variance(0.5)

    def test_round_trip(self):
        for noise in (
            NoiseModel.noiseless(),
            NoiseModel.bernoulli(),
            NoiseModel.truncated_gaussian(stddev=0.25),
        ):
            assert NoiseModel.from_json(noise.to_json()) == noise


def one_path(path, y=0.5, w=1.0) -> PLInstance:
    return PLInstance(alphabet=AB, psi=(path,), psi_yields=(y,), psi_weights=(w,), noise=NoiseModel.noiseless())


class TestPLInstance:
    @pytest.mark.parametrize(
        "path", [("a",), (), ("END", "a"), ("END", "END", "a"), ("a", "END", "END"), ("END", "a", "END")]
    )
    def test_rejects_incomplete_support_path(self, path):
        with pytest.raises(InvalidInputError, match=f"^path row 1: path {re.escape(repr(path))} is not complete$"):
            one_path(path)

    @pytest.mark.parametrize("value", [1.5, -0.25, float("nan"), float("inf")])
    def test_rejects_yield_outside_unit_interval(self, value):
        with pytest.raises(InvalidInputError, match=r"^path row 1: yield must be finite and in \[0, 1\], got "):
            one_path(("a", "END"), y=value)

    def test_rejects_columns_of_other_lengths(self):
        with pytest.raises(InvalidInputError, match="one yield and one weight per path"):
            PLInstance(alphabet=AB, psi=(("a", "END"),), psi_yields=(0.5, 0.5), psi_weights=(1.0,),
                       noise=NoiseModel.noiseless())

    def test_columns_are_read_only(self, e2):
        for column in (e2.psi_yields, e2.psi_weights):
            with pytest.raises(ValueError):
                column[0] = 0.0

    def test_yield_of_defaults_to_zero_off_support(self):
        inst = one_path(("a", "END"), y=0.8)
        assert inst.yield_of(("b", "END")) == 0.0
        assert inst.yield_of(("a", "END")) == 0.8

    def test_e1_hand_values(self, e1):
        assert e1.psi == (("a", "END"), ("b", "END"))
        assert e1.yield_of(("a", "END")) == 0.8
        assert e1.yield_of(("b", "END")) == 0.3
        assert e1.yield_of(("a", "b", "END")) == 0.0
        assert e1.noise_variance() == 0.0

    def test_e1_bernoulli_variance(self):
        from .reference import fixture_e1

        inst = fixture_e1(noise=NoiseModel.bernoulli())
        # 0.5 * 0.8 * 0.2 + 0.5 * 0.3 * 0.7
        assert inst.noise_variance() == pytest.approx(0.185)

    def test_e2_hand_values(self, e2):
        assert len(e2.trie) == 8
        assert e2.yield_of(("a", "a", "END")) == 0.9
        assert e2.yield_of(("a", "b", "END")) == 0.2
        assert e2.yield_of(("b", "END")) == 0.5

    def test_e2_bernoulli_sigma2(self, e2_bernoulli):
        # (0.9*0.1 + 0.2*0.8 + 0.5*0.5) / 3 = 0.5/3
        assert e2_bernoulli.noise_variance() == pytest.approx(1.0 / 6.0)

    def test_json_round_trip(self, e2_bernoulli):
        loaded = PLInstance.from_json(e2_bernoulli.to_json())
        assert loaded.to_json() == e2_bernoulli.to_json()

    def test_from_json_uniform_when_weights_missing(self, e1):
        obj = e1.to_json()
        for entry in obj["paths"]:
            del entry["weight"]
        loaded = PLInstance.from_json(obj)
        assert loaded.psi_weights.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize(
        "unweighted, message",
        [((1,), "path row 2 has a weight, unlike row 1"), ((1, 3), "path row 2 has a weight, unlike row 1"),
         ((2,), "path row 2 has no weight, unlike row 1"), ((3,), "path row 3 has no weight, unlike row 1")],
    )
    def test_from_json_rejects_partial_weights(self, e2, unweighted, message):
        obj = e2.to_json()
        for row in unweighted:
            del obj["paths"][row - 1]["weight"]
        with pytest.raises(InvalidInputError, match=f"^{message}: either all path rows carry a weight or none do$"):
            PLInstance.from_json(obj)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("paths", 5, "must be a list of path rows"),
            ("yield", "x", "malformed path row 1"),
            ("weight", "x", "malformed path row 1"),
            ("yield", 10**400, "malformed path row 1"),
        ],
    )
    def test_malformed_objects_rejected(self, e1, field, value, match):
        obj = e1.to_json()
        if field == "paths":
            obj["paths"] = value
        else:
            obj["paths"][0][field] = value
        with pytest.raises(InvalidInputError, match=match):
            PLInstance.from_json(obj)

    def test_duplicate_path_rows_rejected(self, e1, tmp_path):
        obj = e1.to_json()
        for entry in obj["paths"]:
            del entry["weight"]
        obj["paths"].append({"path": ["a", "END"], "yield": 0.3})
        with pytest.raises(InvalidInputError, match=r"path row 3 repeats .* of row 1"):
            PLInstance.from_json(obj)
        path = str(tmp_path / "dup.json")
        serialize.dump_json(obj, path)
        with pytest.raises(InvalidInputError, match=re.escape(path)):
            load_instance(path)

    def test_load_checks_and_sorts_no_path_alone(self, tmp_path, monkeypatch, e2_bernoulli):
        # the support is checked and sorted over token ranks
        path = str(tmp_path / "instance.json")
        save_instance(e2_bernoulli, path)
        calls = []
        for name in ("classify", "sort_key"):
            monkeypatch.setattr(ActionAlphabet, name, lambda alphabet, seq, name=name: calls.append(name))
        assert load_instance(path).psi == e2_bernoulli.psi
        assert calls == []

    @settings(max_examples=60)
    @given(st.data())
    def test_columns_are_the_reference_loaders(self, data):
        # rows in any order, weighted or not, load as the dict-and-sort_key
        # loader read them, bit for bit, -0.0 yields included
        inst = data.draw(instances(max_paths=data.draw(st.sampled_from([1, 10]))))
        n = len(inst.psi)
        ys = data.draw(st.lists(st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0), min_size=n, max_size=n))
        rows = [{"path": list(p), "yield": y} for p, y in zip(inst.psi, ys)]
        if data.draw(st.booleans()):
            counts = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
            for row, k in zip(rows, counts):
                row["weight"] = k / sum(counts)
        obj = dict(inst.to_json(), paths=data.draw(st.permutations(rows)))
        psi, psi_yields, psi_weights, doc = instance_columns(obj)
        loaded = PLInstance.from_json(obj)
        assert loaded.psi == psi
        assert loaded.psi_yields.tobytes() == psi_yields.tobytes()
        assert loaded.psi_weights.tobytes() == psi_weights.tobytes()
        assert serialize.dumps(loaded.to_json()) == serialize.dumps(doc)

    # each kind of fault, written into row i (0-based) of a copy of FAULT_ROWS
    FAULTS = {
        "repeat": lambda rows, i: rows[i].update(path=rows[0]["path"]),
        "unknown token": lambda rows, i: rows[i].update(path=["z", "END"]),
        "incomplete": lambda rows, i: rows[i].update(path=["a", "a"]),
        "yield": lambda rows, i: rows[i].update({"yield": float("nan")}),
        "weight": lambda rows, i: rows[i].update(weight=1.5),
    }
    FAULT_ROWS = [
        {"path": ["b", "END"], "yield": 0.5, "weight": 0.25},
        {"path": ["a", "b", "a", "END"], "yield": 0.25, "weight": 0.25},
        {"path": ["a", "END"], "yield": 1.0, "weight": 0.125},
        {"path": ["b", "b", "END"], "yield": 0.0, "weight": 0.125},
        {"path": ["a", "a", "END"], "yield": 0.75, "weight": 0.25},
    ]

    @pytest.mark.parametrize("later", sorted(FAULTS))
    @pytest.mark.parametrize("earlier", sorted(FAULTS))
    def test_two_bad_rows_name_the_earlier(self, tmp_path, earlier, later):
        rows = [dict(row) for row in self.FAULT_ROWS]
        self.FAULTS[later](rows, 3)
        self.FAULTS[earlier](rows, 1)
        obj = {"alphabet": AB.to_json(), "paths": rows, "noise": {"kind": "noiseless"}}
        with pytest.raises(InvalidInputError) as want:
            instance_columns(obj)
        assert str(want.value).startswith("path row 2")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'{path}: {want.value}')}$"):
            load_instance(path)


class TestSampleDataset:
    def test_columns_are_the_pairs(self, e2_bernoulli):
        data = sample_dataset(e2_bernoulli, 200, seed=4)
        firsts = list(dict.fromkeys(p for p, _ in data.pairs))
        assert list(data.paths) == firsts
        assert tuple(zip([data.paths[r] for r in data.rows], data.ys.tolist())) == data.pairs
        assert data.rows.dtype == np.intp and data.ys.dtype == np.float64

    def test_empty_sample(self, e2_bernoulli):
        data = sample_dataset(e2_bernoulli, 0, seed=4)
        assert (len(data), data.paths, data.pairs) == (0, (), ())

    def test_deterministic(self, e2_bernoulli):
        a = sample_dataset(e2_bernoulli, 50, seed=3)
        b = sample_dataset(e2_bernoulli, 50, seed=3)
        assert a.pairs == b.pairs

    def test_paths_come_from_support(self, e2_bernoulli):
        data = sample_dataset(e2_bernoulli, 200, seed=4)
        support = set(e2_bernoulli.psi)
        assert {p for p, _ in data.pairs} == support

    def test_noiseless_yields_are_exact(self, e1):
        data = sample_dataset(e1, 40, seed=5)
        for path, y in data.pairs:
            assert y == e1.yield_of(path)

    def test_rejects_negative_count(self, e1):
        with pytest.raises(InvalidInputError):
            sample_dataset(e1, -1, seed=0)

    def test_rejects_negative_seed(self, e1):
        with pytest.raises(InvalidInputError, match="^seed must be nonnegative, got -1$"):
            sample_dataset(e1, 3, seed=-1)


class TestRandomInstance:
    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            InstanceSpec(n_actions=1, max_depth=2, n_paths=1)
        with pytest.raises(InvalidInputError):
            InstanceSpec(n_actions=3, max_depth=0, n_paths=1)
        with pytest.raises(InvalidInputError):
            InstanceSpec(n_actions=3, max_depth=2, n_paths=2, yield_range=(0.4, 0.2))

    def test_too_many_paths_raises(self):
        # one nonterminal token at depth <= 2 admits only 3 distinct paths
        spec = InstanceSpec(n_actions=2, max_depth=2, n_paths=4)
        with pytest.raises(GeneratorError):
            random_instance(spec, 0)

    def test_rejects_negative_seed(self):
        spec = InstanceSpec(n_actions=4, max_depth=3, n_paths=7)
        with pytest.raises(InvalidInputError, match="^seed must be nonnegative, got -5$"):
            random_instance(spec, -5)

    def test_deterministic_given_seed(self):
        spec = InstanceSpec(n_actions=4, max_depth=3, n_paths=7)
        a = random_instance(spec, 11)
        b = random_instance(spec, 11)
        assert a.to_json() == b.to_json()

    @given(instances())
    def test_generated_instances_are_wellformed(self, inst):
        assert len(inst.psi) >= 1
        for path in inst.psi:
            assert inst.alphabet.classify(path).name == "COMPLETE"
            assert 0.0 <= inst.yield_of(path) <= 1.0
        assert list(inst.psi) == sorted(inst.psi, key=inst.alphabet.sort_key)
        assert inst.psi_weights.tolist() == [1.0 / len(inst.psi)] * len(inst.psi)

    @given(instances(max_depth=4))
    def test_generated_depth_bound(self, inst):
        # depth counts nonterminal steps; the trailing terminal adds one
        assert max(len(p) for p in inst.psi) <= 5


class TestDatasetColumns:
    """A dataset holds its distinct paths, a row index and a yield column."""

    def test_from_pairs_numbers_paths_at_first_appearance(self):
        a, b = ("a", "END"), ("b", "END")
        data = PathYieldDataset.from_pairs([(b, 1), (a, 0.5), (b, 0.0)])
        assert data.paths == (b, a)
        assert data.rows.tolist() == [0, 1, 0]
        assert data.pairs == ((b, 1.0), (a, 0.5), (b, 0.0))

    def test_columns_are_read_only(self):
        data = PathYieldDataset.from_pairs([(("a", "END"), 1.0)])
        with pytest.raises(ValueError):
            data.ys[0] = 0.5

    @pytest.mark.parametrize(
        "paths, rows, ys",
        [
            ((("a", "END"), ("a", "END")), [0, 1], [0.5, 0.5]),  # repeated path
            ((("a", "END"), ("b", "END")), [1, 0], [0.5, 0.5]),  # not first-appearance order
            ((("a", "END"), ("b", "END")), [0, 0], [0.5, 0.5]),  # an unused path
            ((("a", "END"),), [0, -1], [0.5, 0.5]),  # a negative index
            ((("a", "END"),), [0], [0.5, 0.5]),  # one index per yield
        ],
    )
    def test_rejects_inconsistent_columns(self, paths, rows, ys):
        with pytest.raises(InvalidInputError):
            PathYieldDataset(paths=paths, rows=np.array(rows), ys=np.array(ys))

    def test_negative_zero_after_zero_keeps_its_sign(self, tmp_path):
        path = tmp_path / "data.jsonl"
        b = ("b", "END")
        save_dataset(PathYieldDataset.from_pairs([(b, 0.0), (b, -0.0), (b, 0.0)]), str(path))
        assert path.read_text().splitlines() == [
            '{"path":["b","END"],"y":0}', '{"path":["b","END"],"y":-0}', '{"path":["b","END"],"y":0}'
        ]


class TestPersistence:
    def test_instance_file_round_trip(self, tmp_path, e2_bernoulli):
        path = tmp_path / "instance.json"
        save_instance(e2_bernoulli, str(path))
        loaded = load_instance(str(path))
        assert loaded.to_json() == e2_bernoulli.to_json()

    def test_dataset_file_round_trip(self, tmp_path, e2_bernoulli):
        data = sample_dataset(e2_bernoulli, 25, seed=9)
        path = tmp_path / "data.jsonl"
        save_dataset(data, str(path))
        loaded = load_dataset(str(path))
        assert loaded.pairs == data.pairs

    def test_dataset_file_is_the_generic_jsonl(self, tmp_path, e2_bernoulli):
        data = sample_dataset(e2_bernoulli, 60, seed=9)
        data = PathYieldDataset.from_pairs(data.pairs + ((("b", "END"), 0.1), (("b", "END"), -0.0)))
        fast, generic = tmp_path / "fast.jsonl", tmp_path / "generic.jsonl"
        save_dataset(data, str(fast))
        serialize.dump_jsonl(({"path": list(p), "y": y} for p, y in data.pairs), str(generic))
        assert fast.read_bytes() == generic.read_bytes()


class TestLoadDataset:
    """Bad rows are rejected at load time, naming the file and the row."""

    def write(self, tmp_path, rows):
        path = str(tmp_path / "data.jsonl")
        with open(path, "w") as handle:
            handle.write("".join(row + "\n" for row in rows))
        return path

    @pytest.mark.parametrize("y", ["NaN", "Infinity", "7.0", "-0.1"])
    def test_yield_outside_unit_interval_rejected(self, tmp_path, y):
        path = self.write(tmp_path, ['{"path": ["a", "END"], "y": 0.5}', f'{{"path": ["b", "END"], "y": {y}}}'])
        with pytest.raises(InvalidInputError, match=re.escape(path) + r": row 2: yield must be finite"):
            load_dataset(path)

    def test_path_off_the_support_rejected(self, tmp_path, e1):
        path = self.write(tmp_path, ['{"path": ["a", "END"], "y": 1}', '{"path": ["b", "b", "END"], "y": 0.5}'])
        with pytest.raises(InvalidInputError, match=re.escape(path) + r": row 2: path .* not a support path"):
            load_dataset(path, e1)
        # without an instance there is no support to check against
        assert len(load_dataset(path)) == 2

    @pytest.mark.parametrize(
        "row", ['{"path": ["a", "END"], "y": "x"}', '{"path": [["a"], "END"], "y": 0.5}', '{"y": 0.5}', "[1, 2]"]
    )
    def test_malformed_rows_rejected(self, tmp_path, e1, row):
        path = self.write(tmp_path, [row])
        with pytest.raises(InvalidInputError, match=re.escape(path) + r": malformed dataset row 1"):
            load_dataset(path, e1)

    def test_repeated_bad_row_is_named_at_its_first_row(self, tmp_path, e1):
        bad = '{"path": ["b", "END"], "y": 2}'
        path = self.write(tmp_path, ['{"path": ["a", "END"], "y": 1}', bad, bad])
        with pytest.raises(InvalidInputError, match=re.escape(path) + r": row 2: "):
            load_dataset(path, e1)

    def test_repeated_rows_load_in_order(self, tmp_path, e1):
        a, b = '{"path": ["a", "END"], "y": 1}', '{"path": ["b", "END"], "y": 0}'
        path = self.write(tmp_path, [a, b, a, "", a, b])
        pairs = load_dataset(path, e1).pairs
        assert pairs == tuple((("a", "END"), 1.0) if r == a else (("b", "END"), 0.0) for r in [a, b, a, a, b])

    def test_valid_rows_load(self, tmp_path, e1):
        path = self.write(tmp_path, ['{"path": ["a", "END"], "y": 0}', '{"path": ["b", "END"], "y": 1.0}'])
        assert load_dataset(path, e1).pairs == ((("a", "END"), 0.0), (("b", "END"), 1.0))

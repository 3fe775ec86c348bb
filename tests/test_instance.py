"""Yield tables, path laws, noise models, and the instance generator."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tarpath import serialize
from tarpath.errors import (
    GeneratorError,
    InvalidInputError,
    InvalidInstanceError,
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

from .reference import per_row_noise
from .strategies import instances

AB = ActionAlphabet(tokens=("a", "b", "END"), terminal="END")


class TestPathDistribution:
    """One class weights both the path law and the covering law P_0."""

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

    def test_weight_of_off_the_support_is_zero(self):
        dist = PathDistribution.uniform([("a", "END"), ("b", "END")])
        assert dist.weight_of(("a", "END")) == 0.5
        assert dist.weight_of(("b", "b", "END")) == 0.0
        assert dist.weight_of(EMPTY) == 0.0


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


class TestPLInstance:
    def test_rejects_incomplete_support_path(self):
        with pytest.raises(InvalidInstanceError):
            PLInstance(
                alphabet=AB,
                yields={("a",): 0.5},
                path_dist=PathDistribution.uniform([("a",)]),
                noise=NoiseModel.noiseless(),
            )

    def test_rejects_distribution_outside_support(self):
        with pytest.raises(InvalidInstanceError):
            PLInstance(
                alphabet=AB,
                yields={("a", "END"): 0.5},
                path_dist=PathDistribution.uniform([("b", "END")]),
                noise=NoiseModel.noiseless(),
            )

    @pytest.mark.parametrize("value", [1.5, -0.25, float("nan"), float("inf")])
    def test_rejects_yield_outside_unit_interval(self, value):
        with pytest.raises(InvalidInputError, match=r"^yield for \('a', 'END'\) must be finite and in \[0, 1\]"):
            PLInstance(
                alphabet=AB,
                yields={("a", "END"): value},
                path_dist=PathDistribution.uniform([("a", "END")]),
                noise=NoiseModel.noiseless(),
            )

    def test_yield_of_defaults_to_zero_off_support(self):
        inst = PLInstance(
            alphabet=AB,
            yields={("a", "END"): 0.8},
            path_dist=PathDistribution.uniform([("a", "END")]),
            noise=NoiseModel.noiseless(),
        )
        assert inst.yield_of(("b", "END")) == 0.0
        assert inst.yields[("a", "END")] == 0.8

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
        assert e2.yields[("a", "a", "END")] == 0.9
        assert e2.yields[("a", "b", "END")] == 0.2
        assert e2.yields[("b", "END")] == 0.5

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
        assert loaded.path_dist.weight_of(("a", "END")) == 0.5

    def test_from_json_rejects_partial_weights(self, e1):
        obj = e1.to_json()
        del obj["paths"][0]["weight"]
        with pytest.raises(InvalidInputError):
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

    def test_load_classifies_each_path_once(self, tmp_path, monkeypatch, e2_bernoulli):
        path = str(tmp_path / "instance.json")
        save_instance(e2_bernoulli, path)
        calls = []
        classify = ActionAlphabet.classify

        def counted(alphabet, seq):
            calls.append(tuple(seq))
            return classify(alphabet, seq)

        monkeypatch.setattr(ActionAlphabet, "classify", counted)
        load_instance(path)
        assert sorted(calls) == sorted(e2_bernoulli.psi)


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
            assert y == e1.yields[path]

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
            assert 0.0 <= inst.yields[path] <= 1.0
        assert inst.path_dist.paths == inst.psi
        assert all(w > 0.0 for w in inst.path_dist.weights)

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

"""Fixed-width float JSON emission and atomic file IO."""

import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tarpath import serialize

finite_floats = st.floats(allow_nan=False, allow_infinity=False)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite_floats | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


class TestFormatFloat:
    @given(finite_floats)
    def test_seventeen_digits_round_trip(self, x):
        assert float(serialize.format_float(x)) == x

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            serialize.format_float(bad)

    def test_shows_the_ugly_digits(self):
        assert serialize.format_float(0.1) == "0.10000000000000001"
        assert serialize.format_float(0.5) == "0.5"
        assert serialize.format_float(1 / 3) == "0.33333333333333331"


class TestDumps:
    @given(json_values)
    def test_round_trip_is_exact(self, value):
        assert serialize.loads(serialize.dumps(value)) == value

    @given(json_values)
    def test_indented_form_parses_to_the_same_value(self, value):
        assert serialize.loads(serialize.dumps(value, indent=2)) == value

    def test_booleans_are_not_numbers(self):
        assert serialize.dumps([True, False, None]) == "[true,false,null]"

    def test_tuples_become_arrays(self):
        assert serialize.dumps((1, 2)) == "[1,2]"

    def test_numpy_scalars_unwrap(self):
        blob = serialize.dumps({"a": np.float64(0.5), "b": np.int64(3)})
        assert serialize.loads(blob) == {"a": 0.5, "b": 3}

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError):
            serialize.dumps({1: "x"})

    def test_unsupported_types_rejected(self):
        with pytest.raises(TypeError):
            serialize.dumps({"x": object()})

    def test_non_finite_floats_rejected(self):
        with pytest.raises(ValueError):
            serialize.dumps([math.inf])

    def test_token_texts_are_compact_arrays(self):
        texts = serialize.TokenTexts()
        assert texts[("a", "END")] == '["a","END"]' == serialize.dumps(("a", "END"))
        assert texts["b"] == '"b"'
        assert texts[()] == "[]"


class TestFiles:
    def test_dump_and_load_json(self, tmp_path):
        path = str(tmp_path / "blob.json")
        payload = {"values": [0.1, 0.2], "n": 3}
        serialize.dump_json(payload, path)
        assert serialize.load_json(path) == payload

    def test_no_temp_residue_after_write(self, tmp_path):
        path = str(tmp_path / "blob.json")
        serialize.dump_json({"x": 1}, path)
        assert sorted(os.listdir(tmp_path)) == ["blob.json"]

    def test_overwrite_replaces_content(self, tmp_path):
        path = str(tmp_path / "blob.json")
        serialize.dump_json({"x": 1}, path)
        serialize.dump_json({"x": 2}, path)
        assert serialize.load_json(path) == {"x": 2}

    def test_failed_serialization_leaves_no_file(self, tmp_path):
        path = str(tmp_path / "blob.json")
        with pytest.raises(ValueError):
            serialize.dump_json({"x": math.nan}, path)
        assert not os.path.exists(path)
        assert os.listdir(tmp_path) == []

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        rows = [{"i": 0, "y": 0.5}, {"i": 1, "y": 0.25}]
        serialize.dump_jsonl(rows, path)
        assert list(serialize.load_jsonl(path)) == rows

    def test_jsonl_ignores_blank_lines(self, tmp_path):
        path = str(tmp_path / "rows.jsonl")
        path_obj = tmp_path / "rows.jsonl"
        path_obj.write_text('{"i": 0}\n\n{"i": 1}\n\n')
        assert list(serialize.load_jsonl(path)) == [{"i": 0}, {"i": 1}]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            serialize.load_json(str(tmp_path / "absent.json"))

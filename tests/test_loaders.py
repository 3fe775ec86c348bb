"""Fuzzing the file loaders: every JSON input either loads or is rejected
with a TarPathError, never with another exception, and an instance file's
error names the file. The ``train --p0`` file of weighted states goes
through the command line, which must exit 0 or 1."""

import copy
import json
import math

import numpy as np
from hypothesis import given, strategies as st

from tarpath.cli import main
from tarpath.errors import TarPathError
from tarpath.instance import fixture_e1, load_dataset, load_instance, save_instance
from tarpath.model import LinearAdvantage, TabularAdvantage, load_model, model_to_json
from tarpath.reduction import load_rl_dataset

E1 = fixture_e1()

# the schema's own keys and tokens, so that generated documents reach past
# the first lookup
_KEYS = st.sampled_from(
    ["alphabet", "tokens", "terminal", "paths", "path", "yield", "weight", "noise",
     "kind", "stddev", "y", "s", "a", "r", "s_next", "state", "c", "family", "raw",
     "z", "feature_kind", "weights", "fallback_B"]
)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.sampled_from(["a", "b", "END", "noiseless", "bernoulli", "truncated_gaussian", "tabular",
                       "linear", "edge_pair", "depth_edge_pair"])
    | st.text(max_size=3)
)
# scalars half the time: a wrongly typed value in a known field reaches the
# number and token checks, where a nested one is rejected at its first lookup
json_values = _SCALARS | st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS | st.text(max_size=3), inner, max_size=5),
    max_leaves=16,
)


def _locations(doc, at=()):
    yield at
    if isinstance(doc, (dict, list)):
        for k, v in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _locations(v, at + (k,))


@st.composite
def like(draw, doc):
    """``doc`` with one field or element, at any depth (the root included),
    replaced by arbitrary JSON."""
    at = draw(st.sampled_from(list(_locations(doc))))
    if not at:
        return draw(json_values)
    doc = copy.deepcopy(doc)
    node = doc
    for k in at[:-1]:
        node = node[k]
    node[at[-1]] = draw(json_values)
    return doc


def _loads_or_rejects(load, *args):
    try:
        load(*args)
    except TarPathError:
        pass


def _write_lines(directory, rows):
    path = directory / "rows.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return str(path)


_MODELS = [model_to_json(TabularAdvantage.default(E1.trie)), model_to_json(LinearAdvantage.default(E1.alphabet))]
_DATA_ROW = {"path": ["a", "END"], "y": 0.5}
_RL_ROW = {"s": ["a"], "a": "END", "r": 0.5, "s_next": ["a", "END"]}
_P0_ROWS = [{"state": [], "weight": 0.5}, {"state": ["a"], "weight": 0.25},
            {"state": ["b", "END"], "weight": 0.25}]


@given(like(E1.to_json()))
def test_load_instance(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "instance.json"
    path.write_text(json.dumps(doc))
    try:
        load_instance(str(path))
    except TarPathError as exc:
        assert str(path) in str(exc)


@given(like(_MODELS[0]) | like(_MODELS[1]))
def test_load_model(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    path.write_text(json.dumps(doc))
    try:
        model = load_model(str(path))
    except TarPathError as exc:
        assert str(path) in str(exc)
        return
    # what loads is finite, and never predicts a positive drawdown
    assert np.all(np.isfinite(model.params_vector()))
    assert model.family == "linear" or (math.isfinite(model.fallback_B) and model.fallback_B >= 0.0)


@given(st.lists(like(_DATA_ROW), max_size=3), st.booleans())
def test_load_dataset(tmp_path_factory, rows, with_instance):
    path = _write_lines(tmp_path_factory.mktemp("fuzz"), rows)
    _loads_or_rejects(load_dataset, path, E1 if with_instance else None)


@given(st.lists(like(_RL_ROW), max_size=3))
def test_load_rl_dataset(tmp_path_factory, rows):
    _loads_or_rejects(load_rl_dataset, _write_lines(tmp_path_factory.mktemp("fuzz"), rows))


@given(like(_P0_ROWS))
def test_train_p0_file(tmp_path_factory, doc):
    d = tmp_path_factory.mktemp("fuzz")
    instance, p0 = str(d / "instance.json"), d / "p0.json"
    save_instance(E1, instance)
    data = _write_lines(d, [_DATA_ROW])
    p0.write_text(json.dumps(doc))
    argv = ["train", "--instance", instance, "--data", data, "--p0", str(p0),
            "--max-iters", "20", "--out", str(d / "model.json")]
    assert main(argv) in (0, 1)

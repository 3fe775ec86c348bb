"""Test-only references: the two hand-made instances, the fringe of a trie,
the oracle file read back as the exact model, and a trie-free enumeration of
optimal values to check the oracle against."""

from typing import Iterable

import numpy as np

from tarpath.instance import NoiseModel, PathDistribution, PLInstance
from tarpath.losses import _ValueBatch
from tarpath.model import TabularAdvantage, load_model
from tarpath.oracle import OptimalValues, node_decomposition, save_oracle
from tarpath.pathspace import ActionAlphabet, PathSeq, PrefixTrie


def _fixture(yields: dict, noise: NoiseModel | None) -> PLInstance:
    return PLInstance(
        alphabet=ActionAlphabet(tokens=("a", "b", "END")),
        yields=yields,
        path_dist=PathDistribution.uniform(yields),
        noise=noise or NoiseModel.noiseless(),
    )


def load_oracle_file(ov: OptimalValues, path: str) -> tuple[TabularAdvantage, np.ndarray]:
    """Write ``ov`` with ``save_oracle``, read it back with ``load_model`` and
    check that it is the exact model: c = J*, the trie's nodes and each
    edge's drawdown bit for bit. Returns the model and its values over the
    nodes, which are the sums that ``node_decomposition`` compares with
    ``v``, bit for bit (so they equal ``v`` wherever its residual is 0)."""
    save_oracle(ov, path)
    model = load_model(path)
    assert isinstance(model, TabularAdvantage)
    assert model.c == ov.j_star
    assert model.a.tobytes() == ov.edge_drawdowns.tobytes()
    assert model.trie.nodes == ov.trie.nodes
    values = _ValueBatch(model, model.trie.nodes).values(model.drawdown_vector())
    assert (ov.v - values).tobytes() == node_decomposition(ov).tobytes()
    return model, values


def fixture_e1(noise: NoiseModel | None = None) -> PLInstance:
    """Two single-step paths: yields 0.8 (a) and 0.3 (b), uniform path law."""
    return _fixture({("a", "END"): 0.8, ("b", "END"): 0.3}, noise)


def fixture_e2(noise: NoiseModel | None = None) -> PLInstance:
    """Three paths of mixed depth: 0.9 (a,a), 0.2 (a,b), 0.5 (b)."""
    return _fixture({("a", "a", "END"): 0.9, ("a", "b", "END"): 0.2, ("b", "END"): 0.5}, noise)


def fringe_states(trie: PrefixTrie) -> tuple[PathSeq, ...]:
    """States exactly one append beyond the trie, in canonical order.

    Every continuation of such a state stays off the trie, so its optimal
    value is zero; together with the nodes these are all states a finite
    value computation ever touches.
    """
    tokens = trie.alphabet.tokens
    out = []
    for node, row in zip(trie.nodes, trie.child.tolist()):
        out.extend(node + (t,) for t, c in zip(tokens, row) if c < 0)
    return tuple(out)


def enumeration_value(instance: PLInstance, seq: Iterable[str]) -> float:
    """Trie-free cross-check: scan every support path for a prefix match."""
    seq = instance.alphabet.require_seq(seq)
    best = 0.0
    for path, value in instance.yields.items():
        if path[: len(seq)] == seq and value > best:
            best = value
    return best


def enumeration_advantage(instance: PLInstance, seq: Iterable[str], token: str) -> float:
    """Drawdown via direct enumeration: value after committing minus before."""
    instance.alphabet.require_token(token)
    seq = instance.alphabet.require_seq(seq)
    return enumeration_value(instance, seq + (token,)) - enumeration_value(instance, seq)

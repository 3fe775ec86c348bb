"""Test-only references: the two hand-made instances, the fringe of a trie,
the oracle file as a dict, and a trie-free enumeration of optimal values to
check the oracle against."""

from typing import Iterable

from tarpath.instance import NoiseModel, PathDistribution, PLInstance
from tarpath.oracle import OptimalValues
from tarpath.pathspace import ActionAlphabet, PathSeq, PrefixTrie


def _fixture(yields: dict, noise: NoiseModel | None) -> PLInstance:
    return PLInstance(
        alphabet=ActionAlphabet(tokens=("a", "b", "END")),
        yields=yields,
        path_dist=PathDistribution.uniform(yields),
        noise=noise or NoiseModel.noiseless(),
    )


def oracle_to_json(ov: OptimalValues) -> dict:
    """The oracle file as a dict: each trie node's state, ``v`` and ``adv``,
    in node order."""
    tokens = ov.trie.alphabet.tokens
    nodes = []
    for node, v, a in zip(ov.trie.nodes, ov.v.tolist(), ov.a.tolist()):
        nodes.append({"state": list(node), "v": v, "adv": dict(zip(tokens, a))})
    return {"j_star": ov.j_star, "nodes": nodes}


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

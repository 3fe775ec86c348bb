"""Exact ground-truth values on small instances.

Backward induction over the prefix trie computes, for every trie state s:

* ``v_star``: the best yield reachable from s (over all completions,
  including s itself when it is a support path), zero one step off the trie;
* ``q_star``: expected immediate reward plus the optimal value of the
  successor, for every action;
* ``a_star = q_star - v_star``: the drawdown of committing to an action,
  nonpositive everywhere.

A second, deliberately independent implementation recomputes the same
quantities by enumerating support-path extensions directly (no trie, no
recursion); both take maxima over the same finite set of stored yields, so
agreement is exact in floating point, not merely approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from . import serialize
from .errors import InvalidInstanceError
from .instance import PLInstance
from .pathspace import EMPTY, PathSeq, PrefixTrie, SeqClass

ValueMap = Mapping[PathSeq, float] | Callable[[PathSeq], float]


@dataclass(frozen=True, eq=False)
class OptimalValues:
    """Exact optimal values over a trie; off-trie states implicitly carry 0."""

    trie: PrefixTrie
    v_star: Mapping[PathSeq, float]
    q_star: Mapping[tuple[PathSeq, str], float]
    a_star: Mapping[tuple[PathSeq, str], float]
    j_star: float

    def value_at(self, seq: PathSeq) -> float:
        return self.v_star.get(tuple(seq), 0.0)

    def advantage_at(self, seq: PathSeq, token: str) -> float:
        return self.a_star.get((tuple(seq), token), 0.0)


def _lookup(values: ValueMap, seq: PathSeq) -> float:
    if callable(values):
        return values(seq)
    return values.get(seq, 0.0)


def transition_operator(
    values: ValueMap, instance: PLInstance, s: PathSeq, a: str
) -> float:
    """Exact one-step backup: expected reward at s plus the value of s + a."""
    instance.alphabet.require_token(a)
    s = instance.alphabet.require_seq(s)
    return instance.yields.get(s, 0.0) + _lookup(values, s + (a,))


def compute_optimal(instance: PLInstance) -> OptimalValues:
    if not len(instance.yields):
        raise InvalidInstanceError("optimal values need a nonempty path support")
    trie = instance.trie
    tokens = instance.alphabet.tokens

    yields, children = instance.yields.entries, trie.children
    v_star: dict[PathSeq, float] = {}
    for node in trie.nodes_deepest_first():
        best = yields.get(node, 0.0)
        for a in children(node):
            child = v_star[node + (a,)]
            if child > best:
                best = child
        v_star[node] = best

    # off the trie, node + (a,) has value 0.0
    q_star: dict[tuple[PathSeq, str], float] = {}
    a_star: dict[tuple[PathSeq, str], float] = {}
    for node in trie.nodes:
        reward, v, on_trie = yields.get(node, 0.0), v_star[node], children(node)
        for a in tokens:
            q = reward + (v_star[node + (a,)] if a in on_trie else 0.0)
            key = (node, a)
            q_star[key] = q
            a_star[key] = q - v

    return OptimalValues(
        trie=trie,
        v_star=v_star,
        q_star=q_star,
        a_star=a_star,
        j_star=v_star[EMPTY],
    )


def check_decomposition(ov: OptimalValues, seq: Iterable[str]) -> float:
    """Residual of the additive value identity at one sequence.

    Proper sequences should satisfy v(seq) = j_star + sum of the per-step
    drawdowns along seq; improper sequences should carry value 0. Returns
    the signed difference (0 up to float rounding when the identity holds).
    """
    seq = tuple(seq)
    # classify rejects unknown tokens
    if ov.trie.alphabet.classify(seq) is SeqClass.IMPROPER:
        return ov.value_at(seq) - 0.0
    total, a_star = ov.j_star, ov.a_star
    for k in range(len(seq)):
        total += a_star.get((seq[:k], seq[k]), 0.0)
    return ov.value_at(seq) - total


def max_bellman_violation(ov: OptimalValues) -> float:
    """Largest positive part of (backup minus value) over trie states/actions.

    Feasibility of the optimal values means this is exactly 0: the backup
    never exceeds the value it backs up to.
    """
    worst = 0.0
    for (node, _a), q in ov.q_star.items():
        excess = q - ov.v_star[node]
        if excess > worst:
            worst = excess
    return worst


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


def oracle_to_json(ov: OptimalValues) -> dict:
    tokens = ov.trie.alphabet.tokens
    nodes = []
    for node in ov.trie.nodes:
        nodes.append(
            {
                "state": list(node),
                "v": ov.v_star[node],
                "q": {a: ov.q_star[(node, a)] for a in tokens},
                "adv": {a: ov.a_star[(node, a)] for a in tokens},
            }
        )
    return {"j_star": ov.j_star, "nodes": nodes}


def save_oracle(ov: OptimalValues, path: str) -> None:
    """Write ``oracle_to_json(ov)`` byte for byte as ``serialize.dump_json``
    would (indent 2), from one text template per node instead of building
    and walking a dict per node: the file holds every trie node."""
    num, tokens = serialize.format_float, ov.trie.alphabet.tokens
    # state entries and q/adv keys sit at depth 4 (8 spaces)
    token_text = {a: "\n        " + serialize.dumps(a) for a in tokens}
    keys = [(a, token_text[a] + ": ") for a in tokens]
    v_star, q_star, a_star = ov.v_star, ov.q_star, ov.a_star
    nodes = []
    for node in ov.trie.nodes:
        state = "[" + ",".join([token_text[t] for t in node]) + "\n      ]" if node else "[]"
        q = ",".join([key + num(q_star[(node, a)]) for a, key in keys])
        adv = ",".join([key + num(a_star[(node, a)]) for a, key in keys])
        nodes.append(
            f'{{\n      "state": {state},\n      "v": {num(v_star[node])},'
            f'\n      "q": {{{q}\n      }},\n      "adv": {{{adv}\n      }}\n    }}'
        )
    serialize.atomic_write_text(
        path,
        f'{{\n  "j_star": {num(ov.j_star)},\n  "nodes": [\n    ' + ",\n    ".join(nodes) + "\n  ]\n}\n",
    )

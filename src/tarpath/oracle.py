"""Exact ground-truth values on small instances.

Backward induction over the prefix trie computes, for every trie node s,
held in arrays indexed by the node's position (``PrefixTrie.index``) and, per
action, by the token's rank:

* ``v``: the best yield reachable from s (over all completions, including s
  itself when it is a support path), zero one step off the trie;
* ``a = q - v``, per action, where the backup ``q`` is the immediate reward
  plus the optimal value of the successor: the drawdown of committing to an
  action, nonpositive everywhere.

``value_at`` and ``advantage_at`` look them up by sequence. A second,
deliberately independent implementation recomputes the same quantities by
enumerating support-path extensions directly (no trie, no recursion); both
take maxima over the same finite set of stored yields, so agreement is exact
in floating point, not merely approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import serialize
from .errors import InvalidInstanceError
from .instance import PLInstance
from .pathspace import PathSeq, PrefixTrie, SeqClass


@dataclass(frozen=True, eq=False)
class OptimalValues:
    """Exact optimal values over a trie, in node order: ``v[i]`` at node i,
    ``a[i, t]`` for the token of rank t there. Off-trie states implicitly
    carry 0."""

    trie: PrefixTrie
    v: np.ndarray
    a: np.ndarray
    j_star: float

    def value_at(self, seq: PathSeq) -> float:
        i = self.trie.index.get(tuple(seq))
        return 0.0 if i is None else float(self.v[i])

    def advantage_at(self, seq: PathSeq, token: str) -> float:
        i = self.trie.index.get(tuple(seq))
        return 0.0 if i is None else float(self.a[i, self.trie.alphabet.index(token)])

    @property
    def edge_drawdowns(self) -> np.ndarray:
        """The drawdown of every trie edge, the edge into node i at i - 1."""
        return self.a[self.trie.parent[1:], self.trie.rank[1:]]


def compute_optimal(instance: PLInstance) -> OptimalValues:
    if not instance.yields:
        raise InvalidInstanceError("optimal values need a nonempty path support")
    trie = instance.trie
    get = instance.yields.get
    reward = [get(node, 0.0) for node in trie.nodes]

    # deepest first, each node's value folds into its parent's
    value = list(reward)
    parent = trie.parent.tolist()
    for i in range(len(value) - 1, 0, -1):
        if value[i] > value[parent[i]]:
            value[parent[i]] = value[i]
    v = np.array(value)

    # off the trie, node + (a,) has value 0.0
    child = trie.child
    q = np.array(reward)[:, None] + np.where(child >= 0, v[child], 0.0)
    return OptimalValues(trie=trie, v=v, a=q - v[:, None], j_star=value[0])


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
    total = ov.j_star
    for k in range(len(seq)):
        total += ov.advantage_at(seq[:k], seq[k])
    return ov.value_at(seq) - total


def node_decomposition(ov: OptimalValues) -> np.ndarray:
    """``check_decomposition`` at every trie node, in node order, in one
    pass: a node's sum is its parent's plus the drawdown of the edge into
    it, the same left-to-right additions."""
    edge = ov.edge_drawdowns.tolist()
    total = [ov.j_star]
    for i, p in enumerate(ov.trie.parent[1:].tolist()):
        total.append(total[p] + edge[i])
    return ov.v - np.array(total)


def max_bellman_violation(ov: OptimalValues) -> float:
    """Largest positive part of (backup minus value) over trie states/actions,
    which is the drawdown ``a``.

    Feasibility of the optimal values means this is exactly 0: the backup
    never exceeds the value it backs up to.
    """
    return max(0.0, float(np.max(ov.a)))


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
    """Each trie node's state, ``v`` and ``adv``, in node order; ``q`` is
    the node's own yield plus the child's ``v``, and ``adv`` is ``q - v``."""
    tokens = ov.trie.alphabet.tokens
    nodes = []
    for node, v, a in zip(ov.trie.nodes, ov.v.tolist(), ov.a.tolist()):
        nodes.append({"state": list(node), "v": v, "adv": dict(zip(tokens, a))})
    return {"j_star": ov.j_star, "nodes": nodes}


def save_oracle(ov: OptimalValues, path: str) -> None:
    """Write ``oracle_to_json(ov)`` byte for byte as ``serialize.dump_json``
    would (indent 2), from one text template per node instead of building
    and walking a dict per node: the file holds every trie node."""
    num, tokens = serialize.format_float, ov.trie.alphabet.tokens
    # state entries and adv keys sit at depth 4 (8 spaces)
    token_text = {a: "\n        " + serialize.dumps(a) for a in tokens}
    keys = [token_text[a] + ": " for a in tokens]
    nodes = []
    for node, v, a_row in zip(ov.trie.nodes, ov.v.tolist(), ov.a.tolist()):
        state = "[" + ",".join([token_text[t] for t in node]) + "\n      ]" if node else "[]"
        adv = ",".join([key + num(x) for key, x in zip(keys, a_row)])
        nodes.append(
            f'{{\n      "state": {state},\n      "v": {num(v)},'
            f'\n      "adv": {{{adv}\n      }}\n    }}'
        )
    serialize.atomic_write_text(
        path,
        f'{{\n  "j_star": {num(ov.j_star)},\n  "nodes": [\n    ' + ",\n    ".join(nodes) + "\n  ]\n}\n",
    )

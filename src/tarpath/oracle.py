"""Exact ground-truth values on small instances.

Backward induction over the prefix trie computes, for every trie node s,
held in arrays indexed by node id and, per action, by the token's rank:

* ``v``: the best yield reachable from s (over all completions, including s
  itself when it is a support path), zero one step off the trie;
* ``a = q - v``, per action, where the backup ``q`` is the immediate reward
  plus the optimal value of the successor: the drawdown of committing to an
  action, nonpositive everywhere.

``save_oracle`` writes the exact tabular model (c = J*, each trie edge's
drawdown), which ``plan``, ``attribute`` and ``verify`` read as ``--model``.
Its values over the nodes are ``v`` up to ``check_decomposition``'s rounding
residual, so ``v`` needs no field. Off the trie it reads ``-fallback_B``, not
the exact drawdown (``-v`` of the node left, 0 past an ``END``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInstanceError
from .instance import PLInstance
from .model import TabularAdvantage, save_model
from .pathspace import PrefixTrie


@dataclass(frozen=True, eq=False)
class OptimalValues:
    """Exact optimal values over a trie, in node order: ``v[i]`` at node i,
    ``a[i, t]`` for the token of rank t there. Off-trie states implicitly
    carry 0."""

    trie: PrefixTrie
    v: np.ndarray
    a: np.ndarray
    j_star: float

    @property
    def edge_drawdowns(self) -> np.ndarray:
        """The drawdown of every trie edge, the edge into node i at i - 1."""
        return self.a[self.trie.parent[1:], self.trie.rank[1:]]


def compute_optimal(instance: PLInstance) -> OptimalValues:
    if not instance.psi:
        raise InvalidInstanceError("optimal values need a nonempty path support")
    trie = instance.trie
    # psi is in canonical order, the members' order
    reward = np.zeros(len(trie))
    reward[trie.members] = instance.psi_yields

    # deepest first, each node's value folds into its parent's
    value = reward.tolist()
    parent = trie.parent.tolist()
    for i in range(len(value) - 1, 0, -1):
        if value[i] > value[parent[i]]:
            value[parent[i]] = value[i]
    v = np.array(value)

    # off the trie, node + (a,) has value 0.0
    child = trie.child
    q = reward[:, None] + np.where(child >= 0, v[child], 0.0)
    return OptimalValues(trie=trie, v=v, a=q - v[:, None], j_star=value[0])


def check_decomposition(ov: OptimalValues) -> np.ndarray:
    """Residual of the additive value identity at every trie node, in node
    order: v(s) minus the sum of j_star and the drawdowns along s, added
    left to right (0 up to float rounding when the identity holds). One
    pass: a node's sum is its parent's plus the drawdown of the edge into
    it."""
    edge = ov.edge_drawdowns.tolist()
    total = [ov.j_star]
    for i, p in enumerate(ov.trie.parent[1:].tolist()):
        total.append(total[p] + edge[i])
    return ov.v - np.array(total)


def save_oracle(ov: OptimalValues, path: str) -> None:
    """Write the exact values as a tabular model file (``save_model`` of
    ``TabularAdvantage.from_oracle(ov)``)."""
    save_model(TabularAdvantage.from_oracle(ov), path)

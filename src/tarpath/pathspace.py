"""Token sequences, the append operation, and prefix tries over finite path sets.

A path is a tuple of action tokens drawn from a finite alphabet with one
designated terminal token. Sequences fall into three classes:

* ``COMPLETE``: nonempty, ends with the terminal, no interior terminal;
* ``PROPER_INCOMPLETE``: contains no terminal at all (includes the empty path);
* ``IMPROPER``: a terminal occurs somewhere before the last position.

Complete and proper-incomplete sequences together are "proper" — exactly the
prefixes of complete sequences. The prefix trie over a finite set of complete
paths is the finite carrier for every value computation downstream: sequences
off the trie are reached only through fringe states one append beyond it, and
those carry optimal value zero. A node's position in canonical order indexes
every per-node and per-edge array downstream (optimal values, tabular scores,
node pieces).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import InvalidInputError

# A path is an immutable tuple of token strings; () is the empty path.
PathSeq = tuple[str, ...]

EMPTY: PathSeq = ()

DEFAULT_TERMINAL = "END"


class SeqClass(enum.Enum):
    COMPLETE = "complete"
    PROPER_INCOMPLETE = "proper_incomplete"
    IMPROPER = "improper"

    @property
    def is_proper(self) -> bool:
        return self is not SeqClass.IMPROPER


@dataclass(frozen=True)
class ActionAlphabet:
    """Ordered action set with a designated terminal token.

    ``tokens`` is the full action set (terminal included); the declaration
    order is total and fixed, and every argmax tie-break downstream uses it.
    """

    tokens: tuple[str, ...]
    terminal: str = DEFAULT_TERMINAL
    _rank: Mapping[str, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )
    _known: frozenset[str] = field(
        init=False, repr=False, compare=False, hash=False, default=None
    )

    def __post_init__(self) -> None:
        tokens = tuple(self.tokens)
        object.__setattr__(self, "tokens", tokens)
        if len(tokens) < 2:
            raise InvalidInputError(
                f"alphabet needs at least 2 tokens, got {len(tokens)}"
            )
        if not all(isinstance(t, str) and t for t in tokens):
            raise InvalidInputError("alphabet tokens must be nonempty strings")
        if len(set(tokens)) != len(tokens):
            raise InvalidInputError(f"alphabet tokens must be distinct: {tokens!r}")
        if self.terminal not in tokens:
            raise InvalidInputError(
                f"terminal {self.terminal!r} missing from tokens {tokens!r}"
            )
        object.__setattr__(self, "_rank", {t: i for i, t in enumerate(tokens)})
        object.__setattr__(self, "_known", frozenset(tokens))

    @property
    def nonterminal(self) -> tuple[str, ...]:
        return tuple(t for t in self.tokens if t != self.terminal)

    def index(self, token: str) -> int:
        self.require_token(token)
        return self._rank[token]

    def require_token(self, token: str) -> None:
        if token not in self._rank:
            raise InvalidInputError(f"unknown token {token!r} for alphabet {self.tokens!r}")

    def require_seq(self, seq: Iterable[str]) -> PathSeq:
        seq = tuple(seq)
        if not self._known.issuperset(seq):
            for token in seq:
                self.require_token(token)
        return seq

    def sort_key(self, seq: PathSeq) -> tuple[int, tuple[int, ...]]:
        """Canonical order: by length, then tokenwise declaration rank."""
        return len(seq), tuple(self._rank[t] for t in seq)

    def classify(self, seq: Iterable[str]) -> SeqClass:
        seq = self.require_seq(seq)
        if self.terminal not in seq:
            return SeqClass.PROPER_INCOMPLETE
        # complete: the first terminal is the last token
        if seq.index(self.terminal) == len(seq) - 1:
            return SeqClass.COMPLETE
        return SeqClass.IMPROPER

    def is_proper(self, seq: Iterable[str]) -> bool:
        return self.classify(seq).is_proper

    def to_json(self) -> dict:
        return {"tokens": list(self.tokens), "terminal": self.terminal}

    @classmethod
    def from_json(cls, obj: dict) -> "ActionAlphabet":
        try:
            tokens = tuple(obj["tokens"])
            terminal = obj["terminal"]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed alphabet object: {obj!r}") from exc
        return cls(tokens=tokens, terminal=terminal)


@dataclass(frozen=True, eq=False)
class PrefixTrie:
    """Prefix closure of a finite set of complete paths, rooted at ().

    ``nodes`` is in canonical order — shallow to deep, declaration order
    within a depth — and a node's position in it is its one index, which
    every layer reads: ``index`` maps a node to it, ``parent[i]`` is the
    position of node i's parent (-1 at the root), and ``child[i, t]`` the
    position of node i's child by the token of rank t (-1 where there is
    none). ``rank[i]`` is the rank of node i's last token (-1 at the
    root), so the member paths are the nodes whose rank is the terminal's.
    The order is breadth first, so the edge into node i is edge i - 1 of
    ``iter_edges``. Tuples appear only at the API boundary: ``nodes`` and
    ``iter_edges``.
    """

    alphabet: ActionAlphabet
    nodes: tuple[PathSeq, ...]
    index: Mapping[PathSeq, int] = field(repr=False)
    parent: np.ndarray = field(repr=False)
    rank: np.ndarray = field(repr=False)
    child: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, alphabet: ActionAlphabet, paths: Iterable[PathSeq]) -> "PrefixTrie":
        # the tokens that extend each prefix
        extensions: dict[PathSeq, set[str]] = {}
        for path in paths:
            path = tuple(path)
            # classify rejects unknown tokens
            if alphabet.classify(path) is not SeqClass.COMPLETE:
                raise InvalidInputError(
                    f"trie paths must be complete sequences, got {path!r}"
                )
            for k in range(len(path)):
                extensions.setdefault(path[:k], set()).add(path[k])

        # breadth first, children in declaration order: shallow to deep and,
        # within a depth, lexicographic in token rank, i.e. canonical order
        nodes = [EMPTY]
        parent, rank = [-1], [-1]
        ranked = tuple(enumerate(alphabet.tokens))
        for i, node in enumerate(nodes):
            tokens = extensions.get(node)
            if tokens:
                for t, token in ranked:
                    if token in tokens:
                        nodes.append(node + (token,))
                        parent.append(i)
                        rank.append(t)
        n = len(nodes)
        parent, rank = np.array(parent, dtype=np.intp), np.array(rank, dtype=np.intp)
        child = np.full((n, len(ranked)), -1, dtype=np.intp)
        child[parent[1:], rank[1:]] = np.arange(1, n)
        parent.flags.writeable = rank.flags.writeable = child.flags.writeable = False
        return cls(
            alphabet=alphabet,
            nodes=tuple(nodes),
            index={node: i for i, node in enumerate(nodes)},
            parent=parent,
            rank=rank,
            child=child,
        )

    def __contains__(self, seq: PathSeq) -> bool:
        return seq in self.index

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def depth(self) -> int:
        # canonical order is by length, and the root is always a node
        return len(self.nodes[-1])

    def fringe_states(self) -> tuple[PathSeq, ...]:
        """States exactly one append beyond the trie, in canonical order.

        Every continuation of such a state stays off the trie, so its optimal
        value is zero; together with the nodes these are all states a finite
        value computation ever touches.
        """
        tokens = self.alphabet.tokens
        out = []
        for node, row in zip(self.nodes, self.child.tolist()):
            out.extend(node + (t,) for t, c in zip(tokens, row) if c < 0)
        return tuple(out)

    def iter_edges(self) -> Iterator[tuple[PathSeq, str, PathSeq]]:
        """(parent, token, node) for every node but the root, in node order."""
        nodes = self.nodes
        for p, node in zip(self.parent[1:].tolist(), nodes[1:]):
            yield nodes[p], node[-1], node


def random_improper(
    alphabet: ActionAlphabet, rng: np.random.Generator, max_len: int = 8
) -> PathSeq:
    """Random sequence with the terminal forced onto a non-final index."""
    length = int(rng.integers(2, max(max_len, 2) + 1))
    tokens = alphabet.tokens
    seq = [tokens[int(i)] for i in rng.integers(0, len(tokens), size=length)]
    seq[int(rng.integers(0, length - 1))] = alphabet.terminal
    return tuple(seq)

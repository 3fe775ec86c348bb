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
those carry optimal value zero.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .errors import InvalidInputError

if TYPE_CHECKING:
    import numpy as np

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

    def append(self, seq: Iterable[str], token: str) -> PathSeq:
        self.require_token(token)
        return self.require_seq(seq) + (token,)

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

    Nodes are the paths themselves (tuples are their own ids). ``nodes`` is
    in canonical order — shallow to deep, declaration order within a depth —
    so iteration, serialization, and backward induction are deterministic.
    """

    alphabet: ActionAlphabet
    nodes: tuple[PathSeq, ...]
    members: frozenset[PathSeq]
    _children: Mapping[PathSeq, tuple[str, ...]] = field(repr=False)

    @classmethod
    def build(cls, alphabet: ActionAlphabet, paths: Iterable[PathSeq]) -> "PrefixTrie":
        members = []
        for path in paths:
            path = tuple(path)
            # classify rejects unknown tokens
            if alphabet.classify(path) is not SeqClass.COMPLETE:
                raise InvalidInputError(
                    f"trie paths must be complete sequences, got {path!r}"
                )
            members.append(path)

        # the tokens that extend each prefix
        extensions: dict[PathSeq, set[str]] = {}
        for path in members:
            for k in range(len(path)):
                extensions.setdefault(path[:k], set()).add(path[k])

        # breadth first, children in declaration order: shallow to deep and,
        # within a depth, lexicographic in token rank, i.e. canonical order
        nodes = [EMPTY]
        children: dict[PathSeq, tuple[str, ...]] = {}
        for node in nodes:
            tokens = extensions.get(node)
            kids = tuple(t for t in alphabet.tokens if t in tokens) if tokens else ()
            children[node] = kids
            nodes.extend(node + (t,) for t in kids)
        return cls(
            alphabet=alphabet,
            nodes=tuple(nodes),
            members=frozenset(members),
            _children=children,
        )

    def __contains__(self, seq: PathSeq) -> bool:
        return seq in self._children

    def __len__(self) -> int:
        return len(self.nodes)

    def children(self, seq: PathSeq) -> tuple[str, ...]:
        return self._children.get(seq, ())

    @property
    def root(self) -> PathSeq:
        return EMPTY

    @property
    def depth(self) -> int:
        # canonical order is by length, and the root is always a node
        return len(self.nodes[-1])

    def nodes_deepest_first(self) -> tuple[PathSeq, ...]:
        return tuple(reversed(self.nodes))

    def fringe_states(self) -> tuple[PathSeq, ...]:
        """States exactly one append beyond the trie, in canonical order.

        Every continuation of such a state stays off the trie, so its optimal
        value is zero; together with the nodes these are all states a finite
        value computation ever touches.
        """
        out = []
        for node in self.nodes:
            on_trie = set(self._children[node])
            for token in self.alphabet.tokens:
                if token not in on_trie:
                    out.append(node + (token,))
        return tuple(out)

    def iter_edges(self) -> Iterator[tuple[PathSeq, str, PathSeq]]:
        for node in self.nodes:
            for token in self._children[node]:
                yield node, token, node + (token,)

    @functools.cached_property
    def edge_index(self) -> Mapping[tuple[PathSeq, str], int]:
        """Each edge (node, token) -> its position in ``iter_edges`` order,
        built once per trie. The edge into node i is edge i - 1."""
        return {(node, token): i for i, (node, token, _) in enumerate(self.iter_edges())}


def random_improper(
    alphabet: ActionAlphabet, rng: "np.random.Generator", max_len: int = 8
) -> PathSeq:
    """Random sequence with the terminal forced onto a non-final index."""
    length = int(rng.integers(2, max(max_len, 2) + 1))
    tokens = alphabet.tokens
    seq = [tokens[int(i)] for i in rng.integers(0, len(tokens), size=length)]
    seq[int(rng.integers(0, length - 1))] = alphabet.terminal
    return tuple(seq)

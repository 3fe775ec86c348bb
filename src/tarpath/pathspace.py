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
node pieces). Tuples are the API boundary: inside, a sequence is a row of
token ranks (``ActionAlphabet.encode``), and one function, ``grow``, adds the
prefix closure of such rows to a tree, for the trie and for every compile.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

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


def json_seq(value) -> PathSeq:
    """A token sequence read from JSON, which must be a list of strings
    (``tuple`` would split a string into tokens); else ``TypeError``."""
    if not (isinstance(value, list) and all(isinstance(t, str) for t in value)):
        raise TypeError(f"a token sequence must be a list of strings, got {value!r}")
    return tuple(value)


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

    @property
    def rank_dtype(self) -> np.dtype:
        """The smallest integer type that holds every token rank and -1."""
        return np.min_scalar_type(-len(self.tokens))

    def encode(self, seqs: Sequence[PathSeq]) -> np.ndarray:
        """The token ranks of each sequence, one row each, padded with -1,
        as ``rank_dtype``; the first unknown token is rejected as
        ``require_seq`` finds it."""
        length = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
        tokens = itertools.chain.from_iterable(seqs)
        try:
            flat = np.fromiter(map(self._rank.__getitem__, tokens), dtype=np.intp, count=int(length.sum()))
        except (KeyError, TypeError):
            for seq in seqs:
                self.require_seq(seq)
            raise
        out = np.full((length.size, int(length.max(initial=0))), -1, dtype=self.rank_dtype)
        out[np.arange(out.shape[1]) < length[:, None]] = flat
        return out

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
            tokens = json_seq(obj["tokens"])
            terminal = obj["terminal"]
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed alphabet object: {obj!r}: {exc}") from exc
        return cls(tokens=tokens, terminal=terminal)


@dataclass(frozen=True, eq=False)
class PrefixTrie:
    """Prefix closure of a finite set of complete paths, rooted at ().

    ``nodes`` is in canonical order — shallow to deep, declaration order
    within a depth — and a node's position in it is its one index, which
    every layer reads: ``index`` maps a node to it, ``parent[i]`` is the
    position of node i's parent (-1 at the root), ``depths[i]`` its length,
    and ``child[i, t]`` the position of node i's child by the token of rank
    t (-1 where there is none). ``rank[i]`` is the rank of node i's last
    token (-1 at the root), so the member paths (``members``) are the nodes
    whose rank is the terminal's. The order is breadth first, so the edge
    into node i is edge i - 1 of ``iter_edges``. ``build`` grows the arrays
    from token ranks (``grow``); tuples appear only at the API boundary:
    ``nodes``, ``index`` and ``iter_edges``.
    """

    alphabet: ActionAlphabet
    nodes: tuple[PathSeq, ...]
    index: Mapping[PathSeq, int] = field(repr=False)
    parent: np.ndarray = field(repr=False)
    rank: np.ndarray = field(repr=False)
    depths: np.ndarray = field(repr=False)
    child: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, alphabet: ActionAlphabet, paths: Iterable[PathSeq]) -> "PrefixTrie":
        paths = list(map(tuple, paths))
        terminal = alphabet.terminal
        # complete: one terminal, in last place; the first path that is not
        # is named as ``classify`` finds it, an unknown token first
        if not all(p.count(terminal) == 1 and p[-1] == terminal for p in paths):
            bad = next(p for p in paths if alphabet.classify(p) is not SeqClass.COMPLETE)
            raise InvalidInputError(f"trie paths must be complete sequences, got {bad!r}")
        _, parent, rank, depths = grow(cls.root(alphabet), alphabet.encode(paths))
        return cls._of(alphabet, parent, rank, depths)

    @classmethod
    def root(cls, alphabet: ActionAlphabet) -> "PrefixTrie":
        """The trie of no paths: the root alone."""
        return cls._of(alphabet, np.array([-1]), np.array([-1]), np.array([0]))

    @classmethod
    def _of(cls, alphabet: ActionAlphabet, parent, rank, depths) -> "PrefixTrie":
        """The trie of these arrays, in canonical order."""
        n = parent.size
        child = np.full((n, len(alphabet.tokens)), -1, dtype=np.intp)
        child[parent[1:], rank[1:]] = np.arange(1, n)
        nodes = [EMPTY]
        tokens = alphabet.tokens
        for p, r in zip(parent[1:].tolist(), rank[1:].tolist()):
            nodes.append(nodes[p] + (tokens[r],))
        for a in (parent, rank, depths, child):
            a.flags.writeable = False
        return cls(alphabet, tuple(nodes), dict(zip(nodes, range(n))), parent, rank, depths, child)

    def __contains__(self, seq: PathSeq) -> bool:
        return seq in self.index

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def depth(self) -> int:
        # canonical order is by length, and the root is always a node
        return int(self.depths[-1])

    @property
    def members(self) -> np.ndarray:
        """The member paths' nodes, in canonical order."""
        return np.flatnonzero(self.rank == self.alphabet.index(self.alphabet.terminal))

    def encode_steps(self, node: np.ndarray, rank: np.ndarray) -> np.ndarray:
        """The rows ``ActionAlphabet.encode`` writes for the states
        node[k] + (the token of rank rank[k],)."""
        paths = np.full((len(self), self.depth + 1), -1, dtype=self.alphabet.rank_dtype)
        # one depth at a time, a node's row is its parent's plus its rank
        bounds = np.searchsorted(self.depths, np.arange(self.depth + 2)).tolist()
        for k in range(1, self.depth + 1):
            level = slice(bounds[k], bounds[k + 1])
            paths[level] = paths[self.parent[level]]
            paths[level, k - 1] = self.rank[level]
        out = paths[node]
        out[np.arange(node.size), self.depths[node]] = rank
        return out

    def iter_edges(self) -> Iterator[tuple[PathSeq, str, PathSeq]]:
        """(parent, token, node) for every node but the root, in node order."""
        nodes = self.nodes
        for p, node in zip(self.parent[1:].tolist(), nodes[1:]):
            yield nodes[p], node[-1], node


def grow(tree: PrefixTrie, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Add the prefix closure of token-rank sequences to a tree, one depth at
    a time.

    ``ranks`` holds one sequence per row, as ``ActionAlphabet.encode`` writes
    it. Returns the node each row ends at, and the parent, rank and depth of
    every node of the grown tree: the tree's own, with their ids, then each
    depth's new nodes in (parent, rank) order. Grown from the root alone,
    that is canonical order.
    """
    n, width = tree.child.shape
    # a step is coded parent * width + rank; a new node has no child yet, and
    # its codes clip to the table's last entry, the deepest node's last: -1
    table = tree.child.ravel()
    length = (ranks >= 0).sum(1)
    # longest first, so the rows that reach depth k + 1 are a prefix
    order = np.argsort(-length, kind="stable")
    rows = ranks[order]
    longer = (length.size - np.cumsum(np.bincount(length, minlength=ranks.shape[1] + 1))).tolist()
    at = np.zeros(longer[0], dtype=np.intp)
    codes, depths, ends = [np.zeros(0, dtype=np.intp)], [tree.depths], []
    for k in range(ranks.shape[1]):
        code = at * width + rows[: longer[k], k]
        at = table.take(code, mode="clip")
        new = (at < 0).nonzero()[0]
        if new.size:
            missing = code[new]
            codes.append(np.unique(missing))
            at[new] = codes[-1].searchsorted(missing) + n
            n += codes[-1].size
            depths.append(np.full(codes[-1].size, k + 1))
        # the rows of length k + 1 end here
        ends.append(at[longer[k + 1] :])
        at = at[: longer[k + 1]]
    end = np.zeros(length.size, dtype=np.intp)
    end[order[: longer[0]]] = np.concatenate(ends[::-1]) if ends else ()
    code = np.concatenate(codes)
    parent = np.concatenate((tree.parent, code // width))
    return end, parent, np.concatenate((tree.rank, code % width)), np.concatenate(depths)


"""Value models built from a free constant plus nonpositive per-step drawdowns.

A model predicts, for a proper sequence, c plus the sum of per-step advantage
terms A(prefix, action); improper sequences get exactly 0. A model holds c
and one drawdown a <= 0 per step slot, so the value difference between a
proper sequence and its extension is always <= 0.

Each family maps a step to its slot once, in ``edge_slots``, which compiles,
plans (``step_drawdowns``) and attributions (``value_steps``) all read:

* tabular — one slot per edge of a fixed prefix trie, in node order (a[i - 1]
  is the drawdown of the edge into node i); queries at pairs that are not
  trie edges return the constant fallback advantage -B (a drawdown large
  enough that planners never prefer unobserved continuations);
* linear — one slot per (previous token, action) pair, optionally crossed
  with a bucketed prefix depth (the model's feature ``kind``); its alphabet
  alone sets the number of pairs.

``drawdown_vector`` gives [c, a_0, a_1, ...], the coordinates that compiled
objectives read and the trainer solves in, and ``with_drawdowns`` builds the
model at such a point; the model file stores exactly these numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import serialize
from .errors import InvalidInputError
from .pathspace import ActionAlphabet, PathSeq, PrefixTrie, json_seq

if TYPE_CHECKING:
    from .oracle import OptimalValues

TABULAR = "tabular"
LINEAR = "linear"

EDGE_PAIR = "edge_pair"
DEPTH_EDGE_PAIR = "depth_edge_pair"

# Prefix lengths 0, 1, 2 get their own feature bucket; everything deeper
# shares the last one.
DEPTH_BUCKETS = 4

# The default tabular drawdown (the tree solve ignores its starting point).
DEFAULT_DRAWDOWN = -0.1

DEFAULT_FALLBACK_B = 10.0

# The softplus raw-score view of a drawdown, a = -log(1 + exp(z)), which
# model files stored before they held drawdowns. Nothing in this package
# reads it: perfbench/reference.py is its only reader, through
# ``TabularAdvantage.raw_z``, ``TabularAdvantage.edges`` and
# ``advantage_transform``.

# Raw score encoding an advantage of exactly 0 (a limit point of the
# transform): -log(1 + exp(-40)) ~ -4.2e-18.
Z_CLAMP = -40.0


def advantage_transform(z: float) -> float:
    """-log(1 + exp(z)), computed without overflow for any float z."""
    return float(-np.logaddexp(0.0, z))


def raw_from_advantage(a):
    """Invert the transform: the z whose advantage is a (clamped near 0).

    Takes a float, returning a float, or an array, inverted elementwise.
    """
    arr = np.asarray(a, dtype=float)
    bad = ~(np.isfinite(arr) & (arr <= 0.0))
    if bad.any():
        raise InvalidInputError(f"advantage must be a finite value <= 0, got {float(arr[bad][0])!r}")
    y = -arr
    # log(expm1(y)) without overflow for large y; -inf at y = 0, then clamped
    with np.errstate(divide="ignore"):
        z = np.maximum(y + np.log(-np.expm1(-y)), Z_CLAMP)
    return float(z) if z.ndim == 0 else z


@dataclass(frozen=True, eq=False)
class AdvantageModel:
    """Shared surface of both families; see module docstring for semantics.

    ``a`` holds one drawdown per step slot; every one must be finite and
    <= 0, and c finite.
    """

    alphabet: ActionAlphabet
    c: float
    a: np.ndarray

    family = ""
    # what one slot of ``a`` is, for error messages
    slot_name = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.c):
            raise InvalidInputError(f"model constant c must be finite, got {self.c!r}")
        a = np.array(self.a, dtype=float)
        if a.shape != (self.n_slots,):
            raise InvalidInputError(
                f"a must hold one drawdown per {self.slot_name} ({self.n_slots}), got shape {a.shape}"
            )
        bad = np.flatnonzero(~(np.isfinite(a) & (a <= 0.0)))
        if bad.size:
            raise InvalidInputError(f"drawdown a[{bad[0]}] must be finite and <= 0, got {float(a[bad[0]])!r}")
        object.__setattr__(self, "a", a)

    # -- family hooks ------------------------------------------------------

    @property
    def n_slots(self) -> int:
        raise NotImplementedError

    def edge_slots(self, node: np.ndarray, last: np.ndarray, depth: np.ndarray, token: np.ndarray):
        """The ``drawdown_vector`` slot of the step by the token of rank
        ``token`` out of each node of a tree that starts as ``tree``, -1
        where it falls back to -B; ``last`` is the rank of the node's last
        token (-1 at the root). The arrays broadcast together."""
        raise NotImplementedError

    @property
    def fallback_advantage(self) -> float:
        raise NotImplementedError

    # -- shared ------------------------------------------------------------

    @cached_property
    def tree(self) -> PrefixTrie:
        """The tree whose node ids ``edge_slots`` reads: a tabular model's
        trie, else the root alone."""
        return PrefixTrie.root(self.alphabet)

    def drawdowns(self, node, last, depth, token) -> np.ndarray:
        """The drawdown of each step that ``edge_slots`` numbers: its slot's,
        or -B, read only where some step falls back."""
        slot = self.edge_slots(node, last, depth, token)
        fallback = self.fallback_advantage if np.any(slot < 0) else 0.0
        return np.concatenate(([fallback, self.c], self.a))[slot + 1]

    def step_drawdowns(self, state: PathSeq) -> np.ndarray:
        """The drawdown of the step by every token out of ``state``, in
        declaration order."""
        rank = [-1] + [self.alphabet.index(t) for t in state]
        token = np.arange(len(self.alphabet.tokens))
        return self.drawdowns(self.tree.walk(rank[1:])[-1], rank[-1], len(state), token)

    def drawdown_vector(self) -> np.ndarray:
        """[c, a_0, a_1, ...]: c, then the drawdown of each step slot."""
        return np.concatenate(([self.c], self.a))

    def with_drawdowns(self, x: np.ndarray) -> "AdvantageModel":
        """This model at the point x = [c, a_0, a_1, ...]."""
        return replace(self, c=float(x[0]), a=x[1:])

    def with_random_params(
        self,
        rng: np.random.Generator,
        c_range: tuple[float, float] = (0.0, 1.0),
        log_scale: float = 0.5,
    ) -> "AdvantageModel":
        """Random start near the default: c uniform, and each drawdown
        -0.1 times exp of a normal draw with standard deviation log_scale."""
        x = self.drawdown_vector()
        x[0] = rng.uniform(*c_range)
        x[1:] = DEFAULT_DRAWDOWN * np.exp(rng.normal(0.0, log_scale, size=x.size - 1))
        return self.with_drawdowns(x)

    def require_alphabet(self, alphabet: ActionAlphabet) -> None:
        """Reject an instance over another alphabet, before reading its states."""
        if self.alphabet != alphabet:
            raise InvalidInputError("model and instance alphabets differ")


@dataclass(frozen=True, eq=False)
class TabularAdvantage(AdvantageModel):
    """One drawdown per trie edge; -B off the trie (B finite, >= 0).

    ``a[i - 1]`` is the drawdown of the edge into trie node i, so the step's
    slot in ``drawdown_vector`` is the node's position, i.
    """

    trie: PrefixTrie = None
    fallback_B: float = DEFAULT_FALLBACK_B

    family = TABULAR
    slot_name = "trie edge"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fallback_B) and self.fallback_B >= 0.0):
            raise InvalidInputError(f"fallback_B must be finite and >= 0, got {self.fallback_B!r}")
        super().__post_init__()

    @classmethod
    def default(
        cls,
        trie: PrefixTrie,
        c: float = 0.0,
        fallback_B: float = DEFAULT_FALLBACK_B,
    ) -> "TabularAdvantage":
        return cls(
            alphabet=trie.alphabet,
            c=c,
            a=np.full(len(trie) - 1, DEFAULT_DRAWDOWN),
            trie=trie,
            fallback_B=fallback_B,
        )

    @classmethod
    def from_oracle(
        cls, ov: "OptimalValues", fallback_B: float = DEFAULT_FALLBACK_B
    ) -> "TabularAdvantage":
        """Exact optimal values: c is the optimal yield and each edge holds
        its exact drawdown."""
        return cls(
            alphabet=ov.trie.alphabet,
            c=ov.j_star,
            a=ov.edge_drawdowns,
            trie=ov.trie,
            fallback_B=fallback_B,
        )

    @property
    def n_slots(self) -> int:
        return len(self.trie) - 1

    @property
    def tree(self) -> PrefixTrie:
        return self.trie

    def edge_slots(self, node, last, depth, token):
        child = self.trie.child
        on = node < len(child)
        return np.where(on, child[np.where(on, node, 0), token], -1)

    @property
    def fallback_advantage(self) -> float:
        return -self.fallback_B

    # read by perfbench/reference.py only (see ``advantage_transform``)

    @property
    def edges(self) -> tuple[tuple[PathSeq, str], ...]:
        return tuple((s, a) for s, a, _ in self.trie.iter_edges())

    def raw_z(self, s: PathSeq, action: str) -> float | None:
        """The raw score of the edge (s, action), or None off the trie."""
        node = self.trie.walk(map(self.alphabet.index, s))[-1]
        slot = int(self.edge_slots(node, -1, len(s), self.alphabet.index(action)))
        return None if slot < 0 else raw_from_advantage(float(self.a[slot - 1]))


@dataclass(frozen=True, eq=False)
class LinearAdvantage(AdvantageModel):
    """One drawdown per feature pair, ``a[k]`` for pair k, whose slot in
    ``drawdown_vector`` is 1 + k; defined for every query.

    Every step (s, action) reads exactly one pair: (previous token, action),
    with the no-previous-token case getting its own row, and the
    ``depth_edge_pair`` kind selecting the row block by bucketed prefix
    length. The numbers of pairs and slots come from the model's own
    alphabet and ``kind``.
    """

    kind: str

    family = LINEAR
    slot_name = "feature pair"

    def __post_init__(self) -> None:
        if self.kind not in (EDGE_PAIR, DEPTH_EDGE_PAIR):
            raise InvalidInputError(f"unknown feature kind {self.kind!r}")
        super().__post_init__()

    @classmethod
    def default(
        cls, alphabet: ActionAlphabet, kind: str = EDGE_PAIR, c: float = 0.0
    ) -> "LinearAdvantage":
        # -log 2, the drawdown of the raw score 0 that linear solves started from
        n = len(alphabet.tokens)
        blocks = DEPTH_BUCKETS if kind == DEPTH_EDGE_PAIR else 1
        return cls(alphabet=alphabet, c=c, a=np.full(blocks * (n + 1) * n, -math.log(2.0)), kind=kind)

    @property
    def n_pairs(self) -> int:
        n = len(self.alphabet.tokens)
        return (n + 1) * n

    @property
    def n_slots(self) -> int:
        return (DEPTH_BUCKETS if self.kind == DEPTH_EDGE_PAIR else 1) * self.n_pairs

    def edge_slots(self, node, last, depth, token):
        # 1 + the pair (previous token or none, token), in its depth block
        n = len(self.alphabet.tokens)
        pair = np.where(last < 0, n, last) * n + token
        if self.kind == DEPTH_EDGE_PAIR:
            pair = pair + np.minimum(depth, DEPTH_BUCKETS - 1) * self.n_pairs
        return 1 + pair

    @property
    def fallback_advantage(self) -> float:
        raise InvalidInputError("linear models never fall back")


def value_steps(model: AdvantageModel, seq: PathSeq) -> tuple[float, tuple[float, ...]] | None:
    """(value, step advantages) of a proper sequence: the value is c plus
    each step's advantage, added left to right, ((c + A_0) + A_1) + ...;
    None if the sequence is improper."""
    if not model.alphabet.is_proper(seq):
        return None
    rank = np.array([-1] + [model.alphabet.index(t) for t in seq], dtype=np.intp)
    node = model.tree.walk(rank[1:])[:-1]
    steps = tuple(model.drawdowns(node, rank[:-1], np.arange(len(seq)), rank[1:]).tolist())
    total = model.c
    for a in steps:
        total += a
    return total, steps


def model_to_json(model: AdvantageModel) -> dict:
    if isinstance(model, TabularAdvantage):
        trie, tokens = model.trie, model.alphabet.tokens
        paths = [[tokens[r] for r in row if r >= 0] for row in trie.rows[trie.members].tolist()]
        raw = {"paths": paths, "a": model.a.tolist()}
        extra = {"fallback_B": model.fallback_B}
    elif isinstance(model, LinearAdvantage):
        raw = {"feature_kind": model.kind, "a": model.a.tolist()}
        extra = {}
    else:
        raise InvalidInputError(f"unknown model type {type(model).__name__}")
    return {
        "c": float(model.c),
        "family": model.family,
        "raw": raw,
        "alphabet": model.alphabet.to_json(),
        **extra,
    }


def model_from_json(obj: dict) -> AdvantageModel:
    """Parse a model object; a malformed one, or one with a non-finite
    number or a positive drawdown, raises ``InvalidInputError``."""
    try:
        alphabet = ActionAlphabet.from_json(obj["alphabet"])
        family = obj["family"]
        c = float(obj["c"])
        raw = obj["raw"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed model object: {exc}") from exc
    if family == TABULAR:
        try:
            # build rejects an incomplete path and an unknown token
            paths = [json_seq(p) for p in raw["paths"]]
            trie = PrefixTrie.build(alphabet, paths)
            a = [float(v) for v in raw["a"]]
            fallback_B = float(obj["fallback_B"])
        except InvalidInputError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"malformed tabular model (paths, a, fallback_B): {exc!r}") from exc
        if trie.members.size != len(paths):  # the trie holds each path once
            first: dict[PathSeq, int] = {}
            i, p = next((i, p) for i, p in enumerate(paths, 1) if first.setdefault(p, i) != i)
            raise InvalidInputError(f"raw.paths row {i} repeats path {p!r} of row {first[p]}")
        return TabularAdvantage(alphabet=alphabet, c=c, a=a, trie=trie, fallback_B=fallback_B)
    if family == LINEAR:
        try:
            kind = raw["feature_kind"]
            a = [float(v) for v in raw["a"]]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"malformed linear raw block (feature_kind and a): {exc!r}") from exc
        return LinearAdvantage(alphabet=alphabet, c=c, a=a, kind=kind)
    raise InvalidInputError(f"unknown model family {family!r}")


def save_model(model: AdvantageModel, path: str) -> None:
    serialize.dump_json(model_to_json(model), path)


def load_model(path: str) -> AdvantageModel:
    """Read a model file; errors name the file."""
    try:
        return model_from_json(serialize.load_json(path))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc

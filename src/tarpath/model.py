"""Value models built from a free constant plus nonpositive per-step drawdowns.

A model predicts, for a proper sequence, c plus the sum of per-step advantage
terms A(prefix, action); improper sequences get exactly 0. Nonpositivity is
structural: every advantage is -log(1 + exp(z)) of an unconstrained raw score
z, so the value difference between a proper sequence and its extension is
always <= 0.

Two families produce the raw score:

* tabular — one z per edge of a fixed prefix trie, in node order (z[i - 1]
  scores the edge into node i); queries at pairs that are not trie edges
  return the constant fallback advantage -B (a drawdown large enough that
  planners never prefer unobserved continuations);
* linear — one weight z per (previous token, action) pair, optionally
  crossed with a bucketed prefix depth.

Parameters pack into one flat vector [c, z_0, z_1, ...], the stored form.
``drawdown_vector`` gives the same slots in the coordinates that compiled
objectives read and the trainer solves in, [c, a_0, a_1, ...] with one
drawdown per step slot (an edge, or a feature pair); the trainer stores its
solution back as raw scores through ``raw_from_advantage``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from . import serialize
from .errors import InvalidInputError
from .pathspace import ActionAlphabet, PathSeq, PrefixTrie

if TYPE_CHECKING:
    from .oracle import OptimalValues

TABULAR = "tabular"
LINEAR = "linear"

EDGE_PAIR = "edge_pair"
DEPTH_EDGE_PAIR = "depth_edge_pair"

# Prefix lengths 0, 1, 2 get their own feature bucket; everything deeper
# shares the last one.
DEPTH_BUCKETS = 4

# Raw score encoding an advantage of exactly 0 (a limit point of the
# transform): -log(1 + exp(-40)) ~ -4.2e-18.
Z_CLAMP = -40.0

DEFAULT_FALLBACK_B = 10.0


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


# Raw score whose advantage is -0.1: the default tabular initialization.
DEFAULT_RAW = raw_from_advantage(-0.1)


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """Indicator features on (previous token, action) pairs.

    Every (state, action) query activates exactly one coordinate, its pair
    (with the no-previous-token case getting its own row, and the
    depth-crossed kind selecting the row block by bucketed prefix length).
    """

    kind: str
    alphabet: ActionAlphabet

    def __post_init__(self) -> None:
        if self.kind not in (EDGE_PAIR, DEPTH_EDGE_PAIR):
            raise InvalidInputError(f"unknown feature kind {self.kind!r}")

    @property
    def n_pairs(self) -> int:
        n = len(self.alphabet.tokens)
        return (n + 1) * n

    @property
    def dim(self) -> int:
        blocks = DEPTH_BUCKETS if self.kind == DEPTH_EDGE_PAIR else 1
        return blocks * self.n_pairs

    def indices(self, s: PathSeq, a: str) -> int:
        n = len(self.alphabet.tokens)
        prev = self.alphabet.index(s[-1]) if s else n
        pair = prev * n + self.alphabet.index(a)
        if self.kind == DEPTH_EDGE_PAIR:
            pair += min(len(s), DEPTH_BUCKETS - 1) * self.n_pairs
        return pair


@dataclass(frozen=True, eq=False)
class AdvantageModel:
    """Shared surface of both families; see module docstring for semantics."""

    alphabet: ActionAlphabet
    c: float

    family = ""

    # -- family hooks ------------------------------------------------------

    def raw_z(self, s: PathSeq, a: str) -> float | None:
        """Raw score at (s, a), or None when the query falls back to -B."""
        raise NotImplementedError

    def edge_slots(self, node: np.ndarray, last: np.ndarray, depth: np.ndarray, token: np.ndarray):
        """The ``drawdown_vector`` slot of the step by the token of rank
        ``token`` out of each node of a tree that starts as the model's trie
        (a linear model's, at the root), -1 where it falls back to -B;
        ``last`` is the rank of the node's last token (-1 at the root)."""
        raise NotImplementedError

    def drawdown_vector(self) -> np.ndarray:
        """[c, a_0, a_1, ...]: c, then the drawdown -log(1 + exp(z)) of each
        step slot's raw score."""
        raise NotImplementedError

    @property
    def fallback_advantage(self) -> float:
        raise NotImplementedError

    def params_vector(self) -> np.ndarray:
        raise NotImplementedError

    def with_params(self, vec: np.ndarray) -> "AdvantageModel":
        raise NotImplementedError

    # -- shared ------------------------------------------------------------

    def with_random_params(
        self,
        rng: np.random.Generator,
        c_range: tuple[float, float] = (0.0, 1.0),
        z_scale: float = 0.5,
    ) -> "AdvantageModel":
        """Random start near the default: c uniform, raw scores jittered."""
        vec = self.params_vector()
        vec[0] = rng.uniform(*c_range)
        vec[1:] = rng.normal(DEFAULT_RAW, z_scale, size=vec.size - 1)
        return self.with_params(vec)

    def require_alphabet(self, alphabet: ActionAlphabet) -> None:
        """Reject an instance over another alphabet, before reading its states."""
        if self.alphabet != alphabet:
            raise InvalidInputError("model and instance alphabets differ")


@dataclass(frozen=True, eq=False)
class TabularAdvantage(AdvantageModel):
    """One raw score per trie edge; -B off the trie (B finite, >= 0).

    ``raw[i - 1]`` scores the edge into trie node i, so the step's slot in
    ``drawdown_vector`` is the node's position, i.
    """

    trie: PrefixTrie = None
    raw: np.ndarray = None
    fallback_B: float = DEFAULT_FALLBACK_B

    family = TABULAR

    def __post_init__(self) -> None:
        n_edges = len(self.trie) - 1
        raw = np.asarray(self.raw, dtype=float)
        if raw.shape != (n_edges,):
            raise InvalidInputError(
                f"raw must have one score per trie edge ({n_edges}), got shape {raw.shape}"
            )
        if not (math.isfinite(self.fallback_B) and self.fallback_B >= 0.0):
            raise InvalidInputError(f"fallback_B must be finite and >= 0, got {self.fallback_B!r}")
        object.__setattr__(self, "raw", raw)

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
            trie=trie,
            raw=np.full(len(trie) - 1, DEFAULT_RAW),
            fallback_B=fallback_B,
        )

    @classmethod
    def from_oracle(
        cls, ov: "OptimalValues", fallback_B: float = DEFAULT_FALLBACK_B
    ) -> "TabularAdvantage":
        """Clamped encoding of exact optimal values: c is the optimal yield
        and each edge's raw score inverts the exact drawdown (zeros clamp)."""
        return cls(
            alphabet=ov.trie.alphabet,
            c=ov.j_star,
            trie=ov.trie,
            raw=raw_from_advantage(ov.edge_drawdowns),
            fallback_B=fallback_B,
        )

    @property
    def edges(self) -> tuple[tuple[PathSeq, str], ...]:
        return tuple((s, a) for s, a, _ in self.trie.iter_edges())

    def raw_z(self, s: PathSeq, a: str) -> float | None:
        slot = self.trie.index.get(s + (a,))
        return None if slot is None else float(self.raw[slot - 1])

    def edge_slots(self, node, last, depth, token):
        child = self.trie.child
        on = node < len(child)
        return np.where(on, child[np.where(on, node, 0), token], -1)

    @property
    def fallback_advantage(self) -> float:
        return -self.fallback_B

    def params_vector(self) -> np.ndarray:
        return np.concatenate(([self.c], self.raw))

    def drawdown_vector(self) -> np.ndarray:
        return np.concatenate(([self.c], -np.logaddexp(0.0, self.raw)))

    def with_params(self, vec: np.ndarray) -> "TabularAdvantage":
        vec = np.asarray(vec, dtype=float)
        return replace(self, c=float(vec[0]), raw=vec[1:].copy())


@dataclass(frozen=True, eq=False)
class LinearAdvantage(AdvantageModel):
    """One raw score per feature pair, ``weights[k]`` for pair k, whose slot
    in ``drawdown_vector`` is 1 + k; defined for every query."""

    feature_map: FeatureMap = None
    weights: np.ndarray = None

    family = LINEAR

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (self.feature_map.dim,):
            raise InvalidInputError(
                f"weights must match feature dim {self.feature_map.dim}, got shape {weights.shape}"
            )
        object.__setattr__(self, "weights", weights)

    @classmethod
    def default(
        cls, alphabet: ActionAlphabet, kind: str = EDGE_PAIR, c: float = 0.0
    ) -> "LinearAdvantage":
        fm = FeatureMap(kind=kind, alphabet=alphabet)
        return cls(alphabet=alphabet, c=c, feature_map=fm, weights=np.zeros(fm.dim))

    def raw_z(self, s: PathSeq, a: str) -> float | None:
        return float(self.weights[self.feature_map.indices(s, a)])

    def edge_slots(self, node, last, depth, token):
        # 1 + the pair of ``FeatureMap.indices``
        fm, n = self.feature_map, len(self.alphabet.tokens)
        pair = np.where(last < 0, n, last) * n + token
        if fm.kind == DEPTH_EDGE_PAIR:
            pair = pair + np.minimum(depth, DEPTH_BUCKETS - 1) * fm.n_pairs
        return 1 + pair

    @property
    def fallback_advantage(self) -> float:
        raise InvalidInputError("linear models never fall back")

    def params_vector(self) -> np.ndarray:
        return np.concatenate(([self.c], self.weights))

    def drawdown_vector(self) -> np.ndarray:
        return np.concatenate(([self.c], -np.logaddexp(0.0, self.weights)))

    def with_params(self, vec: np.ndarray) -> "LinearAdvantage":
        vec = np.asarray(vec, dtype=float)
        return replace(self, c=float(vec[0]), weights=vec[1:].copy())


def predict_advantage(model: AdvantageModel, s: PathSeq, a: str) -> float:
    model.alphabet.require_token(a)
    return _advantage(model, model.alphabet.require_seq(s), a)


def _advantage(model: AdvantageModel, s: PathSeq, a: str) -> float:
    z = model.raw_z(s, a)
    if z is None:
        return model.fallback_advantage
    return advantage_transform(z)


def value_steps(model: AdvantageModel, seq: PathSeq) -> tuple[float, tuple[float, ...]] | None:
    """(value, step advantages) of a proper sequence, whose tokens are
    checked once: the value is c plus each step's advantage, added left to
    right, ((c + A_0) + A_1) + ...; None if the sequence is improper."""
    seq = model.alphabet.require_seq(seq)
    if not model.alphabet.is_proper(seq):
        return None
    steps = tuple(_advantage(model, seq[:k], seq[k]) for k in range(len(seq)))
    total = model.c
    for a in steps:
        total += a
    return total, steps


def predict_value(model: AdvantageModel, seq: PathSeq) -> float:
    """c plus the left-to-right sum of step advantages; 0 if improper."""
    found = value_steps(model, seq)
    return 0.0 if found is None else found[0]


def model_to_json(model: AdvantageModel) -> dict:
    if isinstance(model, TabularAdvantage):
        trie = model.trie
        raw = {
            "paths": [list(node) for node in trie.nodes if node in trie.members],
            "z": model.raw.tolist(),
        }
        fallback = model.fallback_B
    elif isinstance(model, LinearAdvantage):
        raw = {
            "feature_kind": model.feature_map.kind,
            "weights": [float(w) for w in model.weights],
        }
        fallback = DEFAULT_FALLBACK_B
    else:
        raise InvalidInputError(f"unknown model type {type(model).__name__}")
    return {
        "c": float(model.c),
        "family": model.family,
        "raw": raw,
        "alphabet": model.alphabet.to_json(),
        "fallback_B": fallback,
    }


def model_from_json(obj: dict) -> AdvantageModel:
    """Parse a model object; a malformed one, or one with a non-finite
    number, raises ``InvalidInputError``."""
    try:
        alphabet = ActionAlphabet.from_json(obj["alphabet"])
        family = obj["family"]
        c = float(obj["c"])
        raw = obj["raw"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"malformed model object: {exc}") from exc
    if not math.isfinite(c):
        raise InvalidInputError(f"model constant c must be finite, got {c!r}")
    if family == TABULAR:
        try:
            # build rejects an incomplete path and an unknown token
            trie = PrefixTrie.build(alphabet, [tuple(p) for p in raw["paths"]])
            z = np.array([float(v) for v in raw["z"]])
            fallback_B = float(obj.get("fallback_B", DEFAULT_FALLBACK_B))
        except InvalidInputError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"malformed tabular raw block (paths and z): {exc!r}") from exc
        if not np.all(np.isfinite(z)):
            raise InvalidInputError("tabular raw scores must be finite")
        return TabularAdvantage(alphabet=alphabet, c=c, trie=trie, raw=z, fallback_B=fallback_B)
    if family == LINEAR:
        try:
            kind = raw["feature_kind"]
            weights = np.array([float(w) for w in raw["weights"]])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"malformed linear raw block: {exc}") from exc
        if not np.all(np.isfinite(weights)):
            raise InvalidInputError("linear weights must be finite")
        fm = FeatureMap(kind=kind, alphabet=alphabet)
        return LinearAdvantage(alphabet=alphabet, c=c, feature_map=fm, weights=weights)
    raise InvalidInputError(f"unknown model family {family!r}")


def save_model(model: AdvantageModel, path: str) -> None:
    serialize.dump_json(model_to_json(model), path)


def load_model(path: str) -> AdvantageModel:
    """Read a model file; errors name the file."""
    try:
        return model_from_json(serialize.load_json(path))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc

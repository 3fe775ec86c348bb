"""Path-learning problem instances and dataset sampling.

An instance bundles an action alphabet, a noise model for observed yields and
its finite support as three columns in canonical order: the complete paths,
their expected yields in [0, 1] and their path-law weights. Its constructor
checks the support over token ranks and sorts it, whatever the order of the
rows; the file reader only parses rows into columns. Datasets are i.i.d.
(path, noisy-yield) rows, held as columns: the distinct paths in order of
first appearance, one index into them per row and one yield per row, with
the (path, yield) pairs a view. Sampling draws the paths in one
``rng.choice`` and the noise in one call over the rows' means, and the
writer and loader format or parse each distinct path, yield and line once.
The noise models all preserve the conditional mean except the
truncated-Gaussian variant, which is kept for robustness experiments only
and excluded from any identity checking that needs an analytic variance.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from . import serialize
from .errors import (
    GeneratorError,
    InvalidInputError,
    InvalidInstanceError,
    UnsupportedNoiseError,
)
from .pathspace import ActionAlphabet, PathSeq, PrefixTrie, json_seq

WEIGHT_SUM_TOL = 1e-12

# Above this candidate count the generator switches from exact enumeration to
# rejection sampling over depth-weighted random paths.
ENUMERATION_LIMIT = 200_000


def check_weights(weights: tuple[float, ...] | np.ndarray, what: str) -> None:
    """Reject weights outside [0, 1], naming the first such weight, and
    nonempty weights whose sum is not 1 within WEIGHT_SUM_TOL."""
    arr = np.array(weights, dtype=float)
    # NaN fails both comparisons; weights of at most 1 keep fsum from overflowing
    bad = ~((arr >= 0.0) & (arr <= 1.0))
    if bad.any():
        raise InvalidInputError(f"{what} weights must lie in [0, 1], got {float(arr[bad][0])!r}")
    total = math.fsum(arr.tolist())
    if arr.size and abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidInputError(f"{what} weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")


@dataclass(frozen=True, eq=False)
class PathDistribution:
    """Probability weights over distinct token sequences: the covering law
    P_0 over the proper states that the regression loss weights, or empty."""

    paths: tuple[PathSeq, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        paths = tuple(tuple(p) for p in self.paths)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "weights", weights)
        if len(paths) != len(weights):
            raise InvalidInputError("paths and weights must have equal length")
        if len(set(paths)) != len(paths):
            raise InvalidInputError("distribution paths must be distinct")
        check_weights(weights, "distribution")

    @classmethod
    def uniform(cls, paths: Iterable[PathSeq]) -> "PathDistribution":
        paths = tuple(tuple(p) for p in paths)
        n = len(paths)
        return cls(paths=paths, weights=tuple([1.0 / n] * n) if n else ())


@dataclass(frozen=True)
class NoiseModel:
    """Conditional yield-observation law with mean J and support in [0, 1].

    ``noiseless`` returns the mean itself; ``bernoulli`` draws {0,1} with
    success probability equal to the mean (variance J(1-J), closed form);
    ``truncated_gaussian`` adds N(0, stddev^2) and rejects outside [0, 1] —
    this shifts the conditional mean slightly, so it has no analytic variance
    hook and is excluded from exact-expectation checks.
    """

    NOISELESS = "noiseless"
    BERNOULLI = "bernoulli"
    TRUNCATED_GAUSSIAN = "truncated_gaussian"

    kind: str
    stddev: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in (self.NOISELESS, self.BERNOULLI, self.TRUNCATED_GAUSSIAN):
            raise InvalidInputError(f"unknown noise kind {self.kind!r}")
        if self.kind == self.TRUNCATED_GAUSSIAN:
            if self.stddev is None or not math.isfinite(self.stddev) or self.stddev <= 0:
                raise InvalidInputError("truncated_gaussian noise needs stddev > 0")
        elif self.stddev is not None:
            raise InvalidInputError(f"{self.kind} noise takes no stddev")

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        return cls(kind=cls.NOISELESS)

    @classmethod
    def bernoulli(cls) -> "NoiseModel":
        return cls(kind=cls.BERNOULLI)

    @classmethod
    def truncated_gaussian(cls, stddev: float) -> "NoiseModel":
        return cls(kind=cls.TRUNCATED_GAUSSIAN, stddev=stddev)

    def sample(self, rng: np.random.Generator, means: np.ndarray) -> np.ndarray:
        """One observed yield per mean of a 1-D array, as a new float array,
        drawn from ``rng`` as one scalar draw per mean in order would be:
        noiseless draws nothing, ``rng.random(n)`` is n calls of
        ``rng.random()``, and the truncated Gaussian rejects row by row."""
        means = np.asarray(means, dtype=float)
        if self.kind == self.NOISELESS:
            return means.copy()
        if self.kind == self.BERNOULLI:
            return (rng.random(means.size) < means).astype(float)
        ys = []
        for mean in means.tolist():
            while True:
                y = mean + self.stddev * rng.standard_normal()
                if 0.0 <= y <= 1.0:
                    break
            ys.append(y)
        return np.array(ys, dtype=float)

    def conditional_variance(self, mean: float) -> float:
        if self.kind == self.NOISELESS:
            return 0.0
        if self.kind == self.BERNOULLI:
            return mean * (1.0 - mean)
        raise UnsupportedNoiseError(
            "truncated_gaussian noise has no analytic conditional variance; "
            "estimate it numerically instead"
        )

    def to_json(self) -> dict:
        obj = {"kind": self.kind}
        if self.stddev is not None:
            obj["stddev"] = float(self.stddev)
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "NoiseModel":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InvalidInputError(f"malformed noise object: {obj!r}")
        return cls(kind=obj["kind"], stddev=obj.get("stddev"))


@dataclass(frozen=True, eq=False)
class PLInstance:
    """A complete problem statement: an alphabet, the support as three
    columns and a noise model. ``psi`` holds the support paths in canonical
    order, ``psi_yields`` each one's expected yield and ``psi_weights`` its
    path-law weight, as read-only float arrays.

    The constructor is the one check of the support. Given rows in any
    order, it names the first bad row (1-based): a token outside the
    alphabet, an incomplete path, a repeat of an earlier row's path, or a
    yield or weight outside [0, 1] (NaN included). It then rejects weights
    that do not sum to 1, and sorts the rows on their token ranks
    (``ActionAlphabet.encode``)."""

    alphabet: ActionAlphabet
    psi: tuple[PathSeq, ...]
    psi_yields: np.ndarray
    psi_weights: np.ndarray
    noise: NoiseModel

    def __post_init__(self) -> None:
        alphabet, psi = self.alphabet, tuple(map(tuple, self.psi))
        yields = np.array(self.psi_yields, dtype=float)
        weights = np.array(self.psi_weights, dtype=float)
        if not yields.shape == weights.shape == (len(psi),):
            raise InvalidInputError("an instance needs one yield and one weight per path")
        try:
            ranks, unknown = alphabet.encode(psi), None
        except InvalidInputError as exc:  # the first unknown token, as require_seq finds it
            unknown, tokens = exc, set(alphabet.tokens)
            # the rows before its row are checked first
            known = next(i for i, path in enumerate(psi) if not tokens.issuperset(path))
            ranks = alphabet.encode(psi[:known])
        known = len(ranks)
        length = (ranks >= 0).sum(1)
        terminal = ranks == alphabet.index(alphabet.terminal)
        # one terminal, in last place
        complete = (terminal.sum(1) == 1) & ((terminal * np.arange(1, ranks.shape[1] + 1)).sum(1) == length)
        # by length, then tokenwise rank; the sort is stable, so a repeat sorts
        # right after the row before it with the same path
        order = np.lexsort((*ranks.T[::-1], length))
        ranked = ranks[order]
        repeat = np.zeros(known, dtype=bool)
        repeat[order[1:]] = (ranked[1:] == ranked[:-1]).all(1)
        y, w = yields[:known], weights[:known]
        # NaN fails both comparisons
        ok_y, ok_w = (y >= 0.0) & (y <= 1.0), (w >= 0.0) & (w <= 1.0)
        bad = np.flatnonzero(repeat | ~complete | ~ok_y | ~ok_w)
        if bad.size:
            i = int(bad[0])
            row = f"path row {i + 1}"
            if repeat[i]:
                raise InvalidInputError(f"{row} repeats path {psi[i]!r} of row {psi.index(psi[i]) + 1}")
            if not complete[i]:
                raise InvalidInputError(f"{row}: path {psi[i]!r} is not complete")
            if not ok_y[i]:
                raise InvalidInputError(f"{row}: yield must be finite and in [0, 1], got {y[i].item()!r}")
            raise InvalidInputError(f"{row}: weight must be in [0, 1], got {w[i].item()!r}")
        if unknown is not None:
            raise InvalidInputError(f"path row {known + 1}: {unknown}") from unknown
        check_weights(weights, "path law")
        yields, weights = yields[order], weights[order]
        yields.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "psi", tuple(map(psi.__getitem__, order.tolist())))
        object.__setattr__(self, "psi_yields", yields)
        object.__setattr__(self, "psi_weights", weights)

    @cached_property
    def row_of(self) -> dict[PathSeq, int]:
        """Each support path's row in the columns."""
        return dict(zip(self.psi, range(len(self.psi))))

    @cached_property
    def trie(self) -> PrefixTrie:
        return PrefixTrie.build(self.alphabet, self.psi)

    def yield_of(self, seq: Iterable[str]) -> float:
        i = self.row_of.get(self.alphabet.require_seq(seq))
        return 0.0 if i is None else float(self.psi_yields[i])

    def noise_variance(self) -> float:
        """Average conditional yield variance under the path distribution."""
        return math.fsum(
            w * self.noise.conditional_variance(y)
            for y, w in zip(self.psi_yields.tolist(), self.psi_weights.tolist())
        )

    def to_json(self) -> dict:
        paths = [
            {"path": list(path), "yield": y, "weight": w}
            for path, y, w in zip(self.psi, self.psi_yields.tolist(), self.psi_weights.tolist())
        ]
        return {
            "alphabet": self.alphabet.to_json(),
            "paths": paths,
            "noise": self.noise.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PLInstance":
        """Parse an instance object into the constructor's columns, naming a
        row that does not parse or the first whose weight presence differs
        from row 1's (1-based); rows without weights get the uniform law."""
        try:
            alphabet = ActionAlphabet.from_json(obj["alphabet"])
            rows = obj["paths"]
            noise = NoiseModel.from_json(obj["noise"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise InvalidInputError(f"malformed instance object: {exc}") from exc
        if not isinstance(rows, list):
            raise InvalidInputError("\"paths\" must be a list of path rows")
        paths, yields, weights = [], [], []
        for i, row in enumerate(rows, 1):
            try:
                paths.append(json_seq(row["path"]))
                yields.append(float(row["yield"]))
                weights.append(float(row["weight"]) if "weight" in row else None)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise InvalidInputError(f"malformed path row {i}: {row!r}") from exc
        weighted = [w is not None for w in weights]
        if not all(weighted):
            if any(weighted):
                raise InvalidInputError(
                    f"path row {weighted.index(not weighted[0]) + 1} {'has no' if weighted[0] else 'has a'} "
                    "weight, unlike row 1: either all path rows carry a weight or none do"
                )
            weights = [1.0 / len(weights)] * len(weights)
        return cls(
            alphabet=alphabet,
            psi=tuple(paths),
            psi_yields=yields,
            psi_weights=weights,
            noise=noise,
        )


@dataclass(frozen=True, eq=False)
class PathYieldDataset:
    """Logged (complete path, observed yield) rows, held as columns:
    ``paths``, the distinct logged paths in order of first appearance;
    ``rows``, each row's index into ``paths``; ``ys``, each row's yield.
    Both arrays are read-only, and ``pairs`` is a view of the rows."""

    paths: tuple[PathSeq, ...]
    rows: np.ndarray
    ys: np.ndarray

    def __post_init__(self) -> None:
        paths = tuple(tuple(p) for p in self.paths)
        rows = np.asarray(self.rows, dtype=np.intp).view()
        ys = np.asarray(self.ys, dtype=float).view()
        rows.flags.writeable = ys.flags.writeable = False
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "ys", ys)
        if rows.ndim != 1 or rows.shape != ys.shape:
            raise InvalidInputError("a dataset needs one path index and one yield per row")
        if len(set(paths)) != len(paths):
            raise InvalidInputError("dataset paths must be distinct")
        # a row's index is at most one above the largest before it, so the
        # paths are numbered at first appearance, and the largest is the last
        top = np.maximum.accumulate(np.concatenate(([-1], rows)))
        if np.any(rows < 0) or np.any(rows > top[:-1] + 1) or top[-1] != len(paths) - 1:
            raise InvalidInputError(
                "dataset rows must index its paths in order of first appearance, each at least once"
            )

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Iterable[str], float]]) -> "PathYieldDataset":
        """The dataset of these (path, yield) rows."""
        index: dict[PathSeq, int] = {}
        rows, ys = [], []
        for path, y in pairs:
            rows.append(index.setdefault(tuple(path), len(index)))
            ys.append(float(y))
        return cls(paths=tuple(index), rows=np.array(rows, dtype=np.intp), ys=np.array(ys, dtype=float))

    @property
    def pairs(self) -> tuple[tuple[PathSeq, float], ...]:
        """The rows as (path, yield) pairs, built on each read."""
        return tuple(zip(map(self.paths.__getitem__, self.rows.tolist()), self.ys.tolist()))

    def __len__(self) -> int:
        return self.ys.size


def seeded_rng(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, rejecting a negative seed as bad input."""
    try:
        return np.random.default_rng(seed)
    except ValueError as exc:  # numpy's "expected non-negative integer"
        raise InvalidInputError(f"seed must be nonnegative, got {seed}") from exc


def sample_dataset(instance: PLInstance, n: int, seed: int) -> PathYieldDataset:
    """Draw n i.i.d. pairs: paths from the path law, yields from the noise."""
    if n < 0:
        raise InvalidInputError(f"sample count must be nonnegative, got {n}")
    if not instance.psi:
        raise InvalidInstanceError("cannot sample from an instance with empty support")
    rng = seeded_rng(seed)
    idx = rng.choice(len(instance.psi), size=n, p=instance.psi_weights)
    ys = instance.noise.sample(rng, instance.psi_yields[idx])
    # number the drawn paths in order of first appearance
    drawn, first, inverse = np.unique(idx, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    paths = tuple(instance.psi[i] for i in drawn[order].tolist())
    return PathYieldDataset(paths=paths, rows=rank[inverse], ys=ys)


@dataclass(frozen=True)
class InstanceSpec:
    """Knobs for the synthetic-instance generator.

    ``n_actions`` counts the terminal; paths have at most ``max_depth``
    nonterminal steps, so sequence length is at most ``max_depth + 1``.
    """

    n_actions: int
    max_depth: int
    n_paths: int
    yield_range: tuple[float, float] = (0.0, 1.0)
    noise: NoiseModel = field(default_factory=NoiseModel.bernoulli)

    def __post_init__(self) -> None:
        if self.n_actions < 2:
            raise InvalidInputError("need at least 2 actions (terminal included)")
        if self.max_depth < 1:
            raise InvalidInputError("max_depth must be at least 1")
        if self.n_paths < 1:
            raise InvalidInputError("n_paths must be at least 1")
        lo, hi = self.yield_range
        if not 0.0 <= lo <= hi <= 1.0:
            raise InvalidInputError(f"yield_range must satisfy 0 <= lo <= hi <= 1, got {self.yield_range!r}")


def _token_names(count: int) -> tuple[str, ...]:
    letters = string.ascii_lowercase
    return tuple(letters[i] if i < len(letters) else f"t{i}" for i in range(count))


def random_instance(spec: InstanceSpec, seed: int) -> PLInstance:
    """Deterministically generate an instance: distinct complete paths with
    uniform path law and yields drawn uniformly from the configured range."""
    m = spec.n_actions - 1
    alphabet = ActionAlphabet(tokens=_token_names(m) + ("END",))
    inner = alphabet.nonterminal

    per_depth = [m**d for d in range(spec.max_depth + 1)]
    total = sum(per_depth)
    if spec.n_paths > total:
        raise GeneratorError(
            f"cannot generate {spec.n_paths} distinct paths: only {total} exist "
            f"for {m} tokens at depth {spec.max_depth}"
        )

    rng = seeded_rng(seed)
    if total <= ENUMERATION_LIMIT:
        candidates = [
            body + (alphabet.terminal,)
            for d in range(spec.max_depth + 1)
            for body in itertools.product(inner, repeat=d)
        ]
        chosen_idx = rng.choice(total, size=spec.n_paths, replace=False)
        # the candidates are in canonical order, so sorted indices are too
        chosen = [candidates[i] for i in np.sort(chosen_idx).tolist()]
    else:
        depth_p = np.array(per_depth, dtype=float) / total
        seen: set[PathSeq] = set()
        chosen = []
        while len(chosen) < spec.n_paths:
            d = int(rng.choice(len(per_depth), p=depth_p))
            body = tuple(inner[int(i)] for i in rng.integers(0, m, size=d))
            path = body + (alphabet.terminal,)
            if path not in seen:
                seen.add(path)
                chosen.append(path)
        chosen.sort(key=alphabet.sort_key)

    lo, hi = spec.yield_range
    return PLInstance(
        alphabet=alphabet,
        psi=tuple(chosen),
        psi_yields=rng.uniform(lo, hi, size=spec.n_paths),
        psi_weights=np.full(spec.n_paths, 1.0 / spec.n_paths),
        noise=spec.noise,
    )


def save_instance(instance: PLInstance, path: str) -> None:
    serialize.dump_json(instance.to_json(), path)


def load_instance(path: str) -> PLInstance:
    """Read an instance file; errors name the file."""
    try:
        return PLInstance.from_json(serialize.load_json(path))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def save_dataset(dataset: PathYieldDataset, path: str) -> None:
    """One row ``{"path": [...], "y": ...}`` per pair, as ``serialize.dump_jsonl``
    writes it; each distinct path and yield is formatted once."""
    heads = [f'{{"path":{serialize.dumps(p)},"y":' for p in dataset.paths]
    y_texts, y_index = serialize.float_texts(dataset.ys)
    serialize.atomic_write_text(path, serialize.join_rows(
        (heads, dataset.rows), ([y + "}\n" for y in y_texts], y_index)
    ))


def load_dataset(path: str, instance: PLInstance | None = None) -> PathYieldDataset:
    """Read a JSONL dataset of at least one row. Every token of a path must
    be a string, every yield finite and in [0, 1], and, when ``instance`` is
    given, every path one of its support paths; errors name the file and the
    row (1-based, counting nonblank lines)."""
    support = None if instance is None else instance.row_of
    # a log repeats its rows (binary yields on a finite support), so the
    # rows are read as numbers of distinct lines, and each distinct line is
    # parsed and checked once, naming its first row
    numbers: dict[str, int] = {}
    row_lines = np.array(
        [numbers.setdefault(line, len(numbers)) for line in serialize.jsonl_lines(path)], dtype=np.intp
    )
    if not row_lines.size:
        raise InvalidInputError(f"{path}: dataset has no rows")
    # a line's first row is where the largest number so far goes up
    first_rows = np.flatnonzero(np.diff(np.maximum.accumulate(row_lines), prepend=-1))
    index: dict[PathSeq, int] = {}
    line_rows, line_ys = [], []
    for line, i in zip(numbers, first_rows.tolist()):
        p, y = _dataset_row(path, i + 1, serialize.loads(line), support)
        line_rows.append(index.setdefault(p, len(index)))
        line_ys.append(y)
    return PathYieldDataset(
        paths=tuple(index),
        rows=np.array(line_rows, dtype=np.intp)[row_lines],
        ys=np.array(line_ys, dtype=float)[row_lines],
    )


def _dataset_row(path: str, i: int, row, support) -> tuple[PathSeq, float]:
    try:
        p, y = json_seq(row["path"]), float(row["y"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{path}: malformed dataset row {i}: {row!r}") from exc
    if not 0.0 <= y <= 1.0:
        raise InvalidInputError(f"{path}: row {i}: yield must be finite and in [0, 1], got {y!r}")
    if support is not None and p not in support:
        raise InvalidInputError(f"{path}: row {i}: path {p!r} is not a support path of the instance")
    return p, y

"""Path-learning problem instances and dataset sampling.

An instance bundles an action alphabet, a finite table of complete paths with
their expected yields in [0, 1], a sampling distribution over those paths, and
a noise model for observed yields. Datasets are i.i.d. (path, noisy-yield)
pairs; the noise models all preserve the conditional mean except the
truncated-Gaussian variant, which is kept for robustness experiments only and
excluded from any identity checking that needs an analytic variance.
"""

from __future__ import annotations

import itertools
import math
import string
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

import numpy as np

from . import serialize
from .errors import (
    GeneratorError,
    InvalidInputError,
    InvalidInstanceError,
    UnsupportedNoiseError,
)
from .pathspace import ActionAlphabet, PathSeq, PrefixTrie, SeqClass

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
    """Probability weights over a finite set of distinct token sequences:
    the path law over complete paths, or the covering law P_0 over the
    proper states that the regression loss weights. It may be empty."""

    paths: tuple[PathSeq, ...]
    weights: tuple[float, ...]
    _weight: Mapping[PathSeq, float] = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        paths = tuple(tuple(p) for p in self.paths)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "weights", weights)
        if len(paths) != len(weights):
            raise InvalidInputError("paths and weights must have equal length")
        object.__setattr__(self, "_weight", dict(zip(paths, weights)))
        if len(self._weight) != len(paths):
            raise InvalidInputError("distribution paths must be distinct")
        check_weights(weights, "distribution")

    @classmethod
    def uniform(cls, paths: Iterable[PathSeq]) -> "PathDistribution":
        paths = tuple(tuple(p) for p in paths)
        n = len(paths)
        return cls(paths=paths, weights=tuple([1.0 / n] * n) if n else ())

    def weight_of(self, path: PathSeq) -> float:
        return self._weight.get(tuple(path), 0.0)

    def items(self):
        return zip(self.paths, self.weights)


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

    def sample(self, rng: np.random.Generator, mean: float) -> float:
        if self.kind == self.NOISELESS:
            return float(mean)
        if self.kind == self.BERNOULLI:
            return 1.0 if rng.random() < mean else 0.0
        while True:
            y = mean + self.stddev * rng.standard_normal()
            if 0.0 <= y <= 1.0:
                return float(y)

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
    """A complete problem statement: alphabet, yields, path law, noise.

    ``yields`` maps each support path, complete, to its expected yield, a
    finite number in [0, 1].
    """

    alphabet: ActionAlphabet
    yields: dict[PathSeq, float]
    path_dist: PathDistribution
    noise: NoiseModel
    # set by ``from_json`` alone, which checks every path and yield as it
    # reads its row, to name the row of a bad one
    _rows_checked: InitVar[bool] = False

    def __post_init__(self, _rows_checked: bool) -> None:
        if not _rows_checked:
            for path, value in self.yields.items():
                if self.alphabet.classify(path) is not SeqClass.COMPLETE:
                    raise InvalidInstanceError(f"yield path {path!r} is not complete")
                if not 0.0 <= value <= 1.0:  # NaN fails too
                    raise InvalidInputError(f"yield for {path!r} must be finite and in [0, 1], got {value!r}")
        for path in self.path_dist.paths:
            if path not in self.yields:
                raise InvalidInstanceError(
                    f"distribution path {path!r} has no yield entry"
                )

    @cached_property
    def psi(self) -> tuple[PathSeq, ...]:
        """Support paths in canonical order."""
        return tuple(sorted(self.yields, key=self.alphabet.sort_key))

    @cached_property
    def psi_weights(self) -> np.ndarray:
        """The path law's weight of each support path, in ``psi`` order
        (read-only)."""
        weights = np.array([self.path_dist.weight_of(p) for p in self.psi], dtype=float)
        weights.flags.writeable = False
        return weights

    @cached_property
    def psi_yields(self) -> np.ndarray:
        """The yield of each support path, in ``psi`` order (read-only)."""
        yields = np.array([self.yields[p] for p in self.psi], dtype=float)
        yields.flags.writeable = False
        return yields

    @cached_property
    def trie(self) -> PrefixTrie:
        return PrefixTrie.build(self.alphabet, self.psi)

    def yield_of(self, seq: Iterable[str]) -> float:
        seq = self.alphabet.require_seq(seq)
        return self.yields.get(seq, 0.0)

    def noise_variance(self) -> float:
        """Average conditional yield variance under the path distribution."""
        return math.fsum(
            w * self.noise.conditional_variance(self.yields[p])
            for p, w in self.path_dist.items()
        )

    def to_json(self) -> dict:
        paths = [
            {"path": list(path), "yield": self.yields[path], "weight": weight}
            for path, weight in zip(self.psi, self.psi_weights.tolist())
        ]
        return {
            "alphabet": self.alphabet.to_json(),
            "paths": paths,
            "noise": self.noise.to_json(),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PLInstance":
        """Parse an instance object; an error about a path row names the row
        (1-based)."""
        try:
            alphabet = ActionAlphabet.from_json(obj["alphabet"])
            rows = obj["paths"]
            noise = NoiseModel.from_json(obj["noise"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise InvalidInputError(f"malformed instance object: {exc}") from exc
        if not isinstance(rows, list):
            raise InvalidInputError("\"paths\" must be a list of path rows")
        entries: dict[PathSeq, float] = {}
        weights: dict[PathSeq, float] = {}
        first_row: dict[PathSeq, int] = {}
        for i, row in enumerate(rows, 1):
            try:
                path = tuple(row["path"])
                first = first_row.setdefault(path, i)
                y = entries[path] = float(row["yield"])
                w = float(row["weight"]) if "weight" in row else None
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise InvalidInputError(f"malformed path row {i}: {row!r}") from exc
            if first != i:
                raise InvalidInputError(f"path row {i} repeats path {path!r} of row {first}")
            try:
                complete = alphabet.classify(path) is SeqClass.COMPLETE
            except InvalidInputError as exc:  # an unknown token
                raise InvalidInputError(f"path row {i}: {exc}") from exc
            if not complete:
                raise InvalidInputError(f"path row {i}: path {path!r} is not complete")
            # NaN fails both comparisons
            if not 0.0 <= y <= 1.0:
                raise InvalidInputError(f"path row {i}: yield must be finite and in [0, 1], got {y!r}")
            if w is not None:
                if not 0.0 <= w <= 1.0:
                    raise InvalidInputError(f"path row {i}: weight must be in [0, 1], got {w!r}")
                weights[path] = w
        if weights and len(weights) != len(entries):
            raise InvalidInputError("either all path rows carry a weight or none do")
        if weights:
            dist = PathDistribution(
                paths=tuple(weights), weights=tuple(weights.values())
            )
        else:
            dist = PathDistribution.uniform(entries)
        return cls(
            alphabet=alphabet,
            yields=entries,
            path_dist=dist,
            noise=noise,
            _rows_checked=True,
        )


@dataclass(frozen=True, eq=False)
class PathYieldDataset:
    """Logged (complete path, observed yield) pairs."""

    pairs: tuple[tuple[PathSeq, float], ...]

    def __post_init__(self) -> None:
        pairs = tuple((tuple(p), float(y)) for p, y in self.pairs)
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)


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
    if not instance.yields:
        raise InvalidInstanceError("cannot sample from an instance with empty support")
    rng = seeded_rng(seed)
    paths = instance.psi
    idx = rng.choice(len(paths), size=n, p=instance.psi_weights)
    pairs = []
    for i in idx:
        path = paths[int(i)]
        pairs.append((path, instance.noise.sample(rng, instance.yields[path])))
    return PathYieldDataset(pairs=tuple(pairs))


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
        chosen = [candidates[int(i)] for i in chosen_idx]
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
    values = rng.uniform(lo, hi, size=spec.n_paths)
    entries = {p: float(v) for p, v in zip(chosen, values)}
    return PLInstance(
        alphabet=alphabet,
        yields=entries,
        path_dist=PathDistribution.uniform(chosen),
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
    writes it."""
    texts, num = serialize.TokenTexts(), serialize.format_float
    serialize.atomic_write_text(
        path, "".join([f'{{"path":{texts[p]},"y":{num(y)}}}\n' for p, y in dataset.pairs])
    )


def load_dataset(path: str, instance: PLInstance | None = None) -> PathYieldDataset:
    """Read a JSONL dataset of at least one row. Every yield must be finite
    and in [0, 1], and, when ``instance`` is given, every path one of its
    support paths; errors name the file and the row (1-based, counting
    nonblank lines)."""
    support = None if instance is None else instance.yields
    # a log repeats its rows (binary yields on a finite support), so each
    # distinct line is parsed and checked once, at its first row
    seen: dict[str, tuple[PathSeq, float]] = {}
    pairs = []
    for i, line in enumerate(serialize.iter_jsonl_lines(path), 1):
        pair = seen.get(line)
        if pair is None:
            pair = seen[line] = _dataset_row(path, i, serialize.loads(line), support)
        pairs.append(pair)
    if not pairs:
        raise InvalidInputError(f"{path}: dataset has no rows")
    return PathYieldDataset(pairs=tuple(pairs))


def _dataset_row(path: str, i: int, row, support) -> tuple[PathSeq, float]:
    try:
        p, y = tuple(row["path"]), float(row["y"])
        on_support = support is None or p in support
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError(f"{path}: malformed dataset row {i}: {row!r}") from exc
    if not 0.0 <= y <= 1.0:
        raise InvalidInputError(f"{path}: row {i}: yield must be finite and in [0, 1], got {y!r}")
    if not on_support:
        raise InvalidInputError(f"{path}: row {i}: path {p!r} is not a support path of the instance")
    return p, y

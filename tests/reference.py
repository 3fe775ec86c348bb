"""Test-only references: the two hand-made instances, the dict-and-sort
instance loader to check ``PLInstance``'s columns against, a trie's nodes
looked up in a dict (to check ``PrefixTrie.walk`` against), the fringe of a
trie, random improper sequences, the oracle file read back as the exact
model, the oracle's values looked up by sequence and its decomposition checked one
sequence at a time (to check ``check_decomposition`` against), a trie-free
enumeration of optimal values to check the oracle against, the per-row noise
sampler to check the vectorized draw against, and the scalar step lookup and
per-token rollout to check ``edge_slots``, ``value_steps`` and
``greedy_path`` against."""

import functools
from typing import Callable, Iterable

import numpy as np

from tarpath.errors import InvalidInputError
from tarpath.instance import NoiseModel, PathDistribution, PLInstance
from tarpath.losses import _ValueBatch
from tarpath.model import (
    DEPTH_BUCKETS,
    DEPTH_EDGE_PAIR,
    AdvantageModel,
    LinearAdvantage,
    TabularAdvantage,
    load_model,
)
from tarpath.oracle import OptimalValues, check_decomposition, save_oracle
from tarpath.pathspace import EMPTY, ActionAlphabet, PathSeq, PrefixTrie, SeqClass, json_seq


def _fixture(yields: dict, noise: NoiseModel | None) -> PLInstance:
    return PLInstance(
        alphabet=ActionAlphabet(tokens=("a", "b", "END")),
        psi=tuple(yields),
        psi_yields=list(yields.values()),
        psi_weights=[1.0 / len(yields)] * len(yields),
        noise=noise or NoiseModel.noiseless(),
    )


def instance_columns(obj: dict) -> tuple[tuple[PathSeq, ...], np.ndarray, np.ndarray, dict]:
    """The dict-and-``sort_key`` loader that ``PLInstance``'s columns
    replaced: each row parsed and checked in turn into a yield dict and a
    weight dict, then the support sorted by ``sort_key`` and each path's
    yield and weight looked up. Returns ``psi``, ``psi_yields``,
    ``psi_weights`` and the ``to_json`` object, or raises the error of the
    first bad row."""
    alphabet = ActionAlphabet.from_json(obj["alphabet"])
    entries: dict[PathSeq, float] = {}
    weights: dict[PathSeq, float] = {}
    first_row: dict[PathSeq, int] = {}
    for i, row in enumerate(obj["paths"], 1):
        try:
            path = json_seq(row["path"])
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
        if not 0.0 <= y <= 1.0:
            raise InvalidInputError(f"path row {i}: yield must be finite and in [0, 1], got {y!r}")
        if w is not None:
            if not 0.0 <= w <= 1.0:
                raise InvalidInputError(f"path row {i}: weight must be in [0, 1], got {w!r}")
            weights[path] = w
    if weights and len(weights) != len(entries):
        raise InvalidInputError("either all path rows carry a weight or none do")
    dist = (
        PathDistribution(paths=tuple(weights), weights=tuple(weights.values()))
        if weights
        else PathDistribution.uniform(entries)
    )
    weight_of = dict(zip(dist.paths, dist.weights))
    psi = tuple(sorted(entries, key=alphabet.sort_key))
    psi_yields = np.array([entries[p] for p in psi], dtype=float)
    psi_weights = np.array([weight_of[p] for p in psi], dtype=float)
    paths = [
        {"path": list(p), "yield": entries[p], "weight": weight_of[p]} for p in psi
    ]
    return psi, psi_yields, psi_weights, {
        "alphabet": alphabet.to_json(), "paths": paths, "noise": NoiseModel.from_json(obj["noise"]).to_json()
    }


@functools.lru_cache(maxsize=256)
def node_index(trie: PrefixTrie) -> dict[PathSeq, int]:
    """Each node's id, looked up by its tokens in a dict built over
    ``trie.nodes``: the lookup that ``PrefixTrie.walk`` replaced."""
    return dict(zip(trie.nodes, range(len(trie))))


def random_improper(alphabet: ActionAlphabet, rng: np.random.Generator, max_len: int = 8) -> PathSeq:
    """Random sequence with the terminal forced onto a non-final index."""
    length = int(rng.integers(2, max(max_len, 2) + 1))
    tokens = alphabet.tokens
    seq = [tokens[int(i)] for i in rng.integers(0, len(tokens), size=length)]
    seq[int(rng.integers(0, length - 1))] = alphabet.terminal
    return tuple(seq)


def random_improper_rows(alphabet: ActionAlphabet, rng: np.random.Generator, n: int, max_len: int = 8) -> np.ndarray:
    """n random improper sequences drawn as ``random_improper`` draws one, as
    one array: a length in [2, max_len], uniform tokens and the terminal
    forced onto a non-final index. Rows are token ranks padded with -1, as
    ``ActionAlphabet.encode`` writes them."""
    width = max(max_len, 2)
    length = rng.integers(2, width + 1, size=n)
    rows = rng.integers(0, len(alphabet.tokens), size=(n, width))
    rows[np.arange(n), rng.integers(0, length - 1)] = alphabet.index(alphabet.terminal)
    rows[np.arange(width) >= length[:, None]] = -1
    return rows.astype(alphabet.rank_dtype)


def value_at(ov: OptimalValues, seq: Iterable[str]) -> float:
    """``ov.v`` looked up by sequence: the value at its node, 0 off the trie."""
    i = node_index(ov.trie).get(tuple(seq))
    return 0.0 if i is None else float(ov.v[i])


def advantage_at(ov: OptimalValues, seq: Iterable[str], token: str) -> float:
    """``ov.a`` looked up by sequence and token: 0 off the trie."""
    i = node_index(ov.trie).get(tuple(seq))
    return 0.0 if i is None else float(ov.a[i, ov.trie.alphabet.index(token)])


def decomposition_at(ov: OptimalValues, seq: Iterable[str]) -> float:
    """Residual of the additive value identity at one sequence, one lookup
    per step: v(seq) minus the sum of j_star and the drawdowns along seq,
    added left to right; for an improper sequence, whose value should be 0,
    v(seq). ``check_decomposition`` is this at every trie node, bit for
    bit."""
    seq = tuple(seq)
    # classify rejects unknown tokens
    if ov.trie.alphabet.classify(seq) is SeqClass.IMPROPER:
        return value_at(ov, seq) - 0.0
    total = ov.j_star
    for k in range(len(seq)):
        total += advantage_at(ov, seq[:k], seq[k])
    return value_at(ov, seq) - total


def load_oracle_file(ov: OptimalValues, path: str) -> tuple[TabularAdvantage, np.ndarray]:
    """Write ``ov`` with ``save_oracle``, read it back with ``load_model`` and
    check that it is the exact model: c = J*, the trie's nodes and each
    edge's drawdown bit for bit. Returns the model and its values over the
    nodes, which are the sums that ``check_decomposition`` compares with
    ``v``, bit for bit (so they equal ``v`` wherever its residual is 0)."""
    save_oracle(ov, path)
    model = load_model(path)
    assert isinstance(model, TabularAdvantage)
    assert model.c == ov.j_star
    assert model.a.tobytes() == ov.edge_drawdowns.tobytes()
    assert model.trie.nodes == ov.trie.nodes
    values = _ValueBatch(model, model.trie.nodes).values(model.drawdown_vector())
    assert (ov.v - values).tobytes() == check_decomposition(ov).tobytes()
    return model, values


def per_row_noise(noise: NoiseModel, rng: np.random.Generator, means: Iterable[float]) -> list[float]:
    """One scalar draw per mean, in order: the sampler that
    ``NoiseModel.sample``'s one call over the means replaced."""
    ys = []
    for mean in means:
        if noise.kind == NoiseModel.NOISELESS:
            ys.append(float(mean))
        elif noise.kind == NoiseModel.BERNOULLI:
            ys.append(1.0 if rng.random() < mean else 0.0)
        else:
            while True:
                y = mean + noise.stddev * rng.standard_normal()
                if 0.0 <= y <= 1.0:
                    ys.append(float(y))
                    break
    return ys


def fixture_e1(noise: NoiseModel | None = None) -> PLInstance:
    """Two single-step paths: yields 0.8 (a) and 0.3 (b), uniform path law."""
    return _fixture({("a", "END"): 0.8, ("b", "END"): 0.3}, noise)


def fixture_e2(noise: NoiseModel | None = None) -> PLInstance:
    """Three paths of mixed depth: 0.9 (a,a), 0.2 (a,b), 0.5 (b)."""
    return _fixture({("a", "a", "END"): 0.9, ("a", "b", "END"): 0.2, ("b", "END"): 0.5}, noise)


def fringe_states(trie: PrefixTrie) -> tuple[PathSeq, ...]:
    """States exactly one append beyond the trie, in canonical order.

    Every continuation of such a state stays off the trie, so its optimal
    value is zero; together with the nodes these are all states a finite
    value computation ever touches.
    """
    tokens = trie.alphabet.tokens
    out = []
    for node, row in zip(trie.nodes, trie.child.tolist()):
        out.extend(node + (t,) for t, c in zip(tokens, row) if c < 0)
    return tuple(out)


def enumeration_value(instance: PLInstance, seq: Iterable[str]) -> float:
    """Trie-free cross-check: scan every support path for a prefix match."""
    seq = instance.alphabet.require_seq(seq)
    best = 0.0
    for path, value in zip(instance.psi, instance.psi_yields.tolist()):
        if path[: len(seq)] == seq and value > best:
            best = value
    return best


def enumeration_advantage(instance: PLInstance, seq: Iterable[str], token: str) -> float:
    """Drawdown via direct enumeration: value after committing minus before."""
    instance.alphabet.require_token(token)
    seq = instance.alphabet.require_seq(seq)
    return enumeration_value(instance, seq + (token,)) - enumeration_value(instance, seq)


def pair(model: LinearAdvantage, s: PathSeq, action: str) -> int:
    """The feature pair of the step (s, action): (previous token, or none
    at the start, action), in the row block of len(s)'s depth bucket."""
    n = len(model.alphabet.tokens)
    prev = model.alphabet.index(s[-1]) if s else n
    k = prev * n + model.alphabet.index(action)
    if model.kind == DEPTH_EDGE_PAIR:
        k += min(len(s), DEPTH_BUCKETS - 1) * model.n_pairs
    return k


def step_drawdown(model: AdvantageModel, s: Iterable[str], action: str) -> float:
    """The drawdown of the step (s, action), looked up one step at a time:
    a tabular step reads the trie edge into s + (action,) through
    ``node_index``, or -B off the trie; a linear step reads its ``pair``."""
    model.alphabet.require_token(action)
    s = model.alphabet.require_seq(s)
    if isinstance(model, TabularAdvantage):
        node = node_index(model.trie).get(s + (action,))
        return model.fallback_advantage if node is None else float(model.a[node - 1])
    return float(model.a[pair(model, s, action)])


def predict_value(model: AdvantageModel, seq: Iterable[str]) -> float:
    """c plus ``step_drawdown`` at each step, left to right; 0 if improper."""
    seq = model.alphabet.require_seq(seq)
    if not model.alphabet.is_proper(seq):
        return 0.0
    total = model.c
    for k in range(len(seq)):
        total += step_drawdown(model, seq[:k], seq[k])
    return total


def per_token_rollout(
    alphabet: ActionAlphabet, score: Callable[[PathSeq, str], float], max_len: int
) -> tuple[PathSeq, bool, tuple[float, ...]]:
    """The argmax rollout with one ``score(state, token)`` call per token,
    as ``greedy_rollout`` ran before it took a row of scores per state."""
    state: PathSeq = EMPTY
    margins = []
    for _ in range(max_len):
        best_a = None
        best = second = -float("inf")
        for a in alphabet.tokens:
            value = score(state, a)
            if value > best:
                best_a, best, second = a, value, best
            elif value > second:
                second = value
        margins.append(best - second)
        state = state + (best_a,)
        if best_a == alphabet.terminal:
            return state, False, tuple(margins)
    return state, True, tuple(margins)


def oracle_scores(ov: OptimalValues) -> Callable[[PathSeq], np.ndarray]:
    """The oracle's exact drawdowns out of a state, as ``greedy_rollout``
    reads them: the state's row of ``ov.a``, or 0 for every token off the
    trie, where ``advantage_at`` reads 0."""
    zeros, index = np.zeros(len(ov.trie.alphabet.tokens)), node_index(ov.trie)
    return lambda s: ov.a[index[s]] if s in index else zeros

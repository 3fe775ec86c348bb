"""Training losses, the surrogate identity checker, and the trainer.

Two objectives over the same model family:

* regression loss — expected predicted value under a covering state
  distribution, plus (lam/2) times the expected squared misfit against
  observed yields, plus a kappa-weighted hinge keeping values nonnegative.
  The misfit reads each distinct path's weight, mean yield and yield
  variance, taken from a dataset's rows or from the instance's path law and
  noise, so both data modes compile the same form (``_data_arrays``);
* penalized feasibility loss — the same expected-value and nonnegativity
  terms, plus lam times the expected squared positive part of the one-step
  backup residual under an equal mixture of (i) the path law crossed with
  uniform actions and (ii) a free distribution over off-support
  state-action pairs.

For models whose per-step advantages are structurally nonpositive the two
differ by exactly lam/2 times the average conditional yield variance plus
lam/2 times the squared positive overshoot of the prediction above the
optimal value on support paths; ``surrogate_gap`` evaluates every term of
that identity independently and reports the discrepancy.

Objectives are compiled once per call into flat index arrays so each
evaluation is a handful of vectorized operations. A compile grows one prefix
tree of the states it evaluates from their token ranks (``_ValueBatch``,
``pathspace.grow``), starting from a tabular model's own trie; the default
penalty mix joins it as arrays, without a tuple per state. Every value is its
parent node's plus one step, summed one depth at a time in ``predict_value``'s
order, and every loss term is a fixed-order numpy sum, never a BLAS dot
(``_dot``), so no result depends on the BLAS thread count. A compiled
objective takes drawdown coordinates x = [c, a_0, a_1, ...]
(``AdvantageModel.drawdown_vector``), one drawdown per trie edge or, for the
linear family, per feature pair. Every value is linear in x, so both losses
are convex and piecewise quadratic under the bound a <= 0.

For a tabular model the trainer solves that problem exactly: in the node
values V(n) = c + (drawdowns on the path to n) the bound is the tree order
V(child) <= V(parent) and every term reads one node, so training is
isotonic regression on the trie, solved by pooling adjacent violators bottom
up (``_NodePieces``). The linear family's drawdowns are tied across edges,
which is not a tree order; it is solved by projected Newton iterations on
the dense Hessian of its few parameters (``_solve_drawdown``), which one
``np.bincount`` forms from the slots each state reads (``_hessian_terms``).
Either way the result is certified by the projected gradient of the compiled
objective.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, TrainingDivergedError
from .instance import PathDistribution, PathYieldDataset, PLInstance, check_weights
from .model import AdvantageModel, TabularAdvantage
from .oracle import OptimalValues, compute_optimal
from .pathspace import ActionAlphabet, PathSeq, PrefixTrie, grow

ARMIJO_C = 1e-4
MAX_HALVINGS = 60
# A step that leaves the loss within this many ulps counts as level.
LEVEL_ULPS = 4
# The linear solve's bound set: drawdowns within min(BOUND_EPS, pg) of 0.
BOUND_EPS = 1e-3
# The linear solve's damping mu, as a multiple of pg.
DAMPING = 0.01

# Why training stopped.
CONVERGED = "converged"
ITERATION_CAP = "iteration_cap"
NO_DECREASE = "no_decrease"
# The tree solve finished, but its certificate exceeds the tolerance.
UNCERTIFIED = "uncertified"

# Which solver ran: exact pooling on the trie (tabular models), or projected
# Newton iterations (the linear family).
TREE_POOLING = "tree_pooling"
PROJECTED_NEWTON = "projected_newton"

Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


class PenaltyMix:
    """The backup-residual penalty distribution: an equal mixture of the
    support-path marginal and a free off-support component.

    The off-support component weights (state, action) pairs whose states
    avoid support paths entirely. It is held once per distinct state, as
    arrays: ``states`` lists the distinct states and ``actions`` the
    distinct action tokens, each in order of first appearance, and pair k
    is (states[pair_state[k]], actions[pair_action[k]]) with weight
    ``weights[k]``. ``tilde_pairs`` and ``tilde_weights`` list the pairs
    as given. The pairs must be distinct; that their states lie off the
    support and their tokens in the alphabet is checked where the mix meets
    an instance (``vlp_objective``), which reads the states as token ranks
    (``ranks``).

    The mix says only where the penalty falls; its weight lam is an
    argument of ``vlp_objective``.

    The default places uniform weight on (fringe state, action) pairs whose
    state is *not* complete, every action at each of those states: at a
    complete state the residual is the negated value (the successor is
    improper and predicts 0), which is not structurally nonpositive, so
    including such states would make the penalty — and the surrogate
    identity — depend on the free component. Incomplete and improper fringe
    states keep it exactly zero for every model in the family. The default
    holds its states over the instance's ``trie``, state k as trie node
    ``state_node[k]`` plus the token of rank ``state_rank[k]``; its
    ``states`` are derived from them, for error messages.
    """

    # the default's trie; None for a mix given as pairs
    trie: PrefixTrie | None = None

    def __init__(
        self,
        tilde_pairs: Iterable[tuple[PathSeq, str]],
        tilde_weights: tuple[float, ...],
        mu_weight: float = 0.5,
    ):
        states: dict[PathSeq, int] = {}
        actions: dict[str, int] = {}
        pair_state, pair_action = [], []
        for s, a in tilde_pairs:
            pair_state.append(states.setdefault(tuple(s), len(states)))
            pair_action.append(actions.setdefault(a, len(actions)))
        self.states, self.actions = tuple(states), tuple(actions)
        self.pair_state = np.asarray(pair_state, dtype=np.intp)
        self.pair_action = np.asarray(pair_action, dtype=np.intp)
        self.weights = np.asarray(tilde_weights, dtype=float)
        self.mu_weight = mu_weight
        if self.weights.shape != self.pair_state.shape:
            raise InvalidInputError("tilde pairs and weights must have equal length")
        codes = np.sort(self.pair_state * len(actions) + self.pair_action)
        if np.any(codes[1:] == codes[:-1]):
            raise InvalidInputError("tilde pairs must be distinct")
        check_weights(self.weights, "tilde")
        if not 0.0 <= mu_weight <= 1.0:
            raise InvalidInputError("mu_weight must lie in [0, 1]")

    @functools.cached_property
    def states(self) -> tuple[PathSeq, ...]:
        # the default's; a mix given as pairs sets its own
        nodes, tokens = self.trie.nodes, self.trie.alphabet.tokens
        return tuple(nodes[i] + (tokens[t],) for i, t in zip(self.state_node.tolist(), self.state_rank.tolist()))

    def ranks(self, alphabet: ActionAlphabet) -> np.ndarray:
        """The states, as ``alphabet.encode`` writes them."""
        if self.trie is not None and self.trie.alphabet == alphabet:
            return self.trie.encode_steps(self.state_node, self.state_rank)
        return alphabet.encode(self.states)

    @functools.cached_property
    def tilde_pairs(self) -> tuple[tuple[PathSeq, str], ...]:
        states, actions = self.states, self.actions
        pairs = zip(self.pair_state.tolist(), self.pair_action.tolist())
        return tuple((states[i], actions[j]) for i, j in pairs)

    @property
    def tilde_weights(self) -> tuple[float, ...]:
        return tuple(self.weights.tolist())

    @classmethod
    def default(cls, instance: PLInstance) -> "PenaltyMix":
        alphabet, trie = instance.alphabet, instance.trie
        tokens, terminal = alphabet.tokens, alphabet.index(alphabet.terminal)
        # the fringe states, one append beyond the trie, that are not
        # complete, row-major over the child table: node + (t,) is complete
        # exactly when the node's last token is not the terminal and t is
        node, t = np.nonzero(trie.child < 0)
        keep = (trie.rank[node] == terminal) | (t != terminal)
        mix = cls.__new__(cls)
        mix.trie, mix.state_node, mix.state_rank = trie, node[keep], t[keep]
        # every action at each state, uniformly: distinct pairs by construction
        n_states, n_actions = mix.state_node.size, len(tokens)
        mix.actions, mix.mu_weight = tokens, 0.5
        mix.pair_state = np.repeat(np.arange(n_states), n_actions)
        mix.pair_action = np.tile(np.arange(n_actions), n_states)
        mix.weights = np.full(n_states * n_actions, 1.0 / (n_states * n_actions))
        return mix


@dataclass(frozen=True)
class TrainConfig:
    """How ``train`` solves; what it solves (lam, kappa) is the compiled
    objective's."""

    max_iters: int = 50_000
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise InvalidInputError(f"max_iters must be nonnegative, got {self.max_iters!r}")
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise InvalidInputError(f"tol must be finite and positive, got {self.tol!r}")


@dataclass(frozen=True, eq=False)
class TrainResult:
    """What ``train`` returns; its docstring defines each outcome field."""

    model: AdvantageModel
    trace: np.ndarray
    final_loss: float
    grad_norm: float
    iterations: int
    converged: bool
    stop_reason: str
    solver: str
    # tree pooling only: the blocks of tied node values, and the drawdowns
    # that are exactly 0
    blocks: int | None = None
    zero_drawdowns: int | None = None

    def report_json(self) -> dict:
        report = {
            "final_loss": self.final_loss,
            "iterations": self.iterations,
            "grad_norm": self.grad_norm,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "solver": self.solver,
        }
        if self.blocks is not None:
            report["blocks"] = self.blocks
            report["zero_drawdowns"] = self.zero_drawdowns
        return report


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """sum_j a_j b_j in a fixed order: numpy's pairwise sum of the products.
    ``a @ b`` hands a long dot to BLAS, whose threads split the sum, so its
    rounding would depend on the thread count."""
    return np.add.reduce(a * b)


class _ValueBatch:
    """The prefix tree of the states a compile evaluates, as arrays, and
    their values, bit for bit as ``predict_value`` sums them: V[n] =
    V[parent[n]] + step[n], one depth at a time, from V[root] = c.

    The states, then those of a ``mix``, are grown (``pathspace.grow``) from
    a tabular model's trie, so an on-trie node's id is its slot, or from a
    linear model's root, node 0. ``node[j]`` is state j's node and
    ``slot[n]`` the slot of the step into node n
    (``AdvantageModel.edge_slots``: c's 0 at the root, -1 for a fallback).
    """

    def __init__(self, model: AdvantageModel, states: Sequence[PathSeq], mix: PenaltyMix | None = None):
        alphabet = model.alphabet
        tree = model.trie if isinstance(model, TabularAdvantage) else PrefixTrie.root(alphabet)
        blocks = [alphabet.encode(states)] + ([] if mix is None else [mix.ranks(alphabet)])
        ranks = np.full((sum(map(len, blocks)), max(b.shape[1] for b in blocks)), -1, dtype=alphabet.rank_dtype)
        for lo, b in zip((0, len(states)), blocks):
            ranks[lo : lo + len(b), : b.shape[1]] = b
        self.node, self.parent, self.rank, self.depth = grow(tree, ranks)
        order = np.argsort(self.depth, kind="stable")
        levels = np.split(order, np.flatnonzero(np.diff(self.depth[order])) + 1)[1:]
        self.levels = [(lv, self.parent[lv]) for lv in levels]
        # whether a node's path holds the terminal; a node is improper when
        # its parent's does
        self.ended = self._pass(self.rank == alphabet.index(alphabet.terminal))
        self.improper = self.ended[self.parent] & (self.parent >= 0)
        up = self.parent[1:]
        self.slot = np.concatenate(([0], model.edge_slots(up, self.rank[up], self.depth[up], self.rank[1:])))
        # each step's index into [fallback, c, a_0, a_1, ...]
        self.step = self.slot + 1
        self.fallback = np.array([model.fallback_advantage if np.any(self.slot < 0) else 0.0])

    def _pass(self, steps: np.ndarray) -> np.ndarray:
        """Each node's sum of the steps on its path, root first (for flags: any)."""
        for lv, up in self.levels:
            steps[lv] += steps[up]
        return steps

    def values(self, x: np.ndarray) -> np.ndarray:
        """The value of every node at x = [c, a_0, a_1, ...]."""
        return self._pass(np.concatenate((self.fallback, x))[self.step])

    def pairs(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(j, slot) for every step of state j, at node nodes[j], that reads
        a slot: state by state, from c's at the root to the leaf."""
        depth = self.depth[nodes]
        path = np.full((nodes.size, int(depth.max(initial=0)) + 1), -1, dtype=np.intp)
        path[np.arange(nodes.size), depth] = nodes
        for k in range(path.shape[1] - 1, 0, -1):
            on = depth >= k
            path[on, k - 1] = self.parent[path[on, k]]
        slot = np.where(path >= 0, self.slot[path], -1)
        state, k = np.nonzero(slot >= 0)
        return state, slot[state, k]

    def trie_prefixes(self, nodes: np.ndarray, pairs) -> tuple[np.ndarray, np.ndarray]:
        """For a tabular model: each state's deepest trie node, the last slot
        it reads, and the sum of its fallback steps, which all follow it."""
        last = np.cumsum(np.bincount(pairs[0], minlength=nodes.size)) - 1
        return pairs[1][last], self._pass(np.where(self.slot < 0, self.fallback[0], 0.0))[nodes]


def _value_grad(pairs: tuple[np.ndarray, np.ndarray], state_coef: np.ndarray, size: int) -> np.ndarray:
    """sum_j state_coef[j] * d(value_j)/dx over the (state, slot) pairs of ``_ValueBatch.pairs``."""
    state, slot = pairs
    return np.bincount(slot, weights=state_coef[state], minlength=size)


def _hessian_terms(pairs: tuple[np.ndarray, np.ndarray], size: int) -> Callable[[np.ndarray], np.ndarray]:
    """The dense Hessian J^T diag(curvature) J, as a function of the
    curvature, of a loss whose second derivative in state j's value is
    curvature[j]; J[j, k] counts the steps of state j that read slot k.
    Entry (l, k) sums curvature[j] * J[j, k] over the (j, l) of
    ``_ValueBatch.pairs`` in order: one ``np.bincount`` over a table of one
    term per pair and distinct slot of its state."""
    state, slot = pairs
    code, count = np.unique(state * size + slot, return_counts=True)  # by state, then slot
    # pair p meets its state's distinct slots, codes lo[p] .. lo[p] + n[p] - 1
    lo = np.searchsorted(code, state * size)
    n = np.searchsorted(code, state * size + size) - lo
    k = np.arange(n.sum()) + np.repeat(lo + n - np.cumsum(n), n)
    p = np.repeat(np.arange(state.size), n)
    term_state, term_index, term_count = state[p], slot[p] * size + code[k] % size, count[k] * 1.0

    def hessian(curvature: np.ndarray) -> np.ndarray:
        weights = curvature[term_state] * term_count
        return np.bincount(term_index, weights=weights, minlength=size * size).reshape(size, size)

    return hessian


def _checked_batch(model: AdvantageModel, p0: PathDistribution, paths, mix=None) -> _ValueBatch:
    """The batch of the p0 states, the data paths and the mix's states, in
    that order; a p0 or data state that is improper is rejected."""
    if not p0.paths:
        raise InvalidInputError("p0 must weight at least one state")
    states = p0.paths + paths
    batch = _ValueBatch(model, states, mix)
    bad = np.flatnonzero(batch.improper[batch.node[: len(states)]])
    if bad.size:
        j = int(bad[0])
        raise InvalidInputError(f"{'p0' if j < len(p0.paths) else 'data'} state {states[j]!r} is improper")
    return batch


class Evaluation(tuple):
    """(loss, gradient) at x = [c, a_0, a_1, ...] from an objective compiled
    by ``tar_objective`` or ``vlp_objective``; the loss is convex and
    piecewise quadratic on the feasible set a <= 0.

    ``hessian()`` gives the dense Hessian at x (``_hessian_terms``), exact
    while no hinge changes side; an evaluation built without ``hessian`` has
    a zero one. ``node_pieces()`` gives, for an objective compiled for a
    tabular model, the same loss as a sum of one-node terms
    (``_NodePieces``), and None otherwise.
    """

    def __new__(cls, loss: float, grad: np.ndarray, hessian=None, pieces=None):
        self = super().__new__(cls, (loss, grad))
        self._hessian = hessian
        self._pieces = pieces
        return self

    def hessian(self) -> np.ndarray:
        return np.zeros((self[1].size,) * 2) if self._hessian is None else self._hessian()

    def node_pieces(self) -> "_NodePieces | None":
        return None if self._pieces is None else self._pieces()


def _compiled(evaluate, model: AdvantageModel, batch: _ValueBatch, nodes, pairs, add_pieces) -> Objective:
    """The objective returning ``Evaluation``s. ``evaluate`` gives the loss,
    the gradient and each state's curvature. The Hessian's term table is
    built once, on the first ``hessian()`` call. For a tabular model,
    ``add_pieces`` fills in its ``_NodePieces``, once, on first use, from
    the ``_ValueBatch.trie_prefixes`` of the states it reads."""
    hessian = functools.cache(functools.partial(_hessian_terms, pairs))
    pieces = None
    if isinstance(model, TabularAdvantage):

        @functools.cache
        def pieces() -> _NodePieces:
            built = _NodePieces(model.trie)
            add_pieces(built, *batch.trie_prefixes(nodes, pairs))
            return built

    def objective(x: np.ndarray) -> Evaluation:
        loss, grad, curvature = evaluate(x)
        return Evaluation(loss, grad, lambda: hessian(x.size)(curvature), pieces)

    return objective


def _block_min(k: float, b: float, g: float, hinges: list[tuple[float, float]]) -> float:
    """The largest minimizer of a block's loss, whose derivative in the
    block value V is k + 2bV + 2g min(V, 0) - 2 sum_j w_j max(t_j - V, 0).

    The derivative is continuous, piecewise linear and nondecreasing, so the
    minimizer is the largest V at which it is <= 0: +inf when it never turns
    positive, -inf (unbounded below) when it is positive everywhere. With
    only the hinge at 0 that is a closed form; other hinges are scanned from
    the highest breakpoint down, one linear piece at a time.
    """
    if not hinges:
        if k <= 0.0:
            return -k / (2.0 * b) if b > 0.0 else math.inf
        s = b + g
        return -k / (2.0 * s) if s > 0.0 else -math.inf
    s = b
    for t, w in sorted(hinges + [(0.0, g)] if g > 0.0 else hinges, reverse=True):
        # above t the derivative is k + 2sV
        if s > 0.0:
            root = -k / (2.0 * s)
            if root >= t:
                return root
        elif k <= 0.0:
            return math.inf
        k -= 2.0 * w * t
        s += w
    if s > 0.0:
        return -k / (2.0 * s)
    return math.inf if k <= 0.0 else -math.inf


class _NodePieces:
    """A tabular objective as a function of the node values V.

    With V(n) = c + the drawdowns on the path to trie node n, the bound
    a <= 0 is V(child) <= V(parent), and every term of ``tar_objective`` and
    ``vlp_objective`` reads one node: a state off the trie reads its deepest
    trie prefix plus the sum of its fallback steps. Up to a constant the loss
    is a sum over nodes of

        linear V + quad (V - y)^2 + hinge0 max(-V, 0)^2 + sum_j w_j max(t_j - V, 0)^2

    (``quad_y`` holds the sum of quad * y), so training is isotonic
    regression on the trie: a separable convex function minimized under the
    tree order, which ``solve`` pools exactly. The incomplete-state terms of
    the feasibility loss are 0 wherever a <= 0 and have no piece.
    """

    def __init__(self, trie: PrefixTrie):
        self.parent = trie.parent
        n = self.parent.size
        # canonical order is breadth first: the children of node i are the
        # nodes first_child[i] .. first_child[i + 1] - 1
        self.first_child = np.concatenate(([1], 1 + np.cumsum(np.bincount(self.parent[1:], minlength=n))))
        self.linear = np.zeros(n)
        self.quad = np.zeros(n)
        self.quad_y = np.zeros(n)
        self.hinge0 = np.zeros(n)
        self.hinges: list[list[tuple[float, float]]] = [[] for _ in range(n)]

    def _sum(self, nodes: np.ndarray, w: np.ndarray) -> np.ndarray:
        return np.bincount(nodes, weights=w, minlength=self.parent.size)

    # Each term reads state j through its deepest trie prefix nodes[j], whose
    # value plus offset[j] is the state's (``_ValueBatch.trie_prefixes``).

    def add_linear(self, nodes: np.ndarray, w: np.ndarray) -> None:
        """sum_j w_j value_j (up to a constant)."""
        self.linear += self._sum(nodes, w)

    def add_misfit(self, nodes: np.ndarray, offset: np.ndarray, w: np.ndarray, y: np.ndarray) -> None:
        """sum_j w_j (value_j - y_j)^2 (up to a constant)."""
        self.quad += self._sum(nodes, w)
        self.quad_y += self._sum(nodes, w * (y - offset))

    def add_hinge(self, nodes: np.ndarray, offset: np.ndarray, w: np.ndarray, t) -> None:
        """sum_j w_j max(t_j - value_j, 0)^2."""
        t = np.broadcast_to(t, w.shape) - offset
        at0 = t == 0.0
        self.hinge0 += self._sum(nodes[at0], w[at0])
        for node, tj, wj in zip(nodes[~at0].tolist(), t[~at0].tolist(), w[~at0].tolist()):
            if wj > 0.0:
                self.hinges[node].append((tj, wj))

    def solve(self) -> tuple[np.ndarray, int]:
        """The exact minimizer in drawdown coordinates [c, a_0, a_1, ...]
        (one drawdown per non-root node), and the number of pooling merges.

        Pool adjacent violators bottom up (Pardalos and Xue 1999): a node
        starts as a block of its own, at its minimizer. Its child blocks wait
        in a max-heap of their values; while the largest is above the node's
        block, that child block is merged in, its own waiting children join
        the heap, and the block's minimizer is recomputed from its summed
        pieces. A merged node sits at its parent's value, a drawdown of
        exactly 0. Raises ``TrainingDivergedError`` when a block is unbounded
        below: nothing bounds its linear term.
        """
        n = self.parent.size
        k = (self.linear - 2.0 * self.quad_y).tolist()
        b = self.quad.tolist()
        g = self.hinge0.tolist()
        hinges = list(self.hinges)  # a merged block's list is a new one
        first = self.first_child.tolist()
        value = [0.0] * n
        merged = [False] * n
        waiting: list[list | None] = [None] * n
        merges = 0
        for node in range(n - 1, -1, -1):
            kk, bb, gg, hh = k[node], b[node], g[node], hinges[node]
            v = _block_min(kk, bb, gg, hh)
            heap = [(-value[c], c) for c in range(first[node], first[node + 1])]
            heapq.heapify(heap)
            while heap and -heap[0][0] > v:
                c = heapq.heappop(heap)[1]
                merged[c] = True
                merges += 1
                kk += k[c]
                bb += b[c]
                gg += g[c]
                if hinges[c]:
                    hh = hh + hinges[c]
                more = waiting[c]
                if more:
                    if len(more) > len(heap):
                        heap, more = more, heap
                    for item in more:
                        heapq.heappush(heap, item)
                v = _block_min(kk, bb, gg, hh)
            k[node], b[node], g[node], hinges[node] = kk, bb, gg, hh
            value[node] = v
            waiting[node] = heap
        # top down, one depth at a time: a merged node takes its parent's value
        values = np.array(value)
        merged = np.array(merged)
        lo, hi = 1, first[1]
        while lo < n:
            span = slice(lo, hi)
            values[span] = np.where(merged[span], values[self.parent[span]], values[span])
            lo, hi = hi, first[hi]
        if not np.all(np.isfinite(values)):
            raise TrainingDivergedError(0, "nothing bounds a block's linear term", unbounded=True)
        x = values.copy()
        x[1:] -= values[self.parent[1:]]
        return x, merges


def _data_arrays(
    model: AdvantageModel, data: PathYieldDataset | PLInstance
) -> tuple[tuple[PathSeq, ...], np.ndarray, np.ndarray, float]:
    """(distinct paths, weights, mean yields, variance floor) of the misfit
    term sum_p w_p (value_p - mean_p)^2 + floor, the same four for a dataset
    as for an instance.

    An instance gives its support paths, path law, yields and average noise
    variance. A dataset gives its paths in order of first appearance, each
    weighted by its row count / n, with the mean of its yields; the floor is
    the mean squared deviation of a row's yield from its path's mean,
    computed after the means. The misfit then equals the mean over rows of
    (value - yield)^2 in exact arithmetic. A yield that is not finite and in
    [0, 1] is rejected, naming its row (1-based).
    """
    if isinstance(data, PLInstance):
        model.require_alphabet(data.alphabet)
        return data.psi, data.psi_weights, data.psi_yields, data.noise_variance()
    if isinstance(data, PathYieldDataset):
        if not len(data):
            raise InvalidInputError("empirical mode needs a nonempty dataset")
        index: dict[PathSeq, int] = {}
        rows = np.array([index.setdefault(p, len(index)) for p, _ in data.pairs], dtype=np.intp)
        ys = np.array([y for _, y in data.pairs])
        bad = np.flatnonzero(~((ys >= 0.0) & (ys <= 1.0)))  # NaN fails both
        if bad.size:
            i = int(bad[0])
            raise InvalidInputError(
                f"dataset row {i + 1}: yield must be finite and in [0, 1], got {ys[i].item()!r}"
            )
        counts = np.bincount(rows)
        means = np.bincount(rows, weights=ys) / counts
        dev = ys - means[rows]
        return tuple(index), counts / ys.size, means, float(np.add.reduce(dev * dev)) / ys.size
    raise InvalidInputError(
        f"data must be a dataset or an instance, got {type(data).__name__}"
    )


def _check_penalties(lam: float, kappa: float) -> None:
    """Reject a misfit weight lam that is not finite and > 0, and a hinge
    weight kappa that is not finite and >= 0."""
    if not (math.isfinite(lam) and lam > 0.0):
        raise InvalidInputError(f"lambda must be finite and positive, got {lam!r}")
    if not (math.isfinite(kappa) and kappa >= 0.0):
        raise InvalidInputError(f"kappa must be finite and nonnegative, got {kappa!r}")


def tar_objective(
    model: AdvantageModel,
    p0: PathDistribution,
    data: PathYieldDataset | PLInstance,
    lam: float,
    kappa: float,
) -> Objective:
    """Compile the regression loss at fixed evaluation points."""
    _check_penalties(lam, kappa)
    paths, d_weights, targets, var_floor = _data_arrays(model, data)
    batch = _checked_batch(model, p0, paths)
    return _tar_compiled(model, batch, p0, d_weights, targets, var_floor, lam, kappa)


def _tar_compiled(model, batch: _ValueBatch, p0, d_weights, targets, var_floor, lam, kappa) -> Objective:
    """``tar_objective`` on a batch that starts with the p0 states and the data paths."""
    n0 = len(p0.paths)
    nodes = batch.node[: n0 + d_weights.size]
    pairs = batch.pairs(nodes)
    p0_w = np.array(p0.weights)
    hinge_w = 2.0 * kappa * p0_w
    misfit_w = lam * d_weights

    def evaluate(x: np.ndarray):
        v = batch.values(x)[nodes]
        v0 = v[:n0]
        resid = v[n0:] - targets
        neg = np.maximum(-v0, 0.0)
        loss = (
            _dot(p0_w, v0)
            + 0.5 * lam * (_dot(d_weights, resid * resid) + var_floor)
            + kappa * _dot(p0_w, neg * neg)
        )
        grad = _value_grad(pairs, np.concatenate((p0_w - hinge_w * neg, misfit_w * resid)), x.size)
        return float(loss), grad, np.concatenate((hinge_w * (neg > 0.0), misfit_w))

    def add_pieces(pieces: _NodePieces, deep: np.ndarray, offset: np.ndarray) -> None:
        pieces.add_linear(deep[:n0], p0_w)
        pieces.add_hinge(deep[:n0], offset[:n0], kappa * p0_w, 0.0)
        pieces.add_misfit(deep[n0:], offset[n0:], 0.5 * lam * d_weights, targets)

    return _compiled(evaluate, model, batch, nodes, pairs, add_pieces)


def tar_loss(
    model: AdvantageModel,
    p0: PathDistribution,
    data: PathYieldDataset | PLInstance,
    lam: float,
    kappa: float = 0.0,
) -> tuple[float, np.ndarray]:
    return tar_objective(model, p0, data, lam, kappa)(model.drawdown_vector())


def vlp_objective(
    model: AdvantageModel,
    p0: PathDistribution,
    mix: PenaltyMix,
    instance: PLInstance,
    lam: float,
    kappa: float,
) -> Objective:
    """Compile the penalized feasibility loss.

    The mix's tilde states join the batch's tree, which classifies each of
    them once, and an incomplete state's step slots are looked up once for
    every action of the mix (``AdvantageModel.edge_slots``); each pair's
    residual is then evaluated with numpy, at every call. Residuals are
    evaluated exactly, split by state class:

    * support path (mu half): successor is improper and predicts 0, so the
      residual is yield minus value;
    * off-support complete state: same structural zero successor, residual
      is the negated value;
    * incomplete state: the residual telescopes to the single step
      advantage, nonpositive by construction;
    * improper state: value and successor value are both 0.
    """
    _check_penalties(lam, kappa)
    model.require_alphabet(instance.alphabet)
    batch = _checked_batch(model, p0, instance.psi, mix)
    return _vlp_compiled(model, batch, p0, mix, instance, lam, kappa)


def _vlp_compiled(model, batch: _ValueBatch, p0, mix: PenaltyMix, instance: PLInstance, lam, kappa) -> Objective:
    """``vlp_objective`` on a batch of the p0 states, the support paths and the mix's states."""
    mu_w = mix.mu_weight
    n0, psi = len(p0.paths), instance.psi
    action = np.array([model.alphabet.index(a) for a in mix.actions], dtype=np.intp)
    tilde = batch.node[n0 + len(psi) :]
    is_complete = batch.ended[tilde] & ~batch.improper[tilde]
    comp_ids = np.flatnonzero(is_complete)
    # support paths are complete, and a state on the support is a psi node
    on_support = np.flatnonzero(np.isin(tilde[comp_ids], batch.node[n0 : n0 + len(psi)]))
    if on_support.size:
        raise InvalidInputError(f"tilde state {mix.states[comp_ids[on_support[0]]]!r} lies on the support")

    # One batch of values: the p0 states, the support paths (the mu half)
    # and the tilde half's complete states. Each of them has a hinge term
    # w_j max(t_j - value_j, 0)^2: below 0 for a p0 state, below its yield
    # for a support path, and below 0 for a complete state, whose residual
    # does not depend on the action, so its pairs' weights add up. An
    # improper state and its successor both predict 0: no term.
    nodes = np.concatenate((batch.node[: n0 + len(psi)], tilde[comp_ids]))
    pairs = batch.pairs(nodes)
    p0_w = np.array(p0.weights)
    comp = is_complete[mix.pair_state]
    comp_weight = np.bincount(mix.pair_state[comp], weights=mix.weights[comp], minlength=tilde.size)
    hinge_w = np.concatenate(
        (kappa * p0_w, lam * mu_w * instance.psi_weights, lam * (1.0 - mu_w) * comp_weight[comp_ids])
    )
    hinge_t = np.concatenate((np.zeros(n0), instance.psi_yields, np.zeros(comp_ids.size)))
    linear_w = np.concatenate((p0_w, np.zeros(hinge_w.size - n0)))
    # an incomplete pair's residual is its step's drawdown, or the fallback,
    # read from [fallback, x] at its slot + 1
    inc = ~batch.ended[tilde[mix.pair_state]]
    inc_w = lam * (1.0 - mu_w) * mix.weights[inc]
    inc_node, inc_action = tilde[mix.pair_state[inc]], action[mix.pair_action[inc]]
    inc_step = 1 + model.edge_slots(inc_node, batch.rank[inc_node], batch.depth[inc_node], inc_action)
    inc_fallback = model.fallback_advantage if np.any(inc_step == 0) else 0.0

    def evaluate(x: np.ndarray):
        v = batch.values(x)[nodes]
        pos = np.maximum(hinge_t - v, 0.0)
        inc_pos = np.maximum(np.concatenate(([inc_fallback], x))[inc_step], 0.0)
        loss = _dot(p0_w, v[:n0]) + _dot(hinge_w, pos * pos) + _dot(inc_w, inc_pos * inc_pos)
        grad = _value_grad(pairs, linear_w - 2.0 * hinge_w * pos, x.size)
        grad += np.bincount(inc_step, weights=2.0 * inc_w * inc_pos, minlength=1 + x.size)[1:]
        # the incomplete-state term is (a)_+^2 of one drawdown or of the
        # fallback: zero, with zero curvature, wherever a <= 0
        return float(loss), grad, 2.0 * hinge_w * (pos > 0.0)

    def add_pieces(pieces: _NodePieces, deep: np.ndarray, offset: np.ndarray) -> None:
        pieces.add_linear(deep[:n0], p0_w)
        pieces.add_hinge(deep, offset, hinge_w, hinge_t)

    return _compiled(evaluate, model, batch, nodes, pairs, add_pieces)


def vlp_loss(
    model: AdvantageModel,
    p0: PathDistribution,
    mix: PenaltyMix,
    instance: PLInstance,
    lam: float,
    kappa: float = 0.0,
) -> tuple[float, np.ndarray]:
    return vlp_objective(model, p0, mix, instance, lam, kappa)(model.drawdown_vector())


def surrogate_gap(
    model: AdvantageModel,
    instance: PLInstance,
    p0: PathDistribution | None = None,
    mix: PenaltyMix | None = None,
    lam: float = 100.0,
    kappa: float = 0.0,
    ov: OptimalValues | None = None,
) -> dict:
    """Evaluate both sides of the loss identity independently.

    Returns lhs (regression loss in exact mode), rhs (variance floor plus
    feasibility loss plus overshoot term), the two rhs components, and the
    absolute gap. One batch holds every state the terms read, and each is
    computed from it on its own: lhs as ``tar_loss`` does, the feasibility
    loss as ``vlp_loss`` does (its tilde half pair by pair, though the
    default mix makes it 0), and the overshoot from oracle values (the
    caller's ``ov``, else a fresh ``compute_optimal``) and the model's value
    on each support path, summed bit for bit as ``predict_value`` does. lam
    and kappa are checked as the objectives check them.
    """
    _check_penalties(lam, kappa)
    if p0 is None:
        p0 = PathDistribution.uniform(instance.trie.nodes)
    if mix is None:
        mix = PenaltyMix.default(instance)

    paths, d_weights, targets, var_floor = _data_arrays(model, instance)
    batch = _checked_batch(model, p0, paths, mix)
    x = model.drawdown_vector()
    lhs, _ = _tar_compiled(model, batch, p0, d_weights, targets, var_floor, lam, kappa)(x)
    vlp, _ = _vlp_compiled(model, batch, p0, mix, instance, lam, kappa)(x)
    sigma2_term = 0.5 * lam * instance.noise_variance()
    if ov is None:
        ov = compute_optimal(instance)
    values = batch.values(x)[batch.node[len(p0.paths) :][: len(paths)]].tolist()
    # the support paths are the trie's members, in the same canonical order
    optimal = ov.v[ov.trie.members].tolist()
    excess = 0.5 * lam * math.fsum(
        w * max(v - v_opt, 0.0) ** 2 for w, v, v_opt in zip(d_weights.tolist(), values, optimal)
    )
    rhs = sigma2_term + vlp + excess
    return {
        "lhs": lhs,
        "rhs": rhs,
        "sigma2_term": sigma2_term,
        "hinge_excess_term": excess,
        "gap": abs(lhs - rhs),
    }


def train(model: AdvantageModel, objective: Objective, config: TrainConfig) -> TrainResult:
    """Minimize an objective compiled by ``tar_objective`` or
    ``vlp_objective``.

    The objective is solved in drawdown coordinates (c, a), where it is
    convex under the bound a <= 0. For a tabular model the solve is exact
    and finite (``_solve_tree``): it pools the trie's node values, whatever
    the model's current parameters, and ``config.max_iters`` does not apply.
    For the linear family it is iterative, projected Newton steps from the
    model's ``drawdown_vector`` (``_solve_drawdown``). The returned model
    holds the solution as it is, one drawdown per slot (``with_drawdowns``).
    An objective whose calls do not return an ``Evaluation`` is rejected.

    ``final_loss`` is the objective at the returned model, the trace's last
    entry. ``grad_norm`` is the max-norm of the gradient in drawdown
    coordinates, projected onto the bound a <= 0, at the solution; the run
    has converged when it is at most
    ``config.tol``. ``stop_reason`` says why the run ended: converged, the
    iteration cap, no representable decrease, or, for the tree solve, a
    solution whose certificate exceeds the tolerance (uncertified).
    ``iterations`` counts the projected Newton steps, or the tree solve's
    merges.
    """
    x = model.drawdown_vector()
    start = objective(x)
    if not isinstance(start, Evaluation):
        raise InvalidInputError("train needs an objective compiled by tar_objective or vlp_objective")
    pieces = start.node_pieces()
    blocks = zero_drawdowns = None
    if pieces is None:
        x_out, trace, grad_norm, iterations, reason = _solve_drawdown(objective, start, x, config)
        solver = PROJECTED_NEWTON
    else:
        x_out, trace, grad_norm, iterations, reason = _solve_tree(objective, pieces, start[0], config)
        solver = TREE_POOLING
        blocks = x_out.size - iterations  # one node per block, less one per merge
        zero_drawdowns = int(np.count_nonzero(x_out[1:] == 0.0))
    return TrainResult(
        model=model.with_drawdowns(x_out),
        trace=trace,
        final_loss=float(trace[-1]),
        grad_norm=grad_norm,
        iterations=iterations,
        converged=reason == CONVERGED,
        stop_reason=reason,
        solver=solver,
        blocks=blocks,
        zero_drawdowns=zero_drawdowns,
    )


def _solve_tree(objective, pieces: _NodePieces, start_loss: float, config: TrainConfig):
    """The exact tree solve of ``_NodePieces.solve``, certified
    independently of it: the projected gradient of the compiled objective at
    the solution.

    Returns (x, trace, projected-gradient max-norm, merges, stop reason) as
    ``_solve_drawdown`` does; the trace is the loss at the start and at the
    solution.
    """
    x, merges = pieces.solve()
    f, g = objective(x)
    if not (math.isfinite(f) and np.all(np.isfinite(g))):
        raise TrainingDivergedError(0, "at the tree solution")
    pg = _projected_grad_norm(x, g)
    reason = CONVERGED if pg <= config.tol else UNCERTIFIED
    return x, np.array([start_loss, f]), pg, merges, reason


def _project(x: np.ndarray) -> np.ndarray:
    """Nearest point with every drawdown a <= 0 (c is free)."""
    out = x.copy()
    np.minimum(out[1:], 0.0, out=out[1:])
    return out


def _projected_grad_norm(x: np.ndarray, g: np.ndarray) -> float:
    return float(np.max(np.abs(x - _project(x - g))))


def _exact_projected_grad_norm(x: np.ndarray, g: np.ndarray) -> float:
    """``_projected_grad_norm`` without rounding x - g: in exact arithmetic
    x - P(x - g) is g in c and max(g, x) in each drawdown. The rounded form
    reads 0 wherever x is so large that x - g rounds back to x."""
    return float(np.max(np.abs(np.concatenate((g[:1], np.maximum(g[1:], x[1:]))))))


def _solve_drawdown(objective, at: Evaluation, x: np.ndarray, config: TrainConfig):
    """Projected Newton iterations (Bertsekas 1982) in drawdown coordinates,
    from x, whose evaluation is ``at``.

    Each iteration takes the direction of ``_newton_direction`` and halves
    the step from 1 along the projection arc P(x + s d) until the Armijo
    condition holds with a strict decrease, or until the loss stays within
    LEVEL_ULPS ulps while the projected gradient falls: the loss's float
    resolution can be reached before the tolerance. A full step along a
    direction without curvature is doubled while the loss keeps falling, so
    a loss unbounded below runs off in a few iterations.

    Returns (x, trace, projected-gradient max-norm, iterations, stop reason);
    the trace is the loss at each iterate, x's last. Raises
    ``TrainingDivergedError`` at a non-finite accepted point, and when that
    max-norm meets the tolerance only through rounding
    (``_exact_projected_grad_norm``), as on a loss unbounded below once the
    parameters have run off far enough.
    """
    trace = []
    reason = ITERATION_CAP
    for iterations in range(config.max_iters + 1):
        f, g = at
        if not (math.isfinite(f) and np.all(np.isfinite(g))):
            raise TrainingDivergedError(iterations)
        pg = _projected_grad_norm(x, g)
        trace.append(f)
        if pg <= config.tol or iterations == config.max_iters:
            break
        d, flat = _newton_direction(at.hessian(), x, g, pg)
        s = 1.0
        # a long step can overflow; its non-finite loss is rejected like any
        # increase
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(MAX_HALVINGS):
                x_new = _project(x + s * d)
                new = objective(x_new)
                if new[0] < f and new[0] <= f + ARMIJO_C * _dot(g, x_new - x):
                    break
                if abs(new[0] - f) <= LEVEL_ULPS * math.ulp(f) and _projected_grad_norm(x_new, new[1]) < pg:
                    break
                s *= 0.5
            else:
                reason = NO_DECREASE
                break
            while flat and s >= 1.0:
                s *= 2.0
                x_far = _project(x + s * d)
                far = objective(x_far)
                if not (math.isfinite(far[0]) and far[0] < new[0]):
                    break
                x_new, new = x_far, far
        at, x = new, x_new
    if pg <= config.tol:
        if _exact_projected_grad_norm(x, g) > config.tol:
            raise TrainingDivergedError(
                iterations,
                f"the parameters reached {np.max(np.abs(x)):.3g}, where steps along a gradient above "
                "the tolerance no longer change them",
                unbounded=True,
            )
        reason = CONVERGED
    return x, np.array(trace), pg, iterations, reason


def _newton_direction(hess: np.ndarray, x: np.ndarray, g: np.ndarray, pg: float) -> tuple[np.ndarray, bool]:
    """The projected Newton direction d at x, whose projected-gradient
    max-norm is pg, and whether d carries no curvature (d.H d <= 0).

    The drawdowns within min(BOUND_EPS, pg) of 0 whose gradient is negative
    (descent would push them above 0) go onto the bound: d = -x there. The
    other coordinates F solve (H_FF + mu I) d_F = -g_F, mu = DAMPING * pg,
    on ``hess``, the dense Hessian H of the current piece. Unused feature
    pairs leave H singular, and the covering law's linear term leaves
    directions with gradient but no curvature until a hinge turns on: the
    damping makes those gradient steps. d.H d is summed in a fixed order,
    never by BLAS.
    """
    bound = np.zeros(x.size, dtype=bool)
    bound[1:] = (x[1:] >= -min(BOUND_EPS, pg)) & (g[1:] < 0.0)
    d = np.where(bound, -x, 0.0)
    free = np.flatnonzero(~bound)
    h = hess[np.ix_(free, free)]
    mu = DAMPING * pg
    h[np.diag_indices(free.size)] += mu
    d[free] = _cholesky_solve(h, -g[free], mu)
    return d, _dot(d, np.add.reduce(hess * d, axis=1)) <= 0.0


def _cholesky_solve(a: np.ndarray, b: np.ndarray, floor: float) -> np.ndarray:
    """a^-1 b for a symmetric a whose eigenvalues are at least floor > 0, by
    a Cholesky factorization in a fixed order: a column loop of outer-product
    updates, then two substitutions with ``_dot``. (LAPACK's factorization
    rounds by the BLAS thread count.) A pivot that rounding takes below the
    floor, which bounds every pivot in exact arithmetic, is raised to it,
    which keeps the factor positive definite. Reads the lower triangle; a is
    overwritten."""
    n = b.size
    low = np.zeros((n, n))
    for j in range(n):
        root = math.sqrt(max(a[j, j], floor))
        col = a[j:, j] / root
        col[0] = root
        low[j:, j] = col
        a[j + 1 :, j + 1 :] -= np.multiply.outer(col[1:], col[1:])
    y = np.zeros(n)
    for i in range(n):
        y[i] = (b[i] - _dot(low[i, :i], y[:i])) / low[i, i]
    out = np.zeros(n)
    for i in range(n - 1, -1, -1):
        out[i] = (y[i] - _dot(low[i + 1 :, i], out[i + 1 :])) / low[i, i]
    return out

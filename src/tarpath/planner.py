"""Greedy path extraction from a trained model, with regret scoring.

The planner never looks at values: it repeatedly commits to the action with
the largest predicted per-step drawdown (ties broken by alphabet declaration
order), stopping when the terminal token is emitted or a step budget runs
out. Tabular models steer it back onto observed continuations because
off-trie queries cost the constant fallback drawdown. The argmax loop,
``greedy_rollout``, takes any row of per-token scores per state, and
``greedy_path`` reads the model's ``step_drawdowns``: scored with the oracle's
exact drawdowns it rolls out an optimal path, and so does ``greedy_path`` on
the oracle's model file, the reference plan (off the trie it reads -B, not -v).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .instance import PLInstance
from .model import AdvantageModel, value_steps
from .pathspace import EMPTY, ActionAlphabet, PathSeq


@dataclass(frozen=True)
class PlanResult:
    path: PathSeq
    predicted_value: float
    truncated: bool
    true_yield: float | None = None
    regret: float | None = None
    # per step: the chosen drawdown minus the best other one; 0.0 marks an
    # exact tie, broken by declaration order
    margins: tuple[float, ...] = ()

    @property
    def ties(self) -> int:
        """The steps chosen by declaration order among exactly tied drawdowns."""
        return self.margins.count(0.0)

    def to_json(self) -> dict:
        return {
            "path": list(self.path),
            "predicted": self.predicted_value,
            "true_yield": self.true_yield,
            "regret": self.regret,
            "truncated": self.truncated,
            "margins": list(self.margins),
            "ties": self.ties,
        }


def greedy_rollout(
    alphabet: ActionAlphabet, scores: Callable[[PathSeq], np.ndarray], max_len: int
) -> tuple[PathSeq, bool, tuple[float, ...]]:
    """From the empty sequence, commit to the first declaration-order
    maximizer of ``scores(state)``, one score per token in declaration
    order, until the terminal token is emitted or ``max_len`` steps are
    taken. Returns the path, whether the budget cut it short, and each
    choice's margin over the runner-up."""
    if max_len < 1:
        raise InvalidInputError(f"max_len must be at least 1, got {max_len}")
    state: PathSeq = EMPTY
    margins = []
    for _ in range(max_len):
        best_a = None
        best = second = -float("inf")
        for a, value in zip(alphabet.tokens, scores(state).tolist()):
            if value > best:
                best_a, best, second = a, value, best
            elif value > second:
                second = value
        margins.append(best - second)
        state = state + (best_a,)
        if best_a == alphabet.terminal:
            return state, False, tuple(margins)
    return state, True, tuple(margins)


def greedy_path(model: AdvantageModel, max_len: int) -> PlanResult:
    """Argmax-advantage rollout from the empty sequence, with the margin of
    each choice over the runner-up; its predicted value is ``value_steps``'
    sum, the attribution's total of the path, bit for bit."""
    path, truncated, margins = greedy_rollout(model.alphabet, model.step_drawdowns, max_len)
    return PlanResult(
        path=path,
        predicted_value=value_steps(model, path)[0],
        truncated=truncated,
        margins=margins,
    )


def evaluate_plan(result: PlanResult, instance: PLInstance) -> PlanResult:
    """Fill in the achieved yield and its shortfall against the best support
    yield, taken as ``compute_optimal`` takes its ``j_star``: a fold from 0.0
    with strict ``>`` (``max`` keeps the first of equal maxima)."""
    j_star = max([0.0, *instance.psi_yields.tolist()])
    true_yield = instance.yield_of(result.path)
    return replace(result, true_yield=true_yield, regret=j_star - true_yield)


def default_max_len(model: AdvantageModel, instance: PLInstance | None = None) -> int:
    """Longest known path length plus slack, bounding degenerate rollouts."""
    depth = getattr(getattr(model, "trie", None), "depth", None)
    if depth is None and instance is not None:
        depth = instance.trie.depth
    if depth is None:
        raise InvalidInputError(
            "cannot infer a step budget: no trie on the model and no instance given"
        )
    return depth + 2

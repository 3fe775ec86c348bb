"""Greedy path extraction from a trained model, with regret scoring.

The planner never looks at values: it repeatedly commits to the action with
the largest predicted per-step drawdown (ties broken by alphabet declaration
order), stopping when the terminal token is emitted or a step budget runs
out. Tabular models steer it back onto observed continuations because
off-trie queries cost the constant fallback drawdown.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InvalidInputError
from .instance import PLInstance
from .model import AdvantageModel, predict_advantage, predict_value
from .oracle import OptimalValues
from .pathspace import EMPTY, PathSeq


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

    def to_json(self) -> dict:
        return {
            "path": list(self.path),
            "predicted": self.predicted_value,
            "true_yield": self.true_yield,
            "regret": self.regret,
            "truncated": self.truncated,
            "margins": list(self.margins),
        }


def greedy_path(model: AdvantageModel, max_len: int) -> PlanResult:
    """Argmax-advantage rollout from the empty sequence, with the margin of
    each choice over the runner-up."""
    if max_len < 1:
        raise InvalidInputError(f"max_len must be at least 1, got {max_len}")
    alphabet = model.alphabet
    state: PathSeq = EMPTY
    truncated = True
    margins = []
    for _ in range(max_len):
        best_a = None
        best_adv = second = -float("inf")
        for a in alphabet.tokens:
            adv = predict_advantage(model, state, a)
            if adv > best_adv:
                best_a, best_adv, second = a, adv, best_adv
            elif adv > second:
                second = adv
        margins.append(best_adv - second)
        state = state + (best_a,)
        if best_a == alphabet.terminal:
            truncated = False
            break
    return PlanResult(
        path=state,
        predicted_value=predict_value(model, state),
        truncated=truncated,
        margins=tuple(margins),
    )


def evaluate_plan(
    result: PlanResult, instance: PLInstance, ov: OptimalValues
) -> PlanResult:
    """Fill in the achieved yield and its shortfall against the optimum."""
    true_yield = instance.yield_of(result.path)
    return replace(result, true_yield=true_yield, regret=ov.j_star - true_yield)


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

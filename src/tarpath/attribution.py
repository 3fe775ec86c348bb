"""Per-step explanation of a predicted path value.

A prediction decomposes additively: the base constant (the model's estimate
of the best achievable yield) plus one nonpositive drawdown per action,
each attributed to the action taken at its prefix. The report's total is
produced by the same left-to-right accumulation as the value prediction, so
the two agree bit for bit, not merely to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import AdvantageModel, value_steps
from .pathspace import PathSeq


@dataclass(frozen=True)
class AttributionStep:
    prefix: PathSeq
    action: str
    drawdown: float

    def to_json(self) -> dict:
        return {
            "prefix": list(self.prefix),
            "action": self.action,
            "drawdown": self.drawdown,
        }


@dataclass(frozen=True)
class AttributionReport:
    path: PathSeq
    base: float
    steps: tuple[AttributionStep, ...]
    total: float
    improper: bool = False

    def to_json(self) -> dict:
        return {
            "path": list(self.path),
            "base": self.base,
            "steps": [s.to_json() for s in self.steps],
            "total": self.total,
            "improper": self.improper,
        }


def attribute(model: AdvantageModel, path: PathSeq) -> AttributionReport:
    """Split the predicted value of a path into base plus per-step drawdowns."""
    path = tuple(path)
    found = value_steps(model, path)
    if found is None:
        return AttributionReport(path=path, base=model.c, steps=(), total=0.0, improper=True)
    total, drawdowns = found
    steps = tuple(AttributionStep(path[:k], path[k], drawdown) for k, drawdown in enumerate(drawdowns))
    return AttributionReport(path=path, base=model.c, steps=steps, total=total)

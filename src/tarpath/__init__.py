"""Offline path learning via advantage-decomposed value regression.

Learn, from logged (path, noisy yield) pairs, a value model of the form
"best-yield constant plus nonpositive per-step drawdowns", then plan greedily
over the drawdowns and explain predictions step by step. Exact oracles,
penalized-feasibility cross-checks, and a deterministic CLI pipeline are
included; see the README for the tour.
"""

from .errors import (
    GeneratorError,
    InvalidInputError,
    InvalidInstanceError,
    TarPathError,
    TrainingDivergedError,
    UnsupportedNoiseError,
)
from .pathspace import ActionAlphabet, PathSeq, PrefixTrie, SeqClass
from .instance import (
    InstanceSpec,
    NoiseModel,
    PathDistribution,
    PathYieldDataset,
    PLInstance,
    YieldTable,
    fixture_e1,
    fixture_e2,
    random_instance,
    sample_dataset,
)
from .reduction import build_offline_dataset
from .oracle import (
    OptimalValues,
    check_decomposition,
    compute_optimal,
    enumeration_advantage,
    enumeration_value,
    max_bellman_violation,
    transition_operator,
)
from .model import (
    AdvantageModel,
    FeatureMap,
    LinearAdvantage,
    TabularAdvantage,
    advantage_transform,
    predict_advantage,
    predict_value,
    raw_from_advantage,
)
from .losses import (
    PenaltyMix,
    StateWeighting,
    TrainConfig,
    TrainResult,
    surrogate_gap,
    tar_loss,
    tar_objective,
    train,
    vlp_loss,
    vlp_objective,
)
from .planner import PlanResult, evaluate_plan, greedy_path
from .attribution import AttributionReport, attribute

__version__ = "0.1.0"

__all__ = [
    "ActionAlphabet",
    "AdvantageModel",
    "AttributionReport",
    "FeatureMap",
    "GeneratorError",
    "InstanceSpec",
    "InvalidInputError",
    "InvalidInstanceError",
    "LinearAdvantage",
    "NoiseModel",
    "OptimalValues",
    "PathDistribution",
    "PathSeq",
    "PathYieldDataset",
    "PenaltyMix",
    "PlanResult",
    "PLInstance",
    "PrefixTrie",
    "SeqClass",
    "StateWeighting",
    "TabularAdvantage",
    "TarPathError",
    "TrainConfig",
    "TrainResult",
    "TrainingDivergedError",
    "UnsupportedNoiseError",
    "YieldTable",
    "advantage_transform",
    "attribute",
    "build_offline_dataset",
    "check_decomposition",
    "compute_optimal",
    "enumeration_advantage",
    "enumeration_value",
    "evaluate_plan",
    "fixture_e1",
    "fixture_e2",
    "greedy_path",
    "max_bellman_violation",
    "predict_advantage",
    "predict_value",
    "random_instance",
    "raw_from_advantage",
    "sample_dataset",
    "surrogate_gap",
    "tar_loss",
    "tar_objective",
    "train",
    "transition_operator",
    "vlp_loss",
    "vlp_objective",
]

"""Sequential decision view of a path-learning instance.

States are token sequences, the initial state is the empty sequence, the
transition deterministically appends the chosen action, and the reward is a
noisy yield draw at support paths and exactly zero elsewhere (the action does
not influence the reward distribution). The state-action marginal used by the
penalty losses puts the path law on support states crossed with the uniform
action law. Offline RL datasets relabel logged (path, yield) pairs as
one-step transitions with a uniformly drawn action.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

import numpy as np

from . import serialize
from .errors import InvalidInputError, RolloutError
from .instance import PathYieldDataset, PLInstance
from .pathspace import EMPTY, PathSeq

Policy = Mapping[PathSeq, str] | Callable[[PathSeq], str]


@dataclass(frozen=True, eq=False)
class ReducedMDP:
    """Derived views over an instance; owns no state of its own."""

    instance: PLInstance

    @property
    def initial_state(self) -> PathSeq:
        return EMPTY

    def transition(self, s: PathSeq, a: str) -> PathSeq:
        return self.instance.alphabet.append(s, a)

    def reward_mean(self, s: PathSeq) -> float:
        """Exact expected reward at s: the yield at support paths, else 0."""
        return self.instance.yield_of(s)

    def sample_reward(self, s: PathSeq, a: str, rng: np.random.Generator) -> float:
        self.instance.alphabet.require_token(a)
        s = self.instance.alphabet.require_seq(s)
        if s in self.instance.yields:
            return self.instance.noise.sample(rng, self.instance.yields[s])
        return 0.0

    def mu_marginal(self) -> tuple[tuple[PathSeq, str, float], ...]:
        """State-action weights: path law at support states x uniform actions."""
        tokens = self.instance.alphabet.tokens
        u = 1.0 / len(tokens)
        return tuple(
            (path, a, w * u)
            for path, w in self.instance.path_dist.items()
            for a in tokens
        )


@dataclass(frozen=True)
class RLTransition:
    s: PathSeq
    a: str
    r: float
    s_next: PathSeq

    def __post_init__(self) -> None:
        if self.s_next != self.s + (self.a,):
            raise InvalidInputError(
                f"transition target {self.s_next!r} is not {self.s!r} plus {self.a!r}"
            )


@dataclass(frozen=True, eq=False)
class RLDataset:
    transitions: tuple[RLTransition, ...]
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.transitions)

    def __iter__(self) -> Iterator[RLTransition]:
        return iter(self.transitions)


def build_offline_dataset(
    instance: PLInstance, data: PathYieldDataset, seed: int
) -> RLDataset:
    """Relabel logged pairs as transitions (psi, a, y, psi + a), a uniform."""
    alphabet = instance.alphabet
    rng = np.random.default_rng(seed)
    tokens = alphabet.tokens
    actions = rng.integers(0, len(tokens), size=len(data))
    transitions = []
    for (path, y), ai in zip(data.pairs, actions):
        path = alphabet.require_seq(path)
        if path not in instance.yields:
            raise InvalidInputError(
                f"dataset path {path!r} is not in the instance support"
            )
        a = tokens[int(ai)]
        transitions.append(RLTransition(s=path, a=a, r=y, s_next=path + (a,)))
    return RLDataset(transitions=tuple(transitions), seed=seed)


@dataclass(frozen=True)
class RolloutResult:
    path: PathSeq
    truncated: bool


def rollout_greedy(policy: Policy, mdp: ReducedMDP, max_steps: int) -> RolloutResult:
    """Follow a deterministic policy from the empty state until it emits the
    terminal token or max_steps actions have been taken."""
    if max_steps < 1:
        raise InvalidInputError(f"max_steps must be at least 1, got {max_steps}")
    alphabet = mdp.instance.alphabet
    state: PathSeq = EMPTY
    for _ in range(max_steps):
        if callable(policy):
            try:
                action = policy(state)
            except KeyError:
                action = None
        else:
            action = policy.get(state)
        if action is None:
            raise RolloutError(f"policy undefined at state {state!r}")
        state = alphabet.append(state, action)
        if action == alphabet.terminal:
            return RolloutResult(path=state, truncated=False)
    return RolloutResult(path=state, truncated=True)


def save_rl_dataset(dataset: RLDataset, path: str) -> None:
    """One row ``{"s": [...], "a": ..., "r": ..., "s_next": [...]}`` per
    transition, as ``serialize.dump_jsonl`` writes it."""
    texts, num = serialize.TokenTexts(), serialize.format_float
    serialize.atomic_write_text(path, "".join([
        f'{{"s":{texts[t.s]},"a":{texts[t.a]},"r":{num(t.r)},"s_next":{texts[t.s_next]}}}\n'
        for t in dataset.transitions
    ]))


def load_rl_dataset(path: str) -> RLDataset:
    transitions = []
    for row in serialize.load_jsonl(path):
        try:
            transitions.append(
                RLTransition(
                    s=tuple(row["s"]),
                    a=row["a"],
                    r=float(row["r"]),
                    s_next=tuple(row["s_next"]),
                )
            )
        except (KeyError, TypeError) as exc:
            raise InvalidInputError(f"malformed transition row: {row!r}") from exc
    return RLDataset(transitions=tuple(transitions))

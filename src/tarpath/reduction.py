"""Offline transition export of a logged dataset.

In the sequential decision view of an instance, states are token sequences,
an action appends one token, and the reward is a noisy yield draw at support
paths and zero elsewhere. Each logged (path, yield) row is relabeled as the
one-step transition (path, a, yield, path + (a,)) with the action a drawn
uniformly from the alphabet. Transitions are columns: the logged dataset
itself holds the states and rewards, and one action index per row joins it.
The successor ``path + (action,)`` is derived when writing and checked when
loading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .errors import InvalidInputError
from .instance import PathYieldDataset, PLInstance, seeded_rng
from .pathspace import PathSeq, json_seq

RLRow = tuple[PathSeq, str, float]


@dataclass(frozen=True, eq=False)
class Transitions:
    """One-step transitions (s, a, r, s + (a,)) as columns: ``log`` holds
    the states as its paths and the rewards as its yields, and ``actions``
    each row's action as an index into ``tokens``. ``triples`` is a view of
    the rows."""

    log: PathYieldDataset
    tokens: tuple[str, ...]
    actions: np.ndarray

    @property
    def triples(self) -> tuple[RLRow, ...]:
        """The rows as (s, a, r) triples, built on each read."""
        log = self.log
        return tuple(zip(
            map(log.paths.__getitem__, log.rows.tolist()),
            map(self.tokens.__getitem__, self.actions.tolist()),
            log.ys.tolist(),
        ))

    def __len__(self) -> int:
        return len(self.log)


def build_offline_dataset(
    instance: PLInstance, data: PathYieldDataset, seed: int
) -> Transitions:
    """Relabel logged rows as transitions (path, a, y), a uniform; every path
    must be a support path of the instance."""
    for path in data.paths:
        if path not in instance.row_of:
            raise InvalidInputError(f"dataset path {path!r} is not in the instance support")
    tokens = instance.alphabet.tokens
    actions = seeded_rng(seed).integers(0, len(tokens), size=len(data))
    return Transitions(log=data, tokens=tokens, actions=actions)


def save_rl_dataset(transitions: Transitions, path: str) -> None:
    """One row ``{"s": [...], "a": ..., "r": ..., "s_next": [...]}`` per
    transition, as ``serialize.dump_jsonl`` writes it; each distinct state,
    action and reward is formatted once, and ``s_next`` joins the texts of
    ``s`` and ``a``."""
    log = transitions.log
    s_texts = [serialize.dumps(s) for s in log.paths]
    a_texts = [serialize.dumps(a) for a in transitions.tokens]
    r_texts, r_index = serialize.float_texts(log.ys)
    serialize.atomic_write_text(path, serialize.join_rows(
        ([f'{{"s":{s},"a":' for s in s_texts], log.rows),
        ([f'{a},"r":' for a in a_texts], transitions.actions),
        (r_texts, r_index),
        # s_next is s's text with a before its closing bracket
        ([f',"s_next":{s[:-1]},' if s != "[]" else ',"s_next":[' for s in s_texts], log.rows),
        ([f"{a}]}}\n" for a in a_texts], transitions.actions),
    ))


def load_rl_dataset(path: str) -> Transitions:
    """Read rows written by ``save_rl_dataset``. Tokens must be strings,
    ``r`` a finite number and ``s_next`` equal to ``s`` plus ``a``; errors
    name the file and the row (1-based, counting nonblank lines)."""
    states: dict[PathSeq, int] = {}
    tokens: dict[str, int] = {}
    rows, actions, rewards = [], [], []
    for i, row in enumerate(serialize.load_jsonl(path), 1):
        try:
            s, a, r, s_next = json_seq(row["s"]), row["a"], float(row["r"]), json_seq(row["s_next"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"{path}: malformed transition row {i}: {row!r}") from exc
        if not isinstance(a, str) or not math.isfinite(r):
            raise InvalidInputError(f"{path}: malformed transition row {i}: {row!r}")
        if s_next != s + (a,):
            raise InvalidInputError(
                f"{path}: row {i}: transition target {s_next!r} is not {s!r} plus {a!r}"
            )
        rows.append(states.setdefault(s, len(states)))
        actions.append(tokens.setdefault(a, len(tokens)))
        rewards.append(r)
    log = PathYieldDataset(
        paths=tuple(states), rows=np.array(rows, dtype=np.intp), ys=np.array(rewards, dtype=float)
    )
    return Transitions(log=log, tokens=tuple(tokens), actions=np.array(actions, dtype=np.intp))

"""Offline transition export of a logged dataset.

In the sequential decision view of an instance, states are token sequences,
an action appends one token, and the reward is a noisy yield draw at support
paths and zero elsewhere. Each logged (path, yield) pair is relabeled as the
one-step transition (path, a, yield, path + (a,)) with the action a drawn
uniformly from the alphabet. Rows are plain ``(path, action, yield)``
tuples; the successor ``path + (action,)`` is derived when writing and
checked when loading.
"""

from __future__ import annotations

import math

from . import serialize
from .errors import InvalidInputError
from .instance import PathYieldDataset, PLInstance, seeded_rng
from .pathspace import PathSeq

RLRow = tuple[PathSeq, str, float]


def build_offline_dataset(
    instance: PLInstance, data: PathYieldDataset, seed: int
) -> list[RLRow]:
    """Relabel logged pairs as rows (path, a, y), a uniform; every path must
    be a support path of the instance."""
    for path in dict.fromkeys(p for p, _ in data.pairs):
        if path not in instance.yields:
            raise InvalidInputError(f"dataset path {path!r} is not in the instance support")
    tokens = instance.alphabet.tokens
    actions = seeded_rng(seed).integers(0, len(tokens), size=len(data))
    return [(path, tokens[ai], y) for (path, y), ai in zip(data.pairs, actions.tolist())]


def save_rl_dataset(rows: list[RLRow], path: str) -> None:
    """One row ``{"s": [...], "a": ..., "r": ..., "s_next": [...]}`` per
    transition, as ``serialize.dump_jsonl`` writes it."""
    texts, num = serialize.TokenTexts(), serialize.format_float
    serialize.atomic_write_text(path, "".join([
        f'{{"s":{texts[s]},"a":{texts[a]},"r":{num(r)},"s_next":{texts[s + (a,)]}}}\n'
        for s, a, r in rows
    ]))


def load_rl_dataset(path: str) -> list[RLRow]:
    """Read rows written by ``save_rl_dataset``. Tokens must be strings,
    ``r`` a finite number and ``s_next`` equal to ``s`` plus ``a``; errors
    name the file and the row (1-based, counting nonblank lines)."""
    rows = []
    for i, row in enumerate(serialize.load_jsonl(path), 1):
        try:
            s, a, r, s_next = tuple(row["s"]), row["a"], float(row["r"]), tuple(row["s_next"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidInputError(f"{path}: malformed transition row {i}: {row!r}") from exc
        if not all(isinstance(t, str) for t in s + (a,)) or not math.isfinite(r):
            raise InvalidInputError(f"{path}: malformed transition row {i}: {row!r}")
        if s_next != s + (a,):
            raise InvalidInputError(
                f"{path}: row {i}: transition target {s_next!r} is not {s!r} plus {a!r}"
            )
        rows.append((s, a, r))
    return rows

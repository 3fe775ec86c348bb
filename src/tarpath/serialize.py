"""JSON serialization with fixed-width floats and atomic file writes.

All file formats emitted by this package print floats with 17 significant
digits, which round-trips any IEEE-754 double exactly. The stdlib encoder
offers no hook for float formatting, so a small recursive emitter is used
for writing; reading goes through plain ``json.loads``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from json.encoder import encode_basestring_ascii
from typing import Any, Iterable, Iterator

import numpy as np


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    return format(float(x), ".17g")


def _emit(obj: Any, out: list[str], indent: int | None, level: int) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        open_, close, sep, pad = _punct("[", "]", indent, level)
        out.append(open_)
        for i, item in enumerate(obj):
            if i:
                out.append(sep)
            out.append(pad)
            _emit(item, out, indent, level + 1)
        out.append(close)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        open_, close, sep, pad = _punct("{", "}", indent, level)
        out.append(open_)
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if i:
                out.append(sep)
            out.append(pad)
            out.append(encode_basestring_ascii(key))
            out.append(": " if indent is not None else ":")
            _emit(value, out, indent, level + 1)
        out.append(close)
    else:
        # numpy scalars and similar duck-typed numbers
        if hasattr(obj, "item"):
            _emit(obj.item(), out, indent, level)
            return
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _punct(open_: str, close: str, indent: int | None, level: int):
    if indent is None:
        return open_, close, ",", ""
    pad = "\n" + " " * (indent * (level + 1))
    closing = "\n" + " " * (indent * level) + close
    return open_, closing, ",", pad


def dumps(obj: Any, indent: int | None = None) -> str:
    out: list[str] = []
    _emit(obj, out, indent, 0)
    return "".join(out)


def loads(text: str) -> Any:
    return json.loads(text)


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:  # name the destination, not the temp file
        raise OSError(exc.errno, exc.strerror, path) from exc
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(obj: Any, path: str, indent: int | None = 2) -> None:
    atomic_write_text(path, dumps(obj, indent=indent) + "\n")


def load_json(path: str) -> Any:
    with open(path) as handle:
        return json.load(handle)


def dump_jsonl(records: Iterable[Any], path: str) -> None:
    lines = [dumps(rec, indent=None) for rec in records]
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def float_texts(xs: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Each distinct value of ``xs`` formatted once, and the index of each
    x's text. Values are told apart by their bits, not by ``==``: 0.0 and
    -0.0 are equal but print as 0 and -0."""
    bits, index = np.unique(np.asarray(xs, dtype=np.float64).view(np.uint64), return_inverse=True)
    return [format_float(x) for x in bits.view(np.float64).tolist()], index


def join_rows(*columns: tuple[list[str], np.ndarray]) -> str:
    """The text of a table whose row i concatenates ``texts[index[i]]`` over
    the (texts, index) ``columns``. The rows of a log repeat a few distinct
    paths, tokens and yields, so a row writer formats each distinct value
    once and the rows only index its text."""
    pieces = [np.array(texts, dtype=object)[index] for texts, index in columns]
    return "".join(np.stack(pieces, axis=1).ravel().tolist())


def jsonl_lines(path: str) -> list[str]:
    """The nonblank lines of a JSONL file, stripped."""
    with open(path) as handle:
        return [line for line in map(str.strip, handle.read().split("\n")) if line]


def load_jsonl(path: str) -> Iterator[Any]:
    for line in jsonl_lines(path):
        yield json.loads(line)

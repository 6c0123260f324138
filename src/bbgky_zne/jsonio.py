"""Deterministic, atomic file output.

JSON is emitted with a fixed layout (two-space indent, trailing newline) and
CSV floats with ``repr`` so that re-emitting loaded data reproduces the file
byte for byte. All writes go through a temp file in the target directory
followed by an atomic rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import chain
from pathlib import Path

import numpy as np


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode())


def dump_json(data, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(data, indent=2) + "\n")


def load_json(path: str | Path):
    with open(path) as handle:
        return json.load(handle)


def require_keys(data, keys: tuple[str, ...], what: str) -> None:
    """Raise ValueError unless ``data`` is a JSON object holding ``keys``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(data).__name__}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{what} lacks {', '.join(map(repr, missing))}")


def require_type(value, kinds, what: str):
    """``value`` if it is a non-bool instance of ``kinds``; else ValueError."""
    if not isinstance(value, kinds) or isinstance(value, bool):
        names = "/".join(k.__name__ for k in (kinds if isinstance(kinds, tuple) else (kinds,)))
        raise ValueError(f"{what}: expected {names}, got {type(value).__name__}")
    return value


def float_array(value, what: str) -> np.ndarray:
    """``value`` as a float array; ValueError if an entry is no number,
    including the JSON strings and booleans that numpy would convert."""
    # one nesting level at a time, so that the type scan runs in C
    level = [value]
    while level:
        kinds = set(map(type, level))
        for kind in (str, bool):
            if kind in kinds:
                raise ValueError(f"{what}: expected numbers, got {kind.__name__}")
        level = list(chain.from_iterable(x for x in level if type(x) is list)) if list in kinds else []
    try:
        return np.asarray(value, dtype=float)
    except TypeError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, np.integer):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def dump_csv(path: str | Path, header: list[str], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_format_cell(cell) for cell in row) for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")

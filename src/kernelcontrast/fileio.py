"""File formats: numeric CSV, symmetric-matrix CSV, corpora, process JSON.

CSV is comma-separated with full-precision floats (repr round-trip), no
quoting, and ``#``-prefixed comment lines. Symmetric matrices carry a
``# symmetric n=<n>`` first line so readers can validate shape before
parsing. Corpora are whitespace-separated tokens. Pair processes are
JSON objects with items, p, and a row-major augment matrix.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .contrastive import PairProcess, pair_process
from .kernels import FiniteSpace, as_sym_array

__all__ = [
    "save_matrix_csv",
    "load_matrix_csv",
    "save_sym_csv",
    "load_sym_csv",
    "load_corpus",
    "load_process",
    "save_process",
    "ParseError",
]


class ParseError(ValueError):
    """A file failed to parse; the message names the file and location."""


def _format_row(row: np.ndarray) -> str:
    return ",".join(map(repr, row.tolist()))


def save_matrix_csv(path: str, matrix, comments: list | None = None) -> None:
    """Write a 2-D array as plain CSV with optional leading # comments."""
    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    lines = [f"# {c}" for c in comments or []]
    lines.extend(_format_row(row) for row in arr)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix_csv(path: str) -> np.ndarray:
    """Read a numeric CSV, skipping blank lines and # comments.

    Every value must be finite: ``nan`` and ``inf`` parse as floats but
    are rejected with the file and line, so no command computes on them.
    """
    rows = []
    width = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ParseError(
                    f"{path}:{lineno}: expected {width} fields, found {len(fields)}"
                )
            try:
                row = [float(f) for f in fields]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from None
            if not all(map(math.isfinite, row)):
                bad = next(f for f, v in zip(fields, row) if not math.isfinite(v))
                raise ParseError(f"{path}:{lineno}: non-finite value {bad.strip()!r}")
            rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.asarray(rows)


def save_sym_csv(path: str, matrix) -> None:
    """Write a symmetric matrix with its `# symmetric n=<n>` marker."""
    sym = as_sym_array(matrix)
    save_matrix_csv(path, sym, comments=[f"symmetric n={sym.shape[0]}"])


def load_sym_csv(path: str) -> np.ndarray:
    """Read a symmetric matrix CSV, honoring the size marker if present."""
    declared = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if line.startswith("# symmetric n="):
                try:
                    declared = int(line.split("=", 1)[1])
                except ValueError:
                    raise ParseError(f"{path}: bad size marker {line!r}") from None
            break
    values = load_matrix_csv(path)
    if declared is not None and values.shape != (declared, declared):
        raise ParseError(
            f"{path}: marker declares n={declared} but data is {values.shape}"
        )
    try:
        return as_sym_array(values)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_corpus(path: str) -> list:
    """Whitespace-separated tokens; newlines are just more whitespace."""
    with open(path) as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ParseError(f"{path}: corpus is empty")
    return tokens


def load_process(path: str) -> PairProcess:
    """Read a pair process from JSON {items, p, augment} and validate it."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON ({exc})") from None
    for key in ("items", "p", "augment"):
        if key not in obj:
            raise ParseError(f"{path}: missing field {key!r}")
    try:
        space = FiniteSpace(items=list(obj["items"]), p=np.asarray(obj["p"], float))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
    try:
        return pair_process(space, np.asarray(obj["augment"], dtype=float))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def save_process(path: str, process: PairProcess) -> None:
    obj = {
        "items": [str(i) for i in process.space.items],
        "p": process.space.p.tolist(),
        "augment": process.augment.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    if parent and not os.path.isdir(parent):
        os.makedirs(parent, exist_ok=True)

"""File formats: numeric CSV, symmetric-matrix CSV, corpora, process JSON.

CSV is comma-separated with full-precision floats (repr round-trip), no
quoting, and ``#``-prefixed comment lines. Symmetric matrices carry a
``# symmetric n=<n>`` first line so readers can validate shape before
parsing. Corpora are whitespace-separated tokens. Pair processes are
JSON objects with items, p, and a row-major augment matrix.

A large matrix is formatted on every CPU the process may use, with no
option: its rows are cut into contiguous blocks and forked children
format all blocks but the first, each in full before writing it. The
bytes do not depend on the CPU count. The output is streamed to a
temporary file beside the target and renamed into place, so a failure
never leaves a partial file. On Python >= 3.12 `os.fork` warns
(DeprecationWarning) once BLAS has started threads; the writer has only
been run on 3.11, so that warning is unverified.
"""

from __future__ import annotations

import errno
import json
import math
import os
import signal

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


# A worker formats at least this many values: below it, forking costs
# about as much as it saves.
_VALUES_PER_WORKER = 100_000


def _format_row(row: np.ndarray) -> str:
    return ",".join(map(repr, row.tolist()))


def _format_block(block: np.ndarray):
    return (f"{_format_row(row)}\n" for row in block)


def _fork_block(block: np.ndarray) -> tuple:
    """Fork a child that writes ``block``'s text to a pipe and exits.

    Returns the child's pid and the read end of its pipe. The child never
    returns: it leaves with ``os._exit``, 0 only once all bytes are sent.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            # The whole block first: the parent reads this pipe only after its
            # own block, so a child writing row by row would stall on a full pipe.
            lines = [line.encode("ascii") for line in _format_block(block)]
            with open(write_end, "wb") as pipe:
                pipe.writelines(lines)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _receive(pid: int, read_end: int, out) -> int | None:
    """Copy a child's bytes from its pipe to ``out`` and reap the child.

    Returns the number of lines copied, or None if the child exited
    non-zero; an interrupted copy kills the child before reaping it.
    """
    lines = 0
    try:
        with open(read_end, "rb") as pipe:
            for chunk in iter(lambda: pipe.read(65536), b""):
                out.write(chunk)
                lines += chunk.count(b"\n")
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        status = os.waitpid(pid, 0)[1]
    return lines if os.waitstatus_to_exitcode(status) == 0 else None


def _write_rows(arr: np.ndarray, fh) -> None:
    """Write ``arr``'s rows to ``fh``, one block per worker in row order.

    This process writes the first block row by row; a forked child formats
    each other block. A block whose child could not be forked, exited
    non-zero or sent another line count is cut off and written here
    instead. No child outlives the call.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = 1
    workers = max(1, min(cpus, arr.shape[0], arr.size // _VALUES_PER_WORKER))
    cuts = [arr.shape[0] * i // workers for i in range(workers + 1)]
    blocks = [arr[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    children = {}
    try:
        for i in range(1, workers):
            try:
                children[i] = _fork_block(blocks[i])
            except OSError:
                pass
        fh.writelines(_format_block(blocks[0]))
        for i, block in enumerate(blocks[1:], start=1):
            fh.flush()
            start = fh.buffer.tell()
            child = children.pop(i, None)
            if child is None or _receive(*child, fh.buffer) != len(block):
                fh.buffer.seek(start)
                fh.buffer.truncate()
                fh.writelines(_format_block(block))
    finally:
        for pid, read_end in children.values():
            os.close(read_end)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def save_matrix_csv(path: str, matrix, comments: list | None = None) -> None:
    """Write a 2-D array as plain CSV with optional leading # comments.

    A matrix with no rows and no comments is written as one empty line.
    The file (a symlink's target) is replaced by a new one of default mode.
    """
    arr = np.atleast_2d(np.asarray(matrix, dtype=float))
    path = os.path.realpath(path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    fh = open(tmp, "x")
    try:
        with fh:
            fh.writelines(f"# {c}\n" for c in comments or [])
            _write_rows(arr, fh)
            if fh.tell() == 0:
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


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
    # item names go space-separated into the `# items:` line of CSV outputs
    for item in obj["items"]:
        name = str(item)
        if not name or any(c.isspace() for c in name):
            raise ParseError(f"{path}: item {name!r} is empty or contains whitespace")
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

"""File formats: numeric CSV, symmetric-matrix CSV, corpora, process JSON.

CSV is comma-separated with full-precision floats, no quoting, and
``#``-prefixed comment lines. Each float is written byte for byte as
``repr`` writes it, by a NumPy port of Schubfach (below) that formats
4,096 values per call, wherever in a row they start. Symmetric matrices
carry a ``# symmetric n=<n>`` first line so readers can validate shape
before parsing. Corpora are whitespace-separated tokens. Pair processes are
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

# ------------------------------------------------------------ float text
#
# Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020)
# picks the shortest decimal that rounds back to the double, the closest of
# those and, on a tie, the even one: the digits of Python's repr. Java's
# Double.toString keeps at least two digits (4.9E-324 for repr's 5e-324), so
# its rescaling of tiny significands is left out and the one-digit-shorter
# pair is tried from s >= 10 on. NumPy has no 128-bit integer: operands are
# uint64 and a product's high word is built from 32-bit halves.
#
# A value's text is cut from 56 bytes, 7 little-endian words, by a keep-mask
# of the same shape, so that each kept run of bytes is contiguous:
#   0: "-" "0" . . . . . d1       sign, the 0 of "0.000..", first digit
#   1, 2: d2..d9, d10..d17        the other 16 of 17 zero-padded digits
#   3: "." "0" "0" "0" . . . d1   the dot, zeros after it, first digit again
#   4, 5: d2..d17                 the digits again, for those after the dot
#   6: "e" sign d d [d] . . sep   exponent, then "," or a newline

_U = np.uint64
_M32, _M63 = _U(2**32 - 1), _U(2**63 - 1)
_ZEROS = _U(0x3030_3030_3030_3030)  # eight ASCII zeros
_TOP = _U(1 << 56)  # the last byte of a word
_P10 = 10 ** np.arange(18, dtype=np.uint64)
_LOW = np.array([int("01" * i or "0", 16) for i in range(9)], np.uint64)  # i low bytes
_G = np.zeros((2, 617), np.uint64)  # g1, g0 for k = -324..292, each made on first use
# Values per formatting call: the call's temporaries take about 250 bytes a value.
_CHUNK = 4096


def _word(text: bytes) -> np.uint64:
    return _U(int.from_bytes(text, "little"))


def _pow10(k: np.ndarray) -> tuple:
    """Schubfach's g = floor(10^-k / 2^r) + 1, r = floor(-k log2 10) - 125,
    as g1 = g >> 63 and g0 = g mod 2^63."""
    i = k + 324
    g1 = _G[0, i]
    if not g1.all():
        for j in set(i[g1 == 0].tolist()):
            e = 324 - j  # -k
            r = ((e * 913_124_641_741) >> 38) - 125
            g = (10 ** max(e, 0) << 1100 - r) // (10 ** max(-e, 0) << 1100) + 1
            _G[:, j] = g >> 63, g & (2**63 - 1)
        g1 = _G[0, i]
    return g1, _G[1, i]


def _mulhi(ah, al, bh, bl):
    """High word of (ah 2^32 + al)(bh 2^32 + bl), all halves below 2^32."""
    lh, hl = al * bh, ah * bl
    mid = (al * bl >> _U(32)) + (lh & _M32) + (hl & _M32)
    return ah * bh + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32))


def _round_odd(y1, y0, x1):
    """Java's ``rop``: g cp / 2^127 rounded to odd, from g1 cp = y1 2^64 + y0
    and the high word x1 of g0 cp, where g = g1 2^63 + g0."""
    z = (y0 >> _U(1)) + x1
    return y1 + (z >> _U(63)) | (z & _M63) + _M63 >> _U(63)


def _plus(hi, lo, g, s):
    """The 128-bit sum (hi 2^64 + lo) + g 2^s, for 0 < s < 64."""
    add = g << s
    lo = lo + add
    return hi + (g >> _U(64) - s) + (lo < add), lo


def _decimal(bits: np.ndarray) -> tuple:
    """17 zero-padded digits and the decimal point's place for each double,
    which is 0.d1..d17 * 10^point; zeros read 0, inf and nan garbage."""
    bq = (bits >> _U(52) & _U(0x7FF)).astype(np.int64)
    t = bits & _U(2**52 - 1)
    c = t + (bq != 0) * _U(2**52)
    irregular = (t == 0) & (bq > 1)
    q = np.maximum(bq, 1) - 1075
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + (-k * 913_124_641_741 >> 38) + 2).astype(np.uint64)
    g1, g0 = _pow10(k)
    # g times the left end, the middle and the right end of the rounding
    # interval: (4c - 2) 2^h, or (4c - 1) 2^h below a power of two, then
    # 4c 2^h and (4c + 2) 2^h; the ends belong to it when c is even
    cp = (c << _U(2)) - _U(2) + irregular << h
    ch, cl = cp >> _U(32), cp & _M32
    y = _mulhi(g1 >> _U(32), g1 & _M32, ch, cl), g1 * cp
    x = _mulhi(g0 >> _U(32), g0 & _M32, ch, cl), g0 * cp
    vbl = _round_odd(*y, x[0]) + (c & _U(1))
    step = h + _U(1) - irregular
    y, x = _plus(*y, g1, step), _plus(*x, g0, step)
    vb = _round_odd(*y, x[0])
    y, x = _plus(*y, g1, h + _U(1)), _plus(*x, g0, h + _U(1))
    vbr = _round_odd(*y, x[0]) - (c & _U(1))
    # s or s + 1, whichever alone lies in the interval, else the closer
    s4 = vb & ~_U(3)
    closer = (vb & _U(3)) + (vb >> _U(2) & _U(1)) > _U(2)
    f = (s4 >> _U(2)) + ((vbl > s4) | (s4 + _U(4) <= vbr) & closer)
    # ... unless exactly one of the two one-digit-shorter neighbours does
    sp4 = s4 // _U(40) * _U(40)
    upin = vbl <= sp4
    shorter = (s4 >= _U(40)) & (upin != (sp4 + _U(40) <= vbr))
    f += shorter * ((sp4 >> _U(2)) + ~upin * _U(10) - f)
    short = f < _U(10**16)
    point = k + 17 - short
    f17 = f + short * _U(9) * f
    sub = np.flatnonzero(bq == 0)
    if sub.size:  # subnormal digits may be fewer; zeros print as 0.0
        fs = f[sub] * (bits[sub] << _U(1) != 0)
        length = np.searchsorted(_P10, fs, "right")
        f17[sub] = fs * _P10[17 - length]
        point[sub] = np.where(fs, k[sub] + length, 1)
    return f17, point


def _ascii8(x):
    """Eight ASCII digits of each x < 10^8, first digit in the low byte."""
    hi = x // _U(10_000)
    v = hi + (x - _U(10_000) * hi << _U(32))
    hi = v * _U(10486) >> _U(20) & _U(0x7F_0000_007F)
    v = hi + (v - _U(100) * hi << _U(16))
    hi = v * _U(103) >> _U(10) & _U(0x000F_000F_000F_000F)
    return hi + (v - _U(10) * hi << _U(8)) + _ZEROS


def _format_floats(values: np.ndarray, start: int, width: int) -> str:
    """The CSV text of ``values`` (contiguous float64), flat indices
    ``start`` on of a row-major table ``width`` values wide: byte for byte
    ``repr`` of each value, then "," or, after a row's last value, a newline."""
    bits = values.view(np.uint64)
    f17, point = _decimal(bits)
    top = f17 // _U(10**16)
    f17 -= top * _U(10**16)
    hi = f17 // _U(10**8)
    digits = _ascii8(np.stack([hi, f17 - hi * _U(10**8)]))
    zeros = 64 - np.frexp((digits ^ _ZEROS).astype(np.float64))[1] >> 3  # trailing, per word
    fixed = (point > -4) & (point <= 16)
    small = fixed & (point <= 0)
    large = fixed & (point > 0)
    # digits before the dot ("d.ddde-05" has 1) and digits written ("100.0" has 4)
    split = point * large + ~fixed
    shown = np.maximum(17 - zeros[1] - (zeros[1] == 8) * zeros[0], (point + 1) * large)
    first = top + _U(ord("0")) << _U(56)
    chars = np.empty((values.size, 7), "<u8")
    chars[:, 0] = first + _word(b"-0")
    chars[:, 1] = chars[:, 4] = digits[0]
    chars[:, 2] = chars[:, 5] = digits[1]
    chars[:, 3] = first + _word(b".000")
    chars[:, 6] = _TOP * _U(ord(","))
    chars[(width - 1 - start) % width :: width, 6] = _TOP * _U(ord("\n"))
    # 0x01 for each byte of the text: split digits from words 0-2, the dot,
    # digits split..shown from words 3-5
    keep = np.empty((values.size, 7), "<u8")
    keep[:, 0] = (bits >> _U(63)) + small * _U(256) + (split > 0) * _TOP
    keep[:, 1] = np.take(_LOW, split - 1, mode="clip")
    keep[:, 2] = np.take(_LOW, split - 9, mode="clip")
    keep[:, 3] = (shown > split) + (np.take(_LOW, -point * small) << _U(8)) + (split == 0) * _TOP
    keep[:, 4] = np.take(_LOW, shown - 1, mode="clip") ^ keep[:, 1]
    keep[:, 5] = np.take(_LOW, shown - 9, mode="clip") ^ keep[:, 2]
    keep[:, 6] = _TOP
    sci = np.flatnonzero(~fixed)
    if sci.size:  # "e" and a signed exponent of at least two digits
        e = point[sci] - 1
        wide = np.abs(e) >= 100
        exponent = _ascii8(np.abs(e).astype(np.uint64)) >> _U(24) + _U(8) * ~wide
        chars[sci, 6] += (exponent & _U(0xFF_FFFF_0000)) + _word(b"e+") + (e < 0) * _U(2 << 8)
        keep[sci, 6] += np.take(_LOW, 4 + wide)
    special = np.flatnonzero(bits & _U(0x7FF << 52) == _U(0x7FF << 52))
    if special.size:  # "inf", "-inf" or "nan" in word 1
        nan = bits[special] & _U(2**52 - 1) != 0
        chars[special, 1] = np.where(nan, _word(b"nan"), _word(b"inf"))
        keep[special] = np.array([0, _LOW[3], 0, 0, 0, 0, _TOP], np.uint64)
        keep[special, 0] = (bits[special] >> _U(63)) * ~nan
    return chars.view(np.uint8)[keep.view(bool)].tobytes().decode("ascii")


def _format_block(block: np.ndarray):
    """The CSV text of ``block``'s rows, in pieces of ``_CHUNK`` values."""
    rows, width = block.shape
    if width == 0:
        return ["\n" * rows]
    return (_format_floats(block.flat[lo : lo + _CHUNK], lo, width)
            for lo in range(0, block.size, _CHUNK))


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

    This process writes the first block a formatted chunk at a time; a
    forked child formats each other block. A block whose child could not be forked, exited
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
    So are Python's ``_`` digit separators, which `float` would accept:
    ``1_0`` is a typo, not ten.
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
            if "_" in line:
                bad = next(f for f in fields if "_" in f)
                raise ParseError(f"{path}:{lineno}: digit separator in {bad.strip()!r}")
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

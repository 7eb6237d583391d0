"""JSON in and out: the readers every input parser shares, and
deterministic text output (JSON, JSON lines, and CSV wave dumps).

Every number is rendered with 17 significant digits so repeated runs on
the same platform produce byte-identical files.  The stdlib json module
emits only strings, because its float repr is version-dependent.
"""
from __future__ import annotations

import itertools
import json
import math
from json.encoder import encode_basestring
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .dyadic import DyadicWave
from .errors import ValidationError
from .grid import GridWave

WAVE_CSV_HEADER = "x_left,x_right,re,im,abs2"


# The input readers; each names a refused value by its path, e.g. steps[2].clean.
def read_json(path: str):
    """The JSON value in the file at path.  A file that does not decode,
    including an integer literal past Python's digit limit or nesting past
    its recursion limit, is refused naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


def expect_int(value, path: str, minimum: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}: must be >= {minimum}, got {value}")
    return value


def expect_int_list(value, path: str) -> Tuple[int, ...]:
    if not isinstance(value, list):
        raise ValidationError(f"{path}: expected a list of integers, got {value!r}")
    return tuple(expect_int(v, f"{path}[{i}]") for i, v in enumerate(value))


def is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def expect_number(value, path: str) -> float:
    """value as a finite float; NaN, an infinity and an integer past float
    range are refused."""
    if not is_number(value):
        raise ValidationError(f"{path}: expected a number, got {value!r}")
    try:
        if math.isfinite(x := float(value)):
            return x
    except OverflowError:
        pass
    raise ValidationError(f"{path}: expected a finite number, got {value!r}")


def format_float(v: float) -> str:
    v = float(v)
    if math.isnan(v) or math.isinf(v):
        raise ValidationError(f"non-finite value {v!r} in output")
    return f"{v:.17g}"


def json_dumps(obj) -> str:
    """Compact deterministic JSON with fixed float formatting."""
    parts: List[str] = []
    _emit(obj, parts)
    return "".join(parts)


def _emit(obj, parts: List[str]) -> None:
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(float(obj)))
    elif isinstance(obj, str):
        parts.append(encode_basestring(obj))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, item in enumerate(obj):
            if i:
                parts.append(",")
            _emit(item, parts)
        parts.append("]")
    elif isinstance(obj, dict):
        parts.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise ValidationError(f"JSON object keys must be strings, got {k!r}")
            if i:
                parts.append(",")
            parts.append(encode_basestring(k))
            parts.append(":")
            _emit(v, parts)
        parts.append("}")
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__} value {obj!r}")



def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_dumps(obj))
        fh.write("\n")


def write_jsonl(path: str, objs: Iterable) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for obj in objs:
            fh.write(json_dumps(obj))
            fh.write("\n")


def dyadic_cells(w: DyadicWave) -> Tuple[np.ndarray, float, float, np.ndarray]:
    """(cells, origin, step, values) of a dyadic wave: cell k starts at k 2^-level."""
    return w.offset + np.arange(w.n_cells), 0.0, w.width, w.coeffs


def grid_cells(g: GridWave) -> Tuple[np.ndarray, float, float, np.ndarray]:
    """(cells, origin, step, values) of a grid wave: sample j starts at x_min + j h."""
    return np.arange(g.n), g.x_min, g.h, g.samples


CSV_CHUNK_ROWS = 1024


def _strings(values: np.ndarray, lo: int, hi: int) -> Iterable[str]:
    """values[lo:hi], or one scalar repeated, as format_float renders them."""
    if values.ndim == 0:
        return itertools.repeat("%.17g" % float(values), hi - lo)
    return map("%.17g".__mod__, values[lo:hi].tolist())


def write_wave_csv(path: str, cells, origin: float, step: float, re, im, abs2) -> None:
    """Write one row (x_left, x_right, re, im, abs2) per given cell, cell k
    spanning origin + k step .. origin + (k+1) step; the cells are strictly
    increasing integers.  re, im and abs2 are arrays or scalars.  Every value
    is checked finite before the file is opened, so none is left half written."""
    cells = np.asarray(cells, dtype=np.int64)
    cols = [np.asarray(c, dtype=np.float64) for c in (re, im, abs2)]
    n = cells.size
    if cells.ndim != 1 or any(c.ndim and c.shape != (n,) for c in cols):
        raise ValidationError(f"CSV columns do not match {n} cells")
    if np.any(cells[1:] <= cells[:-1]):
        raise ValidationError("CSV cells must be strictly increasing")
    # the edges are monotone in k, so the outermost two bound the rest
    with np.errstate(over="ignore", invalid="ignore"):
        ends = origin + (cells[[0, -1]] + [0, 1]) * step if n else np.zeros(0)
    for c in (ends, *cols):
        if not np.isfinite(c).all():
            raise ValidationError(f"non-finite value {float(c[~np.isfinite(c)][0])!r} in output")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(WAVE_CSV_HEADER + "\n")
        for lo in range(0, n, CSV_CHUNK_ROWS):
            chunk = cells[lo : lo + CSV_CHUNK_ROWS]
            # k lists each distinct edge once, in order; row i spans
            # k[at[i]] .. k[at[i] + 1], the next row's left edge unless a
            # gap follows
            gap = np.append(chunk[1:] > chunk[:-1] + 1, True)
            at = np.arange(chunk.size) + np.cumsum(gap) - gap
            k = np.empty(chunk.size + np.count_nonzero(gap), dtype=np.int64)
            k[at], k[at + 1] = chunk, chunk + 1
            e = list(_strings(origin + k * step, 0, k.size))
            left, right = map(e.__getitem__, at.tolist()), map(e.__getitem__, (at + 1).tolist())
            rows = zip(left, right, *(_strings(c, lo, lo + chunk.size) for c in cols))
            fh.write("\n".join(map(",".join, rows)) + "\n")


def write_cells_csv(path: str, cells, origin: float, step: float, values: np.ndarray) -> None:
    """``write_wave_csv`` of complex cell values, with abs2 = re*re + im*im."""
    re, im = values.real, values.imag
    write_wave_csv(path, cells, origin, step, re, im, re * re + im * im)

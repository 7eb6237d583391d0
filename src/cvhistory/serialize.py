"""Deterministic text output: JSON, JSON lines, and CSV wave dumps.

Every number is rendered with 17 significant digits so repeated runs on
the same platform produce byte-identical files.  The stdlib json module
is avoided for emission because its float repr is version-dependent.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, List, Tuple

import numpy as np

from .dyadic import DyadicWave
from .errors import ValidationError
from .grid import GridWave

WAVE_CSV_HEADER = "x_left,x_right,re,im,abs2"


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
        parts.append(_escape(obj))
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
            parts.append(_escape(k))
            parts.append(":")
            _emit(v, parts)
        parts.append("}")
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__} value {obj!r}")


_ESCAPES = {
    '"': '\\"',
    "\\": "\\\\",
    "\b": "\\b",
    "\f": "\\f",
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def _escape(s: str) -> str:
    out = ['"']
    for ch in s:
        if ch in _ESCAPES:
            out.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


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

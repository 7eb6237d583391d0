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


def dyadic_edges(level: int, offset: int, n_cells: int) -> np.ndarray:
    """The n_cells + 1 boundaries of dyadic cells offset .. offset + n_cells."""
    return (offset + np.arange(n_cells + 1)) * 2.0 ** (-level)


def dyadic_cells(w: DyadicWave) -> Tuple[np.ndarray, np.ndarray]:
    """(edges, values) of a dyadic wave, one value per cell."""
    return dyadic_edges(w.level, w.offset, w.n_cells), w.coeffs


def grid_cells(g: GridWave) -> Tuple[np.ndarray, np.ndarray]:
    """(edges, values) of a grid wave: sample j covers [x_min + j h, x_min + (j+1) h)."""
    return g.x_min + np.arange(g.n + 1) * g.h, g.samples


CSV_CHUNK_ROWS = 1024


def _strings(values: np.ndarray, lo: int, hi: int) -> Iterable[str]:
    """values[lo:hi], or one scalar repeated, as format_float renders them."""
    if values.ndim == 0:
        return itertools.repeat("%.17g" % float(values), hi - lo)
    return map("%.17g".__mod__, values[lo:hi].tolist())


def write_wave_csv(path: str, edges, re, im, abs2) -> None:
    """Write one row (x_left, x_right, re, im, abs2) per cell, row k spanning
    edges[k]..edges[k+1].  re, im and abs2 are arrays or scalars.  Every value
    is checked finite before the file is opened, so none is left half written."""
    edges, *cols = (np.asarray(c, dtype=np.float64) for c in (edges, re, im, abs2))
    n = edges.size - 1
    if edges.ndim != 1 or n < 0 or any(c.ndim and c.shape != (n,) for c in cols):
        raise ValidationError(f"CSV columns do not match {edges.size} cell edges")
    for c in (edges, *cols):
        if not np.isfinite(c).all():
            raise ValidationError(f"non-finite value {float(c[~np.isfinite(c)][0])!r} in output")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(WAVE_CSV_HEADER + "\n")
        for lo in range(0, n, CSV_CHUNK_ROWS):
            hi = min(lo + CSV_CHUNK_ROWS, n)
            e = list(_strings(edges, lo, hi + 1))
            rows = zip(e, e[1:], *(_strings(c, lo, hi) for c in cols))
            fh.write("\n".join(map(",".join, rows)) + "\n")


def write_cells_csv(path: str, edges: np.ndarray, values: np.ndarray) -> None:
    """``write_wave_csv`` of complex cell values, with abs2 = re*re + im*im."""
    re, im = values.real, values.imag
    write_wave_csv(path, edges, re, im, re * re + im * im)

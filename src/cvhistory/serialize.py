"""Deterministic text output: JSON, JSON lines, and CSV wave dumps.

Every number is rendered with 17 significant digits so repeated runs on
the same platform produce byte-identical files.  The stdlib json module
is avoided for emission because its float repr is version-dependent.
"""
from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Tuple

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


# (x_left, x_right, re, im, abs2), one CSV line each
WaveRow = Tuple[float, float, float, float, float]


def _value_row(x_left: float, x_right: float, value: complex) -> WaveRow:
    re, im = value.real, value.imag
    return x_left, x_right, re, im, re * re + im * im


def dyadic_csv_rows(w: DyadicWave) -> Iterator[WaveRow]:
    width = w.width
    return (
        _value_row((w.offset + k) * width, (w.offset + k + 1) * width, complex(c))
        for k, c in enumerate(w.coeffs)
    )


def grid_csv_rows(g: GridWave) -> Iterator[WaveRow]:
    return (
        _value_row(g.x_min + j * g.h, g.x_min + (j + 1) * g.h, complex(v))
        for j, v in enumerate(g.samples)
    )


def write_wave_csv(path: str, rows: Iterable[WaveRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(WAVE_CSV_HEADER)
        fh.write("\n")
        for row in rows:
            fh.write(",".join(format_float(v) for v in row))
            fh.write("\n")

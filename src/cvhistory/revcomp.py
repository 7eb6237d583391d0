"""Classical truth tables and their reversible lifts.

An irreversible function f on n_in bits becomes the involution
(x, y) -> (x, f(x) (-) y) on a widened register, where (-) is bitwise
XOR or subtraction mod 2^m_out.  Both choices make the lift its own
inverse, so applying it twice uncomputes cleanly.
"""
from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ResourceLimitError, ValidationError, check_integers, int64_vector, is_integer
from .serialize import expect_int, expect_int_list, read_json

MAX_PAIR_BITS = 20
# The widest n_in or m_out a TruthTable takes.  No table near it can be
# held or lifted (the byte budget and MAX_PAIR_BITS refuse far narrower
# ones); the bound keeps 2^n_in, 2^m_out and a lift's 2^(n_in + m_out)
# small enough to form, and to print in a message.
MAX_TABLE_BITS = 4096


def _check_widths(n_in, m_out) -> None:
    """Table widths: integers, not bools, n_in >= 0, m_out >= 1, neither past MAX_TABLE_BITS."""
    widths = (("n_in", n_in), ("m_out", m_out))
    for name, width in widths:
        if not is_integer(width):
            raise ValidationError(f"{name} must be an integer, got {width!r}")
    if n_in < 0:
        raise ValidationError(f"n_in must be nonnegative, got {n_in}")
    if m_out < 1:
        raise ValidationError(f"m_out must be at least 1, got {m_out}")
    for name, width in widths:
        if width > MAX_TABLE_BITS:
            raise ValidationError(f"{name} must be at most {MAX_TABLE_BITS}, got {width}")


class SubtractMode(enum.Enum):
    XOR = "xor"
    MOD_SUB = "mod_sub"


@dataclass(frozen=True, eq=False)
class TruthTable:
    """f: [0, 2^n_in) -> [0, 2^m_out) as an output vector indexed by x.

    The table keeps its lift per mode once ``reversible`` has built it, so
    every step that shares the table shares the lift."""

    n_in: int
    m_out: int
    outputs: np.ndarray
    _lifts: Dict[SubtractMode, ReversiblePermutation] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self):
        _check_widths(self.n_in, self.m_out)
        outputs = check_integers("outputs", self.outputs, ValidationError)
        try:
            arr = np.array(outputs, dtype=np.int64)
        except OverflowError:
            i, v = next((i, v) for i, v in enumerate(outputs) if not -(1 << 63) <= v < 1 << 63)
            raise ValidationError(f"outputs[{i}] = {v} outside the int64 range") from None
        if arr.ndim != 1 or arr.size != 1 << self.n_in:
            raise ValidationError(
                f"outputs must have length 2^{self.n_in} = {1 << self.n_in}, got {arr.size}"
            )
        bad = np.flatnonzero((arr < 0) | (arr >= 1 << self.m_out))
        if bad.size:
            i = int(bad[0])
            raise ValidationError(
                f"outputs[{i}] = {int(arr[i])} outside [0, {1 << self.m_out})"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "outputs", arr)

    def __call__(self, x: int) -> int:
        if not 0 <= x < 1 << self.n_in:
            raise DomainError(f"input {x} outside [0, {1 << self.n_in})")
        return int(self.outputs[x])

    def reversible(self, mode: SubtractMode) -> ReversiblePermutation:
        """The lift under mode, built by build_reversible on first use."""
        p = self._lifts.get(mode)
        if p is None:
            p = self._lifts[mode] = build_reversible(self, mode)
        return p


def table_from_dict(d: dict) -> TruthTable:
    """Build a TruthTable from the JSON object form
    {"n_in": int, "m_out": int, "outputs": [int, ...]}."""
    if not isinstance(d, dict):
        raise ValidationError(f"truth table must be a JSON object, got {type(d).__name__}")
    for key in ("n_in", "m_out", "outputs"):
        if key not in d:
            raise ValidationError(f"truth table missing required key '{key}'")
    n_in = expect_int(d["n_in"], "n_in")
    m_out = expect_int(d["m_out"], "m_out")
    return TruthTable(n_in, m_out, expect_int_list(d["outputs"], "outputs"))


def table_from_json(path: str) -> TruthTable:
    return table_from_dict(read_json(path))


_ADDER_RE = re.compile(r"^ADDER\((\d+)\)$")
_CONST_RE = re.compile(r"^CONST\((\d+),(\d+),(\d+)\)$")


def check_pair_bits(
    n_in: int, m_out: int, error: Callable[[str], Exception] = ResourceLimitError
) -> None:
    """Refuse, raising ``error``, a lift of n_in + m_out pair bits past
    MAX_PAIR_BITS: build_reversible forms every one of its pairs."""
    if n_in + m_out > MAX_PAIR_BITS:
        raise error(
            f"pair register of {n_in + m_out} bits exceeds the "
            f"{MAX_PAIR_BITS}-bit exhaustive-construction limit"
        )


def table_name_key(name: str) -> str:
    """The spelling of a table name that named_table reads."""
    return name.strip().upper().replace(" ", "")


def named_table(name: str) -> TruthTable:
    """Library tables: AND, OR, XOR (two inputs, one output), ADDER(k)
    (two k-bit addends, k+1-bit sum), CONST(n_in,m_out,value)."""
    key = table_name_key(name)
    if key == "AND":
        return TruthTable(2, 1, np.array([0, 0, 0, 1]))
    if key == "OR":
        return TruthTable(2, 1, np.array([0, 1, 1, 1]))
    if key == "XOR":
        return TruthTable(2, 1, np.array([0, 1, 1, 0]))
    m = _ADDER_RE.match(key)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise ValidationError(f"ADDER({k}) outside supported sizes")
        check_pair_bits(2 * k, k + 1, ValidationError)
        x = np.arange(1 << (2 * k))
        return TruthTable(2 * k, k + 1, (x & ((1 << k) - 1)) + (x >> k))
    m = _CONST_RE.match(key)
    if m:
        n_in, m_out, value = (int(g) for g in m.groups())
        check_pair_bits(n_in, m_out, ValidationError)
        if value >= 1 << m_out:
            raise ValidationError(f"CONST value {value} does not fit in {m_out} bits")
        return TruthTable(n_in, m_out, np.full(1 << n_in, value))
    raise ValidationError(
        f"unknown table name {name!r}; expected AND, OR, XOR, ADDER(k) or CONST(n,m,v)"
    )


def eval_forward(tt: TruthTable, mode: SubtractMode, x: int, y: int) -> Tuple[int, int]:
    """(x, y) -> (x, f(x) (-) y) by direct arithmetic."""
    if not 0 <= x < 1 << tt.n_in:
        raise DomainError(f"x = {x} outside [0, {1 << tt.n_in})")
    if not 0 <= y < 1 << tt.m_out:
        raise DomainError(f"y = {y} outside [0, {1 << tt.m_out})")
    f = int(tt.outputs[x])
    if mode is SubtractMode.XOR:
        return x, f ^ y
    if mode is SubtractMode.MOD_SUB:
        return x, (f - y) % (1 << tt.m_out)
    raise DomainError(f"unknown mode {mode!r}")


@dataclass(frozen=True, eq=False)
class ReversiblePermutation:
    """Bijection on (x, y) pairs fixing x: y_map[x][y] gives the new y.

    The constructor copies y_map and checks that every row is a
    bijection on y.  build_reversible, whose arithmetic makes every row
    one, wraps its fresh map with ``_adopt`` instead."""

    n_in: int
    m_out: int
    mode: SubtractMode
    y_map: np.ndarray

    def __post_init__(self):
        _check_widths(self.n_in, self.m_out)
        arr = np.array(self.y_map, dtype=np.int64)
        shape = (1 << self.n_in, 1 << self.m_out)
        if arr.shape != shape:
            raise ValidationError(f"y_map shape {arr.shape} does not match {shape}")
        m = 1 << self.m_out
        if np.any(arr < 0) or np.any(arr >= m):
            raise ValidationError("y_map contains out-of-range values")
        if not np.all(np.sort(arr, axis=1) == np.arange(m)):
            x_bad = int(np.flatnonzero(np.any(np.sort(arr, axis=1) != np.arange(m), axis=1))[0])
            raise ValidationError(f"y_map row x = {x_bad} is not a bijection on y")
        arr.setflags(write=False)
        object.__setattr__(self, "y_map", arr)

    @classmethod
    def _adopt(cls, n_in: int, m_out: int, mode: SubtractMode, y_map: np.ndarray) -> "ReversiblePermutation":
        """Wrap a fresh int64 y_map of shape (2^n_in, 2^m_out) whose rows
        are bijections on y, without copying or checking it; it becomes
        read-only."""
        y_map.setflags(write=False)
        p = object.__new__(cls)
        vars(p).update(n_in=n_in, m_out=m_out, mode=mode, y_map=y_map)
        return p

    def apply(self, x: int, y: int) -> Tuple[int, int]:
        if not 0 <= x < 1 << self.n_in:
            raise DomainError(f"x = {x} outside [0, {1 << self.n_in})")
        if not 0 <= y < 1 << self.m_out:
            raise DomainError(f"y = {y} outside [0, {1 << self.m_out})")
        return x, int(self.y_map[x, y])


def build_reversible(tt: TruthTable, mode: SubtractMode) -> ReversiblePermutation:
    """Lift the table to the involution (x, y) -> (x, f(x) (-) y).

    The map is formed once, in place, at its own 8 * 2^(n_in + m_out)
    bytes.  XOR with f(x), or subtraction from f(x) mod 2^m_out, is a
    bijection on y for every x, so the map is adopted unchecked."""
    check_pair_bits(tt.n_in, tt.m_out)
    y = np.arange(1 << tt.m_out)
    f = tt.outputs[:, None]
    if mode is SubtractMode.XOR:
        y_map = f ^ y
    elif mode is SubtractMode.MOD_SUB:
        # on int64, & (2^m_out - 1) is % 2^m_out, negative differences too
        y_map = np.subtract(f, y)
        y_map &= (1 << tt.m_out) - 1
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return ReversiblePermutation._adopt(tt.n_in, tt.m_out, mode, y_map)


def check_involution(p: ReversiblePermutation) -> Tuple[bool, Optional[Tuple[int, int]]]:
    """Exhaustively verify p(p(x, y)) = (x, y); report a counterexample."""
    twice = np.take_along_axis(p.y_map, p.y_map, axis=1)
    bad = np.argwhere(twice != np.arange(1 << p.m_out))
    if bad.size:
        x, y = int(bad[0][0]), int(bad[0][1])
        return False, (x, y)
    return True, None


def check_fields(n_in: int, m_out: int, x_qubits: Sequence[int], y_qubits: Sequence[int]) -> None:
    """The x and y qubit fields of an n_in -> m_out pair map: one qubit per
    x bit and per y bit, no qubit named twice."""
    if len(x_qubits) != n_in or len(y_qubits) != m_out:
        raise ValidationError(
            f"table needs {n_in} x-qubits and {m_out} y-qubits, "
            f"got {len(x_qubits)} and {len(y_qubits)}"
        )
    if len(set(x_qubits) | set(y_qubits)) != n_in + m_out:
        raise ValidationError("x_qubits and y_qubits must be disjoint")


def as_register_permutation(
    p: ReversiblePermutation,
    x_qubits: Sequence[int],
    y_qubits: Sequence[int],
    n_total: int,
    rows: np.ndarray,
) -> np.ndarray:
    """The images of n_total-qubit basis rows under the embedded pair map.

    x_qubits[j] holds bit j of x (least significant first); likewise for
    y.  Unlisted qubits are spectators.  ``rows`` are the basis indices
    to map, in any order and with repeats, and entry i of the result is
    the image of rows[i]; the temporaries hold n_in + m_out values per
    row.
    """
    check_fields(p.n_in, p.m_out, x_qubits, y_qubits)
    all_q = [*x_qubits, *y_qubits]
    for q in all_q:
        if not is_integer(q):
            raise ValidationError(f"qubit index must be an integer, got {q!r}")
    if any(q < 0 or q >= n_total for q in all_q):
        raise ValidationError(f"qubit index outside [0, {n_total}) in {sorted(all_q)}")
    idx = int64_vector("rows", rows)
    m = p.m_out
    # qubit all_q[k] is bit to[k] of the flat index x * 2^m_out + y of y_map
    at = np.array(all_q, dtype=np.int64)
    to = np.array([m + j for j in range(p.n_in)] + list(range(m)), dtype=np.int64)
    bits = idx[:, None] >> at
    bits &= 1
    bits <<= to
    flat = bits.sum(axis=1)
    # the low m_out bits of flat are y; y ^ y2 marks the y bits that flip
    flips = (flat ^ p.y_map.ravel()[flat]) & ((1 << m) - 1)
    bits = flips[:, None] >> to[p.n_in :]
    bits &= 1
    bits <<= at[p.n_in :]
    return idx ^ bits.sum(axis=1)

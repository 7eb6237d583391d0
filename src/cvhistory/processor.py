"""Program-driven step loop with ancilla cleanup into the history mode.

A program acts on data qubits [0, n_data) and ancilla qubits
[n_data, n_data + n_anc).  Each step applies one reversible operation (a
named gate or a lifted truth table) and then erases the listed ancillas
into the shared CV mode, so the ancilla pool stays constant while the
CV level grows by one per erasure.  Metrics captured after every step
quantify cleanup exactness and history-induced decoherence.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import qubits
from .dyadic import check_bytes, check_level, indicator_unit
from .erasure import (
    HybridState,
    apply_basis_permutation,
    apply_qubit_gate,
    apply_row_phases,
    erase,
    hybrid_reduced_density,
    lift,
    residual_weight,
)
from .errors import ContractError, ResourceLimitError, ValidationError, check_count, is_integer
from .qubits import RegisterState, basis_state, purity
from .revcomp import (
    SubtractMode,
    TruthTable,
    as_register_permutation,
    check_fields,
    named_table,
    table_from_dict,
    table_from_json,
    table_name_key,
)
from .serialize import expect_int, expect_int_list, read_json

SINGLE_QUBIT_GATES: Dict[str, np.ndarray] = {
    "X": qubits.X,
    "Y": qubits.Y,
    "Z": qubits.Z,
    "H": qubits.H,
    "S": qubits.S,
    "T": qubits.T,
}
TWO_QUBIT_GATES = ("CNOT", "SWAP", "CZ")


@dataclass(frozen=True)
class GateOp:
    """Named gate on explicit target qubits (control first for CNOT)."""

    name: str
    targets: Tuple[int, ...]

    def __post_init__(self):
        arity = 1 if self.name in SINGLE_QUBIT_GATES else 2 if self.name in TWO_QUBIT_GATES else 0
        if not arity:
            raise ValidationError(f"unknown gate {self.name!r}", "gate")
        if len(self.targets) != arity or len(set(self.targets)) != arity:
            shape = "one target" if arity == 1 else "two distinct targets"
            raise ValidationError(f"gate {self.name} takes {shape}, got {self.targets}", "targets")


@dataclass(frozen=True)
class TableOp:
    """Reversible truth-table lift acting on x and y qubit fields."""

    table: TruthTable
    mode: SubtractMode
    x_qubits: Tuple[int, ...]
    y_qubits: Tuple[int, ...]

    def __post_init__(self):
        check_fields(self.table.n_in, self.table.m_out, self.x_qubits, self.y_qubits)


@dataclass(frozen=True)
class ProgramStep:
    """An op, then the erasure of each ``clean`` qubit, listed once."""

    op: Union[GateOp, TableOp]
    clean: Tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.op, (GateOp, TableOp)):
            raise ValidationError(f"unknown op type {type(self.op).__name__}", "op")
        for j, q in enumerate(self.clean):
            if q in self.clean[:j]:
                raise ValidationError(f"qubit {q} is listed twice", f"clean[{j}]")


@dataclass(frozen=True)
class Program:
    """A program that passes both start rules, which run when it is built
    on its counts, each read as a nonnegative integer."""

    data: int
    ancilla: int
    cv_level: int
    steps: Tuple[ProgramStep, ...]

    def __post_init__(self):
        for name in ("data", "ancilla", "cv_level"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        resource_report(self.steps, self.cv_level)
        _check_joint_table(self.data, self.ancilla, self.cv_level)


@dataclass(frozen=True)
class StepMetrics:
    ancilla_residual: float
    data_purity: float
    cv_level: int
    joint_cells: int
    entries: int
    norm2: float


@dataclass(frozen=True)
class ProcessorState:
    hybrid: HybridState
    data_count: int
    anc_count: int
    step_index: int
    data_purity: Optional[float] = None  # after the last step; None before the first


@dataclass(frozen=True)
class ResourceReport:
    plain_reversible_ancillas: int
    cv_scheme_qubits: int
    cv_final_level: int

    @property
    def joint_cells(self) -> int:
        """The cells of [0,1) at the final level, a bound on the hull."""
        return 1 << self.cv_final_level


def _check_joint_table(n_data: int, n_anc: int, cv_level: int) -> None:
    """The start checks against the byte budget, before anything is
    allocated: the level-cv_level indicator, the starting table of
    2^(data + ancilla) rows by 2^cv_level cells and the data density."""
    check_bytes(f"cv_level: the level-{cv_level} indicator of 2^{cv_level} cells", cv_level, 1)
    n_total = n_data + n_anc
    joint = f"data + ancilla + cv_level: a joint table of 2^{n_total} rows by 2^{cv_level} cells"
    check_bytes(joint, n_total + cv_level, 1)
    # The density is held on its occupied support, but qubits.trace_out
    # builds that support x support block with no check of its own, and
    # once every data row carries weight (H on each data qubit) it is the
    # full 2^data x 2^data: without this check the run would end in a late
    # out-of-memory error, not exit 3.
    check_bytes(f"data: a 2^{n_data} x 2^{n_data} density matrix", 2 * n_data, 1)


def init(n_data: int, n_anc: int, data_state: RegisterState, cv_level: int = 0) -> ProcessorState:
    """Data register joined with zeroed ancillas and the unit-interval CV."""
    n_data, n_anc = check_count("n_data", n_data), check_count("n_anc", n_anc)
    if data_state.n_qubits != n_data:
        raise ValidationError(
            f"data state has {data_state.n_qubits} qubits, expected {n_data}"
        )
    check_count("cv_level", cv_level)
    _check_joint_table(n_data, n_anc, cv_level)
    h = lift(data_state, indicator_unit(cv_level))
    # the zeroed ancillas are the high bits: widening keeps every row
    return ProcessorState(
        hybrid=HybridState._adopt(n_data + n_anc, h.level, h.rows, h.cells, h.amps, (h.offset, h.n_cells)),
        data_count=n_data,
        anc_count=n_anc,
        step_index=0,
    )


def _check_qubit_type(q, field: str) -> None:
    """A qubit is an integer, a numpy one included, and not a bool."""
    if not is_integer(q):
        raise ValidationError(f"expected an integer qubit, got {q!r}", field)


def _check_step_qubits(step: ProgramStep, n_data: int, n_anc: int) -> None:
    """Every qubit the step names is below n_data + n_anc, and it cleans
    ancillas only; the error's field is relative to the step."""
    n_total = n_data + n_anc
    for label in ("targets",) if isinstance(step.op, GateOp) else ("x_qubits", "y_qubits"):
        for i, q in enumerate(getattr(step.op, label)):
            _check_qubit_type(q, f"op.{label}[{i}]")
            if not 0 <= q < n_total:
                raise ValidationError(f"qubit {q} outside [0, {n_total})", f"op.{label}[{i}]")
    for j, q in enumerate(step.clean):
        _check_qubit_type(q, f"clean[{j}]")
        if not n_data <= q < n_total:
            raise ValidationError(
                f"qubit {q} is not an ancilla (ancillas are [{n_data}, {n_total}))", f"clean[{j}]"
            )


def _apply_gate(h: HybridState, op: GateOp) -> HybridState:
    name = op.name
    if name in SINGLE_QUBIT_GATES:
        return apply_qubit_gate(h, op.targets[0], SINGLE_QUBIT_GATES[name])
    a, b = op.targets
    rows = h.rows
    if name == "CNOT":
        return apply_basis_permutation(h, rows ^ (((rows >> a) & 1) << b))
    if name == "SWAP":
        differ = ((rows >> a) ^ (rows >> b)) & 1
        return apply_basis_permutation(h, rows ^ (differ << a) ^ (differ << b))
    return apply_row_phases(h, 1.0 - 2.0 * ((rows >> a) & (rows >> b) & 1))


def _apply_table(h: HybridState, op: TableOp) -> HybridState:
    new_rows = as_register_permutation(
        op.table.reversible(op.mode), op.x_qubits, op.y_qubits, h.n_qubits, h.rows
    )
    return apply_basis_permutation(h, new_rows)


def _couples_data_to_ancillas(op: Union[GateOp, TableOp], n_data: int) -> bool:
    qs = op.targets if isinstance(op, GateOp) else op.x_qubits + op.y_qubits
    return any(q < n_data for q in qs) and any(q >= n_data for q in qs)


def _metrics(h: HybridState, n_data: int, n_anc: int, data_purity: Optional[float]) -> StepMetrics:
    """Step metrics of h; ``data_purity`` is recomputed when None."""
    residual = 0.0
    if n_anc:
        a = h.amps[(h.rows >> n_data) != 0]
        residual = float(np.sum(a.real**2 + a.imag**2)) * h.width
    if data_purity is None:
        data_purity = 1.0
        if n_data:
            data_purity = purity(hybrid_reduced_density(h, set(range(n_data))))
    return StepMetrics(
        ancilla_residual=residual,
        data_purity=data_purity,
        cv_level=h.level,
        joint_cells=h.n_cells,
        entries=h.amps.size,
        norm2=h.norm2(),
    )


def run_step(ps: ProcessorState, step: ProgramStep) -> Tuple[ProcessorState, StepMetrics]:
    """Apply the step's operation, then erase its listed ancillas."""
    _check_step_qubits(step, ps.data_count, ps.anc_count)
    if isinstance(step.op, GateOp):
        h = _apply_gate(ps.hybrid, step.op)
    else:
        h = _apply_table(ps.hybrid, step.op)
    for q in sorted(step.clean):
        h = erase(h, q)
        leftover = residual_weight(h, q)
        if leftover > 1e-12:
            raise ContractError(
                f"erasure left residual {leftover:.3e} on qubit {q}; internal bug"
            )
    # Tr rho_data^2 is unchanged by a unitary on the data alone or on the
    # rest alone, and every erase acts on one ancilla and the CV; so only
    # an op that couples data to ancillas can change it.
    carried = None if _couples_data_to_ancillas(step.op, ps.data_count) else ps.data_purity
    metrics = _metrics(h, ps.data_count, ps.anc_count, carried)
    ps2 = ProcessorState(h, ps.data_count, ps.anc_count, ps.step_index + 1, metrics.data_purity)
    return ps2, metrics


def run_program(
    ps: ProcessorState, steps: Sequence[ProgramStep]
) -> Tuple[ProcessorState, List[StepMetrics]]:
    """Run the steps in order; a resource limit met mid-run names its step
    as steps[i], the path of the step in the program."""
    trace: List[StepMetrics] = []
    for i, step in enumerate(steps):
        try:
            ps, metrics = run_step(ps, step)
        except ResourceLimitError as exc:
            raise ResourceLimitError(f"steps[{i}]: {exc}") from exc
        trace.append(metrics)
    return ps, trace


def resource_report(steps: Sequence[ProgramStep], cv_level: int = 0) -> ResourceReport:
    """Static accounting: a plain reversible design needs a fresh zeroed
    register per cleaned ancilla, forever; the CV scheme reuses a constant
    pool and pays one CV level per erasure instead.  Steps whose cleans
    would take cv_level past the last exact level are refused: this is
    the level rule, the first start rule a Program runs when built."""
    total_cleans = sum(len(s.clean) for s in steps)
    pool = max((len(s.clean) for s in steps), default=0)
    final_level = check_level(cv_level, total_cleans, "cleans")
    return ResourceReport(
        plain_reversible_ancillas=total_cleans,
        cv_scheme_qubits=pool,
        cv_final_level=final_level,
    )


# ---------------------------------------------------------------------------
# Program JSON ingestion.  Validation messages name the offending field by
# path, e.g. steps[2].op.gate.
# ---------------------------------------------------------------------------


def _at(path: str, exc: ValidationError) -> ValidationError:
    """exc as met at path, extended by the field exc names, if any."""
    where = f"{path}.{exc.field}" if exc.field else path
    return ValidationError(f"{where}: {exc}")


def _parse_table_ref(value, path: str, base_dir: str, tables: Dict[tuple, TruthTable]) -> TruthTable:
    """The table a step refers to.  ``tables`` holds one TruthTable per
    distinct reference, a name however spelled, a file path or an inline
    object, so the steps that share a reference share its table and lifts."""
    if isinstance(value, str):
        key = ("name", table_name_key(value))
    elif isinstance(value, dict) and "file" in value:
        ref = value["file"]
        if not isinstance(ref, str):
            raise ValidationError(f"{path}.file: expected a path string, got {ref!r}")
        key = ("file", os.path.join(base_dir, ref))
    elif isinstance(value, dict):
        key = ("inline", id(value))
    else:
        raise ValidationError(f"{path}: expected a name, inline table, or file reference")
    if key not in tables:
        kind, ref = key
        if kind == "name":
            tables[key] = named_table(value)
        elif kind == "file":
            tables[key] = table_from_json(ref)
        else:
            tables[key] = table_from_dict(value)
    return tables[key]


def _held_values(op: TableOp, held: set) -> int:
    """The int64 values that op's table and its lift in op's mode add to
    those already in ``held``: each table once, each lift once per mode."""
    added = 0
    lift_values = 1 << (op.table.n_in + op.table.m_out)
    for key, values in ((op.table, op.table.outputs.size), ((op.table, op.mode), lift_values)):
        if key not in held:
            held.add(key)
            added += values
    return added


def _parse_op(obj, path: str, base_dir: str, tables: Dict[tuple, TruthTable]) -> Union[GateOp, TableOp]:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object, got {obj!r}")
    if "gate" in obj:
        name = obj["gate"]
        if not isinstance(name, str):
            raise ValidationError(f"{path}.gate: expected a string, got {name!r}")
        targets = expect_int_list(obj.get("targets"), f"{path}.targets")
        try:
            return GateOp(name.upper(), targets)
        except ValidationError as exc:
            raise _at(path, exc) from exc
    if "table" in obj:
        try:
            table = _parse_table_ref(obj["table"], f"{path}.table", base_dir, tables)
        except ValidationError as exc:
            raise ValidationError(f"{path}.table: {exc}") from exc
        mode_raw = obj.get("mode", "xor")
        try:
            mode = SubtractMode(mode_raw)
        except ValueError:
            raise ValidationError(
                f"{path}.mode: expected 'xor' or 'mod_sub', got {mode_raw!r}"
            ) from None
        x_qubits = expect_int_list(obj.get("x_qubits"), f"{path}.x_qubits")
        y_qubits = expect_int_list(obj.get("y_qubits"), f"{path}.y_qubits")
        try:
            return TableOp(table, mode, x_qubits, y_qubits)
        except ValidationError as exc:
            raise _at(path, exc) from exc
    raise ValidationError(f"{path}: op must contain either 'gate' or 'table'")


def parse_program(obj: dict, base_dir: str = ".") -> Program:
    """Validate and build a Program from its JSON object form: the JSON
    types here, each program rule where the op and step are built and in
    _check_step_qubits.  The tables, and the lifts their steps will build,
    must fit the byte budget together; the first step past it is named."""
    if not isinstance(obj, dict):
        raise ValidationError(f"program: expected an object, got {type(obj).__name__}")
    data = expect_int(obj.get("data"), "data", minimum=1)
    ancilla = expect_int(obj.get("ancilla"), "ancilla", minimum=0)
    cv_level = expect_int(obj.get("cv_level", 0), "cv_level", minimum=0)
    steps_raw = obj.get("steps")
    if not isinstance(steps_raw, list):
        raise ValidationError(f"steps: expected a list, got {steps_raw!r}")
    steps = []
    tables: Dict[tuple, TruthTable] = {}
    held: set = set()
    held_values = 0
    for i, s in enumerate(steps_raw):
        path = f"steps[{i}]"
        if not isinstance(s, dict):
            raise ValidationError(f"{path}: expected an object, got {s!r}")
        op = _parse_op(s.get("op"), f"{path}.op", base_dir, tables)
        clean = expect_int_list(s.get("clean", []), f"{path}.clean")
        try:
            step = ProgramStep(op, clean)
            _check_step_qubits(step, data, ancilla)
        except ValidationError as exc:
            raise _at(path, exc) from exc
        if isinstance(op, TableOp):
            held_values += _held_values(op, held)
            what = f"{path}.op.table: holding {8 * held_values} bytes of tables and lifts"
            check_bytes(what, 0, held_values, itemsize=8)
        steps.append(step)
    return Program(data, ancilla, cv_level, tuple(steps))


def load_program(path: str) -> Program:
    return parse_program(read_json(path), base_dir=os.path.dirname(path) or ".")


def init_from_program(program: Program, data_basis: int = 0) -> ProcessorState:
    # the program's start rules bound the 2^data register built here
    return init(
        program.data, program.ancilla, basis_state(program.data, data_basis), program.cv_level
    )

"""Program-driven step loop with ancilla cleanup into the history mode.

A program acts on data qubits [0, n_data) and ancilla qubits
[n_data, n_data + n_anc).  Each step applies one reversible operation (a
named gate or a lifted truth table) and then erases the listed ancillas
into the shared CV mode, so the ancilla pool stays constant while the
CV level grows by one per erasure.  Metrics captured after every step
quantify cleanup exactness and history-induced decoherence.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
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
from .errors import ContractError, ResourceLimitError, ValidationError
from .qubits import RegisterState, basis_state, purity
from .revcomp import (
    SubtractMode,
    TruthTable,
    as_register_permutation,
    named_table,
    table_from_dict,
    table_from_json,
)

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


@dataclass(frozen=True)
class TableOp:
    """Reversible truth-table lift acting on x and y qubit fields."""

    table: TruthTable
    mode: SubtractMode
    x_qubits: Tuple[int, ...]
    y_qubits: Tuple[int, ...]


@dataclass(frozen=True)
class ProgramStep:
    op: Union[GateOp, TableOp]
    clean: Tuple[int, ...]


@dataclass(frozen=True)
class Program:
    data: int
    ancilla: int
    cv_level: int
    steps: Tuple[ProgramStep, ...]

    @property
    def n_total(self) -> int:
        return self.data + self.ancilla


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
    history: Tuple[StepMetrics, ...] = field(default_factory=tuple)

    def data_qubits(self) -> range:
        return range(self.data_count)


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
    if data_state.n_qubits != n_data:
        raise ValidationError(
            f"data state has {data_state.n_qubits} qubits, expected {n_data}"
        )
    if n_anc < 0:
        raise ValidationError(f"ancilla count must be nonnegative, got {n_anc}")
    _check_joint_table(n_data, n_anc, cv_level)
    h = lift(data_state, indicator_unit(cv_level))
    # the zeroed ancillas are the high bits: widening keeps every row
    return ProcessorState(
        hybrid=HybridState(n_data + n_anc, h.level, h.rows, h.cells, h.amps),
        data_count=n_data,
        anc_count=n_anc,
        step_index=0,
    )


def _check_gate_shape(name: str, targets: Tuple[int, ...]) -> None:
    """A single-qubit gate takes one target, a two-qubit gate two distinct
    ones."""
    if name in SINGLE_QUBIT_GATES and len(targets) != 1:
        raise ValidationError(f"gate {name} takes one target, got {targets}")
    if name in TWO_QUBIT_GATES and (len(targets) != 2 or targets[0] == targets[1]):
        raise ValidationError(f"gate {name} takes two distinct targets, got {targets}")


def _apply_gate(h: HybridState, op: GateOp, n_total: int) -> HybridState:
    name = op.name
    if any(not 0 <= q < n_total for q in op.targets):
        raise ValidationError(f"gate {name} targets {op.targets} outside [0, {n_total})")
    if name not in SINGLE_QUBIT_GATES and name not in TWO_QUBIT_GATES:
        raise ValidationError(f"unknown gate {name!r}")
    _check_gate_shape(name, op.targets)
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


def _apply_table(h: HybridState, op: TableOp, n_total: int) -> HybridState:
    new_rows = as_register_permutation(
        op.table.reversible(op.mode), op.x_qubits, op.y_qubits, n_total, h.rows
    )
    return apply_basis_permutation(h, new_rows)


def _couples_data_to_ancillas(op: Union[GateOp, TableOp], n_data: int) -> bool:
    qs = op.targets if isinstance(op, GateOp) else op.x_qubits + op.y_qubits
    return any(q < n_data for q in qs) and any(q >= n_data for q in qs)


def _metrics(ps: ProcessorState, data_purity: Optional[float]) -> StepMetrics:
    """Step metrics of ps; ``data_purity`` is recomputed when None."""
    h = ps.hybrid
    residual = 0.0
    if ps.anc_count:
        a = h.amps[(h.rows >> ps.data_count) != 0]
        residual = float(np.sum(a.real**2 + a.imag**2)) * h.width
    if data_purity is None:
        data_purity = 1.0
        if ps.data_count:
            data_purity = purity(hybrid_reduced_density(h, set(ps.data_qubits())))
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
    n_total = ps.data_count + ps.anc_count
    anc_lo = ps.data_count
    for q in step.clean:
        if not anc_lo <= q < n_total:
            raise ValidationError(
                f"clean target {q} is not an ancilla (ancillas are [{anc_lo}, {n_total}))"
            )
    if isinstance(step.op, GateOp):
        h = _apply_gate(ps.hybrid, step.op, n_total)
    elif isinstance(step.op, TableOp):
        h = _apply_table(ps.hybrid, step.op, n_total)
    else:
        raise ValidationError(f"unknown op type {type(step.op).__name__}")
    for q in sorted(step.clean):
        h = erase(h, q)
        leftover = residual_weight(h, q)
        if leftover > 1e-12:
            raise ContractError(
                f"erasure left residual {leftover:.3e} on qubit {q}; internal bug"
            )
    ps2 = ProcessorState(
        hybrid=h,
        data_count=ps.data_count,
        anc_count=ps.anc_count,
        step_index=ps.step_index + 1,
        history=ps.history,
    )
    # Tr rho_data^2 is unchanged by a unitary on the data alone or on the
    # rest alone, and every erase acts on one ancilla and the CV; so only
    # an op that couples data to ancillas can change it.
    carried = None
    if ps.history and not _couples_data_to_ancillas(step.op, ps.data_count):
        carried = ps.history[-1].data_purity
    metrics = _metrics(ps2, carried)
    ps2 = replace(ps2, history=ps.history + (metrics,))
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
    pool and pays one CV level per erasure instead.  A program whose final
    level would pass the last exact level is refused; both commands run
    this first and ``_check_joint_table`` next."""
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


def _expect_int(
    value, path: str, minimum: Optional[int] = None, maximum: Optional[int] = None
) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{path}: must be <= {maximum}, got {value}")
    return value


def _expect_int_list(value, path: str) -> List[int]:
    if not isinstance(value, list):
        raise ValidationError(f"{path}: expected a list of integers, got {value!r}")
    out = []
    for i, v in enumerate(value):
        out.append(_expect_int(v, f"{path}[{i}]"))
    return out


def _parse_table_ref(value, path: str, base_dir: str, tables: Dict[tuple, TruthTable]) -> TruthTable:
    """The table a step refers to.  ``tables`` holds one TruthTable per
    distinct reference, a name, a file path or an inline object, so the
    steps that share a reference share its table and its lifts."""
    if isinstance(value, str):
        key = ("name", value)
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
            tables[key] = named_table(ref)
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


def _parse_op(
    obj, path: str, n_total: int, base_dir: str, tables: Dict[tuple, TruthTable]
) -> Union[GateOp, TableOp]:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object, got {obj!r}")
    if "gate" in obj:
        name = obj["gate"]
        if not isinstance(name, str):
            raise ValidationError(f"{path}.gate: expected a string, got {name!r}")
        name = name.upper()
        if name not in SINGLE_QUBIT_GATES and name not in TWO_QUBIT_GATES:
            raise ValidationError(f"{path}.gate: unknown gate {name!r}")
        targets = tuple(_expect_int_list(obj.get("targets"), f"{path}.targets"))
        for i, q in enumerate(targets):
            if not 0 <= q < n_total:
                raise ValidationError(
                    f"{path}.targets[{i}]: qubit {q} outside [0, {n_total})"
                )
        try:
            _check_gate_shape(name, targets)
        except ValidationError as exc:
            raise ValidationError(f"{path}.targets: {exc}") from exc
        return GateOp(name, targets)
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
        x_qubits = _expect_int_list(obj.get("x_qubits"), f"{path}.x_qubits")
        y_qubits = _expect_int_list(obj.get("y_qubits"), f"{path}.y_qubits")
        for label, lst in (("x_qubits", x_qubits), ("y_qubits", y_qubits)):
            for i, q in enumerate(lst):
                if not 0 <= q < n_total:
                    raise ValidationError(
                        f"{path}.{label}[{i}]: qubit {q} outside [0, {n_total})"
                    )
        if len(x_qubits) != table.n_in or len(y_qubits) != table.m_out:
            raise ValidationError(
                f"{path}: table needs {table.n_in} x-qubits and {table.m_out} "
                f"y-qubits, got {len(x_qubits)} and {len(y_qubits)}"
            )
        if set(x_qubits) & set(y_qubits) or len(set(x_qubits)) != len(x_qubits) or len(
            set(y_qubits)
        ) != len(y_qubits):
            raise ValidationError(f"{path}: x_qubits and y_qubits must be disjoint")
        return TableOp(table, mode, tuple(x_qubits), tuple(y_qubits))
    raise ValidationError(f"{path}: op must contain either 'gate' or 'table'")


def parse_program(obj: dict, base_dir: str = ".") -> Program:
    """Validate and build a Program from its JSON object form.  The
    tables, and the lifts their steps will build, must fit the byte
    budget together; the first step past it is named."""
    if not isinstance(obj, dict):
        raise ValidationError(f"program: expected an object, got {type(obj).__name__}")
    data = _expect_int(obj.get("data"), "data", minimum=1)
    ancilla = _expect_int(obj.get("ancilla"), "ancilla", minimum=0)
    cv_level = _expect_int(obj.get("cv_level", 0), "cv_level", minimum=0)
    n_total = data + ancilla
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
        op = _parse_op(s.get("op"), f"{path}.op", n_total, base_dir, tables)
        if isinstance(op, TableOp):
            held_values += _held_values(op, held)
            what = f"{path}.op.table: holding {8 * held_values} bytes of tables and lifts"
            check_bytes(what, 0, held_values, itemsize=8)
        clean = _expect_int_list(s.get("clean", []), f"{path}.clean")
        for j, q in enumerate(clean):
            if not 0 <= q < n_total:
                raise ValidationError(f"{path}.clean[{j}]: qubit {q} outside [0, {n_total})")
            if q < data:
                raise ValidationError(
                    f"{path}.clean[{j}]: qubit {q} is a data qubit and may not be erased"
                )
            if q in clean[:j]:
                raise ValidationError(f"{path}.clean[{j}]: qubit {q} is listed twice")
        steps.append(ProgramStep(op, tuple(clean)))
    return Program(data, ancilla, cv_level, tuple(steps))


def load_program(path: str) -> Program:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    return parse_program(obj, base_dir=os.path.dirname(path) or ".")


def init_from_program(program: Program, data_basis: int = 0) -> ProcessorState:
    # the data register itself is allocated before init could check it
    _check_joint_table(program.data, program.ancilla, program.cv_level)
    return init(
        program.data, program.ancilla, basis_state(program.data, data_basis), program.cv_level
    )

"""Benchmark workloads: seeded scenario generators and output oracles.

Pure standard-library Python.  run.py uses it to check outputs without
importing cvhistory; child.py uses it to write the scenario file that
the CLI reads.  The oracles restate the paper's
closed forms (the ``tensor_oracle`` product formula and the reversible
lift arithmetic of ``eval_forward``) rather than calling the library,
so a defect shared by the simulator and its own oracle still shows.
"""
from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

DEFAULT_SEED = 1234
REL_TOL = 1e-12

# Table outputs for the two-input, one-output library tables.
GATE_TABLES = {"AND": (0, 0, 0, 1), "OR": (0, 1, 1, 1), "XOR": (0, 1, 1, 0)}

# Spans every traced invocation of a workload must record at least once;
# a zero count means a wrapper was not bound where the program calls it.
_COMMON_SPANS = ("cli.load_scenario", "cli.cmd", "serialize.write_json")
_PROCESSOR_SPANS = _COMMON_SPANS + (
    "processor.parse_program",
    "processor.init",
    "processor.run_program",
    "processor.run_step",
    "revcomp.build_reversible",
    "revcomp.as_register_permutation",
    "erasure.apply_basis_permutation",
    "erasure.lift",
    "erasure.erase",
    "erasure.require_unit_support",
    "erasure.unfold",
    "erasure.cond_translate",
    "erasure.cond_flip",
    "erasure.squeeze_all",
    "erasure.residual_weight",
    "erasure.HybridState",
    "erasure.hybrid_reduced_density",
    "erasure.cv_factor",
    "qubits.trace_out",
    "qubits.purity",
    "dyadic.DyadicWave",
)


class OracleError(Exception):
    """An output file disagrees with the workload's closed form."""


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise OracleError(msg)


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read_jsonl(path: str) -> List[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_wave_csv(path: str, level: int) -> Dict[int, Tuple[complex, float]]:
    """Map absolute dyadic cell index -> (re + i im, abs2) for one CSV dump."""
    scale = float(1 << level)
    cells: Dict[int, Tuple[complex, float]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        _check(header == "x_left,x_right,re,im,abs2", f"{path}: header {header!r}")
        for line in fh:
            x_left, x_right, re, im, abs2 = (float(v) for v in line.split(","))
            k = round(x_left * scale)
            _check(
                k == x_left * scale and x_right * scale == k + 1,
                f"{path}: row [{x_left}, {x_right}) is not a level-{level} cell",
            )
            cells[k] = (complex(re, im), abs2)
    return cells


def _compare(what: str, got: Dict[int, float], expect: Dict[int, float]) -> float:
    """Worst |got - expect| over the union of cells, relative to the peak."""
    peak = max(abs(v) for v in expect.values())
    worst = 0.0
    for k in set(got) | set(expect):
        worst = max(worst, abs(got.get(k, 0.0) - expect.get(k, 0.0)))
    _check(worst <= REL_TOL * peak, f"{what}: error {worst:.3e} exceeds {REL_TOL:g} x peak {peak:.6g}")
    return worst / peak


def history_wave(pairs: List[Tuple[complex, complex]]) -> List[complex]:
    """Closed-form CV wave after erasing qubits (a_i, b_i) into the unit
    indicator: cell k at level n holds 2^(n/2) * prod_i c_i(bit i of k),
    with c_i(0) = a_i and c_i(1) = b_i."""
    n = len(pairs)
    vals = [2.0 ** (n / 2.0)] * (1 << n)
    for i, (a, b) in enumerate(pairs):
        for k in range(1 << n):
            vals[k] *= b if (k >> i) & 1 else a
    return vals


# ---------------------------------------------------------------------------
# erase_demo_n11
# ---------------------------------------------------------------------------

ERASE_PAIRS = 11


def _unit_pair(rng: random.Random) -> Tuple[complex, complex]:
    a = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    b = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
    norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
    return a / norm, b / norm


def erase_demo_scenario(seed: int) -> dict:
    rng = random.Random(seed)
    pairs = [_unit_pair(rng) for _ in range(ERASE_PAIRS)]
    return {
        "kind": "erase-demo",
        "backend": "dyadic",
        "cv_level": 0,
        "pairs": [[[a.real, a.imag], [b.real, b.imag]] for a, b in pairs],
    }


def _scenario_pairs(scenario: dict) -> List[Tuple[complex, complex]]:
    return [(complex(*a), complex(*b)) for a, b in scenario["pairs"]]


def check_erase_demo(scenario: dict, out_dir: str, stdout: str) -> None:
    pairs = _scenario_pairs(scenario)
    n = len(pairs)
    trace = _read_json(os.path.join(out_dir, "trace.json"))
    _check(len(trace) == n + 1, f"trace.json: {len(trace)} entries, expected {n + 1}")
    for i, entry in enumerate(trace):
        _check(entry["step"] == i, f"trace[{i}].step = {entry['step']}")
        _check(entry["level"] == i, f"trace[{i}].level = {entry['level']}, expected {i}")
        _check(entry["ancilla_residual"] == 0.0, f"trace[{i}].ancilla_residual != 0.0")
    # Intermediate dumps carry the factored register's phase, so compare
    # densities there; the last step has the register in |0...0> and must
    # match the closed form as complex amplitudes.
    for j in range(1, n):
        cells = _read_wave_csv(os.path.join(out_dir, trace[j]["wave"]), j)
        expect = {k: abs(v) ** 2 for k, v in enumerate(history_wave(pairs[:j]))}
        _compare(f"step {j} abs2", {k: c[1] for k, c in cells.items()}, expect)
    cells = _read_wave_csv(os.path.join(out_dir, trace[n]["wave"]), n)
    expect = dict(enumerate(history_wave(pairs)))
    _compare(f"step {n} amplitude", {k: c[0] for k, c in cells.items()}, expect)


# ---------------------------------------------------------------------------
# processor_entangled_c16
# ---------------------------------------------------------------------------

ENT_DATA, ENT_LIFTS = 3, 16


def entangled_scenario(seed: int) -> dict:
    """Branch x = 0 records 0 on every lift (each table maps (0, 0) to 0),
    and a seeded branch x* != 0 is held to record 1 on every lift, so the
    table's cell hull is the full [0, 2^L) after each clean whatever the
    seed: the seed varies which cells are filled, not the table size."""
    rng = random.Random(seed)
    star = rng.randrange(1, 1 << ENT_DATA)
    steps = [{"op": {"gate": "H", "targets": [q]}} for q in range(ENT_DATA)]
    while len(steps) < ENT_DATA + ENT_LIFTS:
        table = rng.choice(sorted(GATE_TABLES))
        qa, qb = rng.sample(range(ENT_DATA), 2)
        if GATE_TABLES[table][((star >> qa) & 1) | (((star >> qb) & 1) << 1)] != 1:
            continue
        op = {"table": table, "mode": "xor", "x_qubits": [qa, qb], "y_qubits": [ENT_DATA]}
        steps.append({"op": op, "clean": [ENT_DATA]})
    program = {"data": ENT_DATA, "ancilla": 1, "cv_level": 0, "steps": steps}
    return {"kind": "processor", "program": program, "data_basis": 0}


def _check_metrics(lines: List[dict], steps: List[dict], purity_one: bool) -> None:
    _check(len(lines) == len(steps), f"metrics.jsonl: {len(lines)} lines for {len(steps)} steps")
    cleans = 0
    for i, (m, st) in enumerate(zip(lines, steps), start=1):
        cleans += len(st.get("clean", []))
        _check(m["step"] == i, f"metrics line {i}: step = {m['step']}")
        _check(m["ancilla_residual"] == 0.0, f"step {i}: ancilla_residual != 0.0")
        _check(m["cv_level"] == cleans, f"step {i}: cv_level {m['cv_level']}, expected {cleans}")
        if purity_one:
            _check(abs(m["data_purity"] - 1.0) <= REL_TOL, f"step {i}: data_purity {m['data_purity']!r}")


def entangled_density(scenario: dict) -> Dict[int, float]:
    """CV marginal density: sum over data basis x of |history_wave(x)|^2 / 2^n_data.
    Each branch history is a sequence of basis pairs, so its wave is one
    cell of amplitude 2^(L/2) at the index its bits spell."""
    lifts = [s["op"] for s in scenario["program"]["steps"] if "table" in s["op"]]
    level = len(lifts)
    density: Dict[int, float] = {}
    for x in range(1 << ENT_DATA):
        k = 0
        for i, op in enumerate(lifts):
            qa, qb = op["x_qubits"]
            arg = ((x >> qa) & 1) | (((x >> qb) & 1) << 1)
            k |= GATE_TABLES[op["table"]][arg] << i
        density[k] = density.get(k, 0.0) + 2.0**level / (1 << ENT_DATA)
    return density


def check_entangled(scenario: dict, out_dir: str, stdout: str) -> None:
    steps = scenario["program"]["steps"]
    _check_metrics(_read_jsonl(os.path.join(out_dir, "metrics.jsonl")), steps, purity_one=False)
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    _check(summary["entangled_final_cv"] is True, "summary: entangled_final_cv is not true")
    _check(summary["cv_level"] == ENT_LIFTS, f"summary: cv_level {summary['cv_level']}")
    cells = _read_wave_csv(os.path.join(out_dir, "final_wave.csv"), ENT_LIFTS)
    _check(all(c[0] == 0 for c in cells.values()), "final_wave.csv: re/im not zero in a marginal dump")
    _compare("final abs2", {k: c[1] for k, c in cells.items()}, entangled_density(scenario))


# ---------------------------------------------------------------------------
# processor_wide_adder3
# ---------------------------------------------------------------------------

WIDE_DATA, WIDE_LIFTS, WIDE_CLEAN_EVERY, ADDER_K = 10, 32, 8, 3
WIDE_X = list(range(2 * ADDER_K))
WIDE_Y = list(range(2 * ADDER_K, 3 * ADDER_K + 1))


def wide_scenario(seed: int) -> dict:
    rng = random.Random(seed)
    steps = []
    for i in range(WIDE_LIFTS):
        op = {
            "table": f"ADDER({ADDER_K})",
            "mode": "xor" if i % 2 == 0 else "mod_sub",
            "x_qubits": WIDE_X,
            "y_qubits": WIDE_Y,
        }
        steps.append({"op": op})
        if i % WIDE_CLEAN_EVERY == WIDE_CLEAN_EVERY - 1:
            steps.append({"op": {"gate": "CNOT", "targets": [WIDE_Y[-1], WIDE_DATA]}, "clean": [WIDE_DATA]})
    program = {"data": WIDE_DATA, "ancilla": 1, "cv_level": 0, "steps": steps}
    return {"kind": "processor", "program": program, "data_basis": rng.randrange(1 << WIDE_DATA)}


def wide_history_cell(scenario: dict) -> int:
    """Cell index of the single-cell final wave: the copied top sum bit
    after every WIDE_CLEAN_EVERY-th lift, bit i for clean i."""
    basis = scenario["data_basis"]
    x = sum(((basis >> q) & 1) << j for j, q in enumerate(WIDE_X))
    y = sum(((basis >> q) & 1) << j for j, q in enumerate(WIDE_Y))
    f = (x & ((1 << ADDER_K) - 1)) + (x >> ADDER_K)
    m = 1 << len(WIDE_Y)
    k, cleans = 0, 0
    for i in range(WIDE_LIFTS):
        y = f ^ y if i % 2 == 0 else (f - y) % m
        if i % WIDE_CLEAN_EVERY == WIDE_CLEAN_EVERY - 1:
            k |= ((y >> (len(WIDE_Y) - 1)) & 1) << cleans
            cleans += 1
    return k


def check_wide(scenario: dict, out_dir: str, stdout: str) -> None:
    steps = scenario["program"]["steps"]
    _check_metrics(_read_jsonl(os.path.join(out_dir, "metrics.jsonl")), steps, purity_one=True)
    level = WIDE_LIFTS // WIDE_CLEAN_EVERY
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    _check(summary["entangled_final_cv"] is False, "summary: final CV is not a product")
    _check(summary["cv_level"] == level, f"summary: cv_level {summary['cv_level']}")
    cells = _read_wave_csv(os.path.join(out_dir, "final_wave.csv"), level)
    expect = {wide_history_cell(scenario): complex(2.0 ** (level / 2.0))}
    _compare("final amplitude", {k: c[0] for k, c in cells.items()}, expect)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

VALIDATE_SUITES = 31


def validate_scenario(seed: int) -> dict:
    return {"kind": "validate", "seed": seed}


def check_validate(scenario: dict, out_dir: str, stdout: str) -> None:
    report = _read_json(os.path.join(out_dir, "validation_report.json"))
    passed = sum(1 for r in report if r["pass"] is True)
    _check(len(report) == VALIDATE_SUITES, f"validation_report: {len(report)} suites")
    _check(passed == VALIDATE_SUITES, f"validation_report: {passed}/{len(report)} suites passed")
    line = f"validate: {VALIDATE_SUITES}/{VALIDATE_SUITES} suites passed"
    _check(line in stdout.splitlines(), f"stdout lacks {line!r}")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    make_scenario: Callable[[int], dict]
    check: Callable[[dict, str, str], None]
    expected_spans: Tuple[str, ...]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "erase_demo_n11",
            "erase-demo",
            erase_demo_scenario,
            check_erase_demo,
            _COMMON_SPANS
            + (
                "erasure.lift",
                "erasure.erase_sequence",
                "erasure.erase",
                "erasure.require_unit_support",
                "erasure.unfold",
                "erasure.cond_translate",
                "erasure.cond_flip",
                "erasure.squeeze_all",
                "erasure.residual_weight",
                "erasure.HybridState",
                "erasure.cv_factor",
                "dyadic.DyadicWave",
                "serialize.write_wave_csv",
            ),
        ),
        Workload(
            "processor_entangled_c16",
            "processor",
            entangled_scenario,
            check_entangled,
            _PROCESSOR_SPANS + ("erasure.apply_qubit_gate",),
        ),
        Workload(
            "processor_wide_adder3",
            "processor",
            wide_scenario,
            check_wide,
            _PROCESSOR_SPANS + ("serialize.write_wave_csv",),
        ),
        Workload(
            "validate",
            "validate",
            validate_scenario,
            check_validate,
            _COMMON_SPANS
            + (
                "validation.run_all",
                "validation.suite.erase_oracle_equivalence",
                "validation.suite.grid_dilation_generator",
                "validation.suite.grid_pipeline_cross_check",
                "processor.init",
                "processor.run_step",
                "revcomp.build_reversible",
                "revcomp.as_register_permutation",
                "erasure.apply_basis_permutation",
                "erasure.apply_qubit_gate",
                "erasure.erase_sequence",
                "erasure.erase",
                "erasure.cond_translate",
                "erasure.cond_flip",
                "erasure.squeeze_all",
                "erasure.residual_weight",
                "erasure.HybridState",
                "erasure.hybrid_reduced_density",
                "erasure.tensor_oracle",
                "erasure.grid_erase",
                "qubits.trace_out",
                "qubits.purity",
                "dyadic.DyadicWave",
                "dyadic.max_abs_diff",
                "grid.translate_spectral",
                "grid.dilation_generator",
            ),
        ),
    )
}

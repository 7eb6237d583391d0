"""Command-line front end.

Four subcommands, each reading one scenario JSON file:

  erase-demo  run a sequence of ancilla erasures and dump the CV wave
              per step (CSV) plus a JSON trace
  validate    run every registered property suite, write a JSON report
  processor   run a program through the step loop, write a JSON-lines
              metrics trace and the final CV dump
  resource    static resource accounting for a program

The command line is read by ``read_argv``, not argparse, whose help
text lookup imports ``locale`` on every run:

  cvhistory [-h | --help] COMMAND SCENARIO [--out-dir DIR | --out-dir=DIR]

The flag may come before, between or after the two positionals, at most
once; ``--`` ends the options, so a SCENARIO that starts with ``-``
follows it, and a DIR that does takes the ``--out-dir=DIR`` form.
``-h`` or ``--help`` prints the help and exits 0.  Any other flag, an
abbreviation such as ``--out`` included, a repeated ``--out-dir``, a
third positional, or a missing or unknown COMMAND exits 2 with argparse's
shape: a ``usage:`` line, then ``cvhistory: error: ...``.

Exit codes: 0 success, 1 validation failure (a numeric check failed),
2 input or schema error, 3 resource limit.  All state comes from the
scenario file, plus --out-dir; no environment variables are consulted.
Output is deterministic byte-for-byte for a fixed scenario and seed.
"""
from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field, fields
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dyadic import DyadicWave, check_bytes, check_level, indicator_unit
from .dyadic import norm2 as wave_norm2
from .erasure import (
    GridHybrid,
    cv_factor,
    erase_sequence,
    grid_erase,
    lift,
)
from .errors import (
    ContractError,
    DomainError,
    ResourceLimitError,
    SimulationError,
    ValidationError,
)
from .grid import GridWave, check_window
from .processor import (
    Program,
    StepMetrics,
    init_from_program,
    load_program,
    parse_program,
    resource_report,
    run_program,
)
from .qubits import RegisterState
from .serialize import (
    dyadic_cells,
    expect_int,
    expect_number,
    format_float,
    grid_cells,
    is_number,
    json_dumps,
    read_json,
    write_cells_csv,
    write_json,
    write_jsonl,
    write_wave_csv,
)
from .validation import run_all

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3

# The exit code of each error class; the first class that matches wins.
EXIT_CODES = (
    ((ValidationError, DomainError, OSError), EXIT_BAD_INPUT),
    (ResourceLimitError, EXIT_RESOURCE),
    (SimulationError, EXIT_CHECK_FAILED),
)

DEFAULT_GRID_WINDOW = (-2.0, 2.0)
DEFAULT_GRID_N = 4096

# The scenario keys each command reads; any other key exits 2.
SCENARIO_KEYS = {
    "erase-demo": ("kind", "backend", "grid", "pairs", "cv_level", "out_dir"),
    "validate": ("kind", "seed", "out_dir"),
    "processor": ("kind", "program", "data_basis", "out_dir"),
    "resource": ("kind", "program", "out_dir"),
}


@dataclass
class ScenarioConfig:
    kind: str
    backend: str = "dyadic"
    seed: Optional[int] = None
    out_dir: str = "out"
    grid_window: Tuple[float, float] = DEFAULT_GRID_WINDOW
    grid_n: int = DEFAULT_GRID_N
    pairs: List[Tuple[complex, complex]] = field(default_factory=list)
    cv_level: int = 0
    program: Optional[Program] = None
    data_basis: int = 0


def _parse_amplitude(value, path: str) -> complex:
    if isinstance(value, list) and len(value) == 2 and all(map(is_number, value)):
        return complex(expect_number(value[0], f"{path}[0]"), expect_number(value[1], f"{path}[1]"))
    if not is_number(value):
        raise ValidationError(f"{path}: amplitude must be a number or [re, im], got {value!r}")
    return complex(expect_number(value, path))


def _parse_pairs(value, path: str) -> List[Tuple[complex, complex]]:
    if not isinstance(value, list):
        raise ValidationError(f"{path}: expected a list of amplitude pairs")
    pairs = []
    for i, entry in enumerate(value):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ValidationError(f"{path}[{i}]: expected [alpha, beta]")
        a = _parse_amplitude(entry[0], f"{path}[{i}][0]")
        b = _parse_amplitude(entry[1], f"{path}[{i}][1]")
        norm2 = abs(a) ** 2 + abs(b) ** 2
        if abs(norm2 - 1.0) > 1e-9:
            raise ValidationError(
                f"{path}[{i}]: pair is not normalized (|alpha|^2+|beta|^2 = {norm2!r})"
            )
        pairs.append((a, b))
    return pairs


def load_scenario(path: str, kind: str, out_dir: Optional[str] = None) -> ScenarioConfig:
    """The scenario file at path, read as a ``kind`` run; ``out_dir``, from
    --out-dir, replaces the file's when given."""
    try:
        raw = read_json(path)
    except FileNotFoundError:
        raise ValidationError(f"scenario file not found: {path}") from None
    if not isinstance(raw, dict):
        raise ValidationError(f"{path}: scenario must be a JSON object")

    for key in raw:
        if key not in SCENARIO_KEYS[kind]:
            raise ValidationError(f"{key}: unknown scenario key for kind {kind!r}")

    declared = raw.get("kind", kind)
    if declared != kind:
        raise ValidationError(f"kind: scenario declares {declared!r} but command is {kind!r}")

    cfg = ScenarioConfig(kind=kind)
    if kind == "erase-demo":
        cfg.backend = raw.get("backend", "dyadic")
        if cfg.backend not in ("dyadic", "grid"):
            raise ValidationError(f"backend: expected 'dyadic' or 'grid', got {cfg.backend!r}")
        # grid options go with the grid backend, never with the dyadic one
        if cfg.backend == "dyadic" and "grid" in raw:
            raise ValidationError("grid: options are only valid with backend 'grid'")
        if cfg.backend == "grid" and "grid" not in raw:
            raise ValidationError("grid: backend 'grid' requires a grid options object")

    if "grid" in raw:
        gopts = raw["grid"]
        if not isinstance(gopts, dict):
            raise ValidationError("grid: expected an object with 'window' and 'n'")
        for key in gopts:
            if key not in ("window", "n"):
                raise ValidationError(f"grid.{key}: unknown grid option")
        window = gopts.get("window", list(DEFAULT_GRID_WINDOW))
        if not isinstance(window, list) or len(window) != 2:
            raise ValidationError("grid.window: expected [x_min, x_max]")
        lo, hi = (expect_number(v, f"grid.window[{k}]") for k, v in enumerate(window))
        if not lo < hi:
            raise ValidationError(f"grid.window: empty window [{lo}, {hi})")
        n = expect_int(gopts.get("n", DEFAULT_GRID_N), "grid.n", minimum=2)
        if n & (n - 1):
            raise ValidationError(f"grid.n: must be a power of two, got {n}")
        try:
            check_window(lo, (hi - lo) / n, n)
        except ValidationError as exc:
            raise ValidationError(f"grid.window: {exc}") from None
        cfg.grid_window = (lo, hi)
        cfg.grid_n = n

    if kind == "validate":
        if "seed" not in raw:
            raise ValidationError("seed: required for validate")
        cfg.seed = expect_int(raw["seed"], "seed", minimum=0)
    if "out_dir" in raw:
        if not isinstance(raw["out_dir"], str):
            raise ValidationError(f"out_dir: expected a string, got {raw['out_dir']!r}")
        cfg.out_dir = raw["out_dir"]
    if out_dir is not None:
        cfg.out_dir = out_dir

    if kind == "erase-demo":
        if "pairs" not in raw:
            raise ValidationError("pairs: required for erase-demo")
        cfg.pairs = _parse_pairs(raw["pairs"], "pairs")
        cfg.cv_level = expect_int(raw.get("cv_level", 0), "cv_level", minimum=0)
    if kind in ("processor", "resource"):
        if "program" not in raw:
            raise ValidationError(f"program: required for {kind}")
        prog_raw = raw["program"]
        base_dir = os.path.dirname(path) or "."
        if isinstance(prog_raw, str):
            cfg.program = load_program(os.path.join(base_dir, prog_raw))
        elif isinstance(prog_raw, dict):
            cfg.program = parse_program(prog_raw, base_dir=base_dir)
        else:
            raise ValidationError("program: expected an object or a file path string")
    if kind == "processor":
        cfg.data_basis = expect_int(raw.get("data_basis", 0), "data_basis", minimum=0)
        # data_basis >= 2^data, without building the power
        if cfg.data_basis.bit_length() > cfg.program.data:
            raise ValidationError(
                f"data_basis: {cfg.data_basis} outside [0, 2^{cfg.program.data})"
            )
    if kind == "erase-demo":
        _check_erase_demo_bounds(cfg)
    return cfg


def _check_erase_demo_bounds(cfg: ScenarioConfig) -> None:
    """Refuse, before anything is allocated, a run that would pass the last
    exact level or whose dense wave, the grid's samples or the 2^level
    cells of the last dyadic wave, would not fit the byte budget."""
    if cfg.backend == "grid" and cfg.cv_level != 0:
        raise ValidationError(
            f"cv_level: the grid backend starts at level 0, got {cfg.cv_level}"
        )
    final = check_level(cfg.cv_level, len(cfg.pairs), "pairs")
    if cfg.backend == "grid":
        check_bytes(f"grid.n: a wave of {cfg.grid_n} samples", 0, cfg.grid_n)
    else:
        prefix = f"cv_level: {cfg.cv_level} plus {len(cfg.pairs)} pairs"
        check_bytes(f"{prefix}: the level-{final} wave of 2^{final} cells", final, 1)


# ---------------------------------------------------------------------------
# erase-demo
# ---------------------------------------------------------------------------


# Each backend supplies the initial wave with its norm, the erasure of one
# pair's qubit into the wave, and the CSV cells of a wave; cmd_erase_demo
# owns the loop, the trace and the dumps.


def _dyadic_start(cfg: ScenarioConfig) -> Tuple[DyadicWave, float]:
    w = indicator_unit(cfg.cv_level)
    return w, wave_norm2(w)


def _dyadic_erase_pair(
    cfg: ScenarioConfig, w: DyadicWave, level: int, a: complex, b: complex
) -> Tuple[DyadicWave, int, float, float]:
    reg = RegisterState(1, np.array([a, b], dtype=np.complex128))
    # the lifted state is freed once erased, before row_wave copies a row
    erased, (st,) = erase_sequence(lift(reg, w), [0])
    if cv_factor(erased) is None:
        raise ContractError(
            f"level {st.level}: state is entangled; erase-demo expects product input"
        )
    return erased.row_wave(0), st.level, st.norm2, st.ancilla_residual


def _grid_start(cfg: ScenarioConfig) -> Tuple[GridWave, float]:
    x_min, x_max = cfg.grid_window
    h_step = (x_max - x_min) / cfg.grid_n
    xs = x_min + h_step * np.arange(cfg.grid_n)
    g = GridWave(x_min, h_step, np.where((xs >= 0.0) & (xs < 1.0), 1.0, 0.0))
    return g, g.norm2()


def _grid_erase_pair(
    cfg: ScenarioConfig, g: GridWave, level: int, a: complex, b: complex
) -> Tuple[GridWave, int, float, float]:
    gh = GridHybrid(1, g.x_min, g.h, np.vstack([a * g.samples, b * g.samples]))
    gh = grid_erase(gh, 0)
    resid = float(g.h * np.sum(gh.amps[1].real ** 2 + gh.amps[1].imag ** 2))
    g = GridWave(g.x_min, g.h, gh.amps[0])
    return g, level + 1, g.norm2(), resid


def cmd_erase_demo(cfg: ScenarioConfig) -> int:
    """Erase each pair's qubit in turn into the CV, reusing one ancilla."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    if cfg.backend == "grid":
        start, erase_pair, cells = _grid_start, _grid_erase_pair, grid_cells
    else:
        start, erase_pair, cells = _dyadic_start, _dyadic_erase_pair, dyadic_cells
    wave, norm2 = start(cfg)
    level, residual = cfg.cv_level, 0.0
    trace = []
    for step in range(len(cfg.pairs) + 1):
        if step:
            a, b = cfg.pairs[step - 1]
            wave, level, norm2, residual = erase_pair(cfg, wave, level, a, b)
        name = f"step_{step:02d}.csv"
        write_cells_csv(os.path.join(cfg.out_dir, name), *cells(wave))
        trace.append(
            {
                "step": step,
                "qubit": 0 if step else None,
                "level": level,
                "norm2": norm2,
                "ancilla_residual": residual,
                "wave": name,
            }
        )
    write_json(os.path.join(cfg.out_dir, "trace.json"), trace)
    print(f"erase-demo: {len(trace)} dumps -> {cfg.out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(cfg: ScenarioConfig) -> int:
    os.makedirs(cfg.out_dir, exist_ok=True)
    results = run_all(cfg.seed)
    report = [
        {
            "suite": r.suite,
            "trials": r.trials,
            "max_error": r.max_error,
            "pass": r.passed,
        }
        for r in results
    ]
    write_json(os.path.join(cfg.out_dir, "validation_report.json"), report)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.suite}: {status} trials={r.trials} max_error={format_float(r.max_error)}")
    failed = [r for r in results if not r.passed]
    print(f"validate: {len(results) - len(failed)}/{len(results)} suites passed")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# processor
# ---------------------------------------------------------------------------


def cmd_processor(cfg: ScenarioConfig) -> int:
    program = cfg.program
    ps = init_from_program(program, data_basis=cfg.data_basis)
    ps, trace = run_program(ps, program.steps)
    h = ps.hybrid
    factored = cv_factor(h)
    # only a run that finished leaves out_dir behind
    os.makedirs(cfg.out_dir, exist_ok=True)
    # a shallow dict of the fields in order; asdict would deep-copy each
    names = [f.name for f in fields(StepMetrics)]
    lines = [{"step": i, **{k: getattr(m, k) for k in names}} for i, m in enumerate(trace, start=1)]
    write_jsonl(os.path.join(cfg.out_dir, "metrics.jsonl"), lines)
    path = os.path.join(cfg.out_dir, "final_wave.csv")
    # one row per stored cell, whatever the width of the hull
    if factored is None:
        # the CV marginal density (re = im = 0)
        cells, slot = np.unique(h.cells, return_inverse=True)
        density = np.bincount(slot, weights=h.amps.real**2 + h.amps.imag**2)
        write_wave_csv(path, cells, 0.0, h.width, 0.0, 0.0, density)
    else:
        write_cells_csv(path, factored[2], 0.0, h.width, factored[3])
    summary = {
        "steps": len(trace),
        "cv_level": h.level,
        "joint_cells": h.n_cells,
        "entries": h.amps.size,
        "norm2": h.norm2(),
        "entangled_final_cv": factored is None,
    }
    write_json(os.path.join(cfg.out_dir, "summary.json"), summary)
    print(
        f"processor: {len(trace)} steps, final level {h.level} -> {cfg.out_dir}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# resource
# ---------------------------------------------------------------------------


def cmd_resource(cfg: ScenarioConfig) -> int:
    program = cfg.program
    rep = resource_report(program.steps, program.cv_level)
    os.makedirs(cfg.out_dir, exist_ok=True)
    obj = {
        "plain_reversible_ancillas": rep.plain_reversible_ancillas,
        "cv_scheme_qubits": rep.cv_scheme_qubits,
        "cv_final_level": rep.cv_final_level,
        "joint_cells": rep.joint_cells,
    }
    write_json(os.path.join(cfg.out_dir, "resource_report.json"), obj)
    print(json_dumps(obj))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_HANDLERS = {
    "erase-demo": cmd_erase_demo,
    "validate": cmd_validate,
    "processor": cmd_processor,
    "resource": cmd_resource,
}


_CHOICES = "{" + ",".join(SCENARIO_KEYS) + "}"

USAGE = f"""usage: cvhistory [-h] [--out-dir DIR]
                 {_CHOICES} scenario"""

HELP = f"""{USAGE}

Simulate erasing ancilla qubits into one continuous history variable.

positional arguments:
  {_CHOICES}
                 the scenario kind to run
  scenario       path to the scenario JSON file

options:
  -h, --help     show this help message and exit
  --out-dir DIR  replaces the scenario's out_dir
"""


class UsageError(Exception):
    """A command line that read_argv refuses; main prints it under the
    usage line and exits 2."""


def read_argv(argv: Sequence[str]) -> Optional[Tuple[str, str, Optional[str]]]:
    """(command, scenario, out_dir) read from ``COMMAND SCENARIO
    [--out-dir DIR]``, out_dir None when the flag is absent; None when
    ``-h`` or ``--help`` asks for the help.  Raises UsageError on any
    other argv, naming the offending arguments."""
    positional: List[str] = []
    unknown: List[str] = []
    out_dir = None
    args = iter(argv)
    for arg in args:
        if arg == "--":
            positional.extend(args)
        elif arg in ("-h", "--help"):
            return None
        elif arg == "--out-dir" or arg.startswith("--out-dir="):
            if out_dir is not None:
                raise UsageError("argument --out-dir: given more than once")
            _, eq, out_dir = arg.partition("=")
            if not eq:
                out_dir = next(args, None)
                if out_dir is None or out_dir.startswith("-"):
                    raise UsageError("argument --out-dir: expected one argument")
        elif arg.startswith("-") and arg != "-":
            unknown.append(arg)
        else:
            positional.append(arg)
    # an unknown flag first: its value would be read as a positional
    if unknown:
        raise UsageError(f"unrecognized arguments: {' '.join(unknown)}")
    if not positional:
        raise UsageError("the following arguments are required: command, scenario")
    command = positional[0]
    if command not in SCENARIO_KEYS:
        choices = ", ".join(map(repr, SCENARIO_KEYS))
        raise UsageError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    if len(positional) < 2:
        raise UsageError("the following arguments are required: scenario")
    if len(positional) > 2:
        raise UsageError(f"unrecognized arguments: {' '.join(positional[2:])}")
    return command, positional[1], out_dir


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = read_argv(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        sys.stderr.write(f"{USAGE}\ncvhistory: error: {exc}\n")
        return EXIT_BAD_INPUT
    if args is None:
        # one write, as argparse does: a reader that stops after the first
        # lines, such as head, leaves no later write to fail on
        sys.stdout.write(HELP)
        return EXIT_OK
    command, scenario, out_dir = args
    try:
        cfg = load_scenario(scenario, command, out_dir)
        return _HANDLERS[command](cfg)
    except (SimulationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())

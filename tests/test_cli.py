"""CLI tests: scenario schema validation, exit codes, output formats,
and byte-for-byte determinism of repeated runs."""
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvhistory
from cvhistory import dyadic, processor, validation
from cvhistory.cli import SCENARIO_KEYS, UsageError, main, read_argv
from cvhistory.erasure import tensor_oracle
from cvhistory.processor import parse_program
from cvhistory.serialize import format_float, json_dumps
from cvhistory.validation import SUITE_NAMES

INV_SQRT2 = 0.7071067811865476
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def write_scenario(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def and_program(n_steps=10):
    return {
        "data": 2,
        "ancilla": 1,
        "cv_level": 0,
        "steps": [
            {
                "op": {"table": "AND", "mode": "xor", "x_qubits": [0, 1], "y_qubits": [2]},
                "clean": [2],
            }
        ]
        * n_steps,
    }


def x_clean_program(n_cleans):
    """One data qubit and one ancilla, set by X and cleaned n_cleans times."""
    step = {"op": {"gate": "X", "targets": [1]}, "clean": [1]}
    return {"data": 1, "ancilla": 1, "steps": [step] * n_cleans}


# X on qubit 21, the top ancilla of a 22-qubit program, then its clean
TOP_CLEAN = {"op": {"gate": "X", "targets": [21]}, "clean": [21]}


def one_step_program(op, clean=()):
    """Two data qubits and one ancilla (qubit 2), running op once."""
    return {"data": 2, "ancilla": 1, "steps": [{"op": op, "clean": list(clean)}]}


def and_op(x_qubits, y_qubits):
    return {"table": "AND", "x_qubits": x_qubits, "y_qubits": y_qubits}


# One program per program rule, each breaking that rule alone: both
# commands exit 2 naming the same field, with the reason given where it
# is pinned.  The two clean-range cases pin the field only.
RULE_REFUSALS = [
    pytest.param(
        one_step_program({"gate": "FOO", "targets": [0]}),
        2,
        "steps[0].op.gate",
        "unknown gate 'FOO'",
        id="unknown-gate-2",
    ),
    pytest.param(
        one_step_program({"gate": "H", "targets": [0, 1]}),
        2,
        "steps[0].op.targets",
        "gate H takes one target, got (0, 1)",
        id="wrong-arity-2",
    ),
    pytest.param(
        one_step_program({"gate": "SWAP", "targets": [1, 1]}),
        2,
        "steps[0].op.targets",
        "gate SWAP takes two distinct targets, got (1, 1)",
        id="equal-targets-2",
    ),
    pytest.param(
        one_step_program({"gate": "CNOT", "targets": [0, 5]}),
        2,
        "steps[0].op.targets[1]",
        "qubit 5 outside [0, 3)",
        id="target-out-of-range-2",
    ),
    pytest.param(
        one_step_program(and_op([0], [2])),
        2,
        "steps[0].op",
        "table needs 2 x-qubits and 1 y-qubits, got 1 and 1",
        id="table-width-2",
    ),
    pytest.param(
        one_step_program(and_op([0, 1], [1])),
        2,
        "steps[0].op",
        "x_qubits and y_qubits must be disjoint",
        id="x-y-overlap-2",
    ),
    pytest.param(
        one_step_program(and_op([0, 0], [2])),
        2,
        "steps[0].op",
        "x_qubits and y_qubits must be disjoint",
        id="x-repeated-2",
    ),
    pytest.param(
        one_step_program(and_op([0, 1], [3])),
        2,
        "steps[0].op.y_qubits[0]",
        "qubit 3 outside [0, 3)",
        id="table-qubit-out-of-range-2",
    ),
    pytest.param(
        one_step_program({"gate": "X", "targets": [2]}, clean=[0]),
        2,
        "steps[0].clean[0]",
        None,
        id="clean-data-qubit-2",
    ),
    pytest.param(
        one_step_program({"gate": "X", "targets": [2]}, clean=[3]),
        2,
        "steps[0].clean[0]",
        None,
        id="clean-out-of-range-2",
    ),
    pytest.param(
        one_step_program({"gate": "X", "targets": [2]}, clean=[2, 2]),
        2,
        "steps[0].clean[1]",
        "qubit 2 is listed twice",
        id="clean-twice-2",
    ),
]


# A scenario each command runs, and a value that each key's own command
# accepts; max_level and variant (a removed erase-demo option) are keys
# that no command reads.
RUNS = {
    "erase-demo": {"backend": "grid", "grid": {"n": 64}, "pairs": [[0.6, 0.8]]},
    "validate": {"seed": 1},
    "processor": {"program": and_program(1)},
    "resource": {"program": and_program(1)},
}
VALUES = {
    "backend": "dyadic",
    "grid": {"n": 64},
    "variant": "outside_unit",
    "pairs": [],
    "cv_level": 0,
    "seed": 1,
    "program": and_program(1),
    "data_basis": 0,
    "max_level": 53,
}
FOREIGN_KEYS = [
    (kind, key)
    for kind, keys in SCENARIO_KEYS.items()
    for key in sorted(set().union(*SCENARIO_KEYS.values()) | {"max_level", "variant"})
    if key not in keys
]


def read_tree(root):
    """All regular files under root as {relative name: bytes}."""
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            full = os.path.join(dirpath, f)
            out[os.path.relpath(full, root)] = Path(full).read_bytes()
    return out


class TestEntryPoint:
    @pytest.mark.parametrize("kind", ["erase-demo", "validate", "processor", "resource"])
    def test_each_command_parses(self, kind):
        assert read_argv([kind, "s.json", "--out-dir", "o"]) == (kind, "s.json", "o")
        assert read_argv([kind, "s.json"]) == (kind, "s.json", None)

    @pytest.mark.parametrize(
        "argv",
        [
            ["processor", "s.json", "--out-dir=o"],
            ["--out-dir", "o", "processor", "s.json"],
            ["--out-dir=o", "processor", "s.json"],
            ["processor", "--out-dir", "o", "s.json"],
        ],
        ids=["equals", "flag-first", "equals-first", "flag-between"],
    )
    def test_out_dir_forms_and_places(self, argv):
        assert read_argv(argv) == ("processor", "s.json", "o")

    def test_empty_out_dir_is_a_value(self):
        # read as given; the run then fails to make the directory
        assert read_argv(["processor", "s.json", "--out-dir="]) == ("processor", "s.json", "")

    def test_double_dash_ends_the_options(self):
        assert read_argv(["processor", "--", "-s.json"]) == ("processor", "-s.json", None)
        assert read_argv(["processor", "--", "-h"]) == ("processor", "-h", None)
        assert read_argv(["--out-dir", "o", "--", "processor", "--out-dir"]) == (
            "processor",
            "--out-dir",
            "o",
        )

    def test_scenario_starting_with_dash_runs_after_double_dash(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_scenario(tmp_path, "-s.json", {"program": and_program(1), "out_dir": "o"})
        assert main(["resource", "--", "-s.json"]) == 0
        assert (tmp_path / "o" / "resource_report.json").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["processor", "s.json", "--out-dir"], "argument --out-dir: expected one argument"),
            (["processor", "s.json", "--out-dir", "-o"], "argument --out-dir: expected one argument"),
            (["processor", "s.json", "--out-dir", "a", "--out-dir", "b"], "argument --out-dir: given more than once"),
            (["processor", "s.json", "--out-dir=a", "--out-dir=a"], "argument --out-dir: given more than once"),
            (["processor", "s.json", "--out", "o"], "unrecognized arguments: --out"),
            (["processor", "s.json", "--o=x"], "unrecognized arguments: --o=x"),
            (["--out", "o", "processor", "s.json"], "unrecognized arguments: --out"),
            (["processor", "s.json", "extra"], "unrecognized arguments: extra"),
            (["processor"], "the following arguments are required: scenario"),
        ],
        ids=["no-value", "dash-value", "repeated", "repeated-equals", "abbreviated",
             "abbreviated-equals", "abbreviated-first", "third-positional", "no-scenario"],
    )
    def test_refused_argv_exits_2(self, tmp_path, capsys, argv, message):
        with pytest.raises(UsageError, match=f"^{message}$"):
            read_argv(argv)
        # a valid scenario, so only the command line can refuse the run
        s = write_scenario(tmp_path, "s.json", {"program": and_program(1), "out_dir": str(tmp_path / "o")})
        assert main([s if a == "s.json" else a for a in argv]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: cvhistory ")
        assert err[-1] == f"cvhistory: error: {message}"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_wins_anywhere_before_double_dash(self, capsys, flag):
        assert main(["processor", flag, "--bogus"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: cvhistory ") and "--out-dir DIR" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("argv", [[], ["foo"], ["foo", "s.json"]])
    def test_unknown_or_missing_command_exits_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        if argv:
            assert "argument command: invalid choice: 'foo'" in err
        else:
            assert "the following arguments are required: command" in err

    def test_help_returns_0(self, capsys):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage:")

    @staticmethod
    def run_module(tmp_path, *args):
        """``python -m cvhistory.cli ARGS`` in a fresh process."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cvhistory.__file__)))
        return subprocess.run(
            [sys.executable, "-m", "cvhistory.cli", *args],
            cwd=tmp_path,
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )

    def test_help_is_one_write(self, monkeypatch):
        # unbuffered, print's second write (its newline) fails with
        # BrokenPipeError once a reader such as `head -3` has gone
        writes = []
        monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": lambda _, s: writes.append(s)})())
        assert main(["--help"]) == 0
        assert len(writes) == 1 and writes[0].startswith("usage: ") and writes[0].endswith("out_dir\n")

    def test_module_run_exits_2_on_unknown_command(self, tmp_path):
        proc = self.run_module(tmp_path, "foo", "x.json")
        assert proc.returncode == 2
        assert "argument command: invalid choice: 'foo'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_module_run_help_exits_0(self, tmp_path):
        proc = self.run_module(tmp_path, "--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: cvhistory ")
        assert proc.stderr == ""

    def test_import_leaves_scipy_and_numpy_random_out(self, tmp_path):
        # only validate needs numpy.random, at its first generator; no
        # command, nor an erase's support error, imports numpy.ma, which
        # plain np.unique does on its first call; and neither a run nor the
        # help imports argparse or the locale that its help text lookup
        # loads, about 2 ms of every run
        src = os.path.dirname(os.path.dirname(os.path.abspath(cvhistory.__file__)))
        lift = {"table": "AND", "x_qubits": [0, 1], "y_qubits": [2]}
        prog = {
            "data": 2,
            "ancilla": 1,
            "steps": [{"op": {"gate": "H", "targets": [q]}} for q in (0, 1)]
            + [{"op": lift, "clean": [2]}, {"op": {"gate": "CNOT", "targets": [0, 2]}, "clean": [2]}],
        }
        write_scenario(tmp_path, "p.json", {"program": prog})
        write_scenario(tmp_path, "e.json", {"pairs": [[0.6, 0.8], [INV_SQRT2, INV_SQRT2]]})
        code = "\n".join(
            [
                "import sys, cvhistory.cli",
                "from cvhistory.erasure import HybridState, require_unit_support",
                "from cvhistory.errors import ContractError",
                "def loaded():",
                "    mods = ('scipy', 'numpy.random', 'numpy.ma', 'argparse', 'locale')",
                "    print('loaded:', sorted(m for m in mods if m in sys.modules))",
                "loaded()",
                "for kind in ('processor', 'erase-demo'):",
                "    scenario = {'processor': 'p.json', 'erase-demo': 'e.json'}[kind]",
                "    assert cvhistory.cli.main([kind, scenario, '--out-dir', kind]) == 0",
                "    loaded()",
                "assert cvhistory.cli.main(['--help']) == 0",
                "loaded()",
                "try:",
                "    require_unit_support(HybridState(1, 0, [0, 0, 1], [1, 3, 1], [1, 1, 1]), 'erase')",
                "except ContractError as exc:",
                "    print(exc)",
                "loaded()",
            ]
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path,
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert [ln for ln in lines if ln.startswith("loaded:")] == ["loaded: []"] * 5
        assert "erase requires CV support inside [0,1); nonzero cells at [1,2), [3,4)" in lines
        assert (tmp_path / "processor" / "metrics.jsonl").exists()
        assert (tmp_path / "erase-demo" / "trace.json").exists()


class TestSerialize:
    def test_seventeen_digit_roundtrip(self):
        for v in (1.0 / 3.0, np.pi, 2.0000000000000004, 1e-300, -0.0):
            assert float(format_float(v)) == v

    def test_json_dumps_compact(self):
        assert json_dumps({"a": 1, "b": [True, None, 0.5]}) == '{"a":1,"b":[true,null,0.5]}'

    def test_json_rejects_nan(self):
        from cvhistory.errors import ValidationError

        with pytest.raises(ValidationError):
            json_dumps({"x": float("nan")})


class TestScenarioSchema:
    def test_unknown_key_rejected(self, tmp_path):
        s = write_scenario(tmp_path, "s.json", {"pairs": [], "bogus": 1})
        assert main(["erase-demo", s]) == 2

    def test_kind_mismatch_rejected(self, tmp_path):
        s = write_scenario(tmp_path, "s.json", {"kind": "validate", "pairs": []})
        assert main(["erase-demo", s]) == 2

    def test_missing_file(self):
        assert main(["erase-demo", "/nonexistent/s.json"]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{nope")
        assert main(["erase-demo", str(path)]) == 2

    def test_grid_options_require_grid_backend(self, tmp_path):
        s = write_scenario(
            tmp_path, "s.json", {"pairs": [], "grid": {"window": [-2.0, 2.0], "n": 64}}
        )
        assert main(["erase-demo", s]) == 2

    def test_grid_backend_requires_options(self, tmp_path):
        s = write_scenario(tmp_path, "s.json", {"backend": "grid", "pairs": []})
        assert main(["erase-demo", s]) == 2

    def test_grid_n_power_of_two(self, tmp_path):
        s = write_scenario(
            tmp_path,
            "s.json",
            {"backend": "grid", "grid": {"window": [-2.0, 2.0], "n": 100}, "pairs": []},
        )
        assert main(["erase-demo", s]) == 2

    def test_unnormalized_pair_rejected(self, tmp_path):
        s = write_scenario(tmp_path, "s.json", {"pairs": [[1.0, 1.0]]})
        assert main(["erase-demo", s]) == 2

    def test_validate_requires_seed(self, tmp_path):
        s = write_scenario(tmp_path, "s.json", {})
        assert main(["validate", s]) == 2

    @pytest.mark.parametrize(
        "scenario, flags",
        [
            # past level 53 a cell edge k 2^-level is not exact in a float
            ({"pairs": [], "cv_level": 60}, []),
            ({"pairs": [[1.0, 0.0]] * 4, "cv_level": 50}, ["--out-dir", "flag"]),
            # below 53, but the level-25 wave of 2^25 cells takes 2^29
            # bytes, past the budget
            ({"pairs": [[1.0, 0.0]] * 5, "cv_level": 20}, []),
            ({"pairs": [], "cv_level": 30}, []),
            ({"pairs": [[1.0, 0.0]] * 25, "cv_level": 0}, ["--out-dir", "flag"]),
        ],
    )
    def test_erase_demo_level_bounds_exit_3(self, tmp_path, monkeypatch, capsys, scenario, flags):
        # refused before the output directory is made, whichever names it
        monkeypatch.chdir(tmp_path)
        s = write_scenario(tmp_path, "s.json", {**scenario, "out_dir": "o"})
        assert main(["erase-demo", s, *flags]) == 3
        assert capsys.readouterr().err.startswith(f"error: cv_level: {scenario['cv_level']} plus ")
        assert sorted(os.listdir(tmp_path)) == ["s.json"]

    def test_grid_samples_past_the_budget_exit_3(self, tmp_path, capsys):
        # a 2^40-sample grid is refused before anything is allocated
        grid = {"window": [-2.0, 2.0], "n": 1 << 40}
        scenario = {"backend": "grid", "grid": grid, "pairs": [], "out_dir": str(tmp_path / "o")}
        assert main(["erase-demo", write_scenario(tmp_path, "s.json", scenario)]) == 3
        assert capsys.readouterr().err.startswith("error: grid.n:")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"window": [-1.0, 1.0], "n": 16}, "grid.window: a grid erase needs a window holding [0, 2)"),
            ({"window": [0.5, 4.5], "n": 16}, "grid.window: a grid erase needs a window holding [0, 2)"),
            # the earlier step and finiteness rules keep their messages
            ({"window": [-1.0, 1.0], "n": 100}, "grid.n: must be a power of two"),
            ({"window": [5e-324, 1e-323], "n": 16}, "grid.window: grid step must be positive"),
        ],
        ids=["wraps-below-zero", "starts-past-zero", "n-not-a-power-of-two", "step-underflows"],
    )
    def test_grid_window_must_hold_zero_two_exit_2(self, tmp_path, capsys, grid, message):
        # on [-1,1) the |1> branch would wrap around the periodic window
        scenario = {"backend": "grid", "grid": grid, "pairs": [[0, 1]], "out_dir": str(tmp_path / "o")}
        assert main(["erase-demo", write_scenario(tmp_path, "s.json", scenario)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "o").exists()

    def test_grid_erase_lands_on_upper_half(self, tmp_path):
        # the |1> branch of [0,1) erases onto [0.5, 1), as on the exact backend
        out = tmp_path / "o"
        grid = {"window": [-2.0, 2.0], "n": 32}
        scenario = {"backend": "grid", "grid": grid, "pairs": [[0, 1]], "out_dir": str(out)}
        assert main(["erase-demo", write_scenario(tmp_path, "s.json", scenario)]) == 0
        rows = [r.split(",") for r in (out / "step_01.csv").read_text().splitlines()[1:]]
        held = [float(r[0]) for r in rows if float(r[4]) > 1e-12]
        assert held == [0.5, 0.625, 0.75, 0.875]

    def test_grid_erase_demo_rejects_cv_level(self, tmp_path, capsys):
        s = write_scenario(
            tmp_path,
            "s.json",
            {
                "backend": "grid",
                "grid": {"window": [-2.0, 2.0], "n": 64},
                "pairs": [[1.0, 0.0]],
                "cv_level": 3,
                "out_dir": str(tmp_path / "o"),
            },
        )
        assert main(["erase-demo", s]) == 2
        assert "cv_level" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            # over a grid file, the backend flag would leave its grid unread
            ("--backend", "dyadic"),
            ("--max-level", "-1"),
            ("--seed", "-5"),
            ("--tolerance", "nan"),
            ("--tolerance", "inf"),
            ("--tolerance", "-1e-9"),
        ],
    )
    def test_bad_flag_exit_2(self, tmp_path, capsys, flag, value):
        # --out-dir is the only flag: any other exits 2 on every command
        for kind, fields in RUNS.items():
            s = write_scenario(tmp_path, "s.json", {**fields, "out_dir": str(tmp_path / "o")})
            assert main([kind, s, f"{flag}={value}"]) == 2
            assert f"unrecognized arguments: {flag}={value}" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "fields",
        [
            {"tolerance": float("nan")},
            {"tolerance": -1.0},
            {"tolerances": {"hybrid_unitarity": float("inf")}},
        ],
    )
    def test_bad_tolerance_exit_2(self, tmp_path, capsys, fields):
        # every suite runs at its registry tolerance: no key sets one
        s = write_scenario(tmp_path, "s.json", {"seed": 1, "out_dir": str(tmp_path / "o"), **fields})
        assert main(["validate", s]) == 2
        (key,) = fields
        assert capsys.readouterr().err == f"error: {key}: unknown scenario key for kind 'validate'\n"

    def test_unknown_suite_tolerance_rejected(self, tmp_path, capsys):
        # a suite name no registry entry has is refused with the key, before any run
        scenario = {"seed": 1, "tolerances": {"no_such_suite": 1e-9}, "out_dir": str(tmp_path / "o")}
        assert main(["validate", write_scenario(tmp_path, "s.json", scenario)]) == 2
        assert capsys.readouterr().err == "error: tolerances: unknown scenario key for kind 'validate'\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, key", FOREIGN_KEYS)
    def test_foreign_key_exit_2(self, tmp_path, capsys, kind, key):
        # a key that only another command reads, or none, is refused whole
        scenario = {**RUNS[kind], key: VALUES[key], "out_dir": str(tmp_path / "o")}
        assert main([kind, write_scenario(tmp_path, "s.json", scenario)]) == 2
        assert capsys.readouterr().err == f"error: {key}: unknown scenario key for kind {kind!r}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param({"pairs": [[0.6, 0.8]]}, id="dyadic-default"),
            pytest.param({"pairs": [[0.6, 0.8]], "backend": "dyadic"}, id="dyadic-key"),
            pytest.param({"pairs": [[0.6, 0.8]], "backend": "grid", "grid": {"n": 64}}, id="grid"),
        ],
    )
    def test_variant_unknown_key_exit_2(self, tmp_path, capsys, fields):
        # every erase flips outside [0,1): no key picks another flip, not
        # even the one it makes
        scenario = {**fields, "variant": "outside_unit", "out_dir": str(tmp_path / "o")}
        assert main(["erase-demo", write_scenario(tmp_path, "s.json", scenario)]) == 2
        assert capsys.readouterr().err == "error: variant: unknown scenario key for kind 'erase-demo'\n"
        assert not (tmp_path / "o").exists()

    def test_readme_key_table_matches(self):
        # README's scenario-key table lists exactly the keys each command reads
        readme = Path(__file__).resolve().parent.parent / "README.md"
        table = {}
        for line in readme.read_text(encoding="utf-8").splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 2 and cells[0].strip("`") in SCENARIO_KEYS:
                table[cells[0].strip("`")] = tuple(re.findall(r"`([^`]+)`", cells[1]))
        assert table == SCENARIO_KEYS


def table_program(table):
    """One data qubit and one ancilla, lifting table from qubit 0 into 1."""
    return {"data": 1, "ancilla": 1, "steps": [{"op": {"table": table, "x_qubits": [0], "y_qubits": [1]}}]}


BIG = 10**400  # an integer past float range
DIGITS = "1" * 4301  # an integer literal past Python's 4300-digit limit
DEEP = "[" * 100000 + "]" * 100000  # nesting past the recursion limit
GRID = {"backend": "grid", "pairs": []}

# Inputs that each shared reader refuses at parse time: (kind, the files
# as {name: JSON text}, s.json being the scenario, the start of the one
# stderr line).
READER_REFUSALS = [
    pytest.param(
        "erase-demo",
        {"s.json": json.dumps({"pairs": [[BIG, 0]]})},
        "error: pairs[0][0]: expected a finite number, got 1000",
        id="pair-past-float-range",
    ),
    pytest.param(
        "erase-demo",
        {"s.json": json.dumps({**GRID, "grid": {"window": [-2, BIG], "n": 64}})},
        "error: grid.window[1]: expected a finite number, got 1000",
        id="window-past-float-range",
    ),
    pytest.param(
        "erase-demo",
        {"s.json": json.dumps({"pairs": [[float("nan"), 1.0]]})},
        "error: pairs[0][0]: expected a finite number, got nan",
        id="pair-nan",
    ),
    pytest.param(
        "erase-demo",
        {"s.json": json.dumps({"pairs": [[[0.0, float("nan")], 1.0]]})},
        "error: pairs[0][0][1]: expected a finite number, got nan",
        id="pair-slot-nan",
    ),
    pytest.param(
        "erase-demo",
        {"s.json": json.dumps({**GRID, "grid": {"window": [float("-inf"), 2.0], "n": 64}})},
        "error: grid.window[0]: expected a finite number, got -inf",
        id="window-minus-infinity",
    ),
    pytest.param(
        "erase-demo",
        {"s.json": json.dumps({**GRID, "grid": {"window": [-1e308, 1e308], "n": 64}})},
        "error: grid.window: grid step must be positive and finite, got inf",
        id="window-width-overflows",
    ),
    pytest.param(
        "erase-demo",
        {"s.json": json.dumps({**GRID, "grid": {"window": [0, 5e-324], "n": 64}})},
        "error: grid.window: grid step must be positive and finite, got 0.0",
        id="window-step-underflows",
    ),
    pytest.param(
        "processor",
        {"s.json": json.dumps({"program": table_program({"n_in": 1, "m_out": 1, "outputs": [0, 10**30]})})},
        f"error: steps[0].op.table: outputs[1] = {10**30} outside the int64 range",
        id="table-output-past-int64",
    ),
    pytest.param(
        "processor",
        {"s.json": json.dumps({"program": table_program({"n_in": 10**30, "m_out": 1, "outputs": [0, 1]})})},
        f"error: steps[0].op.table: n_in must be at most 4096, got {10**30}",
        id="table-n_in-huge",
    ),
    pytest.param(
        "processor",
        {"s.json": json.dumps({"program": table_program({"n_in": 1, "m_out": 10**30, "outputs": [0, 1]})})},
        f"error: steps[0].op.table: m_out must be at most 4096, got {10**30}",
        id="table-m_out-huge",
    ),
    pytest.param(
        "validate",
        {"s.json": '{"seed": %s}' % DIGITS},
        "error: {dir}/s.json: not valid JSON (Exceeds the limit (4300 digits)",
        id="scenario-digits",
    ),
    pytest.param(
        "validate",
        {"s.json": '{"seed": %s}' % DEEP},
        "error: {dir}/s.json: not valid JSON (maximum recursion depth exceeded",
        id="scenario-nesting",
    ),
    pytest.param(
        "processor",
        {"s.json": json.dumps({"program": "p.json"}), "p.json": '{"data": %s}' % DIGITS},
        "error: {dir}/p.json: not valid JSON (Exceeds the limit (4300 digits)",
        id="program-file-digits",
    ),
    pytest.param(
        "processor",
        {"s.json": json.dumps({"program": "p.json"}), "p.json": DEEP},
        "error: {dir}/p.json: not valid JSON (maximum recursion depth exceeded",
        id="program-file-nesting",
    ),
    pytest.param(
        "processor",
        {
            "s.json": json.dumps({"program": table_program({"file": "t.json"})}),
            "t.json": '{"n_in": 1, "m_out": 1, "outputs": [0, %s]}' % DIGITS,
        },
        "error: steps[0].op.table: {dir}/t.json: not valid JSON (Exceeds the limit (4300 digits)",
        id="table-file-digits",
    ),
    pytest.param(
        "processor",
        {"s.json": json.dumps({"program": table_program({"file": "t.json"})}), "t.json": DEEP},
        "error: steps[0].op.table: {dir}/t.json: not valid JSON (maximum recursion depth exceeded",
        id="table-file-nesting",
    ),
]


def write_files(tmp_path, files):
    """Write files into tmp_path, the scenario writing its output to tmp_path/o."""
    for name, text in files.items():
        if name == "s.json":
            # append out_dir to the object, whatever its text holds
            text = text[:-1] + ', "out_dir": %s}' % json.dumps(str(tmp_path / "o"))
        (tmp_path / name).write_text(text)
    return str(tmp_path / "s.json")


class TestSharedReaders:
    """Every number, integer and file the parsers read goes through one
    reader, which refuses bad input with exit 2 naming its field or file,
    before anything is written."""

    @pytest.mark.parametrize("kind, files, err", READER_REFUSALS)
    def test_refused_at_parse_time(self, tmp_path, capsys, kind, files, err):
        assert main([kind, write_files(tmp_path, files)]) == 2
        out = capsys.readouterr().err
        assert out.startswith(err.replace("{dir}", str(tmp_path))) and out.count("\n") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [DIGITS, DEEP], ids=["digits", "nesting"])
    def test_module_run_exits_2_on_undecodable_scenario(self, tmp_path, text):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cvhistory.__file__)))
        (tmp_path / "s.json").write_text('{"seed": %s}' % text)
        proc = subprocess.run(
            [sys.executable, "-m", "cvhistory.cli", "validate", "s.json"],
            cwd=tmp_path,
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: s.json: not valid JSON (")
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


class TestEraseDemo:
    def test_peak_per_final_cell(self, tmp_path, traced_peak):
        # one pair at cv_level 14, 2^15 final cells: the lifted state is
        # freed once erased, so the peak is lift's, about 76 B per final
        # cell, not the erase's on top of the lifted state, about 89
        out = tmp_path / "out"
        s = write_scenario(tmp_path, "s.json", {"pairs": [[0.6, 0.8]], "cv_level": 14, "out_dir": str(out)})
        with traced_peak() as traced:
            assert main(["erase-demo", s]) == 0
        assert traced.peak <= 80 << 15

    def test_deterministic_branch_csv(self, tmp_path):
        out = tmp_path / "out"
        s = write_scenario(tmp_path, "s.json", {"pairs": [[1.0, 0.0]], "out_dir": str(out)})
        assert main(["erase-demo", s]) == 0
        lines = (out / "step_01.csv").read_text().splitlines()
        assert lines[0] == "x_left,x_right,re,im,abs2"
        assert lines[1].startswith("0,0.5,1.4142135623730951,0,2")
        assert len(lines) == 2

    def test_balanced_pair_covers_unit_interval(self, tmp_path):
        out = tmp_path / "out"
        s = write_scenario(
            tmp_path,
            "s.json",
            {"pairs": [[INV_SQRT2, INV_SQRT2]], "out_dir": str(out)},
        )
        assert main(["erase-demo", s]) == 0
        rows = (out / "step_01.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        for row, left in zip(rows, ("0,0.5", "0.5,1")):
            assert row.startswith(left)
            assert abs(float(row.split(",")[4]) - 1.0) < 1e-12

    def test_empty_pairs_single_dump(self, tmp_path):
        out = tmp_path / "out"
        s = write_scenario(tmp_path, "s.json", {"pairs": [], "out_dir": str(out)})
        assert main(["erase-demo", s]) == 0
        assert sorted(os.listdir(out)) == ["step_00.csv", "trace.json"]
        trace = json.loads((out / "trace.json").read_text())
        assert len(trace) == 1 and trace[0]["step"] == 0

    def test_trace_fields(self, tmp_path):
        out = tmp_path / "out"
        s = write_scenario(
            tmp_path,
            "s.json",
            {"pairs": [[1.0, 0.0], [0.0, 1.0]], "out_dir": str(out)},
        )
        assert main(["erase-demo", s]) == 0
        trace = json.loads((out / "trace.json").read_text())
        assert [t["step"] for t in trace] == [0, 1, 2]
        assert [t["level"] for t in trace] == [0, 1, 2]
        for t in trace[1:]:
            assert t["ancilla_residual"] == 0.0
            assert abs(t["norm2"] - 1.0) <= 1e-12
            assert t["wave"] == f"step_{t['step']:02d}.csv"
        assert (out / "step_02.csv").exists()

    def test_complex_amplitudes(self, tmp_path):
        out = tmp_path / "out"
        s = write_scenario(
            tmp_path,
            "s.json",
            {"pairs": [[[0.6, 0.0], [0.0, 0.8]]], "out_dir": str(out)},
        )
        assert main(["erase-demo", s]) == 0

    def test_reused_ancilla_dumps_match_oracle(self, tmp_path):
        rng = np.random.default_rng(2024)
        pairs = []
        for _ in range(12):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = v / np.linalg.norm(v)
            pairs.append((complex(v[0]), complex(v[1])))
        out = tmp_path / "out"
        raw_pairs = [[[a.real, a.imag], [b.real, b.imag]] for a, b in pairs]
        s = write_scenario(tmp_path, "s.json", {"pairs": raw_pairs, "out_dir": str(out)})
        assert main(["erase-demo", s]) == 0
        trace = json.loads((out / "trace.json").read_text())
        assert [t["qubit"] for t in trace[1:]] == [0] * len(pairs)
        for j in range(1, len(pairs) + 1):
            rows = [r.split(",") for r in (out / f"step_{j:02d}.csv").read_text().splitlines()[1:]]
            got = {round(float(r[0]) * 2**j): complex(float(r[2]), float(r[3])) for r in rows}
            expect = tensor_oracle(pairs[:j])
            want = {expect.offset + k: complex(c) for k, c in enumerate(expect.coeffs)}
            assert got.keys() == want.keys()
            peak = max(abs(c) for c in want.values())
            assert max(abs(got[k] - want[k]) for k in want) <= 1e-12 * peak

    def test_grid_backend_matches_dyadic_values(self, tmp_path):
        out_d = tmp_path / "d"
        out_g = tmp_path / "g"
        pairs = [[INV_SQRT2, INV_SQRT2]]
        sd = write_scenario(tmp_path, "d.json", {"pairs": pairs, "out_dir": str(out_d)})
        sg = write_scenario(
            tmp_path,
            "g.json",
            {
                "backend": "grid",
                "grid": {"window": [-2.0, 2.0], "n": 4096},
                "pairs": pairs,
                "out_dir": str(out_g),
            },
        )
        assert main(["erase-demo", sd]) == 0
        assert main(["erase-demo", sg]) == 0
        grid_rows = (out_g / "step_01.csv").read_text().splitlines()[1:]
        inside = [r for r in grid_rows if 0.0 <= float(r.split(",")[0]) < 1.0]
        for r in inside:
            assert abs(float(r.split(",")[4]) - 1.0) < 1e-9


class TestProcessorCommand:
    def test_and_demo_metrics(self, tmp_path):
        out = tmp_path / "out"
        s = write_scenario(
            tmp_path,
            "s.json",
            {"program": and_program(), "data_basis": 3, "out_dir": str(out)},
        )
        assert main(["processor", s]) == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 10
        for i, line in enumerate(lines, start=1):
            m = json.loads(line)
            assert m["step"] == i
            assert m["ancilla_residual"] == 0.0
            assert m["cv_level"] == i
            assert m["entries"] == 1 and m["joint_cells"] == 1
            assert abs(m["norm2"] - 1.0) <= 1e-12
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cv_level"] == 10
        assert summary["entries"] == 1
        assert summary["entangled_final_cv"] is False

    def test_program_file_reference(self, tmp_path):
        (tmp_path / "prog.json").write_text(json.dumps(and_program(2)))
        out = tmp_path / "out"
        s = write_scenario(
            tmp_path,
            "s.json",
            {"program": "prog.json", "data_basis": 3, "out_dir": str(out)},
        )
        assert main(["processor", s]) == 0

    def test_empty_steps_identity(self, tmp_path):
        prog = and_program(0)
        out = tmp_path / "out"
        s = write_scenario(
            tmp_path, "s.json", {"program": prog, "out_dir": str(out)}
        )
        assert main(["processor", s]) == 0
        assert (out / "metrics.jsonl").read_text() == ""
        rows = (out / "final_wave.csv").read_text().splitlines()
        assert rows[1].startswith("0,1,1,0,1")

    def test_cleaning_data_qubit_exits_2(self, tmp_path):
        prog = and_program(1)
        prog["steps"][0]["clean"] = [0]
        s = write_scenario(tmp_path, "s.json", {"program": prog})
        assert main(["processor", s]) == 2

    def test_data_basis_out_of_range(self, tmp_path):
        s = write_scenario(
            tmp_path, "s.json", {"program": and_program(1), "data_basis": 4}
        )
        assert main(["processor", s]) == 2

    def test_entangled_final_dump(self, tmp_path):
        # |+> data recorded by CNOT: final joint is data-CV entangled
        prog = {
            "data": 1,
            "ancilla": 1,
            "cv_level": 0,
            "steps": [
                {"op": {"gate": "H", "targets": [0]}, "clean": []},
                {"op": {"gate": "CNOT", "targets": [0, 1]}, "clean": [1]},
            ],
        }
        out = tmp_path / "out"
        s = write_scenario(tmp_path, "s.json", {"program": prog, "out_dir": str(out)})
        assert main(["processor", s]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["entangled_final_cv"] is True
        rows = (out / "final_wave.csv").read_text().splitlines()[1:]
        assert all(r.split(",")[2] == "0" and r.split(",")[3] == "0" for r in rows)
        total = sum(float(r.split(",")[4]) for r in rows) * 0.5  # level-1 cells
        assert abs(total - 1.0) <= 1e-12

    def test_resource_limit_exit_3(self, tmp_path, capsys):
        s = write_scenario(
            tmp_path,
            "s.json",
            {"program": and_program(54), "data_basis": 3, "out_dir": str(tmp_path / "o")},
        )
        assert main(["processor", s]) == 3
        # refused before the first step, with resource's rule and message
        assert capsys.readouterr().err == (
            "error: cv_level: 0 plus 54 cleans reaches level 54, above max level 53\n"
        )


    def test_oversized_register_exit_3(self, tmp_path):
        # the 2^40-row register must be refused before it is allocated
        prog = {"data": 40, "ancilla": 1, "cv_level": 0, "steps": []}
        s = write_scenario(tmp_path, "s.json", {"program": prog, "out_dir": str(tmp_path / "o")})
        src = os.path.dirname(os.path.dirname(os.path.abspath(cvhistory.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "cvhistory.cli", "processor", s],
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: data + ancilla + cv_level:")
        assert "Traceback" not in proc.stderr

    def test_oversized_data_density_exit_3(self, tmp_path):
        # the 2^17-row table fits, but the 2^16 x 2^16 data density would not
        prog = {"data": 16, "ancilla": 1, "steps": [{"op": {"gate": "X", "targets": [0]}}]}
        s = write_scenario(tmp_path, "s.json", {"program": prog, "out_dir": str(tmp_path / "o")})
        src = os.path.dirname(os.path.dirname(os.path.abspath(cvhistory.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "cvhistory.cli", "processor", s],
            env={"PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: data:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind", ["processor", "resource"])
    @pytest.mark.parametrize("n_in", [24, 40])
    def test_oversized_const_table_exit_2(self, tmp_path, capsys, kind, n_in, traced_peak):
        op = {"table": f"CONST({n_in},1,0)", "x_qubits": [0], "y_qubits": [1]}
        prog = {"data": 2, "ancilla": 0, "steps": [{"op": op}]}
        s = write_scenario(tmp_path, "s.json", {"program": prog, "out_dir": str(tmp_path / "o")})
        with traced_peak() as traced:
            assert main([kind, s]) == 2
        assert "steps[0].op.table" in capsys.readouterr().err
        assert traced.peak < 8 << 20  # CONST(24,1,0) alone would take 128 MiB

    def test_inline_table_past_pair_bits_exit_2(self, tmp_path, capsys):
        # both commands refuse a 21-bit lift at parse, with one message,
        # before out_dir is made
        table = {"n_in": 0, "m_out": 21, "outputs": [0]}
        op = {"table": table, "x_qubits": [], "y_qubits": list(range(21))}
        prog = {"data": 1, "ancilla": 20, "steps": [{"op": op}]}
        s = write_scenario(tmp_path, "s.json", {"program": prog, "out_dir": str(tmp_path / "o")})
        errs = []
        for kind in ("processor", "resource"):
            assert main([kind, s]) == 2
            errs.append(capsys.readouterr().err)
            assert not (tmp_path / "o").exists()
        assert errs[0] == errs[1]
        assert errs[0].startswith("error: steps[0].op.table: pair register of 21 bits")

    @pytest.mark.parametrize("kind", ["processor", "resource"])
    def test_duplicate_clean_exit_2(self, tmp_path, capsys, kind):
        prog = and_program(1)
        prog["steps"][0]["clean"] = [2, 2]
        s = write_scenario(tmp_path, "s.json", {"program": prog, "out_dir": str(tmp_path / "o")})
        assert main([kind, s]) == 2
        assert "steps[0].clean[1]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("kind", ["processor", "resource"])
    @pytest.mark.parametrize(
        "prog",
        [
            pytest.param({"data": 1, "ancilla": 0, "cv_level": 25, "steps": []}, id="cv-level"),
            pytest.param({"data": 16, "ancilla": 1, "steps": []}, id="data-density"),
            # 54 cleans would pass the max level, 53
            pytest.param(x_clean_program(54), id="max-level"),
        ],
    )
    def test_refused_run_leaves_no_out_dir(self, tmp_path, kind, prog):
        scenario = {"program": prog, "out_dir": str(tmp_path / "o")}
        assert main([kind, write_scenario(tmp_path, "s.json", scenario)]) == 3
        assert not (tmp_path / "o").exists()

    def test_start_rules_run_before_data_basis(self, tmp_path, capsys):
        # the program's start rules run while it is parsed, so a bad
        # data_basis, read after it, is not reached
        prog = {"data": 13, "ancilla": 0, "steps": []}
        scenario = {"program": prog, "data_basis": -1, "out_dir": str(tmp_path / "o")}
        assert main(["processor", write_scenario(tmp_path, "s.json", scenario)]) == 3
        assert capsys.readouterr().err.startswith("error: data: a 2^13 x 2^13 density matrix")
        assert not (tmp_path / "o").exists()


class TestHistoryDepth:
    """Deep histories: the cost follows the stored entries, not the hull."""

    @pytest.mark.parametrize("lifts", [22, 30, 50])
    def test_entangled_program_matches_closed_form(self, tmp_path, monkeypatch, capsys, lifts, traced_peak):
        # the benchmark's entangled program, built with `lifts` cleans: 8
        # entries on a hull of about 2^lifts cells
        monkeypatch.syspath_prepend(PERFBENCH)
        workloads = importlib.import_module("workloads")
        monkeypatch.setattr(workloads, "ENT_LIFTS", lifts)
        scenario = workloads.entangled_scenario(1234)
        out = tmp_path / "out"
        s = write_scenario(tmp_path, "s.json", dict(scenario, out_dir=str(out)))
        with traced_peak() as traced:
            assert main(["processor", s]) == 0
        workloads.check_entangled(scenario, str(out), capsys.readouterr().out)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["entries"] == 8 and summary["joint_cells"] > 1 << (lifts - 1)
        rows = (out / "final_wave.csv").read_text().splitlines()[1:]
        assert len(rows) == len(workloads.entangled_density(scenario))
        assert traced.peak < 4 << 20  # one row over the hull would take 2^(lifts + 4) bytes

    def test_far_apart_product_writes_two_rows(self, tmp_path):
        # 50 X-cleans record cell 2^50 - 1; the H-clean then puts half the
        # wave 2^50 cells further: a product of two cells at level 51
        x_clean = {"op": {"gate": "X", "targets": [1]}, "clean": [1]}
        h_clean = {"op": {"gate": "H", "targets": [1]}, "clean": [1]}
        prog = {"data": 1, "ancilla": 1, "steps": [x_clean] * 50 + [h_clean]}
        out = tmp_path / "out"
        s = write_scenario(tmp_path, "s.json", {"program": prog, "out_dir": str(out)})
        assert main(["processor", s]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["entangled_final_cv"] is False
        assert (summary["cv_level"], summary["entries"]) == (51, 2)
        assert summary["joint_cells"] == (1 << 50) + 1
        rows = [r.split(",") for r in (out / "final_wave.csv").read_text().splitlines()[1:]]
        assert len(rows) == 2
        for r, k in zip(rows, [(1 << 50) - 1, (1 << 51) - 1]):
            assert float(r[0]) * 2.0**51 == k and float(r[1]) * 2.0**51 == k + 1
            assert abs(float(r[2]) - 2.0**25) <= 1e-12 * 2.0**25 and float(r[3]) == 0.0


class TestResourceCommand:
    def test_ten_clean_counting_report(self, tmp_path):
        out = tmp_path / "out"
        s = write_scenario(
            tmp_path, "s.json", {"program": and_program(10), "out_dir": str(out)}
        )
        assert main(["resource", s]) == 0
        rep = json.loads((out / "resource_report.json").read_text())
        assert rep == {
            "plain_reversible_ancillas": 10,
            "cv_scheme_qubits": 1,
            "cv_final_level": 10,
            "joint_cells": 1024,
        }
        raw = (out / "resource_report.json").read_text()
        assert raw.startswith('{"plain_reversible_ancillas":10,"cv_scheme_qubits":1,')

    def test_zero_steps(self, tmp_path):
        out = tmp_path / "out"
        s = write_scenario(
            tmp_path, "s.json", {"program": and_program(0), "out_dir": str(out)}
        )
        assert main(["resource", s]) == 0
        rep = json.loads((out / "resource_report.json").read_text())
        assert rep["plain_reversible_ancillas"] == 0
        assert rep["cv_scheme_qubits"] == 0


    def test_final_cv_above_table_limit_exit_3(self, tmp_path, capsys):
        # 2^20000 cells: refused before the report is built or printed
        prog = {"data": 1, "ancilla": 0, "cv_level": 20000, "steps": []}
        s = write_scenario(tmp_path, "s.json", {"program": prog, "out_dir": str(tmp_path / "o")})
        assert main(["resource", s]) == 3
        assert capsys.readouterr().err.startswith("error: cv_level:")

    @pytest.mark.parametrize(
        "prog, code, field, reason",
        [
            # ids read cleans-cv_level-code; the max level, 53, is the one
            # level rule: the cleans reach it from any cv_level, and the
            # erase from level 53 would squeeze past it
            pytest.param(x_clean_program(22), 0, None, None, id="22-None-0"),
            pytest.param(x_clean_program(53), 0, None, None, id="53-None-0"),
            pytest.param(x_clean_program(54), 3, "cv_level", None, id="54-None-3"),
            pytest.param(dict(x_clean_program(50), cv_level=3), 0, None, None, id="50-3-0"),
            pytest.param(dict(x_clean_program(51), cv_level=3), 3, "cv_level", None, id="51-3-3"),
            # 2 entries on a hull of 2^18 cells and 2^11 rows
            pytest.param(
                {
                    "data": 10,
                    "ancilla": 1,
                    "steps": [{"op": {"gate": "H", "targets": [0]}}]
                    + [{"op": {"gate": "CNOT", "targets": [0, 10]}, "clean": [10]}] * 18,
                },
                0,
                None,
                None,
                id="wide-hull-0",
            ),
            # the level-25 indicator of 2^25 cells is past the byte budget
            pytest.param(
                {"data": 1, "ancilla": 0, "cv_level": 25, "steps": []},
                3,
                "cv_level",
                None,
                id="cv-level-25-3",
            ),
            # each start rule at the budget's edge: a 2^12 x 2^12 data
            # density and a start table of 2^24 cells fit, one bit more
            # does not
            pytest.param({"data": 12, "ancilla": 0, "steps": []}, 0, None, None, id="data-12-0"),
            pytest.param({"data": 13, "ancilla": 0, "steps": []}, 3, "data", None, id="data-13-3"),
            pytest.param(
                {"data": 2, "ancilla": 20, "cv_level": 2, "steps": [TOP_CLEAN]},
                0,
                None,
                None,
                id="joint-24-0",
            ),
            pytest.param(
                {"data": 2, "ancilla": 20, "cv_level": 3, "steps": [TOP_CLEAN]},
                3,
                "data + ancilla + cv_level",
                "a joint table of 2^22 rows by 2^3 cells exceeds the 268435456-byte budget",
                id="joint-25-3",
            ),
            pytest.param(
                {"data": 1, "ancilla": 23, "steps": x_clean_program(1)["steps"]},
                0,
                None,
                None,
                id="joint-24-ancilla-0",
            ),
            pytest.param(
                {"data": 1, "ancilla": 24, "steps": x_clean_program(1)["steps"]},
                3,
                "data + ancilla + cv_level",
                None,
                id="joint-25-ancilla-3",
            ),
            # a gate of the wrong shape is refused at parse time, before
            # step 0 runs
            pytest.param(
                {
                    "data": 1,
                    "ancilla": 1,
                    "steps": x_clean_program(1)["steps"]
                    + [{"op": {"gate": "CNOT", "targets": [0]}}],
                },
                2,
                "steps[1].op.targets",
                "gate CNOT takes two distinct targets, got (0,)",
                id="cnot-one-target-2",
            ),
        ]
        + RULE_REFUSALS,
    )
    def test_agrees_with_processor(self, tmp_path, capsys, prog, code, field, reason):
        s = write_scenario(tmp_path, "s.json", {"program": prog, "out_dir": str(tmp_path / "o")})
        assert main(["processor", s]) == code
        assert main(["resource", s]) == code
        # a refused program is refused while the scenario is read
        assert (tmp_path / "o").exists() == (code == 0)
        if code:
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 2 and err[0] == err[1]
            assert err[-1].startswith(f"error: {field}:")
            if reason is not None:
                assert err[-1] == f"error: {field}: {reason}"

    def test_table_budget_refusal_names_its_step(self, tmp_path, monkeypatch, capsys):
        # a 4096-byte budget holds 512 int64 values, and each distinct
        # table counts its outputs once, whatever its steps' modes: the
        # three spellings of ADDER(2) name one table of 16 outputs, the
        # file one of 128 however often it is named, and each inline
        # object a table of its own, so the tables of steps[0-6] hold 400
        # values and steps[7] is the first past the budget on both commands
        monkeypatch.setattr(dyadic, "MAX_BYTES", 1 << 12)
        inline = {"n_in": 7, "m_out": 1, "outputs": [0, 1] * 64}
        (tmp_path / "t.json").write_text(json.dumps(inline))
        adder_qs = {"x_qubits": [0, 1, 2, 3], "y_qubits": [4, 5, 6]}
        wide_qs = {"x_qubits": [0, 1, 2, 3, 4, 5, 6], "y_qubits": [7]}
        tables = [
            ("ADDER(2)", "xor", adder_qs),
            ("adder(2)", "xor", adder_qs),
            ("ADDER( 2 )", "mod_sub", adder_qs),
            ("CONST(7,1,1)", "xor", wide_qs),
            (inline, "mod_sub", wide_qs),
            ({"file": "t.json"}, "xor", wide_qs),
            ({"file": "t.json"}, "mod_sub", wide_qs),
        ]
        steps = [{"op": {"table": t, "mode": m, **qs}} for t, m, qs in tables]
        fits = {"data": 4, "ancilla": 4, "steps": steps}
        parsed = [step.op.table for step in parse_program(fits, base_dir=str(tmp_path)).steps]
        assert parsed[0] is parsed[1] is parsed[2] and parsed[5] is parsed[6]
        assert sum(t.outputs.size for t in set(parsed)) == 400
        over = dict(fits, steps=steps + [{"op": {"table": inline, **wide_qs}}])
        refused = (
            "error: steps[7].op.table: holding 4224 bytes of tables "
            "exceeds the 4096-byte budget\n"
        )
        for prog, code, err in ((fits, 0, ""), (over, 3, refused)):
            s = write_scenario(tmp_path, "s.json", {"program": prog})
            for kind in ("processor", "resource"):
                out = tmp_path / f"{kind}-{code}"
                assert main([kind, s, "--out-dir", str(out)]) == code
                assert out.exists() == (code == 0)
                assert capsys.readouterr().err == err

    def test_resource_builds_no_lift(self, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(processor, "build_reversible", lambda *args: built.append(args))
        s = write_scenario(tmp_path, "s.json", {"program": and_program(10), "out_dir": str(tmp_path / "o")})
        assert main(["resource", s]) == 0
        assert built == []

    def test_mid_run_budget_refusal_names_its_step(self, tmp_path, monkeypatch, capsys):
        # resource models the start checks only: at a 2^16-byte budget the
        # start fits, and step 1's erase doubles the occupied cells of the
        # 2^3-row density block past the budget
        monkeypatch.setattr(dyadic, "MAX_BYTES", 1 << 16)
        prog = {
            "data": 2,
            "ancilla": 1,
            "cv_level": 9,
            "steps": [
                {"op": {"gate": "H", "targets": [0]}},
                {"op": {"gate": "CNOT", "targets": [0, 2]}, "clean": [2]},
            ],
        }
        s = write_scenario(tmp_path, "s.json", {"program": prog, "out_dir": str(tmp_path / "o")})
        assert main(["resource", s]) == 0
        capsys.readouterr()
        out = tmp_path / "p"
        assert main(["processor", s, "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: steps[1]: reduced density: a block of 2^3 rows by 1024 occupied cells "
            "exceeds the 65536-byte budget\n"
        )
        assert not out.exists()


class TestValidateCommand:
    def test_all_suites_pass_and_report_schema(self, tmp_path):
        out = tmp_path / "out"
        s = write_scenario(tmp_path, "s.json", {"seed": 1234, "out_dir": str(out)})
        assert main(["validate", s]) == 0
        report = json.loads((out / "validation_report.json").read_text())
        assert [r["suite"] for r in report] == SUITE_NAMES
        for r in report:
            assert set(r) == {"suite", "trials", "max_error", "pass"}
            assert r["pass"] is True

    def test_lowered_tolerance_fails(self, tmp_path, monkeypatch):
        # every registry entry lowered to 1e-18: a suite with a nonzero
        # error fails, and validate exits 1
        suites = [(name, fn, min(tol, 1e-18)) for name, fn, tol in validation.SUITES]
        monkeypatch.setattr(validation, "SUITES", suites)
        out = tmp_path / "out"
        s = write_scenario(tmp_path, "s.json", {"seed": 1234, "out_dir": str(out)})
        assert main(["validate", s]) == 1
        report = json.loads((out / "validation_report.json").read_text())
        by_name = {r["suite"]: r for r in report}
        assert by_name["hybrid_unitarity"]["pass"] is False

    def test_per_suite_override(self, tmp_path, monkeypatch):
        # each suite runs at its own registry tolerance: one entry lowered
        # below its suite's error fails that suite alone
        suites = [
            (name, fn, 1e-18 if name == "hybrid_unitarity" else tol)
            for name, fn, tol in validation.SUITES
        ]
        monkeypatch.setattr(validation, "SUITES", suites)
        out = tmp_path / "out"
        s = write_scenario(tmp_path, "s.json", {"seed": 1234, "out_dir": str(out)})
        assert main(["validate", s]) == 1
        report = json.loads((out / "validation_report.json").read_text())
        passed = {r["suite"]: r["pass"] for r in report}
        assert passed == {name: name != "hybrid_unitarity" for name in SUITE_NAMES}


class TestDeterminism:
    def test_erase_demo_byte_identical(self, tmp_path):
        s = write_scenario(
            tmp_path, "s.json", {"pairs": [[INV_SQRT2, [0.0, INV_SQRT2]], [0.6, 0.8]]}
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["erase-demo", s, "--out-dir", str(a)]) == 0
        assert main(["erase-demo", s, "--out-dir", str(b)]) == 0
        ta, tb = read_tree(a), read_tree(b)
        assert ta.keys() == tb.keys() and len(ta) >= 3
        assert all(ta[k] == tb[k] for k in ta)

    def test_processor_byte_identical(self, tmp_path):
        s = write_scenario(
            tmp_path, "s.json", {"program": and_program(6), "data_basis": 3}
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["processor", s, "--out-dir", str(a)]) == 0
        assert main(["processor", s, "--out-dir", str(b)]) == 0
        ta, tb = read_tree(a), read_tree(b)
        assert ta.keys() == tb.keys()
        assert all(ta[k] == tb[k] for k in ta)

    def test_validate_byte_identical_with_seed(self, tmp_path):
        s = write_scenario(tmp_path, "s.json", {"seed": 77})
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["validate", s, "--out-dir", str(a)]) == 0
        assert main(["validate", s, "--out-dir", str(b)]) == 0
        ra = (a / "validation_report.json").read_bytes()
        rb = (b / "validation_report.json").read_bytes()
        assert ra == rb

"""Smoke test of the traced benchmark: one traced invocation of each
workload below must pass its workload oracle and record every span the
workload expects, so a refactor that unbinds a traced layer, or stops
calling one, fails here rather than only in a benchmark run."""
import importlib
import json
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.mark.parametrize("name", ["erase_demo_n11", "processor_entangled_c16", "processor_wide_adder3", "validate"])
def test_traced_workload(tmp_path, monkeypatch, name):
    monkeypatch.syspath_prepend(PERFBENCH)
    workload = importlib.import_module("workloads").WORKLOADS[name]
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "child.py"), name, "1234", str(tmp_path), "trace"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "result.json").read_text())["exit_code"] == 0
    scenario = json.loads((tmp_path / "scenario.json").read_text())
    assert scenario["kind"] == workload.command
    workload.check(scenario, str(tmp_path / "out"), proc.stdout)
    spans = json.loads((tmp_path / "spans.json").read_text())
    called = {spans["names"][int(span[0])] for span in spans["spans"]}
    assert set(workload.expected_spans) <= called

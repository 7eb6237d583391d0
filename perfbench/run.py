"""cvhistory benchmark runner.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each timed invocation is a fresh child
process (perfbench/child.py) that imports ``cvhistory.cli`` from ``src/``,
writes the workload's seeded scenario and calls ``cli.main`` once.
Children run one at a time, with an empty environment and the BLAS
thread pool left at its default.  Each invocation's outputs are checked
against the workload's oracle after the child has exited.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians
over the invocations of the run, with sample counts and quartiles on the
lines before the result.  ``--trace 1`` alternates untraced and traced
invocations and reports the per-layer metrics.  The last line of stdout
is the JSON result.  See perfbench/README.md for the workloads.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 170
# Fewest setup samples per run; setup-only launches fill the time left
# after the last full invocation, up to the cap.
MIN_SETUP_SAMPLES, MAX_SETUP_SAMPLES = 8, 40


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _environment() -> Dict[str, str]:
    env = {
        "python": platform.python_version(),
        "nproc": str(os.cpu_count()),
        "cpu": platform.machine(),
    }
    for pkg in ("numpy", "scipy"):
        try:
            env[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            env[pkg] = "missing"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return env


def _out_stats(out_dir: str):
    """SHA-256 over (name, bytes) of every output file, total bytes, and
    CSV data rows."""
    digest = hashlib.sha256()
    nbytes = rows = 0
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        digest.update(name.encode() + b"\0" + data)
        nbytes += len(data)
        if name.endswith(".csv"):
            rows += data.count(b"\n") - 1
    return digest.hexdigest(), nbytes, rows


@dataclass
class Invocation:
    """Outcome of one child process."""

    setup_s: Optional[float] = None
    wall_s: Optional[float] = None
    rss_mib: Optional[float] = None
    error: Optional[str] = None
    sha256: str = ""
    bytes_written: int = 0
    csv_rows: int = 0
    layers: Dict[str, float] = field(default_factory=dict)
    elapsed: float = 0.0


class Runner:
    def __init__(self, workload: workloads.Workload, seed: int, work: str) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.scenario = workload.make_scenario(seed)
        self.count = 0

    def invoke(self, mode: str) -> Invocation:
        """Launch one child in ``mode`` (setup, run or trace) and check it."""
        inv = Invocation()
        self.count += 1
        work = os.path.join(self.work, f"inv{self.count:04d}")
        os.makedirs(work)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), self.workload.name, str(self.seed), work, mode]
        t_launch = _now()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env={}, stdin=subprocess.DEVNULL, capture_output=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            inv.error = f"timed out after {CHILD_TIMEOUT_S} s"
        else:
            inv.error = self._collect(inv, proc, work, mode, t_launch)
        shutil.rmtree(work, ignore_errors=True)
        inv.elapsed = _now() - t_launch
        return inv

    def _collect(self, inv: Invocation, proc, work: str, mode: str, t_launch: float) -> Optional[str]:
        stderr = proc.stderr.decode(errors="replace").strip()
        if proc.returncode != 0:
            return f"child exit {proc.returncode}: {stderr[-400:]}"
        with open(os.path.join(work, "result.json"), "r", encoding="utf-8") as fh:
            result = json.load(fh)
        inv.setup_s = result["t_ready"] - t_launch
        if mode == "setup":
            return None
        inv.wall_s = result["wall_s"]
        inv.rss_mib = result["maxrss_kib"] / 1024.0
        if result["exit_code"] != 0:
            return f"cli exit {result['exit_code']}: {stderr[-400:]}"
        out_dir = os.path.join(work, "out")
        try:
            inv.sha256, inv.bytes_written, inv.csv_rows = _out_stats(out_dir)
            self.workload.check(self.scenario, out_dir, proc.stdout.decode(errors="replace"))
            error = None
        except (workloads.OracleError, OSError, ValueError, KeyError, TypeError) as exc:
            error = f"oracle: {type(exc).__name__}: {exc}"
        if mode == "trace":
            error = self._layers(inv, os.path.join(work, "spans.json")) or error
        return error

    def _layers(self, inv: Invocation, path: str) -> Optional[str]:
        with open(path, "r", encoding="utf-8") as fh:
            dump = json.load(fh)
        self_s, total_s, calls, top = tracer.summarize(dump["names"], dump["spans"])
        suites = {n[len("validation.suite.") :]: t for n, t in total_s.items() if n.startswith("validation.suite.")}
        lay = inv.layers
        lay.update(dump["counters"])
        for name, t in self_s.items():
            lay[f"{name}.self_s"] = t
        for name, n in calls.items():
            lay[f"{name}.calls"] = n
        lay["processor.steps"] = calls.get("processor.run_step", 0)
        for name in ("erasure.HybridState", "dyadic.DyadicWave"):
            lay[f"{name}.init_s"] = self_s.get(name, 0.0)
        for suite in ("erase_oracle_equivalence", "grid_dilation_generator", "grid_pipeline_cross_check"):
            lay[f"validation.{suite}_s"] = suites.pop(suite, 0.0)
        lay["validation.other_suites_s"] = sum(suites.values())
        lay["serialize.csv_rows"] = inv.csv_rows
        lay["serialize.bytes_written"] = inv.bytes_written
        lay["trace.unattributed_s"] = inv.wall_s - top
        missing = [s for s in self.workload.expected_spans if not calls.get(s)]
        if missing:
            return f"trace: no calls recorded for {', '.join(missing)}"
        return None


def _describe(name: str, unit: str, values: List[float]) -> str:
    line = f"{name} = {statistics.median(values):.6g} {unit} (n={len(values)}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f", q1={q1:.6g}, q3={q3:.6g}"
    return line + ")"


def run_untraced(runner: Runner, seconds: float) -> tuple:
    """Full invocations while the next one, and the setup-only launches
    still owed, fit in the run; then setup-only launches fill the rest."""
    start = _now()
    invs: List[Invocation] = []
    while True:
        invs.append(runner.invoke("run"))
        owed = max(0, MIN_SETUP_SAMPLES - len(invs) - 1) * max(i.setup_s or 0.0 for i in invs)
        if _now() - start + max(i.elapsed for i in invs) + owed > seconds:
            break
    setups = [i.setup_s for i in invs if i.setup_s is not None]
    setup_cost = 0.0
    while len(setups) < MAX_SETUP_SAMPLES:
        if len(setups) >= MIN_SETUP_SAMPLES and _now() - start + setup_cost > seconds:
            break
        extra = runner.invoke("setup")
        if extra.error:
            invs.append(extra)
            break
        setups.append(extra.setup_s)
        setup_cost = max(setup_cost, extra.elapsed)
    ok = [i for i in invs if i.wall_s is not None]
    samples = {
        "wall_s": [i.wall_s for i in ok],
        "peak_rss_mib": [i.rss_mib for i in ok],
        "setup_s": setups,
    }
    return invs, samples


def run_traced(runner: Runner, seconds: float) -> tuple:
    """Untraced, traced, traced, then alternate while time is left."""
    start = _now()
    plain: List[Invocation] = []
    traced: List[Invocation] = []
    longest = 0.0
    while len(traced) < 2 or _now() - start + longest <= seconds:
        n = len(plain) + len(traced)
        mode = "trace" if n in (1, 2) or n > 2 and n % 2 == 0 else "run"
        inv = runner.invoke(mode)
        longest = max(longest, inv.elapsed)
        (traced if mode == "trace" else plain).append(inv)
    invs = plain + traced
    good_t = [i for i in traced if i.layers]
    good_p = [i for i in plain if i.wall_s is not None]
    samples: Dict[str, List[float]] = {}
    problems: List[str] = []
    if good_t:
        counts = [
            {k: v for k, v in i.layers.items() if not k.endswith("_s")} for i in good_t
        ]
        if any(c != counts[0] for c in counts[1:]):
            keys = set().union(*counts)
            diff = sorted(k for k in keys if any(c.get(k) != counts[0].get(k) for c in counts[1:]))
            problems.append(f"counts differ between traced invocations: {', '.join(diff[:8])}")
        names = set().union(*(i.layers for i in good_t))
        for name in names:
            samples[name] = [i.layers.get(name, 0.0) for i in good_t]
        if good_p:
            overhead = statistics.median([i.wall_s for i in good_t]) - statistics.median([i.wall_s for i in good_p])
            samples["trace.overhead_s"] = [overhead]
    return invs, samples, problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    cli_path = os.path.join(ROOT, "src", "cvhistory", "cli.py")
    if not os.path.isfile(cli_path):
        print(f"error: {cli_path} not found; run from a cvhistory checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        specs = json.load(fh)
    wanted = specs["per_layer"] if args.trace else specs["end_to_end"]

    for key, value in _environment().items():
        print(f"env {key} = {value}")
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")

    # SIGTERM unwinds like an exception: subprocess.run kills and reaps the
    # running child, and the finally clause removes the scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        runner = Runner(workloads.WORKLOADS[args.workload], args.seed, work)
        if args.trace:
            invs, samples, problems = run_traced(runner, args.seconds)
        else:
            invs, samples = run_untraced(runner, args.seconds)
            problems = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    failed = [i for i in invs if i.error]
    for i in failed:
        print(f"FAILED invocation: {i.error}")
    for p in problems:
        print(f"FAILED check: {p}")
    hashes = sorted({i.sha256 for i in invs if i.sha256})
    print(f"output_sha256 = {', '.join(hashes) or 'none'} (information only)")
    print(f"fail_ratio = {len(failed) / max(len(invs), 1):.6g} 1 ({len(failed)}/{len(invs)} invocations)")

    metrics = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        values = samples.get(name)
        if not values:
            print(f"{name}: no samples", file=sys.stderr)
            continue
        print(_describe(name, unit, values))
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    if len(metrics) != len(wanted):
        print("error: some metrics have no samples; no result", file=sys.stderr)
        return 1
    correct = not failed and not problems
    print(json.dumps({"correct": correct, "attempted": len(invs), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark invocation of ``cvhistory.cli.main`` in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED WORKDIR MODE

MODE is ``setup`` (import the CLI and write the scenario, then stop),
``run`` (also call ``cli.main`` once, untraced) or ``trace`` (the same
with span wrappers installed).  The result goes to WORKDIR/result.json;
spans of a traced call go to WORKDIR/spans.json, written after the
timed call returns.  run.py starts this process with an empty
environment and reads its stdout.
"""
from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv) -> int:
    workload_name, seed, work, mode = argv[0], int(argv[1]), argv[2], argv[3]
    from cvhistory import cli

    import workloads

    workload = workloads.WORKLOADS[workload_name]
    scenario_path = os.path.join(work, "scenario.json")
    with open(scenario_path, "w", encoding="utf-8") as fh:
        json.dump(workload.make_scenario(seed), fh)
    result = {"t_ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        argv_cli = [workload.command, scenario_path, "--out-dir", os.path.join(work, "out")]
        t0 = time.perf_counter()
        code = cli.main(argv_cli)
        t1 = time.perf_counter()
        sys.stdout.flush()
        result.update(
            exit_code=code,
            wall_s=t1 - t0,
            maxrss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        )
        if tracer is not None:
            tracer.dump(os.path.join(work, "spans.json"))
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

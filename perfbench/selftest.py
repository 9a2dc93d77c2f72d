#!/usr/bin/env python3
"""Checks of the benchmark's own counters.

    python3 perfbench/selftest.py

- The synthetic sb cell at width 32 (4 tasks, memory 48) gives 5,010 SGD
  steps, 10,030 forward_cached calls and 1,269 cross_groups calls.
- On every job of c5_cells and matrix_sweep, the traced SGD steps of each
  phase equal epochs x ceil(pool / batch) from workloads.expected_steps.
- Every traced round of a run, and two traced runs of one workload seed in
  two processes, give identical counters. Report digests are compared too: dd cells may differ between
  processes (the dd auxiliary net is seeded through the salted str hash), so
  their mismatches are reported and not counted as failures.

Exits 1 if any check fails. Takes about 15 s.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads
import tracing
import workloads

HERE = Path(__file__).resolve().parent
BASELINE = {"steps": 5010, "forward_cached": 10030, "cross_groups": 1269}
failures = []


def check(ok: bool, message: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {message}")
    if not ok:
        failures.append(message)


def traced_job(sb, job, checks):
    tracer = tracing.Tracer()
    with tracing.patched() as patches:
        tracer.install(sb, patches)
        checks.install(patches)
        problems = run.run_job(sb, job, checks)["failures"]
    check(not problems, f"job {job.cells[0].key} ran without failures {problems}")
    return tracer.summary()["counters"]


def baseline_counts():
    _, sb, _, _ = run.set_up("c5_cells", 0)
    cell = workloads.Cell("synthetic", sb.runner.DEFAULT_BENCHMARK, "sb", 4, 0,
                          workloads.C5_OVERRIDES)
    counters = traced_job(sb, workloads.Job("sb", (cell,)), tracing.Checks(sb, 0))
    got = {"steps": counters["steps"]["total"],
           "forward_cached": counters["calls"]["net.forward_cached"],
           "cross_groups": counters["calls"]["partition.cross_groups"]}
    check(got == BASELINE, f"width-32 synthetic sb cell counts {got} == {BASELINE}")


def steps_per_phase(name: str, seed: int):
    _, sb, workload, seqs = run.set_up(name, seed)
    checks = tracing.Checks(sb, seed)
    for job in workload.jobs:
        want = workloads.cells_steps(sb.runner, job.cells, seqs)
        steps = traced_job(sb, job, checks)["steps"]
        got = {phase: k for phase, k in steps.items() if k and phase != "total"}
        check(got == want, f"{name} {job.scheme} job: steps per phase {got} == {want}")


def traced_run(name: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-2])["details"]


def repeat_across_processes(name: str, seed: int):
    a, b = traced_run(name, seed), traced_run(name, seed)
    check(a["trace"]["counters_repeat"] and b["trace"]["counters_repeat"],
          f"{name}: every traced round gives the same counters")
    check(a["trace"]["counters"] == b["trace"]["counters"],
          f"{name}: counters equal across processes")
    check(a["files_written_per_round"] == b["files_written_per_round"],
          f"{name}: files written equal across processes")
    differ = sorted(k for k in a["digests"] if a["digests"][k] != b["digests"].get(k))
    check(all("/dd_" in k for k in differ), f"{name}: only dd digests may differ, got {differ}")
    print(f"info: {name}: {len(differ)} of {sum('/dd_' in k for k in a['digests'])} dd cells "
          f"gave different digests in two processes; bytes written "
          f"{a['bytes_written_per_round']} vs {b['bytes_written_per_round']}")


def main() -> int:
    run.SCRATCH.mkdir(exist_ok=True)
    try:
        baseline_counts()
        steps_per_phase("c5_cells", 1)
        steps_per_phase("matrix_sweep", 1)
    finally:
        shutil.rmtree(run.SCRATCH, ignore_errors=True)
    repeat_across_processes("matrix_sweep", 2)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

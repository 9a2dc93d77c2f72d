#!/usr/bin/env python3
"""splitbridge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
Closed loop, one client: every call runs in sequence in this process, with one
BLAS thread and SPLITBRIDGE_WORKERS unset. A round runs every job of the
workload once; rounds repeat until --seconds have passed, and each job's time
is the mean of its samples at reference speed (see reference_cpu). The last
stdout line is the result object; the line before it holds the details
(environment, per-job samples, checks, output digests, counters and, with
--trace 1, the full per-function trace).
"""

import os
import sys

# before numpy is imported: BLAS reads its thread count once, at load time
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("SPLITBRIDGE_WORKERS", None)

import argparse
import importlib
import json
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 7
# Nominal process CPU of reference_cpu(); timings are reported at this speed.
REFERENCE_NOMINAL_S = 0.01
_REF_A = np.random.default_rng(0).random((32, 32))
_REF_B = _REF_A.T.copy()
SUBMODULES = ("data", "engine", "losses", "metrics", "net", "partition", "runner")

END_TO_END_UNITS = {"cpu_s": "s", "wall_s": "s", "steps_per_cpu_s": "steps/s",
                    **{f"cell_cpu_s.{s}": "s" for s in workloads.SCHEMES},
                    "setup_s": "s", "peak_rss_mb": "MB", "avg_inc_acc": "fraction"}

# functions whose self time is reported as a per-layer metric: those that run
# on every workload
SELF_TIMED = (
    "net.forward_cached", "net.backward", "net.sgd_step", "net.clone",
    "losses.ce_loss", "losses.kd_loss", "losses.lce_loss", "losses.std_composite_loss",
    "losses.sparsify_penalty", "losses.softmax",
    "partition.cross_groups", "partition.make_plan", "partition.disconnect",
    "partition.bridge_reconnect", "partition.extract_subnet",
    "engine.run_sequence", "engine.run_first_task", "engine.run_split_phase",
    "engine.run_bridge_phase", "engine.run_std_step", "engine.run_ce_step",
    "engine.run_dd_step", "engine.soft_labels", "metrics.evaluate",
    "runner.run_experiment",
)
TRAINING_PHASES = tuple(p for p in tracing.PHASES if p not in ("exemplars", "eval"))


def reference_cpu() -> float:
    """Process CPU of a fixed kernel shaped like the program's inner loop:
    small matmuls, an elementwise max and a reduction, driven from Python.

    The host's speed switches between levels for seconds to minutes at a time
    (other tenants share its cores), and process CPU follows it. Each job is
    timed between two runs of this kernel, and its CPU is scaled by
    REFERENCE_NOMINAL_S / (their mean). On a shared 2-vCPU Xeon VM this cut
    the spread of run_matrix CPU over eight seeds from 0.26 to 0.08.
    """
    start = time.process_time()
    for _ in range(2000):
        np.maximum(_REF_A @ _REF_B, 0.0).sum(axis=0)
    return time.process_time() - start


class SetupError(RuntimeError):
    """The checkout does not hold a usable splitbridge source tree."""


def import_package():
    """Import splitbridge from src/, dropping any earlier import of it."""
    for name in [m for m in sys.modules if m == "splitbridge" or m.startswith("splitbridge.")]:
        del sys.modules[name]
    sb = importlib.import_module("splitbridge")
    for name in SUBMODULES:
        importlib.import_module(f"splitbridge.{name}")
    if Path(sb.__file__).resolve().parent != SRC / "splitbridge":
        raise SetupError(f"imported splitbridge from {sb.__file__}, not from {SRC}")
    return sb


def set_up(name: str, seed: int):
    """Import the package and build every task sequence of the workload.

    Done SETUP_REPEATS times; returns the median process CPU of one set-up,
    at reference speed, with the objects of the last one.
    """
    if not (SRC / "splitbridge" / "__init__.py").is_file():
        raise SetupError(f"no splitbridge package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    times = []
    ref = reference_cpu()
    for _ in range(SETUP_REPEATS):
        start = time.process_time()
        sb = import_package()
        workload = workloads.BUILDERS[name](sb.runner, seed)
        seqs = {}
        for cell in workload.cells:
            key = (cell.label, cell.tasks)
            if key not in seqs:
                seqs[key] = sb.runner.make_benchmark(cell.bench, cell.tasks)
        cpu = time.process_time() - start
        ref_next = reference_cpu()
        times.append(cpu * 2 * REFERENCE_NOMINAL_S / (ref + ref_next))
        ref = ref_next
    return statistics.median(times), sb, workload, seqs


def run_job(sb, job, checks: tracing.Checks) -> dict:
    """Run one job: its raw CPU and wall time, {cell key: manifest}, the
    failures, the evaluations of a non-finite network, and the files and
    bytes written."""
    checks.failures = []
    checks.diverged = 0
    res = {"manifests": {}, "failures": [], "files": 0, "bytes": 0}
    out = code = None
    wall = time.perf_counter()
    cpu = time.process_time()
    try:
        if job.matrix is None:
            (cell,) = job.cells
            res["manifests"][cell.key] = sb.runner.run_experiment(
                cell.bench, cell.scheme, cell.tasks, cell.seed, cell.overrides)
        else:
            out = Path(tempfile.mkdtemp(dir=SCRATCH))
            code = sb.runner.run_matrix(job.matrix, out)
    except Exception as exc:  # a failing cell is counted, and the run goes on
        res["failures"].append(f"{type(exc).__name__}: {exc}")
    res["cpu"] = time.process_time() - cpu
    res["wall"] = time.perf_counter() - wall
    res["failures"] += checks.failures
    res["diverged"] = checks.diverged
    if out is not None:
        try:
            if code != 0:
                res["failures"].append(f"run_matrix returned {code}")
            rows = (out / "rows.jsonl").read_text().splitlines()
            expected = sum(cell.tasks for cell in job.cells)
            if len(rows) != expected:
                res["failures"].append(f"rows.jsonl has {len(rows)} rows, expected {expected}")
            for cell in job.cells:
                path = out / f"{cell.scheme}_t{cell.tasks}_s{cell.seed}" / "manifest.json"
                res["manifests"][cell.key] = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            res["failures"].append(f"sweep output unreadable: {type(exc).__name__}: {exc}")
        for path in out.rglob("*"):
            if path.is_file():
                res["files"] += 1
                res["bytes"] += path.stat().st_size
        shutil.rmtree(out)
    return res


def run_round(sb, workload, checks, seqs, stop_at=None) -> dict:
    """One pass over the workload's jobs, with the output checks.

    Job times are kept raw and at reference speed (see reference_cpu). With
    stop_at, no job starts after that perf_counter() time, so the round may
    end early. Failed cells map to their problems. The average-incremental
    accuracy guard is on the workload's mean over a complete round, against
    the mean chance level of its cells; the cells at or below their own chance
    level are listed as well. So are the jobs that evaluated a network with
    non-finite weights, which the program does not report itself.
    """
    rnd = {"job_cpu_s": [], "job_wall_s": [], "job_cpu_raw_s": [], "reference_cpu_s": [],
           "digests": {}, "accs": [], "failed": {}, "at_chance": [], "diverged": [],
           "cells": 0, "files_written": 0, "bytes_written": 0}
    chances = []
    ref = reference_cpu()
    for job in workload.jobs:
        if stop_at is not None and time.perf_counter() >= stop_at:
            return rnd
        res = run_job(sb, job, checks)
        ref_next = reference_cpu()
        speed = 2 * REFERENCE_NOMINAL_S / (ref + ref_next)
        ref = ref_next
        rnd["job_cpu_s"].append(res["cpu"] * speed)
        rnd["job_wall_s"].append(res["wall"] * speed)
        rnd["job_cpu_raw_s"].append(res["cpu"])
        rnd["reference_cpu_s"].append(ref)
        rnd["cells"] += len(job.cells)
        rnd["files_written"] += res["files"]
        rnd["bytes_written"] += res["bytes"]
        if res["diverged"]:
            rnd["diverged"].append(job.cells[0].key if job.matrix is None
                                   else f"{job.scheme} sweep")
        for cell in job.cells:
            problems = list(res["failures"])
            manifest = res["manifests"].get(cell.key)
            if manifest is None:
                problems.append("no manifest")
            else:
                problems += tracing.check_reports(manifest["reports"])
                rnd["digests"][cell.key] = tracing.digest(manifest["reports"])
                acc = manifest["avg_incremental_acc"]
                chance = workloads.chance_level(seqs[(cell.label, cell.tasks)])
                if acc is None or not np.isfinite(acc):
                    problems.append(f"avg_incremental_acc is {acc}")
                else:
                    rnd["accs"].append(acc)
                    chances.append(chance)
                    if acc <= chance:
                        rnd["at_chance"].append(cell.key)
            if problems:
                rnd["failed"][cell.key] = problems
    if not (rnd["accs"] and statistics.fmean(rnd["accs"]) > statistics.fmean(chances)):
        for cell in workload.cells:
            rnd["failed"].setdefault(cell.key, []).append("avg_inc_acc not above chance")
    return rnd


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "workload_seed": seed}


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds, workload, setup_s, steps_per_round) -> dict:
    """Each job's CPU and wall time at reference speed is the mean of its
    untraced samples; cpu_s and wall_s are sums of those over one round.

    Means, not medians: the host's speed switches between two levels for
    seconds at a time, and a median jumps between them where a mean moves
    with the share of time spent in each. On a shared 2-vCPU Xeon VM, over
    ten seeds, the run-to-run spread of cpu_s was 0.10-0.17 with means and
    0.13-0.26 with medians.
    """
    mean = statistics.fmean
    rounds = [r for r in rounds if not r["traced"]]
    cpu = [mean(r["job_cpu_s"][k] for r in rounds if len(r["job_cpu_s"]) > k)
           for k in range(len(workload.jobs))]
    wall = [mean(r["job_wall_s"][k] for r in rounds if len(r["job_wall_s"]) > k)
            for k in range(len(workload.jobs))]
    values = {"cpu_s": sum(cpu), "wall_s": sum(wall),
              "steps_per_cpu_s": steps_per_round / sum(cpu)}
    for scheme in workloads.SCHEMES:
        per_cell = [c / len(job.cells) for c, job in zip(cpu, workload.jobs)
                    if job.scheme == scheme]
        values[f"cell_cpu_s.{scheme}"] = statistics.fmean(per_cell)
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["avg_inc_acc"] = statistics.fmean(rounds[0]["accs"])
    return {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(rounds) -> dict:
    """Per-layer metrics: timings are means over traced rounds; counters
    come from the first traced round (every round gives the same ones)."""
    mean = statistics.fmean
    traced = [r for r in rounds if r["traced"]]
    counters = traced[0]["trace"]["counters"]
    timings = [r["trace"]["timings"] for r in traced]
    out = {}
    for name in tracing.TRACE_NAMES:
        out[f"{name}.calls"] = metric(counters["calls"][name], "count")
    for name in SELF_TIMED:
        out[f"{name}.self_cpu_s"] = metric(
            mean(t["functions"][name]["self_cpu_s"] for t in timings), "s")
    for layer in tracing.LAYERS:
        out[f"{layer}.self_cpu_s"] = metric(mean(t["layer_self_cpu_s"][layer] for t in timings), "s")
    for phase in tracing.PHASES:
        out[f"phase.{phase}.cpu_s"] = metric(mean(t["phase_cpu_s"][phase] for t in timings), "s")
    for phase in TRAINING_PHASES:
        out[f"phase.{phase}.steps"] = metric(counters["steps"][phase], "count")
    out["steps.total"] = metric(counters["steps"]["total"], "count")
    out["net.matmul_gflop"] = metric(counters["net.matmul_gflop"], "GFLOP")
    out["net.forward_per_step"] = metric(counters["net.forward_per_step"], "ratio")
    out["partition.cross_groups_per_split"] = metric(
        counters["partition.cross_groups_per_split"], "ratio")
    out["runner.files_written"] = metric(traced[0]["files_written"], "count")
    out["runner.bytes_written"] = metric(traced[0]["bytes_written"], "B")
    traced_cpu = mean(sum(r["job_cpu_s"]) for r in traced)
    untraced_cpu = mean(sum(r["job_cpu_s"]) for r in rounds if not r["traced"])
    out["trace_overhead"] = metric(traced_cpu / untraced_cpu - 1.0, "ratio")
    return out


def trace_details(rounds) -> dict:
    """The full trace: per-function calls, inclusive and self CPU, and self
    CPU per (phase, kernel), each a mean over traced rounds."""
    mean = statistics.fmean
    timings = [r["trace"]["timings"] for r in rounds if r["traced"]]
    functions = {name: {field: mean(t["functions"][name][field] for t in timings)
                        for field in ("calls", "incl_cpu_s", "self_cpu_s")}
                 for name in tracing.TRACE_NAMES}
    keys = sorted({k for t in timings for k in t["phase_kernel_self_cpu_s"]})
    by_phase = {k: mean(t["phase_kernel_self_cpu_s"].get(k, 0.0) for t in timings) for k in keys}
    counters = [r["trace"]["counters"] for r in rounds if r["traced"]]
    return {"functions": functions, "phase_kernel_self_cpu_s": by_phase,
            "counters": counters[0], "counters_repeat": all(c == counters[0] for c in counters)}


def digest_summary(rounds) -> dict:
    """Per scheme: cells run and distinct report digests seen over all rounds.
    More digests than cells means a cell's outputs changed between rounds."""
    seen = {}
    for r in rounds:
        for key, value in r["digests"].items():
            seen.setdefault(key.split("/")[1].split("_")[0], {}).setdefault(key, set()).add(value)
    return {scheme: {"cells": len(cells), "distinct_digests": len(set().union(*cells.values()))}
            for scheme, cells in sorted(seen.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        setup_s, sb, workload, seqs = set_up(args.workload, args.seed)
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    steps = workloads.cells_steps(sb.runner, workload.cells, seqs)
    checks = tracing.Checks(sb, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    rounds = []
    SCRATCH.mkdir(exist_ok=True)
    try:
        deadline = time.perf_counter() + args.seconds
        # untraced runs may stop between jobs once one round is complete;
        # --trace 1 alternates whole untraced and traced rounds, and the CPU
        # of the two kinds gives the tracing overhead
        while not rounds or time.perf_counter() < deadline or (tracer and len(rounds) < 2):
            traced = tracer is not None and len(rounds) % 2 == 1
            with tracing.patched() as patches:
                if traced:
                    tracer.reset()
                    tracer.install(sb, patches)
                checks.install(patches)
                stop_at = deadline if rounds and tracer is None else None
                rnd = run_round(sb, workload, checks, seqs, stop_at)
                missing = patches.missing
            rnd["traced"] = traced
            if traced:
                rnd["trace"] = tracer.summary()
            rounds.append(rnd)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    attempted = sum(r["cells"] for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    failures = {}
    for r in rounds:
        for key, problems in r["failed"].items():
            failures.setdefault(key, problems)
    for key, problems in failures.items():
        print(f"perfbench: cell {key} failed: {'; '.join(problems)}", file=sys.stderr)
    diverged = sorted({key for r in rounds for key in r["diverged"]})
    for key in diverged:
        print(f"perfbench: {key} evaluated a network with non-finite weights", file=sys.stderr)
    details = {
        "workload": args.workload, "environment": environment(args.seed),
        "rounds": len(rounds), "round_traced": [r["traced"] for r in rounds],
        "job_cpu_s": [r["job_cpu_s"] for r in rounds],
        "job_wall_s": [r["job_wall_s"] for r in rounds],
        "job_cpu_raw_s": [r["job_cpu_raw_s"] for r in rounds],
        "reference_cpu_s": [r["reference_cpu_s"] for r in rounds],
        "sgd_steps_per_round": steps,
        "files_written_per_round": rounds[0]["files_written"],
        "bytes_written_per_round": rounds[0]["bytes_written"],
        "fail_frac": failed / attempted, "failures": failures,
        "cells_at_or_below_chance": rounds[0]["at_chance"],
        "diverged": diverged,
        "missing_hooks": missing, "checks_skipped": sorted(checks.skipped),
        "digests": rounds[0]["digests"], "digest_summary": digest_summary(rounds),
    }
    if tracer is not None:
        details["trace"] = trace_details(rounds)
        metrics = per_layer(rounds)
    else:
        metrics = end_to_end(rounds, workload, setup_s, sum(steps.values()))
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

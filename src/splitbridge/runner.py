"""Experiment driver: single runs and (scheme x task-count x seed) sweeps
with JSON manifests, JSONL metric rows, and a summary CSV."""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import data as databench
from .engine import SchemeConfig, run_sequence
from .metrics import average_incremental_accuracy

WORKERS_ENV = "SPLITBRIDGE_WORKERS"

DEFAULT_BENCHMARK = {
    "source": "synthetic",
    "num_classes": 8,
    "feature_dim": 16,
    "train_per_class": 200,
    "test_per_class": 100,
    "data_seed": 1,
    "arrange_seed": 1,
    "mean_radius": 3.0,
}

METRIC_KEYS = ("overall_acc", "old_acc", "new_acc", "intra_old_acc", "intra_new_acc")


def make_benchmark(bench: dict, num_tasks: int) -> databench.TaskSequence:
    """Instantiate the configured dataset pair and split it into tasks."""
    source = bench.get("source", "synthetic")
    if source == "synthetic":
        train, test = databench.gen_synthetic(
            num_classes=bench["num_classes"],
            feature_dim=bench["feature_dim"],
            train_per_class=bench["train_per_class"],
            test_per_class=bench["test_per_class"],
            seed=bench["data_seed"],
            mean_radius=bench.get("mean_radius", 3.0),
        )
    elif source == "glyphs":
        train, test = databench.gen_glyph_images(
            num_classes=bench["num_classes"],
            side=bench.get("side", 8),
            train_per_class=bench["train_per_class"],
            test_per_class=bench["test_per_class"],
            seed=bench["data_seed"],
            noise=bench.get("noise", 0.15),
        )
    elif source == "idx":
        train = databench.load_idx(bench["train_images"], bench["train_labels"])
        test = databench.load_idx(bench["test_images"], bench["test_labels"])
    elif source == "csv":
        train = databench.load_csv(bench["train_csv"])
        test = databench.load_csv(bench["test_csv"])
    else:
        raise ValueError(f"unknown benchmark source {source!r}")
    return databench.split_tasks(train, test, num_tasks, bench.get("arrange_seed", 0))


def build_config(scheme: str, seed: int, overrides: dict | None = None) -> SchemeConfig:
    overrides = overrides or {}
    for key in sorted({"scheme", "seed"} & overrides.keys()):
        raise ValueError(f"{key!r} is set at the top level (a matrix: {key}s), not in 'config'")
    unknown = overrides.keys() - {f.name for f in dataclasses.fields(SchemeConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return SchemeConfig(scheme=scheme, seed=seed, **overrides)


def run_experiment(bench: dict, scheme: str, num_tasks: int, seed: int,
                   overrides: dict | None = None, out_dir=None) -> dict:
    """Run one (scheme, task count, seed) cell and return its manifest dict.

    When out_dir is given, per-step checkpoints and the manifest are written
    there.
    """
    seq = make_benchmark(bench, num_tasks)
    cfg = build_config(scheme, seed, overrides)
    results = run_sequence(seq, cfg)
    manifest = {
        "scheme": scheme,
        "tasks": num_tasks,
        "seed": seed,
        "benchmark": bench,
        "config": dataclasses.asdict(cfg),
        "reports": [r.report.to_dict() for r in results],
        "plans": [r.plan_summary for r in results],
        "diagnostics": [r.diagnostics for r in results],
        "avg_incremental_acc": (
            average_incremental_accuracy([r.report for r in results])
            if len(results) >= 2 else None
        ),
    }
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for r in results:
            r.net.save(out_dir / f"step{r.step}.ckpt")
        _write_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=2))
    return manifest


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _cell(args):
    bench, scheme, tasks, seed, overrides, cell_dir = args
    try:
        return run_experiment(bench, scheme, tasks, seed, overrides, cell_dir), None
    except Exception as exc:
        return None, {"cell": f"{scheme}_t{tasks}_s{seed}", "error": str(exc)}


def run_matrix(matrix: dict, out_dir) -> int:
    """Run every (scheme, task-count, seed) cell; returns a process exit code.

    Writes rows.jsonl (one row per cell and step), summary.csv (mean/std over
    seeds), and a per-cell directory with checkpoints and a manifest. Cell
    failures are recorded and the remaining cells continue; any failure makes
    the exit code nonzero. SPLITBRIDGE_WORKERS (default 1) cells run at once,
    at most one per cell; a value that is not an integer >= 1 raises a
    ValueError before anything is written.
    """
    out_dir = Path(out_dir)
    bench = {**DEFAULT_BENCHMARK, **matrix.get("benchmark", {})}
    schemes = matrix["schemes"]
    task_counts = matrix["task_counts"]
    seeds = matrix["seeds"]
    overrides = matrix.get("config", {})
    if not (schemes and task_counts and seeds):
        raise ValueError("matrix axes must be non-empty")
    raw = os.environ.get(WORKERS_ENV, "1")
    if not (raw.strip().isdecimal() and int(raw) >= 1):
        raise ValueError(f"{WORKERS_ENV} must be an integer >= 1, got {raw!r}")

    jobs = []
    for scheme in schemes:
        for tasks in task_counts:
            for seed in seeds:
                cell_dir = out_dir / f"{scheme}_t{tasks}_s{seed}"
                jobs.append((bench, scheme, tasks, seed, overrides, cell_dir))

    out_dir.mkdir(parents=True, exist_ok=True)
    workers = min(int(raw), len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_cell, jobs))
    else:
        outcomes = [_cell(job) for job in jobs]
    manifests = [m for m, _ in outcomes]
    failures = [f for _, f in outcomes if f is not None]

    rows = []
    for m in manifests:
        if m is None:
            continue
        for report in m["reports"]:
            rows.append({"scheme": m["scheme"], "tasks": m["tasks"], "seed": m["seed"], **report})
    rows.sort(key=lambda r: (r["scheme"], r["tasks"], r["seed"], r["step"]))
    _write_atomic(out_dir / "rows.jsonl",
                  "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    write_summary(rows, out_dir / "summary.csv")
    if failures:
        _write_atomic(out_dir / "failures.json", json.dumps(failures, indent=2))
    return 1 if failures else 0


def write_summary(rows: list[dict], path) -> None:
    """Mean and std over seeds for every (scheme, tasks, step, metric)."""
    cells: dict[tuple, dict[str, list[float]]] = {}
    for r in rows:
        key = (r["scheme"], r["tasks"], r["step"])
        bucket = cells.setdefault(key, {k: [] for k in METRIC_KEYS})
        for k in METRIC_KEYS:
            bucket[k].append(r[k])
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["scheme", "tasks", "step", "metric", "mean", "std", "n_seeds"])
        for key in sorted(cells, key=lambda k: (str(k[0]), k[1], k[2])):
            for metric in METRIC_KEYS:
                vals = np.array(cells[key][metric])
                writer.writerow([key[0], key[1], key[2], metric,
                                 repr(float(vals.mean())), repr(float(vals.std())),
                                 len(vals)])

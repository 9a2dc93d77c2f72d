"""Experiment driver: single runs and (scheme x task-count x seed) sweeps
with JSON manifests, JSONL metric rows, and a summary CSV."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from pathlib import Path

import numpy as np

from . import data as databench
from .engine import SCHEMES, SchemeConfig, run_sequence
from .metrics import average_incremental_accuracy

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
    """Instantiate the configured dataset pair and split it into tasks. A key
    the source needs and bench lacks raises a ValueError naming it."""
    source = bench.get("source", "synthetic")
    try:
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
    except KeyError as exc:
        raise ValueError(f"benchmark source {source!r} needs the key {exc.args[0]!r}") from None
    return databench.split_tasks(train, test, num_tasks, bench.get("arrange_seed", 0))


def build_config(scheme: str, seed: int, overrides: dict | None = None) -> SchemeConfig:
    overrides = overrides or {}
    for key in sorted({"scheme", "seed"} & overrides.keys()):
        raise ValueError(f"{key!r} is set at the top level (a matrix: {key}s), not in 'config'")
    unknown = overrides.keys() - {f.name for f in dataclasses.fields(SchemeConfig)}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return SchemeConfig(scheme=scheme, seed=seed, **overrides)


def run_cells(bench: dict, scheme: str, num_tasks: int, seeds: list[int],
              overrides: dict | None = None, out_dirs=None) -> list[dict]:
    """Run the (scheme, task count) cell of each seed, the seeds as one stack
    on one task sequence, and return their manifest dicts in seed order.

    When out_dirs, one directory per seed, is given, each cell's per-step
    checkpoints and manifest are written to its own.
    """
    seq = make_benchmark(bench, num_tasks)
    cfgs = [build_config(scheme, seed, overrides) for seed in seeds]
    manifests = []
    for cfg, results, out_dir in zip(cfgs, run_sequence(seq, cfgs), out_dirs or [None] * len(cfgs)):
        manifest = {
            "scheme": scheme,
            "tasks": num_tasks,
            "seed": cfg.seed,
            "benchmark": bench,
            "config": dataclasses.asdict(cfg),
            "reports": [r.report for r in results],
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
                r.net.save(out_dir / f"step{r.report['step']}.ckpt")
            _write_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=2))
        manifests.append(manifest)
    return manifests


def run_experiment(bench: dict, scheme: str, num_tasks: int, seed: int,
                   overrides: dict | None = None, out_dir=None) -> dict:
    """Run one (scheme, task count, seed) cell, run_cells with one seed, and
    return its manifest dict; with out_dir, its files are written there."""
    return run_cells(bench, scheme, num_tasks, [seed], overrides, [out_dir])[0]


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text, newline="")   # the text's line ends, verbatim
    os.replace(tmp, path)


def run_matrix(matrix: dict, out_dir) -> int:
    """Run every (scheme, task-count, seed) cell; returns a process exit code.

    Writes rows.jsonl (one row per cell and step), summary.csv (mean/std over
    seeds), and a per-cell directory with checkpoints and a manifest. The seeds
    of a (scheme, task count) group run as one stack (run_cells), one group
    after another in this process; a stack's failure is recorded for each of
    its cells, the other stacks continue, and any failure makes the exit code
    nonzero. A schemes, task_counts or seeds axis that is not a non-empty list
    of distinct values, an unknown scheme, a seed or config that build_config
    rejects, or a benchmark that no task count can build raises a ValueError
    before any write.
    """
    out_dir = Path(out_dir)
    bench = {**DEFAULT_BENCHMARK, **matrix.get("benchmark", {})}
    for axis in ("schemes", "task_counts", "seeds"):
        values = matrix.get(axis)
        if not (isinstance(values, list) and values):
            raise ValueError(f"matrix config needs a non-empty {axis!r} list, got {values!r}")
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:
            raise ValueError(f"matrix config's {axis!r} list repeats {repeated[0]!r}")
    seeds = matrix["seeds"]
    overrides = matrix.get("config", {})
    for scheme in matrix["schemes"]:  # a bad scheme, seed or config would fail each cell
        if scheme not in SCHEMES:
            raise ValueError(f"matrix config's 'schemes' list names {scheme!r}, "
                             f"not one of {', '.join(SCHEMES)}")
        for seed in seeds:
            build_config(scheme, seed, overrides)
    for tasks in matrix["task_counts"]:  # as would an error that every task count hits
        try:
            make_benchmark(bench, tasks)
            break
        except ValueError as exc:
            error = exc
    else:
        raise error

    out_dir.mkdir(parents=True, exist_ok=True)
    manifests, failures = [], []
    for scheme in matrix["schemes"]:
        for tasks in matrix["task_counts"]:
            names = [f"{scheme}_t{tasks}_s{seed}" for seed in seeds]
            try:
                manifests += run_cells(bench, scheme, tasks, seeds, overrides,
                                       [out_dir / name for name in names])
            except Exception as exc:  # fails every cell of the stack
                failures += [{"cell": name, "error": str(exc)} for name in names]

    rows = []
    for m in manifests:
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
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["scheme", "tasks", "step", "metric", "mean", "std", "n_seeds"])
    for key in sorted(cells, key=lambda k: (str(k[0]), k[1], k[2])):
        for metric in METRIC_KEYS:
            vals = np.array(cells[key][metric])
            writer.writerow([key[0], key[1], key[2], metric,
                             repr(float(vals.mean())), repr(float(vals.std())), len(vals)])
    _write_atomic(Path(path), text.getvalue())

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
from .data import INT, LIST, NUM, OBJECT, PATH, check, must_be
from .engine import SchemeConfig, run_sequence
from .metrics import average_incremental_accuracy

BENCH_SOURCES = {  # each source's keys in manifest order, and their defaults (None: none)
    "synthetic": {"num_classes": 8, "feature_dim": 16, "train_per_class": 200,
                  "test_per_class": 100, "data_seed": 1, "arrange_seed": 1, "mean_radius": 3.0},
    "glyphs": {"num_classes": 8, "side": 8, "train_per_class": 200, "test_per_class": 100,
               "data_seed": 1, "arrange_seed": 1, "noise": 0.15},
    "idx": {**dict.fromkeys(("train_images", "train_labels", "test_images", "test_labels")),
            "arrange_seed": 1},
    "csv": {"train_csv": None, "test_csv": None, "arrange_seed": 1},
}
DEFAULT_BENCHMARK = {"source": "synthetic", **BENCH_SOURCES["synthetic"]}

BENCH_KINDS = {  # each key some source reads, bar "source": its kind and lower bound for check
    **dict.fromkeys(("feature_dim", "train_per_class", "test_per_class", "data_seed",
                     "arrange_seed"), (INT, 0)),
    "num_classes": (INT, 1), "side": (INT, 1), "mean_radius": (NUM, None), "noise": (NUM, 0),
    **dict.fromkeys(("train_images", "train_labels", "test_images", "test_labels",
                     "train_csv", "test_csv"), (PATH, None)),
}
METRIC_KEYS = ("overall_acc", "old_acc", "new_acc", "intra_old_acc", "intra_new_acc")


def resolve_benchmark(bench: dict) -> dict:
    """The dataset a benchmark section means: its source, then each key that source
    reads in BENCH_SOURCES order, given or defaulted. A section that is not an object,
    an unknown source, a key the source does not read, a missing key without a default
    or a value not of its key's BENCH_KINDS kind and bound raises a ValueError."""
    check("benchmark", bench, OBJECT)
    source = bench.get("source", DEFAULT_BENCHMARK["source"])
    if source not in list(BENCH_SOURCES):  # a list: an unhashable source is not a TypeError
        raise must_be("benchmark key 'source'", source, "one of " + ", ".join(BENCH_SOURCES))
    keys = BENCH_SOURCES[source]
    for key in bench:  # in the section's order
        if key != "source" and key not in keys:
            raise ValueError(f"unknown benchmark key {key!r} = {bench[key]!r}, expected one "
                             f"of source, {', '.join(keys)} (the keys source {source!r} reads)")
    resolved = {"source": source}
    for key, default in keys.items():
        if key not in bench and default is None:
            raise ValueError(f"benchmark source {source!r} needs the key {key!r}")
        resolved[key] = bench.get(key, default)
        check(f"benchmark key {key!r}", resolved[key], *BENCH_KINDS[key])
    return resolved


def make_benchmark(bench: dict, num_tasks: int) -> databench.TaskSequence:
    """Instantiate the dataset pair resolve_benchmark(bench) means and split it into tasks."""
    b = resolve_benchmark(bench)
    if b["source"] == "synthetic":
        train, test = databench.gen_synthetic(b["num_classes"], b["feature_dim"],
                                              b["train_per_class"], b["test_per_class"],
                                              b["data_seed"], b["mean_radius"])
    elif b["source"] == "glyphs":
        train, test = databench.gen_glyph_images(b["num_classes"], b["side"],
                                                 b["train_per_class"], b["test_per_class"],
                                                 b["data_seed"], b["noise"])
    elif b["source"] == "idx":
        train = databench.load_idx(b["train_images"], b["train_labels"])
        test = databench.load_idx(b["test_images"], b["test_labels"])
    else:
        train, test = databench.load_csv(b["train_csv"]), databench.load_csv(b["test_csv"])
    return databench.split_tasks(train, test, num_tasks, b["arrange_seed"])


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

    When out_dirs, one directory per seed, is given, each cell's manifest and
    steps.ckpt, one checkpoint record per step, go to its own. The manifests
    record resolve_benchmark(bench), the dataset the cells trained on.
    """
    if out_dirs is not None and len(out_dirs) != len(seeds):
        raise ValueError(f"run_cells needs one out_dir per seed, got {len(out_dirs)} "
                         f"for {len(seeds)} seeds")
    bench = resolve_benchmark(bench)
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
            with open(out_dir / "steps.ckpt", "wb") as f:  # record t: step t's net
                for r in results:
                    r.net.save(f)
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
    seeds), and a per-cell directory with its checkpoint file and manifest. The seeds
    of a (scheme, task count) group run as one stack (run_cells), one group
    after another in this process; a stack's failure is recorded for each of
    its cells in failures.json (deleted if none fails), the other stacks go on,
    and any failure makes the exit code nonzero. An axis that is not a non-empty
    list of distinct values, a scheme, seed or config that build_config rejects,
    or a benchmark that no task count can build raises a ValueError before any write.
    """
    out_dir = Path(out_dir)
    bench = matrix.get("benchmark", {})
    for axis in ("schemes", "task_counts", "seeds"):
        check(f"matrix config's {axis!r}", matrix.get(axis), LIST)
    seeds = matrix["seeds"]
    overrides = matrix.get("config", {})
    for scheme in matrix["schemes"]:  # a bad scheme, seed or config would fail each cell
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

    rows = [{"scheme": m["scheme"], "tasks": m["tasks"], "seed": m["seed"], **report}
            for m in manifests for report in m["reports"]]
    rows.sort(key=lambda r: (r["scheme"], r["tasks"], r["seed"], r["step"]))
    _write_atomic(out_dir / "rows.jsonl",
                  "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    write_summary(rows, out_dir / "summary.csv")
    if failures:
        _write_atomic(out_dir / "failures.json", json.dumps(failures, indent=2))
    else:  # an earlier sweep's list would name cells that did not fail this time
        (out_dir / "failures.json").unlink(missing_ok=True)
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

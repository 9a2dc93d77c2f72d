"""Workload definitions: what one round of each workload runs, generated from
the workload seed.

A round is a fixed list of cells (or one sweep of them). Every round of a run
repeats the same inputs, so per-round CPU and per-round counters are
comparable across rounds and across runs of the same seed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

SCHEMES = ("sb", "std", "ce", "dd")

C5_OVERRIDES = {"hidden": [32, 32, 32, 32], "memory_capacity": 48, "rho": 1.0}
WIDE_OVERRIDES = {"hidden": [128, 128, 128, 128], "memory_capacity": 48}
MATRIX_OVERRIDES = {"hidden": [10, 10, 10], "split_index": 1, "epochs_first": 4,
                    "epochs_sparsify": 2, "epochs_branched": 2, "epochs_bridge": 2,
                    "epochs_std": 4, "memory_capacity": 12}


@dataclass(frozen=True)
class Cell:
    """One (benchmark, scheme, task count, seed) run of runner.run_experiment."""

    label: str
    bench: dict
    scheme: str
    tasks: int
    seed: int
    overrides: dict

    @property
    def key(self) -> str:
        return f"{self.label}/{self.scheme}_t{self.tasks}_s{self.seed}"


@dataclass(frozen=True)
class Job:
    """One timed call into the program: runner.run_experiment on a single
    cell, or, when `matrix` is set, runner.run_matrix over exactly `cells`."""

    scheme: str
    cells: tuple[Cell, ...]
    matrix: dict | None = None


@dataclass(frozen=True)
class Workload:
    """The jobs of one round, run in order."""

    jobs: tuple[Job, ...]

    @property
    def cells(self) -> list[Cell]:
        return [cell for job in self.jobs for cell in job.cells]


# The datasets are those of the acceptance criteria (data and arrange seed 1);
# the workload seed draws the cell seeds, which set the initial weights, the
# batch order and the exemplar draws. Drawing the dataset layout from the seed
# as well moved the c5_cells mean accuracy by 14% between seeds, too much for
# the avg_inc_acc guard.
GLYPH_BENCH = {"source": "glyphs", "num_classes": 10, "side": 8, "train_per_class": 150,
               "test_per_class": 60, "data_seed": 1, "arrange_seed": 1, "noise": 0.6}


def _seeds(seed: int, n: int) -> list[int]:
    return [int(v) for v in np.random.default_rng([seed, 7919]).integers(0, 2**31 - 1, n)]


def c5_cells(runner, seed: int) -> Workload:
    (cell_s,) = _seeds(seed, 1)
    benches = (("synthetic", runner.DEFAULT_BENCHMARK, 4), ("glyphs", GLYPH_BENCH, 5))
    jobs = tuple(Job(scheme, (Cell(label, bench, scheme, tasks, cell_s, C5_OVERRIDES),))
                 for label, bench, tasks in benches for scheme in SCHEMES)
    return Workload(jobs)


def sb_wide(runner, seed: int) -> Workload:
    (cell_s,) = _seeds(seed, 1)
    bench = runner.DEFAULT_BENCHMARK
    # the sb cell is the load; one cell of each baseline at the same width
    # keeps every per-scheme metric defined and serves as the no-split control
    jobs = tuple(Job(scheme, (Cell("synthetic", bench, scheme, 4, cell_s, WIDE_OVERRIDES),))
                 for scheme in SCHEMES)
    return Workload(jobs)


def matrix_sweep(runner, seed: int) -> Workload:
    # 16 seeds: the mean accuracy of fewer tiny cells swings by >10% between
    # workload seeds, too much for the avg_inc_acc guard
    cell_seeds = _seeds(seed, 16)
    bench = {**runner.DEFAULT_BENCHMARK, "num_classes": 4, "feature_dim": 6,
             "train_per_class": 30, "test_per_class": 15}
    task_counts = [2, 4]
    # one sweep per scheme, so each scheme's cell cost is timed through the
    # public run_matrix call alone, whatever the sweep does inside
    jobs = []
    for scheme in SCHEMES:
        matrix = {"benchmark": bench, "schemes": [scheme], "task_counts": task_counts,
                  "seeds": cell_seeds, "config": MATRIX_OVERRIDES}
        cells = tuple(Cell("synthetic", bench, scheme, tasks, s, MATRIX_OVERRIDES)
                      for tasks, s in itertools.product(task_counts, cell_seeds))
        jobs.append(Job(scheme, cells, matrix))
    return Workload(tuple(jobs))


BUILDERS = {"c5_cells": c5_cells, "sb_wide": sb_wide, "matrix_sweep": matrix_sweep}


def expected_steps(seq, cfg) -> dict[str, int]:
    """SGD steps per training phase implied by the config and task sizes:
    epochs x ceil(pool / batch), where the pool is the task's data plus the
    exemplar memory carried into the step."""
    def batches(n):
        return math.ceil(n / cfg.batch_size)

    sizes = [len(task.train) for task in seq.tasks]
    steps = {"first": cfg.epochs_first * batches(sizes[0])}
    mem = 0
    for prev, n in zip(sizes, sizes[1:]):
        mem = min(cfg.memory_capacity, mem + prev)
        pool = batches(n + mem)
        if cfg.scheme == "sb":
            phases = {"sparsify": cfg.epochs_sparsify * pool,
                      "branched": cfg.epochs_branched * pool,
                      "bridge": cfg.epochs_bridge * pool}
        elif cfg.scheme == "dd":
            phases = {"dd": cfg.epochs_std * (batches(n) + pool)}
        else:
            phases = {cfg.scheme: cfg.epochs_std * pool}
        for phase, k in phases.items():
            steps[phase] = steps.get(phase, 0) + k
    return steps


def cells_steps(runner, cells, seqs) -> dict[str, int]:
    """expected_steps summed over cells; seqs maps (label, tasks) to the
    task sequence of a cell."""
    steps = {}
    for cell in cells:
        cfg = runner.build_config(cell.scheme, cell.seed, cell.overrides)
        for phase, k in expected_steps(seqs[(cell.label, cell.tasks)], cfg).items():
            steps[phase] = steps.get(phase, 0) + k
    return steps


def chance_level(seq) -> float:
    """Average-incremental accuracy of a uniform guess over the classes seen."""
    seen = np.cumsum([task.classes.size for task in seq.tasks])
    return float(np.mean(1.0 / seen[1:]))

"""Accuracy decomposition for incremental evaluation: overall / old / new
accuracy under a global argmax, read off one count table, plus intra-old and
intra-new accuracy under a block-restricted argmax. Inference is raw argmax
with no balancing."""

from __future__ import annotations

import numpy as np

from .data import TaskRange


def report_from_predictions(logits: np.ndarray, labels: np.ndarray,
                            task_blocks: list[TaskRange]) -> dict:
    """Build step len(task_blocks)'s report from logits over pooled test
    samples: the JSON-ready dict a manifest stores, its keys in the
    manifest's order.

    task_blocks lists each task's class window, in task order; the last
    block is the "new" task of this step, everything before it is pooled as
    "old". Every count but the restricted argmaxes' comes from one table,
    table[true class][predicted class] under the global argmax: a class
    range's accuracy is its diagonal sum over its row sum (0.0 for a range
    without rows), and block_confusion is the table summed by block,
    [true block][predicted block], block 0 being the old classes and 1 the new.
    """
    labels = np.asarray(labels, dtype=np.int64)
    new = task_blocks[-1]
    old_hi = new.start                  # old classes are [0, old_hi)
    k = max(logits.shape[1], int(labels.max(initial=-1)) + 1)
    pred = logits.argmax(axis=1)
    table = np.bincount(labels * k + pred, minlength=k * k).reshape(k, k).tolist()
    rows = [sum(row) for row in table]
    hits = [row[c] for c, row in enumerate(table)]

    def acc(lo, hi):
        n = sum(rows[lo:hi])
        return sum(hits[lo:hi]) / n if n else 0.0

    def intra(lo, hi):  # accuracy of the argmax restricted to classes [lo, hi), on their rows
        n, mine = sum(rows[lo:hi]), (labels >= lo) & (labels < hi)
        if not n:  # as acc; step 1's old block [0, 0) has neither rows nor columns
            return 0.0
        return int((lo + logits[mine, lo:hi].argmax(axis=1) == labels[mine]).sum()) / n

    per_task = [acc(b.start, b.stop) for b in task_blocks]   # the last is the new accuracy
    confusion = [[sum(sum(row[:old_hi]) for row in table[lo:hi]),
                  sum(sum(row[old_hi:]) for row in table[lo:hi])]
                 for lo, hi in ((0, old_hi), (new.start, new.stop))]
    return {
        "step": len(task_blocks),
        "overall_acc": acc(0, k),
        "old_acc": acc(0, old_hi),
        "new_acc": per_task[-1],
        "intra_old_acc": intra(0, old_hi),
        "intra_new_acc": intra(new.start, new.stop),
        "per_task_acc": per_task,
        "n_old": sum(rows[:old_hi]),
        "n_new": sum(rows[new.start:new.stop]),
        "block_confusion": confusion,
    }


def evaluate(net, tasks: list) -> dict:
    """Evaluate a network on the test sets of tasks 1..len(tasks), as of
    step len(tasks); returns report_from_predictions' dict.

    Each task's class block is its Task.classes, whether or not every class has test
    rows. No task, or a task with an empty test set, raises ValueError.
    """
    if not tasks:
        raise ValueError("evaluate needs at least one task")
    for t, task in enumerate(tasks, start=1):
        if len(task.test) == 0:
            raise ValueError(f"task {t} has an empty test set")
    xs = np.vstack([task.test.x for task in tasks])
    ys = np.concatenate([task.test.y for task in tasks])
    blocks = [task.classes for task in tasks]
    logits = net.forward(xs)
    if logits.shape[1] < blocks[-1].stop:
        raise ValueError("network output narrower than the class range under test")
    return report_from_predictions(logits, ys, blocks)


def average_incremental_accuracy(reports: list[dict]) -> float:
    """Mean overall accuracy over every step after the first."""
    if len(reports) < 2:
        raise ValueError("need reports for at least two steps")
    return float(np.mean([r["overall_acc"] for r in reports[1:]]))

"""Accuracy decomposition for incremental evaluation: overall / old / new
accuracy under a global argmax, plus intra-old and intra-new accuracy under a
block-restricted argmax. Inference is raw argmax with no balancing."""

from __future__ import annotations

import numpy as np

from .data import TaskRange


def _acc(pred: np.ndarray, truth: np.ndarray) -> float:
    return float((pred == truth).mean()) if truth.size else 0.0


def report_from_predictions(
    logits: np.ndarray,
    labels: np.ndarray,
    task_blocks: list[TaskRange],
    step: int,
) -> dict:
    """Build the step's report from logits over pooled test samples: the
    JSON-ready dict a manifest stores, its keys in the manifest's order.

    task_blocks lists each task's class window, in task order; the last
    block is the "new" task of this step, everything before it is pooled as
    "old". block_confusion counts [true block][predicted block], block 0
    being the old classes and 1 the new.
    """
    labels = np.asarray(labels, dtype=np.int64)
    new_block = task_blocks[-1]
    old_hi = new_block.start            # old classes are [0, old_hi)
    pred = logits.argmax(axis=1)
    masks = [block.mask(labels) for block in task_blocks]
    is_old = labels < old_hi
    is_new = masks[-1]
    per_task = [_acc(pred[m], labels[m]) for m in masks]   # the last is the new accuracy

    # restricted argmax within the old (resp. new) class block; _acc scores a
    # block without rows 0.0, and step 1's old block [0, 0) has no columns
    intra_old = 0.0
    if old_hi > 0:
        intra_old_pred = logits[is_old][:, :old_hi].argmax(axis=1)
        intra_old = _acc(intra_old_pred, labels[is_old])
    intra_new_pred = old_hi + logits[is_new][:, new_block.slice()].argmax(axis=1)
    intra_new = _acc(intra_new_pred, labels[is_new])

    pred_old = pred < old_hi
    confusion = [[int((true & pred_old).sum()), int((true & ~pred_old).sum())]
                 for true in (is_old, is_new)]

    return {
        "step": step,
        "overall_acc": _acc(pred, labels),
        "old_acc": _acc(pred[is_old], labels[is_old]),
        "new_acc": per_task[-1],
        "intra_old_acc": intra_old,
        "intra_new_acc": intra_new,
        "per_task_acc": per_task,
        "n_old": int(is_old.sum()),
        "n_new": int(is_new.sum()),
        "block_confusion": confusion,
    }


def evaluate(net, tasks: list, step: int) -> dict:
    """Evaluate a network on the test sets of tasks 1..step; returns the
    step's report_from_predictions dict.

    Each task's class block is its Task.classes, whether or not every class has test
    rows. A step below 1, or a task with an empty test set, raises ValueError naming it.
    """
    if step < 1:
        raise ValueError(f"step must be at least 1, got {step}")
    if len(tasks) != step:
        raise ValueError(f"need one test set per task 1..{step}, got {len(tasks)}")
    for t, task in enumerate(tasks, start=1):
        if len(task.test) == 0:
            raise ValueError(f"task {t} has an empty test set")
    xs = np.vstack([task.test.x for task in tasks])
    ys = np.concatenate([task.test.y for task in tasks])
    blocks = [task.classes for task in tasks]
    logits = net.forward(xs)
    if logits.shape[1] < blocks[-1].stop:
        raise ValueError("network output narrower than the class range under test")
    return report_from_predictions(logits, ys, blocks, step)


def average_incremental_accuracy(reports: list[dict]) -> float:
    """Mean overall accuracy over every step after the first."""
    if len(reports) < 2:
        raise ValueError("need reports for at least two steps")
    return float(np.mean([r["overall_acc"] for r in reports[1:]]))

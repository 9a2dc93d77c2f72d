"""Accuracy decomposition for incremental evaluation: overall / old / new
accuracy under a global argmax, plus intra-old and intra-new accuracy under a
block-restricted argmax. Inference is raw argmax with no balancing."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .data import TaskRange


@dataclass
class EvalReport:
    step: int
    overall_acc: float
    old_acc: float
    new_acc: float
    intra_old_acc: float
    intra_new_acc: float
    per_task_acc: list[float] = field(default_factory=list)
    n_old: int = 0
    n_new: int = 0
    # counts [true block][predicted block], blocks: 0 = old classes, 1 = new
    block_confusion: list[list[int]] = field(default_factory=lambda: [[0, 0], [0, 0]])

    def to_dict(self) -> dict:
        """JSON-ready record; the keys follow the field order."""
        return asdict(self)


def _acc(pred: np.ndarray, truth: np.ndarray) -> float:
    return float((pred == truth).mean()) if truth.size else 0.0


def report_from_predictions(
    logits: np.ndarray,
    labels: np.ndarray,
    task_blocks: list[TaskRange],
    step: int,
) -> EvalReport:
    """Build the five-metric report from logits over pooled test samples.

    task_blocks lists each task's class window, in task order; the last
    block is the "new" task of this step, everything before it is pooled as
    "old".
    """
    labels = np.asarray(labels, dtype=np.int64)
    new_block = task_blocks[-1]
    old_hi = new_block.start            # old classes are [0, old_hi)
    pred = logits.argmax(axis=1)

    is_old = labels < old_hi
    is_new = new_block.mask(labels)
    old_acc = _acc(pred[is_old], labels[is_old])
    new_acc = _acc(pred[is_new], labels[is_new])
    overall = _acc(pred, labels)

    # restricted argmax within the old (resp. new) class block; _acc scores a
    # block without rows 0.0, and step 1's old block [0, 0) has no columns
    intra_old = 0.0
    if old_hi > 0:
        intra_old_pred = logits[is_old][:, :old_hi].argmax(axis=1)
        intra_old = _acc(intra_old_pred, labels[is_old])
    intra_new_pred = old_hi + logits[is_new][:, new_block.slice()].argmax(axis=1)
    intra_new = _acc(intra_new_pred, labels[is_new])

    per_task = []
    for block in task_blocks:
        sel = block.mask(labels)
        per_task.append(_acc(pred[sel], labels[sel]))

    confusion = [[0, 0], [0, 0]]
    pred_old = pred < old_hi
    confusion[0][0] = int((is_old & pred_old).sum())
    confusion[0][1] = int((is_old & ~pred_old).sum())
    confusion[1][0] = int((is_new & pred_old).sum())
    confusion[1][1] = int((is_new & ~pred_old).sum())

    return EvalReport(
        step=step,
        overall_acc=overall,
        old_acc=old_acc,
        new_acc=new_acc,
        intra_old_acc=intra_old,
        intra_new_acc=intra_new,
        per_task_acc=per_task,
        n_old=int(is_old.sum()),
        n_new=int(is_new.sum()),
        block_confusion=confusion,
    )


def evaluate(net, tasks: list, step: int) -> EvalReport:
    """Evaluate a network on the test sets of tasks 1..step.

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


def average_incremental_accuracy(reports: list[EvalReport]) -> float:
    """Mean overall accuracy over every step after the first."""
    if len(reports) < 2:
        raise ValueError("need reports for at least two steps")
    return float(np.mean([r.overall_acc for r in reports[1:]]))

"""Loss functions: CE, temperature KD, localized CE, the composite mix, and the
cross-partition sparsity penalty. Every loss returns its value together with
the analytic gradient so training never relies on numeric differentiation.

All batch losses are batch means, so the composite mixing weight combines
like-scaled quantities. Probabilities are floored at 1e-12 inside logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LOG_FLOOR = 1e-12
_NORM_EPS = 1e-8


@dataclass(frozen=True)
class TaskRange:
    """Half-open class-index window [start, stop) of one task's logits."""

    start: int
    stop: int

    def __post_init__(self):
        if not (0 <= self.start < self.stop):
            raise ValueError(f"invalid task range [{self.start}, {self.stop})")

    @property
    def width(self) -> int:
        return self.stop - self.start

    def slice(self) -> slice:
        return slice(self.start, self.stop)


@dataclass
class LossValue:
    value: float
    grad_logits: np.ndarray


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Tempered softmax along the last axis, stabilized by max subtraction."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape[-1] == 0:
        raise ValueError("softmax of empty logits")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    z = logits / temperature
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _as_batch(logits: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.asarray(logits, dtype=np.float64))


def ce_loss(logits: np.ndarray, labels: np.ndarray) -> LossValue:
    """Mean cross entropy against integer class labels over all logits."""
    logits = _as_batch(logits)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    n, c = logits.shape
    if labels.shape[0] != n:
        raise ValueError("labels and logits disagree on batch size")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c})")
    p = softmax(logits)
    value = -np.log(np.maximum(p[np.arange(n), labels], _LOG_FLOOR)).mean()
    grad = p.copy()
    grad[np.arange(n), labels] -= 1.0
    return LossValue(float(value), grad / n)


def kd_loss(
    logits: np.ndarray,
    teacher_probs: np.ndarray,
    task_range: TaskRange,
    temperature: float,
) -> LossValue:
    """Distillation cross entropy over task_range sub-logits only.

    teacher_probs are the teacher's already-tempered soft labels over the same
    class window; gradient is zero at every logit outside the window.
    """
    logits = _as_batch(logits)
    teacher_probs = _as_batch(teacher_probs)
    if task_range.stop > logits.shape[1]:
        raise ValueError("task range exceeds logit width")
    if teacher_probs.shape != (logits.shape[0], task_range.width):
        raise ValueError(
            f"teacher output shape {teacher_probs.shape} does not match "
            f"batch x range width ({logits.shape[0]}, {task_range.width})"
        )
    n = logits.shape[0]
    q = softmax(logits[:, task_range.slice()], temperature)
    value = -(teacher_probs * np.log(np.maximum(q, _LOG_FLOOR))).sum(axis=1).mean()
    grad = np.zeros_like(logits)
    grad[:, task_range.slice()] = (q - teacher_probs) / (temperature * n)
    return LossValue(float(value), grad)


def lce_loss(logits: np.ndarray, labels: np.ndarray, task_range: TaskRange) -> LossValue:
    """Cross entropy with softmax restricted to task_range sub-logits.

    Every label must fall inside the range; logits outside it contribute
    nothing to the value and receive exactly zero gradient.
    """
    logits = _as_batch(logits)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if task_range.stop > logits.shape[1]:
        raise ValueError("task range exceeds logit width")
    if labels.size and (labels.min() < task_range.start or labels.max() >= task_range.stop):
        raise ValueError("lce_loss label outside the task range")
    local = ce_loss(logits[:, task_range.slice()], labels - task_range.start)
    grad = np.zeros_like(logits)
    grad[:, task_range.slice()] = local.grad_logits
    return LossValue(local.value, grad)


def std_composite_loss(
    logits: np.ndarray,
    labels: np.ndarray,
    teacher_probs: np.ndarray,
    old_range: TaskRange,
    lam: float,
    temperature: float,
) -> LossValue:
    """lam * KD(old range) + (1 - lam) * CE(all classes)."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError("mixing weight must lie in [0, 1]")
    kd = kd_loss(logits, teacher_probs, old_range, temperature)
    ce = ce_loss(logits, labels)
    return LossValue(
        lam * kd.value + (1.0 - lam) * ce.value,
        lam * kd.grad_logits + (1.0 - lam) * ce.grad_logits,
    )


def lambda_schedule(c_old: int, c_new: int) -> float:
    """Mixing weight c_old / (c_old + c_new); 0.0 on the first task."""
    if c_old < 0 or c_new < 1:
        raise ValueError("need c_old >= 0 and c_new >= 1")
    return c_old / (c_old + c_new)


def sparsify_penalty(net, plan, gamma: float, into=None) -> float:
    """Group-norm penalty on cross-partition weights.

    value = gamma * sum over partitioned layers of the Frobenius norms of the
    old-to-new and new-to-old blocks in plan.groups (at gamma = 1, the
    cross-partition norm). Returns the value. With into, a GradientSet of
    net, the gradient is also added into into.wgrads in place, touching only
    the cross weights.
    Gradient of each group is gamma * w / ||W_group||_F with the norm floored
    at 1e-8, so entries are driven toward exactly zero; within-partition
    weights get zero gradient.
    """
    value = 0.0
    for li, pair in plan.groups.blocks.items():
        w = net.layers[li].w
        for block in pair:
            v = w[block].ravel()  # a C-order copy: the norm sums in row-major order
            norm = float(np.sqrt((v ** 2).sum()))
            value += norm
            if into is not None:
                g = into.wgrads[li][block]
                g += (gamma * (v / max(norm, _NORM_EPS))).reshape(g.shape)
    return float(gamma * value)

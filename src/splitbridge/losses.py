"""Loss functions: CE, temperature KD, localized CE, the composite mix, and the
cross-partition sparsity penalty. Every loss returns its value together with
the analytic gradient so training never relies on numeric differentiation.

All batch losses are batch means, so the composite mixing weight combines
like-scaled quantities. Probabilities are floored at 1e-12 inside logs.
The gradients come from unchecked kernels on float64 batches or logit slices;
the public losses check their arguments and wrap them, training calls them.
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


def _softmax(z: np.ndarray, temperature: float) -> np.ndarray:
    """Unchecked: softmax(z / temperature) along the last axis, a new array."""
    z = z / temperature
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _ce_grad(p: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Unchecked: a batch's softmax p becomes d(mean CE)/d(logits), in place."""
    p[np.arange(len(p)), labels] -= 1.0
    p /= len(p)
    return p


def _kd_grad(q: np.ndarray, teacher_probs: np.ndarray, temperature: float) -> np.ndarray:
    """Unchecked: a batch's tempered softmax q becomes d(mean KD)/d(window logits), in place."""
    q -= teacher_probs
    q /= temperature * len(q)
    return q


def _composite_grad(kd_grad: np.ndarray, ce_grad: np.ndarray, window: slice, lam: float):
    """Unchecked: ce_grad becomes lam * kd_grad (on window) + (1 - lam) * ce_grad, in place."""
    ce_grad *= 1.0 - lam
    np.add(lam * kd_grad, ce_grad[:, window], out=ce_grad[:, window])
    return ce_grad


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Tempered softmax along the last axis, stabilized by max subtraction."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape[-1] == 0:
        raise ValueError("softmax of empty logits")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    return _softmax(logits, temperature)


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
    return LossValue(float(value), _ce_grad(p, labels))


def kd_loss(logits: np.ndarray, teacher_probs: np.ndarray, task_range: TaskRange,
            temperature: float) -> LossValue:
    """Distillation cross entropy over task_range sub-logits only.

    teacher_probs are the teacher's already-tempered soft labels over the same
    class window; gradient is zero at every logit outside the window.
    """
    logits = _as_batch(logits)
    teacher_probs = _as_batch(teacher_probs)
    if task_range.stop > logits.shape[1]:
        raise ValueError("task range exceeds logit width")
    if teacher_probs.shape != (logits.shape[0], task_range.width):
        raise ValueError(f"teacher output shape {teacher_probs.shape} does not match "
                         f"batch x range width ({logits.shape[0]}, {task_range.width})")
    q = softmax(logits[:, task_range.slice()], temperature)
    value = -(teacher_probs * np.log(np.maximum(q, _LOG_FLOOR))).sum(axis=1).mean()
    grad = np.zeros_like(logits)
    grad[:, task_range.slice()] = _kd_grad(q, teacher_probs, temperature)
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


def std_composite_loss(logits: np.ndarray, labels: np.ndarray, teacher_probs: np.ndarray,
                       old_range: TaskRange, lam: float, temperature: float) -> LossValue:
    """lam * KD(old range) + (1 - lam) * CE(all classes)."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError("mixing weight must lie in [0, 1]")
    kd = kd_loss(logits, teacher_probs, old_range, temperature)
    ce = ce_loss(logits, labels)
    window = old_range.slice()
    return LossValue(lam * kd.value + (1.0 - lam) * ce.value,
                     _composite_grad(kd.grad_logits[:, window], ce.grad_logits, window, lam))


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

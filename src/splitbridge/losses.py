"""Loss kernels: CE, temperature KD, the composite mix, and the cross-partition
sparsity penalty. Training's phase losses (engine's _ce, _composite, _kd_lce and
_double_kd) are built from these kernels, so it never relies on numeric
differentiation.

All batch losses are batch means, so the composite mixing weight combines
like-scaled quantities. Probabilities are floored at 1e-12 inside logs.
The kernels are unchecked and work on float64 batches or logit slices; each
turns a softmax into its gradient in place and, on request, records the loss
value first. softmax is the checked entry point for soft labels.
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


def _softmax(z: np.ndarray, temperature: float) -> np.ndarray:
    """Unchecked: softmax(z / temperature) along the last axis, a new array."""
    z = z / temperature
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _mean_nll(probs: np.ndarray, weights, n: int) -> float:
    """sum(-weights * log(probs)) / n with probs floored; 0.0 for a batch of no rows."""
    return float(np.sum(-weights * np.log(np.maximum(probs, _LOG_FLOOR))) / max(n, 1))


def _ce_grad(p: np.ndarray, labels: np.ndarray, parts=None, key="ce") -> np.ndarray:
    """Unchecked: a batch's softmax p becomes d(mean CE)/d(logits), in place.
    Given a dict parts, parts[key] is first set to the mean CE."""
    rows = np.arange(len(p))
    if parts is not None:
        parts[key] = _mean_nll(p[rows, labels], 1.0, len(p))
    p[rows, labels] -= 1.0
    p /= len(p)
    return p


def _kd_grad(q: np.ndarray, teacher_probs: np.ndarray, temperature: float, parts=None,
             key="kd") -> np.ndarray:
    """Unchecked: a batch's tempered softmax q becomes d(mean KD)/d(window logits), in
    place. Given a dict parts, parts[key] is first set to the mean KD, the cross entropy
    of q against teacher_probs."""
    if parts is not None:
        parts[key] = _mean_nll(q, teacher_probs, len(q))
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

"""Loss kernels: CE, temperature KD and the cross-partition sparsity penalty.
Training's phase losses (engine's _ce, _kd_lce and _kd_ce, the KD+CE mix of
std, the bridge and dd) are built from these kernels, so it never relies on
numeric differentiation.

All batch losses are batch means, so the composite mixing weight combines
like-scaled quantities. Probabilities are floored at 1e-12 inside logs.
The kernels are unchecked and work on float64 batches (..., rows, classes) or
their logit slices, leading axes a stack of batches each reduced on its own;
each turns a softmax into its gradient in place and, on request, records the
loss value per batch first. softmax is the checked entry point for soft labels.
"""

from __future__ import annotations

import numpy as np

_LOG_FLOOR = 1e-12
_NORM_EPS = 1e-8


def _softmax(z: np.ndarray, temperature: float) -> np.ndarray:
    """Unchecked: softmax(z / temperature) along the last axis, a new array."""
    z = z / temperature
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _mean_nll(probs: np.ndarray, weights, n):
    """Per batch: the sum of weights * -log(probs) over the last two axes, divided
    by n, with probs floored; 0.0 for a batch of no rows."""
    total = np.sum(weights * -np.log(np.maximum(probs, _LOG_FLOOR)), axis=(-2, -1), keepdims=True)
    return (total / np.maximum(n, 1))[..., 0, 0]


def _ce_grad(p: np.ndarray, labels: np.ndarray, parts=None, key="ce", rows=None) -> np.ndarray:
    """Unchecked: a batch's fresh softmax p becomes d(mean CE)/d(logits), in place;
    with a boolean rows, (..., b, 1), the mean is over the rows it flags (the others'
    entries are the caller's to drop). Given a dict parts, parts[key] is first the mean CE."""
    n = p.shape[-2] if rows is None else np.maximum(rows.sum(axis=-2, keepdims=True), 1)
    flat, hit = p.reshape(-1, p.shape[-1]), (np.arange(labels.size), labels.ravel())
    if parts is not None:
        parts[key] = _mean_nll(flat[hit].reshape(labels.shape + (1,)),
                               1.0 if rows is None else rows, n)
    flat[hit] -= 1.0
    p /= n
    return p


def _kd_grad(q: np.ndarray, teacher_probs: np.ndarray, temperature: float, parts=None,
             key="kd") -> np.ndarray:
    """Unchecked: a batch's tempered softmax q, (..., b, c), becomes d(mean KD)/d(window
    logits), in place. Given a dict parts, parts[key] is first set to the mean KD, the
    cross entropy of q against teacher_probs."""
    if parts is not None:
        parts[key] = _mean_nll(q, teacher_probs, q.shape[-2])
    q -= teacher_probs
    q /= temperature * q.shape[-2]
    return q


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
    cross-partition norm). Returns the value. With into, a sequence of
    arrays shaped like net's layers' weights (the per-layer weight views of a
    gradient), the gradient is also added into it in place, touching only the
    cross weights.
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
                g = into[li][block]
                g += (gamma * (v / max(norm, _NORM_EPS))).reshape(g.shape)
    return float(gamma * value)

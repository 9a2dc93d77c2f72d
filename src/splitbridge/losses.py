"""Loss kernels: CE, temperature KD and the cross-partition sparsity penalty.
Training's phase losses (engine's _ce, _kd_lce and _kd_ce, the KD+CE mix of
std, the bridge and dd) are built from these kernels, so it never relies on
numeric differentiation.

All batch losses are batch means, so the composite mixing weight combines
like-scaled quantities. Probabilities are floored at 1e-12 inside logs.
The kernels are unchecked and work on float64 batches (..., rows, classes) or
their logit slices, leading axes a stack of batches each reduced on its own;
each turns a softmax into its gradient in place and, on request, records the
loss value per batch first. CE reads one-hot target rows, not labels. softmax
is the checked entry point for soft labels.
"""

from __future__ import annotations

import math

import numpy as np

_LOG_FLOOR = 1e-12
_NORM_EPS = 1e-8


def _softmax(z: np.ndarray, temperature: float) -> np.ndarray:
    """Unchecked: softmax(z / temperature) along the last axis, a new array."""
    if temperature != 1.0:  # z / 1.0 is z
        z = z / temperature
    z = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def _mean_nll(probs: np.ndarray, weights, n):
    """Per batch: the sum of weights * -log(probs) over the last two axes, divided
    by n, with probs floored; 0.0 for a batch of no rows."""
    total = np.sum(weights * -np.log(np.maximum(probs, _LOG_FLOOR)), axis=(-2, -1), keepdims=True)
    return (total / np.maximum(n, 1))[..., 0, 0]


def _ce_grad(p: np.ndarray, target: np.ndarray, parts=None, key="ce", rows=None) -> np.ndarray:
    """Unchecked: a batch's fresh softmax p becomes d(mean CE)/d(logits) against its one-hot
    target rows, in place; with a 0/1 float rows, (..., b, 1), the mean is over the rows
    it flags (the others' are the caller's to drop). parts[key] is first the mean CE."""
    n = p.shape[-2] if rows is None else np.maximum(np.add.reduce(rows, axis=-2, keepdims=True), 1)
    if parts is not None:  # each row's target probability, exactly: one 1.0 among 0.0s
        parts[key] = _mean_nll(np.sum(p * target, axis=-1, keepdims=True),
                               1.0 if rows is None else rows, n)
    p -= target
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


def _penalty(blocks, gamma: float, grads=None) -> float:
    """Unchecked: gamma * the sum of the weight views blocks' Frobenius norms; each
    view of grads, if given, gets gamma * w / max(norm, 1e-8) added in place."""
    value = 0.0
    for i, w in enumerate(blocks):
        norm = math.sqrt(np.add.reduce(np.square(w), axis=None))
        value += norm
        if grads is not None:
            grads[i] += gamma * (w / max(norm, _NORM_EPS))
    return float(gamma * value)


def sparsify_penalty(net, plan, gamma: float, into=None) -> float:
    """Group-norm penalty on cross-partition weights.

    value = gamma * the sum of the Frobenius norms of plan.cut's old-to-new and
    new-to-old blocks (at gamma = 1, the cross-partition norm). With into, per-layer
    weight gradient views of net, 2-D or (1, in, out), each group's gradient gamma *
    w / ||W_group||_F (the norm floored at 1e-8) is added into its cut in place, which
    drives the cut toward exactly zero. Training binds the kernel, _penalty, per fit.
    """
    blocks = plan.cut([layer.w for layer in net.layers])
    return _penalty(blocks, gamma, None if into is None else plan.cut(into))

"""Verify every phase loss that training runs, and the sparsity penalty,
against central finite differences.

The training engine does manual backpropagation, so the loss gradients are the
foundation everything else rests on. Each phase trains on one loss closure
that returns the batch's gradient and, on request, its value components; this
script perturbs each logit of a small random batch, recomputes the closure's
total loss and compares the numerical slope with the closed-form gradient. The
penalty's gradient is checked the same way over the cross-partition weights.
"""

import numpy as np

from splitbridge import losses
from splitbridge.engine import Pool, _ce, _composite, _double_kd, _kd_lce
from splitbridge.losses import TaskRange
from splitbridge.net import GradientSet, build_net
from splitbridge.partition import make_plan

TOLERANCE = 1e-7


def finite_diff(scalar_fn, values, step=1e-5):
    """Central differences of scalar_fn() in each entry of values, in place."""
    g = np.zeros_like(values)
    for idx in np.ndindex(values.shape):
        orig = values[idx]
        values[idx] = orig + step
        hi = scalar_fn()
        values[idx] = orig - step
        lo = scalar_fn()
        values[idx] = orig
        g[idx] = (hi - lo) / (2 * step)
    return g


def check_phase_loss(grad, logits, idx):
    """The closure's value components and its max |analytic - FD| on one batch."""
    parts = {}
    analytic = grad(logits, idx, parts)

    def total():
        p = {}
        grad(logits, idx, p)
        return p["loss"]
    return parts, np.abs(analytic - finite_diff(total, logits)).max()


def main():
    rng = np.random.default_rng(0)
    n, c_old, c_new = 6, 3, 2
    c = c_old + c_new
    tau = 2.0
    is_new = np.arange(n) < 3
    labels = np.where(is_new, rng.integers(c_old, c, n), rng.integers(0, c_old, n))
    soft = losses.softmax(rng.standard_normal((n, c_old)), tau)
    soft_new = losses.softmax(rng.standard_normal((n, c_new)), tau)
    pool = Pool(np.zeros((n, 1)), labels, is_new, soft, TaskRange(0, c_old), TaskRange(c_old, c))
    every, old_rows = np.arange(n), np.flatnonzero(~is_new)
    print(f"pool of {n} rows ({is_new.sum()} new), {c_old} old + {c_new} new classes, "
          f"lam = {pool.lam:.3f}, tau = {tau}\n")

    cases = [
        ("CE (first task, ce, dd's new-task net)", _ce(labels), every),
        ("lam*KD + (1-lam)*CE (std, sb bridge)", _composite(pool, soft, tau), every),
        ("KD + LCE (sb sparsify and branched)", _kd_lce(pool, tau), every),
        ("KD + LCE on a batch of old rows only", _kd_lce(pool, tau), old_rows),
        ("lam*(KD + KD_new)/2 + (1-lam)*CE (dd)", _double_kd(pool, soft_new, tau), every),
    ]
    worst = []
    for name, grad, idx in cases:
        logits = rng.standard_normal((len(idx), c))
        parts, err = check_phase_loss(grad, logits, idx)
        worst.append(err)
        values = ", ".join(f"{k} {v:.4f}" for k, v in parts.items() if k != "loss")
        print(f"{name}\n    loss {parts['loss']:.4f} ({values})   max |analytic - FD| = {err:.2e}")

    net = build_net(3, [6, 6], c, seed=0)
    for layer in net.layers:
        layer.w += 0.3 * rng.standard_normal(layer.w.shape)
    plan = make_plan(net, 1, c_old, c_new, 1.0)
    grads = GradientSet.zeros(net)
    value = losses.sparsify_penalty(net, plan, 0.01, into=grads)
    err = max(np.abs(grads.wgrads[li] - finite_diff(
        lambda: losses.sparsify_penalty(net, plan, 0.01), net.layers[li].w)).max()
        for li in range(net.depth))
    worst.append(err)
    print(f"sparsity penalty (gamma = 0.01) over the cross weights\n"
          f"    value {value:.4f}   max |analytic - FD| = {err:.2e}")

    ok = max(worst) < TOLERANCE
    print(f"\nall {len(worst)} gradient checks within {TOLERANCE:.0e}: {ok}")


if __name__ == "__main__":
    main()

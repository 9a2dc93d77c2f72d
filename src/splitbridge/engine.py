"""Incremental training engine: the split/bridge loop plus the STD, CE-only,
and double-distillation baselines, and exemplar memory. Each step after the
first trains on one Pool: the task's rows, the memory's, the previous model's
soft labels on them and the old and new class windows.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from . import losses, metrics, partition
from .data import LabeledDataset, Task, TaskSequence
from .losses import TaskRange, _ce_grad, _composite_grad, _kd_grad, _softmax, lambda_schedule
from .net import DenseNet, GradientSet, build_net, sgd_step

SCHEMES = ("sb", "std", "ce", "dd")


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass
class SchemeConfig:
    """One run's settings; every phase trains with the one SGD setup. A value out of
    range, a float field that is not a finite number (None, "2"), a non-integer (or bool)
    count, seed, batch size, split_index or hidden width, a hidden that is not a list
    (5, "32") or a split_index outside [0, len(hidden)] raises a ValueError naming it."""

    scheme: str = "sb"
    tau: float = 2.0
    gamma: float = 1e-2
    rho: float = 1.0
    split_index: int = 2          # first partitioned layer of the MLP
    hidden: tuple[int, ...] = (16, 16, 16, 16)
    memory_capacity: int = 24
    epochs_first: int = 30
    epochs_sparsify: int = 30
    epochs_branched: int = 40
    epochs_bridge: int = 40
    epochs_std: int = 30
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        counts = ("epochs_first", "epochs_sparsify", "epochs_branched", "epochs_bridge",
                  "epochs_std", "memory_capacity")
        for name in counts + ("batch_size", "split_index", "seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("learning_rate", "tau", "gamma", "rho", "weight_decay", "momentum"):
            v = getattr(self, name)  # an int too big for a float64 is not finite either
            if not (np.isfinite(v) if isinstance(v, (float, np.floating))
                    else _is_int(v) and abs(v) <= sys.float_info.max):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        if not (self.tau > 0 and self.rho > 0 and self.gamma >= 0):
            raise ValueError("need tau > 0, rho > 0, gamma >= 0")
        for name in counts + ("weight_decay",):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("learning_rate", "batch_size"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not isinstance(self.hidden, (list, tuple)):
            raise ValueError(f"hidden must be a list of widths, got {self.hidden!r}")
        self.hidden = tuple(self.hidden)
        if not all(_is_int(w) and w >= 1 for w in self.hidden):
            raise ValueError(f"hidden widths must be integers >= 1, got {self.hidden}")
        if not 0 <= self.split_index <= len(self.hidden):
            raise ValueError(f"split_index {self.split_index} not in [0, {len(self.hidden)}]")


@dataclass(frozen=True)
class Pool:
    """One step's training pool: the task's rows, then the memory's (is_new
    flags the task's), and the previous model's tempered soft labels on them
    (None for ce). old and new are the class windows of the widened output."""

    x: np.ndarray
    y: np.ndarray
    is_new: np.ndarray
    soft: np.ndarray | None
    old: TaskRange
    new: TaskRange

    @property
    def lam(self) -> float:  # KD's weight against CE, c_old / (c_old + c_new)
        return lambda_schedule(self.old.width, self.new.width)

    @classmethod
    def build(cls, task: Task, mem: LabeledDataset, net: DenseNet, cfg: SchemeConfig) -> Pool:
        """The pool of task's step; call before net's output widens."""
        d_t, c_old = task.train, net.num_classes
        x = np.vstack([d_t.x, mem.x])
        soft = None if cfg.scheme == "ce" else losses.softmax(net.forward(x), cfg.tau)
        return cls(x, np.concatenate([d_t.y, mem.y]), np.arange(len(x)) < len(d_t), soft,
                   TaskRange(0, c_old), TaskRange(c_old, c_old + task.classes.size))


def _fit(net, x, cfg: SchemeConfig, epochs: int, stream, grad, on_grads=None) -> None:
    """The one training loop: seeded minibatch SGD over the rows of x.

    Batches are drawn from default_rng([cfg.seed, *stream]), stream = (step,
    tag). grad is a phase loss: grad(logits, idx, parts=None) returns the
    batch's d(loss)/d(logits) and leaves logits as they are; given a dict
    parts, it also records its value components (ce, kd, lce, kd_new) and
    their total, loss, from the same softmax. _fit passes no parts.
    backward and sgd_step write into one gradient set and one scratch
    buffer per call, beside the velocity; on_grads(net, grads), if given,
    edits the gradients in place before each update. Every call trains at
    cfg.learning_rate and starts from zero momentum.
    """
    rng = np.random.default_rng([cfg.seed, *stream])
    n = x.shape[0]
    velocity, grads, buf = GradientSet.zeros(net), GradientSet.zeros(net), np.empty_like(net.params)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = x[idx]
            cache = net.forward_cached(xb)
            net.backward(xb, grad(cache[0], idx), cache, out=grads)
            if on_grads is not None:
                on_grads(net, grads)
            sgd_step(net, grads, velocity, cfg.learning_rate, cfg.momentum, cfg.weight_decay, buf)


def _ce(y):
    """The gradient of plain cross entropy against the labels y, for _fit."""
    def grad(logits, idx, parts=None):
        g = _ce_grad(_softmax(logits, 1.0), y[idx], parts)
        if parts is not None:
            parts["loss"] = parts["ce"]
        return g
    return grad


def _composite(pool: Pool, soft, tau: float):
    """The gradient of lam * KD(soft, old window) + (1 - lam) * CE over the
    pool rows, for _fit."""
    y, old, lam = pool.y, pool.old.slice(), pool.lam

    def grad(logits, idx, parts=None):
        g = _composite_grad(_kd_grad(_softmax(logits[:, old], tau), soft[idx], tau, parts),
                            _ce_grad(_softmax(logits, 1.0), y[idx], parts), old, lam)
        if parts is not None:
            parts["loss"] = lam * parts["kd"] + (1.0 - lam) * parts["ce"]
        return g
    return grad


def _kd_lce(pool: Pool, tau: float):
    """The gradient of KD (old window, every row) + LCE (new window, new-task
    rows; 0.0 on a batch without them), for _fit."""
    y, is_new, soft = pool.y, pool.is_new, pool.soft
    old, new, start = pool.old.slice(), pool.new.slice(), pool.new.start

    def grad(logits, idx, parts=None):
        g = np.zeros_like(logits)
        g[:, old] = _kd_grad(_softmax(logits[:, old], tau), soft[idx], tau, parts)
        sel = is_new[idx]  # the kernels take a batch without new rows too
        g[sel, new] = _ce_grad(_softmax(logits[sel, new], 1.0), y[idx[sel]] - start, parts, "lce")
        if parts is not None:
            parts["loss"] = parts["kd"] + parts["lce"]
        return g
    return grad


def _double_kd(pool: Pool, soft_new, tau: float):
    """The gradient of lam * mean(KD(soft labels, old window), KD(soft_new, new
    window)) + (1 - lam) * CE over the pool rows, for _fit."""
    y, soft_old, lam, old, new = pool.y, pool.soft, pool.lam, pool.old.slice(), pool.new.slice()

    def grad(logits, idx, parts=None):
        g = np.zeros_like(logits)
        g[:, old] = _kd_grad(_softmax(logits[:, old], tau), soft_old[idx], tau, parts)
        g[:, new] = _kd_grad(_softmax(logits[:, new], tau), soft_new[idx], tau, parts, "kd_new")
        g *= lam * 0.5
        g += (1 - lam) * _ce_grad(_softmax(logits, 1.0), y[idx], parts)
        if parts is not None:
            parts["loss"] = lam * 0.5 * (parts["kd"] + parts["kd_new"]) + (1 - lam) * parts["ce"]
        return g
    return grad


def run_first_task(net: DenseNet, d1: LabeledDataset, cfg: SchemeConfig) -> DenseNet:
    """Plain CE training on the first task's data."""
    if len(d1) == 0:
        raise ValueError("first task dataset is empty")
    _fit(net, d1.x, cfg, cfg.epochs_first, (0, 0), _ce(d1.y))
    return net


def run_split_phase(net: DenseNet, pool: Pool, cfg: SchemeConfig, step: int):
    """Sparsify cross-partition weights, disconnect, then train the branches.

    Stage 1 minimizes KD (old logits, all pool samples) + LCE (new logits,
    new-task samples) + the sparsity penalty on the full network. Stage 2
    disconnects and minimizes KD + LCE on the branched network, zeroing the
    cut weights' gradients each step: as the weights and the fresh velocities
    start at 0.0, weight decay and momentum keep them there exactly. KD reads
    the pool's soft labels in both stages.

    Returns (net, plan, groups, diagnostics).
    """
    x, kd_lce = pool.x, _kd_lce(pool, cfg.tau)
    plan = partition.make_plan(net, cfg.split_index, pool.old.width, pool.new.width, cfg.rho)

    def zero_cut(net, grads):
        plan.groups.zero(grads.wgrads)

    def penalty(net, grads):
        losses.sparsify_penalty(net, plan, cfg.gamma, into=grads)

    diagnostics = {"cross_norm_start": losses.sparsify_penalty(net, plan, 1.0)}
    _fit(net, x, cfg, cfg.epochs_sparsify, (step, 1), kd_lce,
         on_grads=penalty if cfg.gamma > 0 else None)
    diagnostics["cross_norm_at_disconnect"] = losses.sparsify_penalty(net, plan, 1.0)

    partition.disconnect(net, plan.groups)
    _fit(net, x, cfg, cfg.epochs_branched, (step, 2), kd_lce, on_grads=zero_cut)
    return net, plan, plan.groups, diagnostics


def run_bridge_phase(net: DenseNet, plan: partition.PartitionPlan, pool: Pool,
                     cfg: SchemeConfig, step: int) -> DenseNet:
    """Re-enable the cut weights at zero and train the composite loss.

    bridge_reconnect checks that the cut weights are exactly 0.0, so the
    bridge starts from the branched network's logits. The KD teacher is the
    shared-trunk-plus-old-branch subnetwork, frozen before any bridge update.
    """
    soft = losses.softmax(partition.extract_subnet(net, plan).forward(pool.x), cfg.tau)
    partition.bridge_reconnect(net, plan.groups)
    _fit(net, pool.x, cfg, cfg.epochs_bridge, (step, 3), _composite(pool, soft, cfg.tau))
    return net


def run_std_step(net: DenseNet, pool: Pool, cfg: SchemeConfig, step: int) -> DenseNet:
    """Single-phase composite-loss training (the standard KD-based scheme)."""
    _fit(net, pool.x, cfg, cfg.epochs_std, (step, 1), _composite(pool, pool.soft, cfg.tau))
    return net


def run_ce_step(net: DenseNet, pool: Pool, cfg: SchemeConfig, step: int) -> DenseNet:
    """CE-only ablation: plain cross entropy over the pool, no distillation."""
    _fit(net, pool.x, cfg, cfg.epochs_std, (step, 1), _ce(pool.y))
    return net


def run_dd_step(net: DenseNet, pool: Pool, cfg: SchemeConfig, step: int) -> DenseNet:
    """Double distillation: train a throwaway network on the new-task rows
    alone, then merge via two KD losses (old soft labels over old logits, the
    throwaway's over new logits) mixed against CE with the usual schedule.
    The extra network is dropped when the step returns."""
    x, y, new = pool.x, pool.y, pool.new
    aux = build_net(net.in_dim, list(cfg.hidden), new.width, seed=[cfg.seed, step, 5])
    _fit(aux, x[pool.is_new], cfg, cfg.epochs_std, (step, 4), _ce(y[pool.is_new] - new.start))
    soft_new = losses.softmax(aux.forward(x), cfg.tau)
    _fit(net, x, cfg, cfg.epochs_std, (step, 1), _double_kd(pool, soft_new, cfg.tau))
    return net


def update_exemplars(mem: LabeledDataset, d_t: LabeledDataset, capacity: int,
                     seed: int) -> LabeledDataset:
    """Next-step memory: a seeded uniform draw of capacity rows of [mem; d_t],
    without replacement (all rows when they fit, none at capacity 0)."""
    n = len(mem) + len(d_t)
    keep = np.random.default_rng([seed, n]).choice(n, size=min(n, capacity), replace=False)
    keep.sort()
    return LabeledDataset(np.vstack([mem.x, d_t.x])[keep],
                          np.concatenate([mem.y, d_t.y])[keep], d_t.num_classes)


@dataclass
class StepResult:
    step: int                      # 1-based task index
    net: DenseNet                  # checkpoint after the step
    report: "metrics.EvalReport"
    plan_summary: dict | None = None
    diagnostics: dict = field(default_factory=dict)


def run_sequence(seq: TaskSequence, cfg: SchemeConfig) -> list[StepResult]:
    """Run the full incremental loop for the configured scheme.

    The first task is always trained by CE; later tasks follow the scheme,
    each on one Pool built before the output layer widens. The exemplar
    memory, a LabeledDataset that starts empty, is updated after every task
    and the model is evaluated once per task. The runners are looked up at
    call time, so a wrapper set on this module sees every call.
    """
    for t in seq.tasks:
        if t.classes.size == 0:
            raise ValueError("task with zero classes")
    mem = seq.tasks[0].train.subset(slice(0, 0))
    net = build_net(seq.feature_dim, list(cfg.hidden), seq.tasks[0].classes.size, cfg.seed)
    results = []
    for t, task in enumerate(seq.tasks, start=1):
        plan_summary, diagnostics = None, {}
        if t == 1:
            run_first_task(net, task.train, cfg)
        else:
            pool = Pool.build(task, mem, net, cfg)
            net.widen_output(task.classes.size)
            if cfg.scheme == "sb":
                net, plan, _, diagnostics = run_split_phase(net, pool, cfg, t)
                run_bridge_phase(net, plan, pool, cfg, t)
                plan_summary = plan.summary()
            else:
                step = {"std": run_std_step, "ce": run_ce_step, "dd": run_dd_step}[cfg.scheme]
                step(net, pool, cfg, t)
        mem = update_exemplars(mem, task.train, cfg.memory_capacity, cfg.seed + t)
        report = metrics.evaluate(net, seq.tasks[:t], t)
        results.append(StepResult(t, net.clone(), report, plan_summary, diagnostics))
    return results

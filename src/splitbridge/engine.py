"""Incremental training engine: the split/bridge loop plus the STD, CE-only,
and double-distillation baselines, and exemplar memory. A teacher enters a
phase only as its soft labels on the training pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import losses, metrics, partition
from .data import LabeledDataset, TaskSequence
from .losses import TaskRange, lambda_schedule
from .net import DenseNet, GradientSet, build_net, sgd_step

SCHEMES = ("sb", "std", "ce", "dd")


@dataclass
class ExemplarMemory:
    """Fixed-capacity rehearsal store of previously seen labeled samples."""

    capacity: int
    x: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    y: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __len__(self) -> int:
        return self.y.shape[0]


@dataclass
class SchemeConfig:
    scheme: str = "sb"
    tau: float = 2.0
    gamma: float = 1e-2
    rho: float = 1.0
    split_index: int = 2          # first partitioned layer of the MLP
    hidden: tuple[int, ...] = (16, 16, 16, 16)
    memory_capacity: int = 24
    balanced_memory: bool = False
    epochs_first: int = 30
    epochs_sparsify: int = 30
    epochs_branched: int = 40
    epochs_bridge: int = 40
    epochs_std: int = 30
    learning_rate: float = 0.05
    sparsify_learning_rate: float | None = None
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if not (self.tau > 0 and self.rho > 0 and self.gamma >= 0):  # NaN fails too
            raise ValueError("need tau > 0, rho > 0, gamma >= 0")
        for name in ("epochs_first", "epochs_sparsify", "epochs_branched", "epochs_bridge",
                     "epochs_std", "memory_capacity", "weight_decay"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")
        for name in ("learning_rate", "sparsify_learning_rate", "batch_size"):
            if getattr(self, name) is not None and not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if min(self.hidden, default=1) < 1:
            raise ValueError(f"hidden widths must be at least 1, got {tuple(self.hidden)}")


def _fit(net, x, cfg: SchemeConfig, epochs: int, stream, loss, lr=None, on_grads=None) -> None:
    """The one training loop: seeded minibatch SGD over the rows of x.

    Batches are drawn from default_rng([cfg.seed, *stream]), stream = (step,
    tag). loss(logits, idx) returns the batch's LossValue; on_grads(net,
    grads), if given, edits the GradientSet in place before each update.
    Each call starts from zero momentum.
    """
    lr = cfg.learning_rate if lr is None else lr
    rng = np.random.default_rng([cfg.seed, *stream])
    n = x.shape[0]
    velocity = GradientSet.zeros(net)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb = x[idx]
            cache = net.forward_cached(xb)
            grads = net.backward(xb, loss(cache[0], idx).grad_logits, cache)
            if on_grads is not None:
                on_grads(net, grads)
            sgd_step(net, grads, velocity, lr, cfg.momentum, cfg.weight_decay)


def _composite(soft, y, num_classes: int, tau: float):
    """The loss lam * KD(soft, old range) + (1 - lam) * CE over the pool rows,
    for _fit. The old range is soft's columns; lam is the
    c_old / (c_old + c_new) schedule."""
    old_range = TaskRange(0, soft.shape[1])
    lam = lambda_schedule(old_range.width, num_classes - old_range.width)
    return lambda logits, idx: losses.std_composite_loss(
        logits, y[idx], soft[idx], old_range, lam, tau)


def run_first_task(net: DenseNet, d1: LabeledDataset, cfg: SchemeConfig) -> DenseNet:
    """Plain CE training on the first task's data."""
    if len(d1) == 0:
        raise ValueError("first task dataset is empty")
    _fit(net, d1.x, cfg, cfg.epochs_first, (0, 0),
         lambda logits, idx: losses.ce_loss(logits, d1.y[idx]))
    return net


def _pool(d_t: LabeledDataset, mem: ExemplarMemory):
    """Training pool D_t with M_t appended; is_new flags the D_t rows."""
    if len(mem) == 0:
        x, y = d_t.x, d_t.y
    else:
        x = np.vstack([d_t.x, mem.x])
        y = np.concatenate([d_t.y, mem.y])
    return x, y, np.arange(len(y)) < len(d_t)


def run_split_phase(
    net: DenseNet,
    x: np.ndarray,
    y: np.ndarray,
    is_new: np.ndarray,
    soft: np.ndarray,
    cfg: SchemeConfig,
    step: int,
):
    """Sparsify cross-partition weights, disconnect, then train the branches.

    Stage 1 minimizes KD (old logits, all pool samples) + LCE (new logits,
    new-task samples) + the sparsity penalty on the full network. Stage 2
    disconnects and minimizes KD + LCE on the branched network, zeroing the
    cut weights' gradients each step: as the weights and the fresh velocities
    start at 0.0, weight decay and momentum keep them there exactly. soft
    holds the previous-step model's soft labels on the pool (x, y), read by
    KD in both stages; is_new flags the new-task rows.

    Returns (net, plan, groups, diagnostics).
    """
    c_old = soft.shape[1]
    old_range = TaskRange(0, c_old)
    new_range = TaskRange(c_old, net.num_classes)
    plan = partition.make_plan(net, cfg.split_index, c_old, new_range.width, cfg.rho)

    def kd_lce(logits, idx):
        kd = losses.kd_loss(logits, soft[idx], old_range, cfg.tau)
        sel = is_new[idx]
        if not sel.any():
            return kd
        lce = losses.lce_loss(logits[sel], y[idx][sel], new_range)
        kd.grad_logits[sel] += lce.grad_logits
        return losses.LossValue(kd.value + lce.value, kd.grad_logits)

    def zero_cut(net, grads):
        plan.groups.zero(grads.wgrads)

    def penalty(net, grads):
        losses.sparsify_penalty(net, plan, cfg.gamma, into=grads)

    diagnostics = {"cross_norm_start": losses.sparsify_penalty(net, plan, 1.0)}
    _fit(net, x, cfg, cfg.epochs_sparsify, (step, 1), kd_lce,
         lr=cfg.sparsify_learning_rate, on_grads=penalty if cfg.gamma > 0 else None)
    diagnostics["cross_norm_at_disconnect"] = losses.sparsify_penalty(net, plan, 1.0)

    partition.disconnect(net, plan.groups)
    _fit(net, x, cfg, cfg.epochs_branched, (step, 2), kd_lce, on_grads=zero_cut)
    return net, plan, plan.groups, diagnostics


def run_bridge_phase(
    net: DenseNet,
    plan: partition.PartitionPlan,
    x: np.ndarray,
    y: np.ndarray,
    cfg: SchemeConfig,
    step: int,
) -> DenseNet:
    """Re-enable the cut weights at zero and train the composite loss.

    bridge_reconnect checks that the cut weights are exactly 0.0, so the
    bridge starts from the branched network's logits. The KD teacher is the
    shared-trunk-plus-old-branch subnetwork, frozen before any bridge update.
    """
    soft = losses.softmax(partition.extract_subnet(net, plan).forward(x), cfg.tau)
    partition.bridge_reconnect(net, plan.groups)
    _fit(net, x, cfg, cfg.epochs_bridge, (step, 3),
         _composite(soft, y, net.num_classes, cfg.tau))
    return net


def run_std_step(
    net: DenseNet,
    x: np.ndarray,
    y: np.ndarray,
    soft: np.ndarray,
    cfg: SchemeConfig,
    step: int,
) -> DenseNet:
    """Single-phase composite-loss training (the standard KD-based scheme)."""
    _fit(net, x, cfg, cfg.epochs_std, (step, 1),
         _composite(soft, y, net.num_classes, cfg.tau))
    return net


def run_ce_step(
    net: DenseNet,
    x: np.ndarray,
    y: np.ndarray,
    cfg: SchemeConfig,
    step: int,
) -> DenseNet:
    """CE-only ablation: plain cross entropy over the pool, no distillation."""
    _fit(net, x, cfg, cfg.epochs_std, (step, 1),
         lambda logits, idx: losses.ce_loss(logits, y[idx]))
    return net


def run_dd_step(
    net: DenseNet,
    x: np.ndarray,
    y: np.ndarray,
    is_new: np.ndarray,
    soft_old: np.ndarray,
    cfg: SchemeConfig,
    step: int,
) -> DenseNet:
    """Double distillation: train a throwaway network on the new-task rows
    alone, then merge via two KD losses (old soft labels over old logits, the
    throwaway's over new logits) mixed against CE with the usual schedule.
    The extra network is dropped when the step returns."""
    c_old = soft_old.shape[1]
    old_range = TaskRange(0, c_old)
    new_range = TaskRange(c_old, net.num_classes)

    aux = build_net(net.in_dim, list(cfg.hidden), new_range.width, seed=[cfg.seed, step, 5])
    local_labels = y[is_new] - c_old
    _fit(aux, x[is_new], cfg, cfg.epochs_std, (step, 4),
         lambda logits, idx: losses.ce_loss(logits, local_labels[idx]))

    lam = lambda_schedule(c_old, new_range.width)
    soft_new = losses.softmax(aux.forward(x), cfg.tau)

    def double_kd(logits, idx):
        kd_o = losses.kd_loss(logits, soft_old[idx], old_range, cfg.tau)
        kd_n = losses.kd_loss(logits, soft_new[idx], new_range, cfg.tau)
        ce = losses.ce_loss(logits, y[idx])
        return losses.LossValue(
            lam * 0.5 * (kd_o.value + kd_n.value) + (1 - lam) * ce.value,
            lam * 0.5 * (kd_o.grad_logits + kd_n.grad_logits) + (1 - lam) * ce.grad_logits)

    _fit(net, x, cfg, cfg.epochs_std, (step, 1), double_kd)
    return net


def update_exemplars(mem: ExemplarMemory, d_t: LabeledDataset, seed: int,
                     balanced: bool = False) -> ExemplarMemory:
    """Next-step memory: a seeded random capacity-sized subset of M_t and D_t.

    Uniform sampling without replacement by default; the balanced variant
    takes an equal per-class quota first and fills the remainder uniformly.
    """
    if mem.capacity == 0:
        return ExemplarMemory(0)
    if len(mem) == 0:
        x, y = d_t.x, d_t.y
    else:
        x = np.vstack([mem.x, d_t.x])
        y = np.concatenate([mem.y, d_t.y])
    n = y.shape[0]
    if n <= mem.capacity:
        return ExemplarMemory(mem.capacity, x.copy(), y.copy())
    rng = np.random.default_rng([seed, n])
    if not balanced:
        keep = rng.choice(n, size=mem.capacity, replace=False)
    else:
        classes = np.unique(y)
        quota = mem.capacity // classes.size
        keep_parts = []
        for c in classes:
            rows = np.nonzero(y == c)[0]
            take = min(quota, rows.size)
            keep_parts.append(rng.choice(rows, size=take, replace=False))
        keep = np.concatenate(keep_parts)
        rest = np.setdiff1d(np.arange(n), keep)
        short = mem.capacity - keep.size
        if short > 0 and rest.size:
            keep = np.concatenate([keep, rng.choice(rest, size=min(short, rest.size),
                                                    replace=False)])
    keep.sort()
    return ExemplarMemory(mem.capacity, x[keep], y[keep])


@dataclass
class StepResult:
    step: int                      # 1-based task index
    net: DenseNet                  # checkpoint after the step
    report: "metrics.EvalReport"
    plan_summary: dict | None = None
    diagnostics: dict = field(default_factory=dict)


def run_sequence(seq: TaskSequence, cfg: SchemeConfig) -> list[StepResult]:
    """Run the full incremental loop for the configured scheme.

    The first task is always trained by CE; later tasks follow the scheme.
    Each later step builds its pool (task data plus memory) once and, unless
    the scheme is ce, the previous model's soft labels on it before the
    output layer widens. The exemplar memory is updated after every task and
    the model is evaluated once per task.
    """
    for t in seq.tasks:
        if t.classes.size == 0:
            raise ValueError("task with zero classes")
    mem = ExemplarMemory(cfg.memory_capacity)
    net = build_net(seq.feature_dim, list(cfg.hidden), seq.tasks[0].classes.size, cfg.seed)
    results = []
    for t, task in enumerate(seq.tasks, start=1):
        plan_summary = None
        diagnostics = {}
        if t == 1:
            run_first_task(net, task.train, cfg)
        else:
            x, y, is_new = _pool(task.train, mem)
            soft = None if cfg.scheme == "ce" else losses.softmax(net.forward(x), cfg.tau)
            net.widen_output(task.classes.size)
            if cfg.scheme == "ce":
                run_ce_step(net, x, y, cfg, t)
            elif cfg.scheme == "std":
                run_std_step(net, x, y, soft, cfg, t)
            elif cfg.scheme == "dd":
                run_dd_step(net, x, y, is_new, soft, cfg, t)
            else:
                net, plan, _, diagnostics = run_split_phase(net, x, y, is_new, soft, cfg, t)
                run_bridge_phase(net, plan, x, y, cfg, t)
                plan_summary = plan.summary()
        mem = update_exemplars(mem, task.train, cfg.seed + t, cfg.balanced_memory)
        report = metrics.evaluate(net, seq.tasks[:t], t)
        results.append(StepResult(t, net.clone(), report, plan_summary, diagnostics))
    return results

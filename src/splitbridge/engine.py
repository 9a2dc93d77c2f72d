"""Incremental training engine: the split/bridge loop, the STD, CE-only and
double-distillation baselines and exemplar memory, for seeds trained as one
stack. Each step after the first trains on one Pool per seed: the task's rows,
the memory's, the previous model's soft labels on them and the class windows.
STD, the bridge and dd train one KD+CE loss, _kd_ce, with one or two KD windows.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import losses, metrics, partition
from .data import LabeledDataset, Task, TaskRange, TaskSequence
from .losses import _ce_grad, _kd_grad, _softmax, lambda_schedule
from .net import DenseNet, Layer, _backward, _forward, _views, build_net, sgd_step

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
    """One step's training pools, one per seed on a leading axis: the task's
    rows, then the seed's memory's (is_new flags the task's), and its previous
    model's tempered soft labels on them (None for ce). Pool sizes are equal
    across seeds. old and new are the class windows of the widened output."""

    x: np.ndarray
    y: np.ndarray
    is_new: np.ndarray
    soft: np.ndarray | None
    old: TaskRange
    new: TaskRange

    @property
    def lam(self) -> float:  # KD's weight against CE, c_old / (c_old + c_new)
        return lambda_schedule(self.old.size, self.new.size)

    @classmethod
    def build(cls, task: Task, mem: LabeledDataset, net: DenseNet, cfg: SchemeConfig) -> Pool:
        """One seed's pool (a stack of one) for task's step; call before net's output widens."""
        d_t, c_old = task.train, net.num_classes
        x, y = np.vstack([d_t.x, mem.x]), np.concatenate([d_t.y, mem.y])
        soft = None if cfg.scheme == "ce" else losses.softmax(net.forward(x), cfg.tau)[None]
        return cls(x[None], y[None], (np.arange(len(x)) < len(d_t))[None], soft,
                   TaskRange(0, c_old), TaskRange(c_old, c_old + task.classes.size))

    @classmethod
    def stack(cls, pools: list[Pool]) -> Pool:
        """The seeds of pools, which share their windows, as one stack."""
        cols = ([getattr(p, f) for p in pools] for f in ("x", "y", "is_new", "soft"))
        return cls(*(None if c[0] is None else np.concatenate(c) for c in cols),
                   pools[0].old, pools[0].new)


def _fit(nets, cfgs, epochs: int, stream, grad, x, *cols, on_grads=None) -> None:
    """The one training loop: seeded minibatch SGD of S networks of one layout
    in lockstep, nets[s] on row s of x and of cols (the phase's per-row targets).

    cfgs differ only in seed. Each epoch puts seed s's rows in the order drawn
    from default_rng([cfgs[s].seed, *stream]), stream = (step, tag); a batch is
    the next batch_size rows of each. One forward pass, phase loss and backward
    pass per step serve all seeds, on (S, in, out) weight views of the stacked
    params (a view at S = 1, else refreshed each step). grad(logits, *batch_cols,
    parts=None) returns d(loss)/d(logits), leaving logits as they are; given a
    dict parts, it also records the value components and their total, loss, per
    seed (_fit passes none). Then on_grads(net, wgrads), if given, edits the
    seed's per-layer weight gradients in place, and sgd_step updates the seed
    from its rows of the (S, P) gradient and velocity buffers. Every call trains
    at cfg.learning_rate from zero momentum.
    """
    cfg, layout, lanes = cfgs[0], nets[0].layout, np.arange(len(nets))[:, None]
    rngs = [np.random.default_rng([c.seed, *stream]) for c in cfgs]
    stack = nets[0].params[None] if len(nets) == 1 else np.empty((len(nets), nets[0].params.size))
    layers = [Layer(w, b[:, None]) for w, b in zip(*_views(stack, layout))]
    grads, velocity = np.empty_like(stack), np.zeros_like(stack)  # one row per seed
    (gw, gb), buf = _views(grads, layout), np.empty_like(nets[0].params)
    seeds = list(zip(nets, grads, velocity, zip(*gw)))  # each seed's rows and weight views
    for _ in range(epochs):
        order = np.stack([rng.permutation(x.shape[1]) for rng in rngs])
        rows = [a[lanes, order] for a in (x, *cols)]
        for start in range(0, x.shape[1], cfg.batch_size):
            xb, *batch = (a[:, start : start + cfg.batch_size] for a in rows)
            if len(nets) > 1:
                np.stack([net.params for net in nets], out=stack)
            logits, inputs = _forward(layers, xb)
            _backward(layers, inputs, grad(logits, *batch), gw, gb)
            for net, g, v, wgrads in seeds:
                if on_grads is not None:
                    on_grads(net, wgrads)
                sgd_step(net, g, v, cfg.learning_rate, cfg.momentum, cfg.weight_decay, buf)


def _ce(logits, y, parts=None):
    """The gradient of plain cross entropy against the batch's labels y, for _fit."""
    g = _ce_grad(_softmax(logits, 1.0), y, parts)
    if parts is not None:
        parts["loss"] = parts["ce"]
    return g


def _kd_lce(old: TaskRange, new: TaskRange, tau: float):
    """grad(logits, y, is_new, soft): the gradient of KD (soft, old window) + LCE
    (new window, the is_new rows; 0.0 on a batch without them), for _fit."""
    start, old, new = new.start, old.slice(), new.slice()
    def grad(logits, y, is_new, soft, parts=None):
        g = np.zeros_like(logits)
        g[..., old] = _kd_grad(_softmax(logits[..., old], tau), soft, tau, parts)
        rows = is_new[..., None]  # old rows' labels are placeholders, their entries dropped
        lce = _ce_grad(_softmax(logits[..., new], 1.0), np.maximum(y - start, 0), parts, "lce",
                       rows)
        np.copyto(g[..., new], lce, where=rows)  # the other rows stay +0.0
        if parts is not None:
            parts["loss"] = parts["kd"] + parts["lce"]
        return g
    return grad


def _kd_ce(lam: float, tau: float, *windows: TaskRange):
    """grad(logits, y, *softs): the gradient of lam * mean_i KD(softs[i], windows[i]) +
    (1 - lam) * CE against the labels y, for _fit. std and the bridge distill the old
    window (LwF), dd the old and the new one (DMC), recorded as kd and kd_new."""
    keys, scale = ("kd", "kd_new")[:len(windows)], lam / len(windows)
    windows = [w.slice() for w in windows]
    def grad(logits, y, *softs, parts=None):
        g = np.zeros_like(logits)
        for window, soft, key in zip(windows, softs, keys):
            g[..., window] = _kd_grad(_softmax(logits[..., window], tau), soft, tau, parts, key)
        g *= scale
        g += (1 - lam) * _ce_grad(_softmax(logits, 1.0), y, parts)
        if parts is not None:
            parts["loss"] = scale * sum(parts[k] for k in keys) + (1 - lam) * parts["ce"]
        return g
    return grad


def run_first_task(nets: list[DenseNet], d1: LabeledDataset, cfgs: list[SchemeConfig]) -> None:
    """Plain CE training of every seed's network on the first task's data."""
    _fit(nets, cfgs, cfgs[0].epochs_first, (0, 0), _ce,
         *(np.broadcast_to(a, (len(nets),) + a.shape) for a in (d1.x, d1.y)))


def run_split_phase(net: DenseNet, pool: Pool, cfg: SchemeConfig, step: int):
    """Sparsify cross-partition weights, disconnect, then train the branches.

    Stage 1 minimizes KD (old logits, all pool samples) + LCE (new logits,
    new-task samples) + the sparsity penalty on the full network. Stage 2
    disconnects and minimizes KD + LCE on the branched network, zeroing the
    cut weights' gradients each step: as the weights and the fresh velocities
    start at 0.0, weight decay and momentum keep them there exactly. KD reads
    the pool's soft labels in both stages; pool holds one seed, net's.

    Returns (net, plan, groups, diagnostics).
    """
    kd_lce, rows = _kd_lce(pool.old, pool.new, cfg.tau), (pool.x, pool.y, pool.is_new, pool.soft)
    plan = partition.make_plan(net, cfg.split_index, pool.old.size, pool.new.size, cfg.rho)

    def zero_cut(net, wgrads):
        plan.groups.zero(wgrads)

    def penalty(net, wgrads):
        losses.sparsify_penalty(net, plan, cfg.gamma, into=wgrads)

    diagnostics = {"cross_norm_start": losses.sparsify_penalty(net, plan, 1.0)}
    _fit([net], [cfg], cfg.epochs_sparsify, (step, 1), kd_lce, *rows,
         on_grads=penalty if cfg.gamma > 0 else None)
    diagnostics["cross_norm_at_disconnect"] = losses.sparsify_penalty(net, plan, 1.0)

    partition.disconnect(net, plan.groups)
    _fit([net], [cfg], cfg.epochs_branched, (step, 2), kd_lce, *rows, on_grads=zero_cut)
    return net, plan, plan.groups, diagnostics


def run_bridge_phase(nets: list[DenseNet], plans: list[partition.PartitionPlan], pool: Pool,
                     cfgs: list[SchemeConfig], step: int) -> None:
    """Re-enable each seed's cut weights at zero and train the composite loss.

    bridge_reconnect checks that the cut weights are exactly 0.0, so the
    bridge starts from the branched network's logits. The KD teacher is the
    shared-trunk-plus-old-branch subnetwork, frozen before any bridge update.
    """
    soft = np.stack([losses.softmax(partition.extract_subnet(net, plan).forward(x), cfgs[0].tau)
                     for net, plan, x in zip(nets, plans, pool.x)])
    for net, plan in zip(nets, plans):
        partition.bridge_reconnect(net, plan.groups)
    _fit(nets, cfgs, cfgs[0].epochs_bridge, (step, 3), _kd_ce(pool.lam, cfgs[0].tau, pool.old),
         pool.x, pool.y, soft)


def run_std_step(nets: list[DenseNet], pool: Pool, cfgs: list[SchemeConfig], step: int) -> None:
    """Single-phase composite-loss training (the standard KD-based scheme)."""
    _fit(nets, cfgs, cfgs[0].epochs_std, (step, 1), _kd_ce(pool.lam, cfgs[0].tau, pool.old),
         pool.x, pool.y, pool.soft)


def run_ce_step(nets: list[DenseNet], pool: Pool, cfgs: list[SchemeConfig], step: int) -> None:
    """CE-only ablation: plain cross entropy over the pool, no distillation."""
    _fit(nets, cfgs, cfgs[0].epochs_std, (step, 1), _ce, pool.x, pool.y)


def run_dd_step(nets: list[DenseNet], pool: Pool, cfgs: list[SchemeConfig], step: int) -> None:
    """Double distillation: train a throwaway network per seed on the new-task
    rows alone, then merge via two KD losses (old soft labels over old logits,
    the throwaway's over new logits) mixed against CE with the usual schedule.
    The extra networks are dropped when the step returns."""
    cfg, x, y, new, task_rows = cfgs[0], pool.x, pool.y, pool.new, pool.is_new[0]
    aux = [build_net(nets[0].in_dim, list(cfg.hidden), new.size, seed=[c.seed, step, 5])
           for c in cfgs]
    _fit(aux, cfgs, cfg.epochs_std, (step, 4), _ce, x[:, task_rows], y[:, task_rows] - new.start)
    soft_new = np.stack([losses.softmax(a.forward(xs), cfg.tau) for a, xs in zip(aux, x)])
    _fit(nets, cfgs, cfg.epochs_std, (step, 1), _kd_ce(pool.lam, cfg.tau, pool.old, new),
         x, y, pool.soft, soft_new)


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
    net: DenseNet                  # checkpoint after the step
    report: dict                   # metrics.evaluate's record, with the 1-based step
    plan_summary: dict | None = None
    diagnostics: dict = field(default_factory=dict)


def run_sequence(seq: TaskSequence, cfgs: list[SchemeConfig]) -> list[list[StepResult]]:
    """Run the full incremental loop for configs that differ only in seed, in
    lockstep, and return each config's step results.

    The first task is always trained by CE; later tasks follow the scheme,
    each on one Pool per seed built before the output layer widens. All seeds
    train as one stack in every phase but the split phase, which runs per seed.
    Each seed's exemplar memory, a LabeledDataset that starts empty, is updated
    after every task and each model is evaluated once per task. The runners are
    looked up at call time, so a wrapper set on this module sees every call.
    """
    if not cfgs or any(replace(c, seed=cfgs[0].seed) != cfgs[0] for c in cfgs):
        raise ValueError("a stack needs one or more configs that differ only in seed")
    cfg = cfgs[0]
    mems = [seq.tasks[0].train.subset(slice(0, 0))] * len(cfgs)
    nets = [build_net(seq.feature_dim, list(cfg.hidden), seq.tasks[0].classes.size, c.seed)
            for c in cfgs]
    results = [[] for _ in cfgs]
    for t, task in enumerate(seq.tasks, start=1):
        splits = [(None, None, None, {}) for _ in cfgs]
        if t == 1:
            run_first_task(nets, task.train, cfgs)
        else:
            pools = [Pool.build(task, mem, net, cfg) for mem, net in zip(mems, nets)]
            for net in nets:
                net.widen_output(task.classes.size)
            if cfg.scheme == "sb":
                splits = [run_split_phase(*args, t) for args in zip(nets, pools, cfgs)]
                nets = [split[0] for split in splits]
                run_bridge_phase(nets, [split[1] for split in splits], Pool.stack(pools), cfgs, t)
            else:
                step = {"std": run_std_step, "ce": run_ce_step, "dd": run_dd_step}[cfg.scheme]
                step(nets, Pool.stack(pools), cfgs, t)
        mems = [update_exemplars(mem, task.train, cfg.memory_capacity, c.seed + t)
                for mem, c in zip(mems, cfgs)]
        for net, (_, plan, _, diagnostics), out in zip(nets, splits, results):
            report = metrics.evaluate(net, seq.tasks[:t], t)
            out.append(StepResult(net.clone(), report, plan and plan.summary(), diagnostics))
    return results

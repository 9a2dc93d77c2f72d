"""Incremental training engine: the split/bridge loop, the STD, CE-only and double-distillation
baselines and exemplar memory, for seeds trained as one stack, the (S, P) buffer _stack copies:
each seed's net takes its row as params, and _fit trains it in place. A step after the first
trains on one Pool; each soft-label teacher (the previous models, the bridge's old branch, dd's
throwaway nets) is one stacked forward pass. Every fit but the split phase's trains _kd_ce;
plain CE (_ce) is its lam = 0 case with no KD window."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import losses, metrics, partition
from .data import INT, NUM, POS, LabeledDataset, Task, TaskRange, TaskSequence, check, must_be
from .losses import _ce_grad, _kd_grad, _softmax, lambda_schedule
from .net import DenseNet, Layer, _backward, _forward, _views, build_net, sgd_step

SCHEMES = ("sb", "std", "ce", "dd")
CONFIG_KINDS = {  # SchemeConfig's numeric fields: each one's kind and lower bound, for check
    "tau": (POS, None), "rho": (POS, None), "learning_rate": (POS, None), "gamma": (NUM, 0),
    "momentum": (NUM, 0), "weight_decay": (NUM, 0), "batch_size": (INT, 1),
    **dict.fromkeys(("split_index", "memory_capacity", "epochs_first", "epochs_sparsify",
                     "epochs_branched", "epochs_bridge", "epochs_std", "seed"), (INT, 0)),
}


@dataclass
class SchemeConfig:
    """One run's settings; every phase trains with the one SGD setup. An unknown scheme,
    a numeric field outside its CONFIG_KINDS kind and bound (a bool is no integer; None,
    "2" and NaN are no finite number), a momentum >= 1, a hidden that is not a list of
    integer widths >= 1, or a split_index > len(hidden) raises a ValueError naming it."""

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
            raise must_be("scheme", self.scheme, "one of " + ", ".join(SCHEMES))
        for name, (kind, low) in CONFIG_KINDS.items():
            check(name, getattr(self, name), kind, low)
        if self.momentum >= 1:
            raise must_be("momentum", self.momentum, "< 1")
        if not isinstance(self.hidden, (list, tuple)):
            raise must_be("hidden", self.hidden, "a list of widths")
        self.hidden = tuple(self.hidden)
        for i, width in enumerate(self.hidden):
            check(f"hidden[{i}]", width, INT, 1)
        if self.split_index > len(self.hidden):
            raise must_be("split_index", self.split_index, f"<= len(hidden) = {len(self.hidden)}")


@dataclass(frozen=True)
class Pool:
    """One step's training pool for a stack, one row per seed on a leading axis:
    the task's rows, then the seed's memory's, their labels' one-hot rows over the
    widened output (CE's target; the pool keeps no labels), and the previous model's
    tempered soft labels on them (None for ce). Pool sizes are equal across seeds.
    old and new are the class windows of the widened output; a row is the task's
    when its target's 1 falls in new, as memory holds only earlier tasks' classes."""

    x: np.ndarray
    target: np.ndarray
    soft: np.ndarray | None
    old: TaskRange
    new: TaskRange

    @property
    def lam(self) -> float:  # KD's weight against CE, c_old / (c_old + c_new)
        return lambda_schedule(self.old.size, self.new.size)

    @classmethod
    def build(cls, task: Task, mems: list[LabeledDataset], nets: list[DenseNet],
              cfg: SchemeConfig) -> Pool:
        """The pool of task's step, row s from mems[s] and nets[s]; call before they widen."""
        d_t, old = task.train, TaskRange(0, nets[0].num_classes)
        new = TaskRange(old.stop, old.stop + task.classes.size)
        x = np.stack([np.vstack([d_t.x, mem.x]) for mem in mems])
        y = np.stack([np.concatenate([d_t.y, mem.y]) for mem in mems])
        soft = None if cfg.scheme == "ce" else losses.softmax(
            _forward(_stack(nets)[1], x)[0], cfg.tau)  # every seed's in one stacked pass
        return cls(x, np.eye(new.stop)[y], soft, old, new)


def _stack(nets: list[DenseNet]):
    """A fresh (S, P) copy of the nets' params and its layer views, w (S, in, out) and
    b (S, 1, out). It rebinds no net: a teacher reads it as is; _fit hands out its rows."""
    stack = np.stack([net.params for net in nets])
    return stack, [Layer(w, b[:, None]) for w, b in zip(*_views(stack, nets[0].layout))]


def _fit(nets, cfgs, epochs: int, stream, grad, x, *cols, on_grads=None) -> None:
    """The one training loop: seeded minibatch SGD of S networks of one layout
    in lockstep, nets[s] on row s of x and of cols (the phase's per-row targets,
    one-hot rows, masks and soft labels, built once per phase).

    cfgs differ only in seed. Each epoch puts seed s's rows in the order drawn
    from default_rng([cfgs[s].seed, *stream]), stream = (step, tag); a batch is
    the next batch_size rows of each. What a step reuses is made once, after each
    net takes its row of _stack(nets) as its params (net.params = row), to train
    in place. One forward pass, phase loss and backward pass per step serve all
    seeds. grad(logits, *batch_cols, parts=None) returns d(loss)/d(logits), leaving
    logits as they are; a dict parts gets the value components and their total,
    loss, per seed. on_grads(ws, gw), if given, is called once with the stack's
    weight and weight-gradient views, (S, in, out); its hook edits gw each step.
    Then sgd_step updates each row at cfg.learning_rate, from zero momentum."""
    cfg, layout, lanes = cfgs[0], nets[0].layout, np.arange(len(nets))[:, None]
    rngs = [np.random.default_rng([c.seed, *stream]) for c in cfgs]
    stack, layers = _stack(nets)
    for net, row in zip(nets, stack):  # the stack is the nets' one copy from now on
        net.params = row
    grads, velocity = np.empty_like(stack), np.zeros_like(stack)  # one row per seed
    (gw, gb), buf = _views(grads, layout), np.empty_like(nets[0].params)
    wts = [layer.w.swapaxes(-1, -2) for layer in layers]
    hook = None if on_grads is None else on_grads([layer.w for layer in layers], gw)
    for _ in range(epochs):
        order = np.stack([rng.permutation(x.shape[1]) for rng in rngs])
        rows = [a[lanes, order] for a in (x, *cols)]
        for start in range(0, x.shape[1], cfg.batch_size):
            xb, *batch = (a[:, start : start + cfg.batch_size] for a in rows)
            logits, inputs = _forward(layers, xb)
            _backward(wts, inputs, grad(logits, *batch), gw, gb)
            if hook is not None:
                hook()
            for net, g, v in zip(nets, grads, velocity):  # each seed's rows
                sgd_step(net, g, v, cfg.learning_rate, cfg.momentum, cfg.weight_decay, buf)


def _kd_lce(old: TaskRange, new: TaskRange, tau: float):
    """grad(logits, target, rows, soft): the gradient of KD (soft, old window) + LCE
    (new window, the rows flagged in rows; 0.0 on a batch without them), for _fit;
    target is the one-hot rows' new window and rows its row sum, (..., n, 1), 1.0 on
    a new-task row. old then new covers the logits, in that order."""
    old, new = old.slice(), new.slice()
    def grad(logits, target, rows, soft, parts=None):
        kd = _kd_grad(_softmax(logits[..., old], tau), soft, tau, parts)
        lce = _ce_grad(_softmax(logits[..., new], 1.0), target, parts, "lce", rows)
        g = np.concatenate([kd, lce * rows], axis=-1)  # the other rows' LCE entries are +0.0
        if parts is not None:
            parts["loss"] = parts["kd"] + parts["lce"]
        return g
    return grad


def _kd_ce(lam: float, tau: float, *windows: TaskRange):
    """grad(logits, target, *softs): the gradient of lam * mean_i KD(softs[i], windows[i])
    + (1 - lam) * CE against the one-hot target rows, for _fit. std and the bridge distill the
    old window (LwF), dd the old and the new one (DMC): kd and kd_new. No window, lam = 0: _ce."""
    keys, scale = ("kd", "kd_new")[:len(windows)], lam / max(len(windows), 1)
    windows = [w.slice() for w in windows]
    def grad(logits, target, *softs, parts=None):
        kds = [_kd_grad(_softmax(logits[..., window], tau), soft, tau, parts, key)
               for window, soft, key in zip(windows, softs, keys)]
        g = _ce_grad(_softmax(logits, 1.0), target, parts) * (1 - lam)
        for window, kd in zip(windows, kds):
            g[..., window] += scale * kd
        if parts is not None:
            parts["loss"] = scale * sum(parts[k] for k in keys) + (1 - lam) * parts["ce"]
        return g
    return grad


_ce = _kd_ce(0.0, 1.0)  # plain CE: the first task, ce, dd's auxiliary nets


def run_first_task(nets: list[DenseNet], d1: LabeledDataset, cfgs: list[SchemeConfig]) -> None:
    """Plain CE training of every seed's network on the first task's data."""
    cols = (d1.x, np.eye(nets[0].num_classes)[d1.y])  # the one task's rows, for every seed
    _fit(nets, cfgs, cfgs[0].epochs_first, (0, 0), _ce,
         *(np.broadcast_to(a, (len(nets),) + a.shape) for a in cols))


def run_split_phase(net: DenseNet, plan: partition.PartitionPlan, pool: Pool, s: int,
                    cfg: SchemeConfig, step: int):
    """Sparsify plan's cross-partition weights, disconnect, then train the branches.

    Stage 1 minimizes KD (old logits, all pool samples) + LCE (new logits, new-task samples)
    + the sparsity penalty on the full network, at every gamma (0.0 adds exact zeros). Stage 2
    disconnects and minimizes KD + LCE on the branched network, zeroing the cut weights'
    gradients each step: as the weights and the fresh velocities start at 0.0, weight decay
    and momentum keep them there exactly. KD reads the pool's soft labels in both stages; net
    trains on row s of the stacked pool, and plan is the step's one cut, shared by the stack.
    Returns (net, plan, plan, diagnostics): four entries still, as perfbench's
    cut check unpacks four and reads the cut from the third.
    """
    kd_lce = _kd_lce(pool.old, pool.new, cfg.tau)
    target = pool.target[s : s + 1, :, pool.new.slice()]  # its row sum flags the task's rows
    rows = [pool.x[s : s + 1], target, target.sum(axis=-1, keepdims=True), pool.soft[s : s + 1]]

    diagnostics = {"cross_norm_start": losses.sparsify_penalty(net, plan, 1.0)}
    _fit([net], [cfg], cfg.epochs_sparsify, (step, 1), kd_lce, *rows,  # bound to the cut _fit packs
         on_grads=lambda ws, gw: partial(losses._penalty, plan.cut(ws), cfg.gamma, plan.cut(gw)))
    diagnostics["cross_norm_at_disconnect"] = losses.sparsify_penalty(net, plan, 1.0)

    partition.disconnect(net, plan)
    _fit([net], [cfg], cfg.epochs_branched, (step, 2), kd_lce, *rows,
         on_grads=lambda ws, gw: partial(partition.zero, plan.cut(gw)))
    return net, plan, plan, diagnostics


def run_bridge_phase(nets: list[DenseNet], plan: partition.PartitionPlan, pool: Pool,
                     cfgs: list[SchemeConfig], step: int) -> None:
    """Re-enable each seed's cut weights at zero and train the composite loss;
    bridge_reconnect checks that they are exactly 0.0, so the bridge starts from
    the branched logits. The KD teacher, frozen first, is plan's trunk plus old branch."""
    teacher = partition.extract_subnet(_stack(nets)[1], plan)
    soft = losses.softmax(_forward(teacher, pool.x)[0], cfgs[0].tau)
    for net in nets:
        partition.bridge_reconnect(net, plan)
    _fit(nets, cfgs, cfgs[0].epochs_bridge, (step, 3), _kd_ce(pool.lam, cfgs[0].tau, pool.old),
         pool.x, pool.target, soft)


def run_std_step(nets: list[DenseNet], pool: Pool, cfgs: list[SchemeConfig], step: int) -> None:
    """Single-phase composite-loss training (the standard KD-based scheme)."""
    _fit(nets, cfgs, cfgs[0].epochs_std, (step, 1), _kd_ce(pool.lam, cfgs[0].tau, pool.old),
         pool.x, pool.target, pool.soft)


def run_ce_step(nets: list[DenseNet], pool: Pool, cfgs: list[SchemeConfig], step: int) -> None:
    """CE-only ablation: plain cross entropy over the pool, no distillation."""
    _fit(nets, cfgs, cfgs[0].epochs_std, (step, 1), _ce, pool.x, pool.target)


def run_dd_step(nets: list[DenseNet], pool: Pool, cfgs: list[SchemeConfig], step: int) -> None:
    """Double distillation: train a throwaway network per seed on the new-task rows
    alone, those whose one-hot target is in the new window, then merge via two KD
    losses (old soft labels over old logits, the throwaway's over new logits) mixed
    against CE with the usual schedule. The extra networks are dropped at return."""
    cfg, x, target, new = cfgs[0], pool.x, pool.target, pool.new
    rows = target[0, :, new.slice()].any(axis=-1)  # the task's rows, first in each seed's pool
    aux = [build_net(nets[0].in_dim, list(cfg.hidden), new.size, seed=[c.seed, step, 5])
           for c in cfgs]
    _fit(aux, cfgs, cfg.epochs_std, (step, 4), _ce, x[:, rows], target[:, rows, new.slice()])
    soft_new = losses.softmax(_forward(_stack(aux)[1], x)[0], cfg.tau)
    _fit(nets, cfgs, cfg.epochs_std, (step, 1), _kd_ce(pool.lam, cfg.tau, pool.old, new),
         x, target, pool.soft, soft_new)


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
    each on the stack's one Pool, built before the output layer widens. All seeds
    train as one stack in every phase but the split phase, which runs per seed
    on the step's one PartitionPlan, made once for the stack. Each seed's
    exemplar memory, a LabeledDataset that starts empty, is updated after every
    task and each model is evaluated once per task. The runners are looked up
    at call time, so a wrapper set on this module sees every call.
    """
    if not cfgs or any(replace(c, seed=cfgs[0].seed) != cfgs[0] for c in cfgs):
        raise ValueError("a stack needs one or more configs that differ only in seed")
    cfg = cfgs[0]
    mems = [seq.tasks[0].train.subset(slice(0, 0))] * len(cfgs)
    nets = [build_net(seq.feature_dim, list(cfg.hidden), seq.tasks[0].classes.size, c.seed)
            for c in cfgs]
    results = [[] for _ in cfgs]
    for t, task in enumerate(seq.tasks, start=1):
        plan, diagnostics = None, [{} for _ in cfgs]
        if t == 1:
            run_first_task(nets, task.train, cfgs)
        else:
            pool = Pool.build(task, mems, nets, cfg)
            for net in nets:
                net.widen_output(task.classes.size)
            if cfg.scheme == "sb":
                plan = partition.make_plan(nets[0], cfg.split_index, pool.old.size,
                                           pool.new.size, cfg.rho)
                diagnostics = [run_split_phase(net, plan, pool, s, c, t)[3]
                               for s, (net, c) in enumerate(zip(nets, cfgs))]
                run_bridge_phase(nets, plan, pool, cfgs, t)
            else:
                step = {"std": run_std_step, "ce": run_ce_step, "dd": run_dd_step}[cfg.scheme]
                step(nets, pool, cfgs, t)
        mems = [update_exemplars(mem, task.train, cfg.memory_capacity, c.seed + t)
                for mem, c in zip(mems, cfgs)]
        for net, diag, out in zip(nets, diagnostics, results):
            report = metrics.evaluate(net, seq.tasks[:t])
            out.append(StepResult(net.clone(), report, plan and plan.summary(), diag))
    return results

"""Wrappers installed on splitbridge functions from the benchmark's side.

Each wrapper replaces a function where its caller looks it up: methods on
their class, `engine.sgd_step` and `engine.build_net` on `engine` (which binds
them by name), `run_sequence` on `runner`, and the losses, partition, metrics
and data functions on their modules, which the callers resolve at call time.
Nothing under src/ is changed; the patches of a round are undone when it ends.
A target that no longer exists is listed as missing and left alone.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager

import numpy as np

PROBE_ROWS = 64


class Patches:
    """Attribute replacements, undone in reverse order by restore()."""

    def __init__(self):
        self._undo = []
        self.missing = []

    def wrap(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr by make_wrapper(owner.attr); if owner has no
        such attribute, record it in `missing` instead."""
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        setattr(owner, attr, make_wrapper(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@contextmanager
def patched():
    patches = Patches()
    try:
        yield patches
    finally:
        patches.restore()


def digest(reports) -> str:
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()[:16]


class Checks:
    """Invariant checks that run in every round, traced or not. Each failure
    is appended to `failures`; a check the program's shape no longer allows
    is named in `skipped`. `diverged` counts evaluations of a network with
    non-finite weights.

    The checks evaluate the network through the unwrapped forward pass, so
    they add nothing to the tracer's counters.
    """

    def __init__(self, sb, probe_seed: int):
        self.sb = sb
        self._forward_cached = sb.net.DenseNet.__dict__["forward_cached"]
        self._probe_seed = probe_seed
        self.failures: list[str] = []
        self.skipped: set[str] = set()
        self.diverged = 0

    def install(self, patches: Patches) -> None:
        patches.wrap(self.sb.partition, "bridge_reconnect", self._bridge)
        patches.wrap(self.sb.engine, "run_split_phase", self._split)
        patches.wrap(self.sb.metrics, "evaluate", self._evaluate)

    def _probe(self, in_dim: int) -> np.ndarray:
        return np.random.default_rng([self._probe_seed, in_dim]).standard_normal(
            (PROBE_ROWS, in_dim))

    def _bridge(self, fn):
        def bridge_reconnect(net, groups, *args, **kwargs):
            probe = self._probe(net.in_dim)
            before = self._forward_cached(net, probe)[0]
            out = fn(net, groups, *args, **kwargs)
            if not np.array_equal(before, self._forward_cached(net, probe)[0]):
                self.failures.append("bridge_reconnect changed the probe logits")
            return out
        return bridge_reconnect

    def _split(self, fn):
        def run_split_phase(*args, **kwargs):
            out = fn(*args, **kwargs)
            if not (isinstance(out, tuple) and len(out) == 4):
                self.skipped.add("cut weights: run_split_phase no longer returns "
                                 "(net, plan, groups, diagnostics)")
                return out
            net, _, groups, _ = out
            for li, (on, no) in groups.per_layer.items():
                if np.any(net.layers[li].w[on | no] != 0.0):
                    self.failures.append(f"layer {li}: cut weights non-zero after the split phase")
            return out
        return run_split_phase


    def _evaluate(self, fn):
        def evaluate(net, *args, **kwargs):
            if not all(np.isfinite(l.w).all() and np.isfinite(l.b).all() for l in net.layers):
                self.diverged += 1
            return fn(net, *args, **kwargs)
        return evaluate


def check_reports(reports) -> list[str]:
    """Every accuracy of every step report is finite and in [0, 1]."""
    problems = []
    for report in reports:
        values = [report[k] for k in ("overall_acc", "old_acc", "new_acc",
                                      "intra_old_acc", "intra_new_acc")]
        values += report["per_task_acc"]
        if not all(np.isfinite(v) and 0.0 <= v <= 1.0 for v in values):
            problems.append(f"step {report['step']}: accuracy outside [0, 1] or not finite")
    return problems


# (layer, owner path, attribute, phase label). Owner paths are resolved on the
# imported package; "net.DenseNet" is a class, the rest are modules.
TRACE_TARGETS = (
    ("net", "net.DenseNet", "forward", None),
    ("net", "net.DenseNet", "forward_cached", None),
    ("net", "net.DenseNet", "backward", None),
    ("net", "net.DenseNet", "clone", None),
    ("net", "net.DenseNet", "save", None),
    ("net", "engine", "sgd_step", None),
    ("net", "engine", "build_net", None),
    ("losses", "losses", "ce_loss", None),
    ("losses", "losses", "kd_loss", None),
    ("losses", "losses", "lce_loss", None),
    ("losses", "losses", "std_composite_loss", None),
    ("losses", "losses", "sparsify_penalty", None),
    ("losses", "losses", "softmax", None),
    ("partition", "partition", "cross_groups", None),
    ("partition", "partition", "make_plan", None),
    ("partition", "partition", "disconnect", None),
    ("partition", "partition", "bridge_reconnect", None),
    ("partition", "partition", "extract_subnet", None),
    ("engine", "runner", "run_sequence", None),
    ("engine", "engine", "run_first_task", "first"),
    ("engine", "engine", "run_split_phase", "sparsify"),
    ("engine", "engine", "run_bridge_phase", "bridge"),
    ("engine", "engine", "run_std_step", "std"),
    ("engine", "engine", "run_ce_step", "ce"),
    ("engine", "engine", "run_dd_step", "dd"),
    ("engine", "engine", "update_exemplars", "exemplars"),
    ("engine", "engine.TeacherSnapshot", "soft_labels", None),
    ("metrics", "metrics", "evaluate", "eval"),
    ("data", "data", "gen_synthetic", None),
    ("data", "data", "gen_glyph_images", None),
    ("data", "data", "split_tasks", None),
    ("runner", "runner", "run_experiment", None),
    ("runner", "runner", "run_matrix", None),
    ("runner", "runner", "write_summary", None),
)

TRACE_NAMES = tuple(f"{layer}.{attr}" for layer, _, attr, _ in TRACE_TARGETS)
LAYERS = ("net", "losses", "partition", "engine", "metrics", "data", "runner")
PHASES = ("first", "sparsify", "branched", "bridge", "std", "ce", "dd", "exemplars", "eval")


class Tracer:
    """Per-function calls, inclusive and self process-CPU time, time per
    engine phase, and deterministic work counters.

    Self time is a call's CPU minus the CPU of the wrapped calls nested in
    it. The split phase is divided into sparsify and branched time at its
    partition.disconnect call. Kernel self time is also kept per phase.
    """

    def __init__(self):
        self.clock = time.process_time
        self.reset()

    def reset(self) -> None:
        self.stack: list[float] = []    # CPU of the wrapped calls nested in each open span
        self.phase = "other"
        self.split_mark: float | None = None
        self.stats = {name: [0, 0.0, 0.0] for name in TRACE_NAMES}
        self.phase_cpu = {p: 0.0 for p in PHASES}
        self.by_phase: dict[tuple[str, str], float] = {}
        self.steps = {p: 0 for p in PHASES}
        self.flops = 0

    def install(self, sb, patches: Patches) -> None:
        """Wrap every target; call after reset(), whose containers the
        wrappers hold on to."""
        hooks = {"net.forward_cached": self._count_forward,
                 "net.backward": self._count_backward,
                 "net.sgd_step": self._count_step,
                 "partition.disconnect": self._mark_disconnect}
        for layer, owner, attr, phase in TRACE_TARGETS:
            target = sb
            for part in owner.split("."):
                target = getattr(target, part, None)
            name = f"{layer}.{attr}"
            if target is None:
                patches.missing.append(f"{owner}.{attr}")
                continue
            patches.wrap(target, attr,
                         lambda fn, n=name, p=phase: self._span(n, fn, p, hooks.get(n)))

    def _span(self, name, fn, phase, before):
        clock, stack, rec, by_phase = self.clock, self.stack, self.stats[name], self.by_phase

        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            outer = self.phase
            if phase is not None:
                self.phase = phase
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += own
                key = (self.phase, name)
                by_phase[key] = by_phase.get(key, 0.0) + own
                if phase is not None:
                    self._close_phase(phase, start, end)
                    self.phase = outer
        return traced

    def _close_phase(self, phase, start, end) -> None:
        if phase == "sparsify" and self.split_mark is not None:
            self.phase_cpu["sparsify"] += self.split_mark - start
            self.phase_cpu["branched"] += end - self.split_mark
            self.split_mark = None
        else:
            self.phase_cpu[phase] += end - start

    def _mark_disconnect(self, *args, **kwargs) -> None:
        if self.phase == "sparsify":
            self.phase = "branched"
            self.split_mark = self.clock()

    def _count_step(self, *args, **kwargs) -> None:
        self.steps[self.phase] = self.steps.get(self.phase, 0) + 1

    def _count_forward(self, net, x, *args, **kwargs) -> None:
        # x @ w per layer, 2 flops per multiply-add; x is a (rows, in_dim) batch
        self.flops += 2 * len(x) * sum([l.w.size for l in net.layers])

    def _count_backward(self, net, x, *args, **kwargs) -> None:
        # its own matmuls only: xᵀ·delta per layer and delta·wᵀ above layer 0;
        # the forward it re-runs is counted by the forward_cached wrapper
        layers = net.layers
        self.flops += 2 * len(x) * (sum([l.w.size for l in layers]) * 2 - layers[0].w.size)

    def summary(self) -> dict:
        """Per-round numbers: timings (vary run to run) and counters (must not)."""
        calls = {name: rec[0] for name, rec in self.stats.items()}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, rec in self.stats.items():
            layer_self[name.split(".")[0]] += rec[2]
        splits = calls["partition.disconnect"]
        forwards = calls["net.forward_cached"]
        total_steps = calls["net.sgd_step"]
        counters = {
            "calls": calls,
            "steps": dict(self.steps, total=total_steps),
            "net.matmul_gflop": self.flops / 1e9,
            "net.forward_per_step": forwards / total_steps if total_steps else 0.0,
            "partition.cross_groups_per_split": (
                calls["partition.cross_groups"] / splits if splits else 0.0),
        }
        timings = {
            "functions": {name: {"calls": rec[0], "incl_cpu_s": rec[1], "self_cpu_s": rec[2]}
                          for name, rec in self.stats.items()},
            "layer_self_cpu_s": layer_self,
            "phase_cpu_s": dict(self.phase_cpu),
            "phase_kernel_self_cpu_s": {f"{p}/{n}": v for (p, n), v in sorted(self.by_phase.items())},
        }
        return {"counters": counters, "timings": timings}

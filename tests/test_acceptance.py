"""Acceptance suite.

Each test covers one numbered criterion and prints a single pass/fail line on
the real stdout even when pytest captures output. Statistical replications use
frozen benchmark configurations so reruns are bitwise reproducible.
"""

import sys
import time

import numpy as np
import pytest

from splitbridge import losses, partition, runner
from splitbridge.data import gen_synthetic
from splitbridge.engine import SchemeConfig, _ce, _kd_ce, _kd_lce
from splitbridge.data import TaskRange
from splitbridge.losses import lambda_schedule
from splitbridge.net import build_net
from splitbridge.partition import bridge_reconnect, disconnect, make_plan
from splitbridge.metrics import report_from_predictions

from conftest import (
    assert_close_rel, finite_diff_logit_grad, finite_diff_param_grads, lce_targets, phase_loss,
)


_CAPFD = None


@pytest.fixture(autouse=True)
def _terminal_writer(capfd):
    # lets the verdict lines bypass pytest's fd-level output capture
    global _CAPFD
    _CAPFD = capfd
    yield
    _CAPFD = None


def _report(num, desc, ok, extra=""):
    line = f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" [{extra}]"
    if _CAPFD is not None:
        with _CAPFD.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


class _Gate:
    """Prints the criterion verdict whether the body passes or raises."""

    def __init__(self, num, desc):
        self.num, self.desc, self.extra = num, desc, ""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        note = f"{elapsed:.1f}s" + (f", {self.extra}" if self.extra else "")
        _report(self.num, self.desc, exc_type is None, note)
        return False


def _se_gap(a, b):
    """Unpaired standard error of mean(a) - mean(b): the two arrays' variances of
    the mean add, and the pairing of their seeds is not used."""
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size))


def test_criterion_1_gradient_suite(rng):
    with _Gate(1, "analytic gradients match finite differences"):
        start = time.perf_counter()
        for trial in range(20):
            n, c_old, c_new = 3 + trial % 3, 2 + trial % 2, 2
            c = c_old + c_new
            logits = rng.standard_normal((n, c))
            tau = 1.0 + rng.random() * 3
            # the teacher softmax spans exactly the old-class window
            teacher = losses.softmax(rng.standard_normal((n, c_old)), tau)
            old = TaskRange(0, c_old)
            new = TaskRange(c_old, c)
            # the phase losses training runs; rows 0, 2, ... are new-task rows with
            # new labels, the rest old rows, which alone make the no-new-rows batch
            is_new = np.arange(n) % 2 == 0
            labels = np.where(is_new, rng.integers(c_old, c, n), rng.integers(0, c_old, n))
            soft_new = losses.softmax(rng.standard_normal((n, c_new)), tau)
            no_new, lam = ~is_new, lambda_schedule(c_old, c_new)
            kd_lce, target = _kd_lce(old, new, tau), np.eye(c)[labels]
            cases = [(_ce, logits, target),
                     (_kd_ce(lam, tau, old), logits, target, teacher),
                     (kd_lce, logits, *lce_targets(target, new), teacher),
                     (kd_lce, logits[no_new], *lce_targets(target[no_new], new),
                      teacher[no_new]),
                     (_kd_ce(lam, tau, old, new), logits, target, teacher, soft_new)]
            for grad, z, *cols in cases:
                assert_close_rel(grad(z, *cols), finite_diff_logit_grad(phase_loss(grad, *cols), z))

        # penalty gradients are taken over network weights, not logits
        for trial in range(20):
            net = build_net(3, [6, 6], 4, seed=trial)
            for layer in net.layers:
                layer.w += 0.3 * rng.standard_normal(layer.w.shape)
            plan = make_plan(net, 1, 2, 2, 1.0)
            wgrads = [np.zeros_like(layer.w) for layer in net.layers]
            losses._penalty(plan.cut([l.w for l in net.layers]), 0.01, plan.cut(wgrads))
            fd_w, _ = finite_diff_param_grads(
                net, lambda n: losses.sparsify_penalty(n, plan, 0.01))
            for li, (g, f) in enumerate(zip(wgrads, fd_w)):
                if li not in plan.blocks:
                    assert not g.any()
                    assert np.abs(f).max() < 1e-7
                else:
                    assert_close_rel(g, f)
        assert time.perf_counter() - start < 10.0


def test_criterion_2_allocation_formulas():
    # (c_old, c_new, rho, width) -> new-node count, None meaning shared
    table = [
        (4, 4, 1.0, 64, 32),
        (50, 10, 1.4, 50, None),   # negative new share collapses to shared
        (2, 6, 1.0, 8, 6),
        (6, 2, 1.0, 8, 2),
        (4, 2, 1.2, 10, 2),
        (2, 2, 1.0, 5, 3),         # 2.5 rounds half-up to 3
        (10, 2, 1.0, 16, 3),       # 2.67 rounds to 3
        (3, 9, 1.0, 12, 9),
        (8, 2, 1.25, 20, None),    # new share exactly 0
        (4, 4, 1.4, 16, 5),        # 4.8 rounds to 5
        (2, 2, 1.0, 2, 1),         # clamp keeps one node per side
        (20, 5, 1.0, 8, 2),
    ]
    with _Gate(2, "lambda schedule and node allocation closed forms") as gate:
        for c_old, c_new, rho, width, expect in table:
            assert lambda_schedule(c_old, c_new) == c_old / (c_old + c_new)
            net = build_net(4, [width], c_old + c_new, seed=0)
            plan = make_plan(net, 0, c_old, c_new, rho)
            if expect is None:
                assert 0 not in plan.old_size
                assert 0 not in plan.new_size
            else:
                assert plan.new_size[0] == expect
                assert plan.old_size[0] == width - expect
            # the final layer always splits by class ownership
            assert (plan.old_size[1], plan.new_size[1]) == (c_old, c_new)
        gate.extra = f"{len(table)} cases"


def test_criterion_3_isolation_and_zero_bridge(rng):
    with _Gate(3, "disconnect isolation and zero-bridge equality are bit-exact"):
        net = build_net(5, [12, 12, 12], 6, seed=7)
        for layer in net.layers:
            layer.w += 0.2 * rng.standard_normal(layer.w.shape)
        plan = make_plan(net, 1, 3, 3, 1.0)
        disconnect(net, plan)

        x = rng.standard_normal((100, 5))
        old_before = net.forward(x)[:, :3]
        for li, b in plan.old_size.items():  # the new nodes follow the b old ones
            layer = net.layers[li]
            layer.w[:, b:] += 1.0
            layer.b[b:] += 1.0
        disconnect(net, plan)  # the shove also reached the cut weights
        assert np.array_equal(net.forward(x)[:, :3], old_before)

        branched = net.forward(x)
        bridge_reconnect(net, plan)
        assert np.array_equal(net.forward(x), branched)


def test_criterion_4_two_task_distillation_tradeoff():
    overrides = {"epochs_std": 30, "epochs_first": 30,
                 "hidden": [16, 16, 16, 16], "memory_capacity": 24}
    seeds = range(8)
    with _Gate(4, "distillation trades new-class accuracy for old") as gate:
        final = {}
        for scheme in ("ce", "std"):
            reports = [m["reports"][-1] for m in runner.run_cells(
                runner.DEFAULT_BENCHMARK, scheme, 2, list(seeds), overrides)]
            final[scheme] = reports
        gaps = []
        for key, sign in (("old_acc", +1), ("intra_old_acc", +1),
                          ("new_acc", -1), ("intra_new_acc", -1)):
            std = [r[key] for r in final["std"]]
            ce = [r[key] for r in final["ce"]]
            gap = np.mean(std) - np.mean(ce)
            se = _se_gap(std, ce)
            assert sign * gap > se, f"{key}: gap {gap:+.4f} vs SE {se:.4f}"
            gaps.append(f"{key} {gap:+.3f}")
        gate.extra = ", ".join(gaps)


def _scheme_stats(bench, tasks, overrides, seeds):
    stats = {}
    for scheme in ("sb", "std", "dd"):
        # the seeds train as one stack; each manifest is the seed's own cell
        manifests = runner.run_cells(bench, scheme, tasks, list(seeds), overrides)
        avgs = [m["avg_incremental_acc"] for m in manifests]
        intranews = [np.mean([r["intra_new_acc"] for r in m["reports"][1:]]) for m in manifests]
        stats[scheme] = (np.array(avgs), np.array(intranews))
    return stats


def test_criterion_5_multi_task_split_bridge_advantage():
    overrides = {"hidden": [32, 32, 32, 32], "memory_capacity": 48, "rho": 1.0}
    glyph_bench = {
        "source": "glyphs", "num_classes": 10, "side": 8,
        "train_per_class": 150, "test_per_class": 60,
        "data_seed": 1, "arrange_seed": 1, "noise": 0.6,
    }
    with _Gate(5, "split-and-bridge leads on multi-task benchmarks") as gate:
        notes = []
        for name, bench, tasks, seeds in (
            ("synthetic", runner.DEFAULT_BENCHMARK, 4, range(6)),
            ("glyphs", glyph_bench, 5, range(5)),
        ):
            stats = _scheme_stats(bench, tasks, overrides, seeds)
            sb_avg, sb_in = stats["sb"]
            std_avg, std_in = stats["std"]
            _, dd_in = stats["dd"]
            gap = sb_avg.mean() - std_avg.mean()
            se = _se_gap(sb_avg, std_avg)
            assert gap >= -se, f"{name}: overall gap {gap:+.4f} below -SE {se:.4f}"
            assert sb_in.mean() >= std_in.mean(), (
                f"{name}: intra-new {sb_in.mean():.4f} < std {std_in.mean():.4f}")
            assert sb_in.mean() >= dd_in.mean(), (
                f"{name}: intra-new {sb_in.mean():.4f} < dd {dd_in.mean():.4f}")
            notes.append(f"{name} gap {gap:+.3f} intra-new sb {sb_in.mean():.3f}")
        gate.extra = ", ".join(notes)


def test_criterion_6_sparsification_efficacy(rng):
    bench = {**runner.DEFAULT_BENCHMARK, "mean_radius": 4.0}
    base = {"hidden": [16, 16, 16, 16], "learning_rate": 0.05, "weight_decay": 1e-4,
            "epochs_sparsify": 60, "epochs_branched": 5, "epochs_bridge": 5}
    with _Gate(6, "penalty shrinks cross-partition weights") as gate:
        norms = {}
        for gamma in (0.0, 1e-2):
            m = runner.run_experiment(bench, "sb", 2, 0, {**base, "gamma": gamma})
            norms[gamma] = m["diagnostics"][1]["cross_norm_at_disconnect"]
        ratio = norms[1e-2] / norms[0.0]
        assert ratio < 0.25, f"ratio {ratio:.3f}"
        gate.extra = f"ratio {ratio:.3f}"

        # within-partition edits leave the penalty value exactly unchanged
        net = build_net(4, [8, 8], 4, seed=1)
        plan = make_plan(net, 1, 2, 2, 1.0)
        before = losses.sparsify_penalty(net, plan, 1e-2)
        for li, layer in enumerate(net.layers):
            out_old = plan.old_size.get(li)
            in_old = plan.old_size.get(li - 1)
            if out_old is None or in_old is None:
                continue
            layer.w[:in_old, :out_old] += rng.standard_normal((in_old, out_old))
        assert losses.sparsify_penalty(net, plan, 1e-2) == before


def test_criterion_7_matrix_determinism(tmp_path):
    matrix = {
        "benchmark": {**runner.DEFAULT_BENCHMARK, "num_classes": 4,
                      "feature_dim": 6, "train_per_class": 30, "test_per_class": 15},
        "schemes": ["sb", "std"],
        "task_counts": [2],
        "seeds": [0, 1],
        "config": {"hidden": [10, 10, 10], "split_index": 1, "epochs_first": 4,
                   "epochs_sparsify": 2, "epochs_branched": 2, "epochs_bridge": 2,
                   "epochs_std": 4, "memory_capacity": 12},
    }
    with _Gate(7, "repeated sweeps emit byte-identical metric rows"):
        assert runner.run_matrix(matrix, tmp_path / "a") == 0
        assert runner.run_matrix(matrix, tmp_path / "b") == 0
        ra = (tmp_path / "a" / "rows.jsonl").read_bytes()
        rb = (tmp_path / "b" / "rows.jsonl").read_bytes()
        assert ra == rb and len(ra) > 0


def test_criterion_8_metric_identities():
    with _Gate(8, "restricted-argmax and weighted-mean identities"):
        master = np.random.default_rng(2024)
        for _ in range(1000):
            c_old = int(master.integers(1, 5))
            c_new = int(master.integers(1, 5))
            n = int(master.integers(1, 40))
            labels = master.integers(0, c_old + c_new, n)
            logits = master.standard_normal((n, c_old + c_new))
            blocks = [TaskRange(0, c_old), TaskRange(c_old, c_old + c_new)]
            rep = report_from_predictions(logits, labels, blocks, step=2)
            assert rep["intra_old_acc"] >= rep["old_acc"]
            assert rep["intra_new_acc"] >= rep["new_acc"]
            # recover integer correct counts so the identity is exact
            old_k = round(rep["old_acc"] * rep["n_old"])
            new_k = round(rep["new_acc"] * rep["n_new"])
            all_k = round(rep["overall_acc"] * n)
            assert old_k + new_k == all_k

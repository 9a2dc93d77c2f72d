"""Tests for the incremental training engine, exemplar memory, and the
scheme-level reduction properties."""

import numpy as np
import pytest

from splitbridge.data import LabeledDataset, gen_synthetic, split_tasks
from splitbridge.engine import (
    SCHEMES,
    ExemplarMemory,
    SchemeConfig,
    _fit,
    _pool,
    run_bridge_phase,
    run_first_task,
    run_sequence,
    run_split_phase,
    run_std_step,
    update_exemplars,
)
from splitbridge import losses
from splitbridge.losses import TaskRange, ce_loss, lambda_schedule, softmax
from splitbridge.net import build_net
from splitbridge.partition import bridge_reconnect, disconnect, make_plan

FAST = dict(
    epochs_first=8, epochs_sparsify=4, epochs_branched=4,
    epochs_bridge=4, epochs_std=8, hidden=(12, 12, 12),
    split_index=1, memory_capacity=20,
)


def small_sequence(num_classes=4, num_tasks=2, dim=6, seed=0):
    train, test = gen_synthetic(num_classes, dim, 40, 20, seed=seed, mean_radius=4.0)
    return split_tasks(train, test, num_tasks, seed=seed)


class TestSchemeConfig:
    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="scheme"):
            SchemeConfig(scheme="nope")

    @pytest.mark.parametrize("kw", [
        {"tau": 0.0}, {"rho": -1.0}, {"gamma": -0.1},
        {"epochs_first": -1}, {"epochs_sparsify": -1}, {"epochs_branched": -1},
        {"epochs_bridge": -1}, {"epochs_std": -3}, {"memory_capacity": -1},
        {"batch_size": 0}, {"learning_rate": 0.0}, {"sparsify_learning_rate": -1.0},
        {"sparsify_learning_rate": 0.0}, {"momentum": 1.0}, {"momentum": -0.1},
        {"weight_decay": -1.0}, {"hidden": (0, 4)}, {"hidden": (-2,)},
        {"learning_rate": float("nan")}, {"weight_decay": float("nan")},
        {"tau": float("nan")}, {"gamma": float("nan")},
    ])
    def test_bad_numbers(self, kw):
        (field,) = kw
        with pytest.raises(ValueError, match=field):
            SchemeConfig(**kw)

    def test_all_schemes_accepted(self):
        for s in SCHEMES:
            assert SchemeConfig(scheme=s).scheme == s


class TestFirstTask:
    def test_learns_separable_toy(self):
        train, test = gen_synthetic(2, 4, 60, 40, seed=3, mean_radius=4.0)
        cfg = SchemeConfig(**FAST)
        net = build_net(4, list(cfg.hidden), 2, seed=0)
        run_first_task(net, train, cfg)
        acc = np.mean(net.forward(test.x).argmax(axis=1) == test.y)
        assert acc >= 0.99

    def test_empty_dataset(self):
        cfg = SchemeConfig(**FAST)
        net = build_net(4, list(cfg.hidden), 2, seed=0)
        with pytest.raises(ValueError, match="empty"):
            run_first_task(net, LabeledDataset(np.zeros((0, 4)), [], 2), cfg)


class TestExemplarMemory:
    def _ds(self, n, num_classes=4, seed=0):
        rng = np.random.default_rng(seed)
        return LabeledDataset(rng.standard_normal((n, 3)),
                              rng.integers(0, num_classes, n), num_classes)

    def test_capacity_bound_and_subset(self):
        mem = ExemplarMemory(10)
        d = self._ds(50)
        mem2 = update_exemplars(mem, d, seed=1)
        assert len(mem2) == 10
        # every kept row must come from the candidate pool
        for row, label in zip(mem2.x, mem2.y):
            hits = np.all(d.x == row, axis=1)
            assert hits.any() and label in d.y[hits]

    def test_under_capacity_keeps_all(self):
        mem = update_exemplars(ExemplarMemory(100), self._ds(30), seed=1)
        assert len(mem) == 30

    def test_capacity_zero(self):
        mem = update_exemplars(ExemplarMemory(0), self._ds(30), seed=1)
        assert len(mem) == 0

    def test_deterministic(self):
        d = self._ds(50)
        a = update_exemplars(ExemplarMemory(10), d, seed=7)
        b = update_exemplars(ExemplarMemory(10), d, seed=7)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        c = update_exemplars(ExemplarMemory(10), d, seed=8)
        assert not np.array_equal(a.x, c.x)

    def test_accumulates_old_memory(self):
        d1 = self._ds(6, seed=0)
        d2 = self._ds(6, seed=1)
        mem = update_exemplars(ExemplarMemory(20), d1, seed=1)
        mem = update_exemplars(mem, d2, seed=2)
        assert len(mem) == 12

    def test_balanced_quota(self):
        # 4 classes, capacity 12: balanced selection takes 3 per class
        rng = np.random.default_rng(0)
        y = np.repeat(np.arange(4), 25)
        d = LabeledDataset(rng.standard_normal((100, 3)), y, 4)
        mem = update_exemplars(ExemplarMemory(12), d, seed=3, balanced=True)
        assert len(mem) == 12
        counts = np.bincount(mem.y, minlength=4)
        assert np.array_equal(counts, [3, 3, 3, 3])

    def test_uniform_sampling_statistics(self):
        # each of 20 candidates should be kept with probability 5/20; over
        # 1000 seeded draws the count stays within 3 sigma of the binomial
        rng = np.random.default_rng(0)
        d = LabeledDataset(rng.standard_normal((20, 2)), np.zeros(20, dtype=int), 1)
        hits = np.zeros(20)
        for s in range(1000):
            mem = update_exemplars(ExemplarMemory(5), d, seed=s)
            for row in mem.x:
                hits[np.all(d.x == row, axis=1)] += 1
        p = 5 / 20
        sigma = np.sqrt(1000 * p * (1 - p))
        assert np.all(np.abs(hits - 1000 * p) < 3 * sigma)


class TestFit:
    def test_each_call_starts_from_zero_momentum(self):
        # two consecutive phases on one net against a hand-written momentum
        # loop whose velocity starts at zero in each call
        seq = small_sequence()
        d = seq.tasks[0].train
        cfg = SchemeConfig(**FAST, weight_decay=1e-2)
        calls = [((1, 1), None), ((1, 2), 0.02)]
        net = build_net(seq.feature_dim, list(cfg.hidden), 2, seed=0)
        ref = net.clone()
        for stream, lr in calls:
            _fit(net, d.x, cfg, 3, stream, lambda logits, idx: ce_loss(logits, d.y[idx]), lr=lr)

        for stream, lr in calls:
            lr = cfg.learning_rate if lr is None else lr
            vel = [(np.zeros_like(l.w), np.zeros_like(l.b)) for l in ref.layers]
            rng = np.random.default_rng([cfg.seed, *stream])
            for _ in range(3):
                order = rng.permutation(len(d))
                for start in range(0, len(d), cfg.batch_size):
                    idx = order[start : start + cfg.batch_size]
                    xb, yb = d.x[idx], d.y[idx]
                    grads = ref.backward(xb, ce_loss(ref.forward(xb), yb).grad_logits)
                    for i, layer in enumerate(ref.layers):
                        gw = grads.wgrads[i] + cfg.weight_decay * layer.w
                        vel[i] = (cfg.momentum * vel[i][0] + gw,
                                  cfg.momentum * vel[i][1] + grads.bgrads[i])
                        layer.w = layer.w - lr * vel[i][0]
                        layer.b = layer.b - lr * vel[i][1]
        for la, lb in zip(net.layers, ref.layers):
            assert la.w.tobytes() == lb.w.tobytes()
            assert la.b.tobytes() == lb.b.tobytes()


class TestSplitPhase:
    def test_requires_new_classes(self):
        # the soft labels already cover every output, so there is nothing to split
        cfg = SchemeConfig(**FAST)
        net = build_net(4, list(cfg.hidden), 2, seed=0)
        d = LabeledDataset(np.zeros((4, 4)), [0, 0, 1, 1], 2)
        x, y, is_new = _pool(d, ExemplarMemory(0))
        with pytest.raises(ValueError):
            run_split_phase(net, x, y, is_new, softmax(net.forward(x), cfg.tau), cfg, step=2)

    def test_cut_stays_exactly_zero_under_decay_and_momentum(self):
        # the branched phase zeros the cut's gradients; weight decay and
        # momentum must not move a cut weight off +0.0 either
        seq = small_sequence()
        cfg = SchemeConfig(**FAST, weight_decay=1e-2, momentum=0.9)
        net = build_net(seq.feature_dim, list(cfg.hidden), 2, seed=0)
        run_first_task(net, seq.tasks[0].train, cfg)
        mem = update_exemplars(ExemplarMemory(cfg.memory_capacity), seq.tasks[0].train, 1)
        x, y, is_new = _pool(seq.tasks[1].train, mem)
        soft = softmax(net.forward(x), cfg.tau)
        net.widen_output(2)
        net, plan, groups, _ = run_split_phase(net, x, y, is_new, soft, cfg, 2)
        assert groups is plan.groups and groups.per_layer
        for li, (on, no) in groups.per_layer.items():
            cut = net.layers[li].w[on | no]
            assert cut.tobytes() == np.zeros_like(cut).tobytes()
            assert np.count_nonzero(net.layers[li].w[~(on | no)]) > 0
        probe = seq.tasks[1].test.x
        branched = net.forward(probe)
        bridge_reconnect(net, groups)
        assert net.forward(probe).tobytes() == branched.tobytes()
        run_bridge_phase(net, plan, x, y, cfg, 2)
        assert any(np.any(net.layers[li].w[on | no] != 0.0)
                   for li, (on, no) in groups.per_layer.items())

    def test_zero_width_class_window_rejected(self):
        with pytest.raises(ValueError, match="range"):
            TaskRange(0, 0)


class TestStdReduction:
    def test_composite_lambda_is_the_schedule(self, monkeypatch):
        # std and the bridge phase mix KD against CE with the scheduled weight
        # c_old / (c_old + c_new); nothing else sets it
        seq = small_sequence(num_classes=6, num_tasks=3)
        cfg = SchemeConfig(**FAST)
        x, y, _ = _pool(seq.tasks[2].train, ExemplarMemory(0))
        composite = losses.std_composite_loss
        seen = {"std": [], "bridge": []}
        phase = "std"

        def record(logits, labels, teacher, old_range, lam, temperature):
            seen[phase].append(lam)
            return composite(logits, labels, teacher, old_range, lam, temperature)

        monkeypatch.setattr(losses, "std_composite_loss", record)
        net = build_net(seq.feature_dim, list(cfg.hidden), 4, seed=5)
        soft = softmax(net.forward(x), cfg.tau)
        net.widen_output(2)
        run_std_step(net, x, y, soft, cfg, 3)
        phase = "bridge"
        plan = make_plan(net, cfg.split_index, 4, 2, cfg.rho)
        disconnect(net, plan.groups)
        run_bridge_phase(net, plan, x, y, cfg, 3)
        assert seen["std"] and seen["bridge"]
        assert set(seen["std"]) == set(seen["bridge"]) == {lambda_schedule(4, 2)}


class TestRunSequence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_shapes_and_reports(self, scheme):
        seq = small_sequence()
        results = run_sequence(seq, SchemeConfig(scheme=scheme, **FAST))
        assert [r.step for r in results] == [1, 2]
        # output layer ends as wide as the total class count
        assert results[-1].net.num_classes == seq.num_classes
        assert results[0].report.n_old == 0
        assert results[1].report.n_old == results[1].report.n_new == 40

    def test_single_task_degenerate(self):
        seq = small_sequence(num_classes=4, num_tasks=1)
        results = run_sequence(seq, SchemeConfig(**FAST))
        assert len(results) == 1
        assert results[0].plan_summary is None

    def test_plan_logged_only_for_split_scheme(self):
        seq = small_sequence()
        sb = run_sequence(seq, SchemeConfig(scheme="sb", **FAST))
        std = run_sequence(seq, SchemeConfig(scheme="std", **FAST))
        assert sb[1].plan_summary is not None
        assert "cross_norm_at_disconnect" in sb[1].diagnostics
        assert std[1].plan_summary is None

    def test_bitwise_determinism(self):
        seq = small_sequence()
        cfg = SchemeConfig(scheme="sb", **FAST)
        a = run_sequence(seq, cfg)
        b = run_sequence(seq, cfg)
        for ra, rb in zip(a, b):
            for la, lb in zip(ra.net.layers, rb.net.layers):
                assert np.array_equal(la.w, lb.w)
                assert np.array_equal(la.b, lb.b)
            assert ra.report.to_dict() == rb.report.to_dict()

    def test_one_forward_per_step_and_one_cut_per_split(self, monkeypatch):
        from splitbridge import engine, metrics, partition
        from splitbridge.net import DenseNet

        counts = dict.fromkeys(["forward_cached", "step", "eval", "forward", "cut"], 0)

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(DenseNet, "forward_cached",
                            counting("forward_cached", DenseNet.forward_cached))
        monkeypatch.setattr(engine, "sgd_step", counting("step", engine.sgd_step))
        monkeypatch.setattr(metrics, "evaluate", counting("eval", metrics.evaluate))
        monkeypatch.setattr(DenseNet, "forward", counting("forward", DenseNet.forward))
        monkeypatch.setattr(partition, "cross_groups",
                            counting("cut", partition.cross_groups))
        seq = small_sequence(num_classes=6, num_tasks=3)
        run_sequence(seq, SchemeConfig(scheme="sb", **FAST))
        assert counts["step"] > 0 and counts["eval"] == 3
        assert counts["forward_cached"] == counts["step"] + counts["forward"]
        # one per evaluation, plus per split step the soft labels of the
        # previous model and of the old branch for the bridge
        assert counts["forward"] == counts["eval"] + 2 * 2
        assert counts["cut"] == 2    # one per split phase

        # ce distils nothing: no forward pass beyond its steps and evaluations
        counts.update(dict.fromkeys(counts, 0))
        run_sequence(seq, SchemeConfig(scheme="ce", **FAST))
        assert counts["step"] > 0 and counts["eval"] == 3
        assert counts["forward"] == counts["eval"]
        assert counts["forward_cached"] == counts["step"] + counts["eval"]

    def test_one_clone_per_step(self, monkeypatch):
        # the only copy of the network a step makes is its StepResult checkpoint
        from splitbridge.net import DenseNet

        calls = []
        clone = DenseNet.clone
        monkeypatch.setattr(DenseNet, "clone", lambda net: calls.append(1) or clone(net))
        results = run_sequence(small_sequence(num_classes=6, num_tasks=3),
                               SchemeConfig(scheme="sb", **FAST))
        assert len(results) == 3 and len(calls) == 3

    def test_balanced_memory_reaches_the_draw(self, monkeypatch):
        # capacity 12 divides by the 2, 4 and 6 classes seen after each task
        from splitbridge import engine

        memories = []
        update = engine.update_exemplars
        monkeypatch.setattr(engine, "update_exemplars",
                            lambda *a: memories.append(update(*a)) or memories[-1])
        seq = small_sequence(num_classes=6, num_tasks=3)
        fast = dict(FAST, memory_capacity=12)
        balanced = run_sequence(seq, SchemeConfig(balanced_memory=True, **fast))
        assert len(memories) == 3
        for mem in memories:
            classes, counts = np.unique(mem.y, return_counts=True)
            assert np.all(counts == 12 // classes.size)
        uniform = run_sequence(seq, SchemeConfig(**fast))
        assert [r.report.to_dict() for r in balanced] != [r.report.to_dict() for r in uniform]

    def test_seed_changes_outcome(self):
        seq = small_sequence()
        a = run_sequence(seq, SchemeConfig(seed=0, **FAST))
        b = run_sequence(seq, SchemeConfig(seed=1, **FAST))
        assert not np.array_equal(a[0].net.layers[0].w, b[0].net.layers[0].w)

    def test_rejects_empty_task(self):
        seq = small_sequence()
        seq.tasks[1].classes = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="zero classes"):
            run_sequence(seq, SchemeConfig(**FAST))

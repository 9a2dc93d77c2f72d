"""Tests for the incremental training engine, exemplar memory, and the
scheme-level reduction properties."""

import dataclasses

import numpy as np
import pytest

from splitbridge.data import LabeledDataset, Task, gen_synthetic, split_tasks
from splitbridge.engine import (
    SCHEMES,
    Pool,
    SchemeConfig,
    _ce,
    _fit,
    _kd_ce,
    _kd_lce,
    run_bridge_phase,
    run_first_task,
    run_sequence,
    run_split_phase,
    run_std_step,
    update_exemplars,
)
from splitbridge import engine, losses
from splitbridge.data import TaskRange
from splitbridge.losses import lambda_schedule, sparsify_penalty
from splitbridge.net import DenseNet, _views, build_net, sgd_step
from splitbridge.partition import bridge_reconnect, disconnect, extract_subnet, make_plan
from conftest import backward, finite_diff_logit_grad, lce_targets, phase_loss

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
        {"batch_size": 0}, {"learning_rate": 0.0}, {"momentum": 1.0}, {"momentum": -0.1},
        {"weight_decay": -1.0}, {"hidden": (0, 4)}, {"hidden": (-2,)},
        {"learning_rate": float("nan")}, {"weight_decay": float("nan")},
        {"tau": float("nan")}, {"gamma": float("nan")},
        {"split_index": 5}, {"split_index": -1}, {"split_index": 1.0},
        {"batch_size": 2.5}, {"epochs_first": 3.0}, {"epochs_bridge": "4"},
        {"memory_capacity": 24.0}, {"hidden": (8, 2.5)}, {"seed": 2.5},
        {"batch_size": True}, {"hidden": (True, 4)}, {"seed": False},
        {"learning_rate": float("inf")}, {"tau": float("inf")}, {"gamma": float("inf")},
        {"rho": float("inf")}, {"weight_decay": float("inf")},
        {"tau": "2"}, {"learning_rate": None}, {"momentum": "0.9"}, {"gamma": True},
        {"weight_decay": [1e-4]}, {"rho": 10 ** 400}, {"hidden": 5}, {"hidden": "32"},
        {"seed": -1},
    ])
    def test_bad_numbers(self, kw):
        (field,) = kw
        with pytest.raises(ValueError, match=field):
            SchemeConfig(**kw)

    def test_numpy_integers_accepted(self):
        cfg = SchemeConfig(batch_size=np.int64(8), split_index=np.int32(4),
                           hidden=tuple(np.array([6, 6, 6, 6])), memory_capacity=np.uint8(0))
        assert cfg.batch_size == 8 and cfg.split_index == len(cfg.hidden)

    def test_all_schemes_accepted(self):
        for s in SCHEMES:
            assert SchemeConfig(scheme=s).scheme == s


class TestFirstTask:
    def test_learns_separable_toy(self):
        train, test = gen_synthetic(2, 4, 60, 40, seed=3, mean_radius=4.0)
        cfg = SchemeConfig(**FAST)
        net = build_net(4, list(cfg.hidden), 2, seed=0)
        run_first_task([net], train, [cfg])
        acc = np.mean(net.forward(test.x).argmax(axis=1) == test.y)
        assert acc >= 0.99


def empty_memory(d):
    return d.subset(slice(0, 0))


class TestExemplarMemory:
    def _ds(self, n, num_classes=4, seed=0):
        rng = np.random.default_rng(seed)
        return LabeledDataset(rng.standard_normal((n, 3)),
                              rng.integers(0, num_classes, n), num_classes)

    def test_capacity_bound_and_subset(self):
        d = self._ds(50)
        mem = empty_memory(d)
        mem2 = update_exemplars(mem, d, 10, seed=1)
        assert len(mem2) == 10
        # every kept row must come from the candidate pool
        for row, label in zip(mem2.x, mem2.y):
            hits = np.all(d.x == row, axis=1)
            assert hits.any() and label in d.y[hits]

    def test_under_capacity_keeps_all(self):
        d = self._ds(30)
        mem = update_exemplars(empty_memory(d), d, 100, seed=1)
        assert len(mem) == 30

    def test_capacity_zero(self):
        d = self._ds(30)
        mem = update_exemplars(empty_memory(d), d, 0, seed=1)
        assert len(mem) == 0

    def test_deterministic(self):
        d = self._ds(50)
        a = update_exemplars(empty_memory(d), d, 10, seed=7)
        b = update_exemplars(empty_memory(d), d, 10, seed=7)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        c = update_exemplars(empty_memory(d), d, 10, seed=8)
        assert not np.array_equal(a.x, c.x)

    def test_accumulates_old_memory(self):
        d1 = self._ds(6, seed=0)
        d2 = self._ds(6, seed=1)
        mem = update_exemplars(empty_memory(d1), d1, 20, seed=1)
        mem = update_exemplars(mem, d2, 20, seed=2)
        assert len(mem) == 12

    @pytest.mark.parametrize("capacity", [0, 5, 19, 40])
    def test_draw_is_keyed_on_seed_then_candidate_count(self, capacity):
        # the kept rows of [mem; d_t] are the sorted draw of default_rng([seed, n]),
        # n the candidate count: the stream key every run's memory rests on
        mem, d, seed = self._ds(7, seed=0), self._ds(13, seed=1), 3
        n = len(mem) + len(d)
        keep = np.sort(np.random.default_rng([seed, n]).choice(
            n, size=min(n, capacity), replace=False))
        got = update_exemplars(mem, d, capacity, seed)
        assert got.x.tobytes() == np.vstack([mem.x, d.x])[keep].tobytes()
        assert got.y.tobytes() == np.concatenate([mem.y, d.y])[keep].tobytes()

    def test_uniform_sampling_statistics(self):
        # each of 20 candidates should be kept with probability 5/20; over
        # 1000 seeded draws the count stays within 3 sigma of the binomial
        rng = np.random.default_rng(0)
        d = LabeledDataset(rng.standard_normal((20, 2)), np.zeros(20, dtype=int), 1)
        hits = np.zeros(20)
        for s in range(1000):
            mem = update_exemplars(empty_memory(d), d, 5, seed=s)
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
        calls = [((1, 1), cfg), ((1, 2), dataclasses.replace(cfg, learning_rate=0.02))]
        net = build_net(seq.feature_dim, list(cfg.hidden), 2, seed=0)
        ref, target = net.clone(), np.eye(2)[d.y]
        for stream, call_cfg in calls:
            _fit([net], [call_cfg], 3, stream, _ce, d.x[None], target[None])

        for stream, call_cfg in calls:
            lr = call_cfg.learning_rate
            vel = [(np.zeros_like(l.w), np.zeros_like(l.b)) for l in ref.layers]
            rng = np.random.default_rng([cfg.seed, *stream])
            for _ in range(3):
                order = rng.permutation(len(d))
                for start in range(0, len(d), cfg.batch_size):
                    idx = order[start : start + cfg.batch_size]
                    xb = d.x[idx]
                    gws, gbs = _views(backward(ref, xb, _ce(ref.forward(xb), target[idx])),
                                      ref.layout)
                    for i, layer in enumerate(ref.layers):
                        gw = gws[i] + cfg.weight_decay * layer.w
                        vel[i] = (cfg.momentum * vel[i][0] + gw,
                                  cfg.momentum * vel[i][1] + gbs[i])
                        layer.w[...] = layer.w - lr * vel[i][0]
                        layer.b[...] = layer.b - lr * vel[i][1]
        for la, lb in zip(net.layers, ref.layers):
            assert la.w.tobytes() == lb.w.tobytes()
            assert la.b.tobytes() == lb.b.tobytes()

    def test_on_grads_sees_the_stack_once_per_step(self):
        # on_grads binds once, after the pack, to the stack's weight and
        # weight-gradient views, (S, in, out); the hook it returns runs once per
        # step, and its in-place edits reach every seed's update
        seq = small_sequence()
        d = seq.tasks[0].train
        cfgs = [SchemeConfig(**FAST, weight_decay=0.0, seed=s) for s in (0, 1)]
        nets = [build_net(seq.feature_dim, list(cfgs[0].hidden), 2, seed=s) for s in (0, 1)]
        first, second = ([net.layers[li].w.copy() for net in nets] for li in (0, 1))
        binds, shapes = [], []

        def freeze_first_layer(ws, gw):
            binds.append(all(np.shares_memory(w[s], net.params)
                             for w in ws for s, net in enumerate(nets)))
            def step():
                shapes.append([g.shape for g in gw])
                gw[0][...] = 0.0
            return step

        x, y = (np.broadcast_to(a, (2,) + a.shape) for a in (d.x, np.eye(2)[d.y]))
        _fit(nets, cfgs, 3, (1, 1), _ce, x, y, on_grads=freeze_first_layer)
        assert binds == [True]
        assert len(shapes) == 3 * -(-len(d) // cfgs[0].batch_size)
        assert all(s == [(2,) + shape for shape in nets[0].layout] for s in shapes)
        for net, w0, w1 in zip(nets, first, second):
            assert net.layers[0].w.tobytes() == w0.tobytes()
            assert not np.array_equal(net.layers[1].w, w1)


class TestFusedGradients:
    """Each phase's gradient closure matches central finite differences of
    its own total loss, on random logits."""

    C_OLD, C_NEW, TAU = 4, 6, 2.0   # 10 outputs: softmax sums over more than 8 terms
    OLD, NEW = TaskRange(0, C_OLD), TaskRange(C_OLD, C_OLD + C_NEW)
    LAM = lambda_schedule(C_OLD, C_NEW)

    def _rows(self, rng, n=37):
        """A pool's per-row columns: labels y, the new-task flag and soft labels."""
        is_new = rng.random(n) < 0.5
        y = np.where(is_new, rng.integers(self.C_OLD, self.C_OLD + self.C_NEW, n),
                     rng.integers(0, self.C_OLD, n))
        return y, is_new, losses.softmax(3.0 * rng.standard_normal((n, self.C_OLD)), self.TAU)

    def _batches(self, rng, is_new):
        # a full batch of 16, the ragged last batch of 5 and a batch without new rows
        order = rng.permutation(len(is_new))
        batches = [order[:16], order[32:], np.flatnonzero(~is_new)[:7]]
        assert len(batches[1]) == 5 and not is_new[batches[2]].any()
        assert is_new[batches[0]].any() and not is_new[batches[0]].all()
        return [(idx, 4.0 * rng.standard_normal((len(idx), self.C_OLD + self.C_NEW)))
                for idx in batches]

    def _check(self, grad, rng, is_new, *cols):
        """grad on each batch's rows of cols, the columns it takes."""
        for idx, logits in self._batches(rng, is_new):
            batch = [c[idx] for c in cols]
            before = logits.copy()
            got = grad(logits, *batch)
            assert got.shape == logits.shape
            assert logits.tobytes() == before.tobytes()
            # the finite differences of a loss near 10 carry about 1e-10 of
            # roundoff, against gradient entries up to about 0.1
            np.testing.assert_allclose(
                got, finite_diff_logit_grad(phase_loss(grad, *batch), logits),
                rtol=1e-6, atol=1e-9)
            # asking for the value components leaves the gradient's bytes as they are
            assert grad(logits, *batch, parts={}).tobytes() == got.tobytes()

    def _onehot(self, y):
        """CE's targets for the labels y, as the phases build them: one-hot rows."""
        return np.eye(self.C_OLD + self.C_NEW)[y]

    def test_ce(self, rng):
        y, is_new, _ = self._rows(rng)
        self._check(_ce, rng, is_new, self._onehot(y))

    def test_composite(self, rng):
        y, is_new, soft = self._rows(rng)
        self._check(_kd_ce(self.LAM, self.TAU, self.OLD), rng, is_new, self._onehot(y), soft)

    def test_kd_lce(self, rng):
        y, is_new, soft = self._rows(rng)
        grad = _kd_lce(self.OLD, self.NEW, self.TAU)
        cols = (*lce_targets(self._onehot(y), self.NEW), soft)
        self._check(grad, rng, is_new, *cols)
        # without new rows LCE is 0.0, not the NaN mean of no rows
        parts, old_rows = {}, np.flatnonzero(~is_new)[:3]
        grad(np.zeros((3, 10)), *(c[old_rows] for c in cols), parts=parts)
        assert parts["lce"] == 0.0 and parts["loss"] == parts["kd"]

    @staticmethod
    def _softmax_row(z):
        """One row's softmax in the kernel's order: shift by the max, exp, normalize."""
        e = np.exp(z - z.max())
        return e / e.sum()

    @pytest.mark.parametrize("kd", [False, True])
    def test_ce_and_composite_match_their_formula(self, rng, kd):
        # written out per row: CE of the full softmax p, averaged over all n rows;
        # with kd, std's and the bridge's (1 - lam) CE + lam KD of the old window's
        # tempered softmax q against soft. Fed the phase's one-hot targets, the
        # gradient is the formula's, bit for bit
        n, tau, lam, c_old, c = 8, self.TAU, self.LAM, self.C_OLD, self.C_OLD + self.C_NEW
        y = rng.integers(0, c, n)
        soft = losses.softmax(rng.standard_normal((n, c_old)), tau)
        logits = 3.0 * rng.standard_normal((n, c))
        want = np.zeros_like(logits)
        for i in range(n):
            want[i] = (self._softmax_row(logits[i]) - np.eye(c)[y[i]]) / n
            if kd:
                want[i] *= 1 - lam
                q = self._softmax_row(logits[i, :c_old] / tau)
                want[i, :c_old] += (q - soft[i]) / (tau * n) * lam
        grad, softs = (_kd_ce(lam, tau, self.OLD), (soft,)) if kd else (_ce, ())
        got = grad(logits, self._onehot(y), *softs)
        assert got.tobytes() == want.tobytes()

    def test_kd_lce_matches_its_formula(self, rng):
        # written out per row from the loss's definition: KD of the old window's
        # tempered softmax q against soft, averaged over all 8 rows, plus CE of
        # the new window's softmax p, averaged over the 3 new rows alone. Fed the
        # split phase's targets, the gradient is the formula's, bit for bit
        n, tau, c_old, c_new = 8, self.TAU, self.C_OLD, self.C_NEW
        is_new = np.zeros(n, bool)
        is_new[[1, 4, 6]] = True
        y = np.where(is_new, rng.integers(c_old, c_old + c_new, n), rng.integers(0, c_old, n))
        soft = losses.softmax(rng.standard_normal((n, c_old)), tau)
        logits = 3.0 * rng.standard_normal((n, c_old + c_new))
        want, kd, lce = np.zeros_like(logits), 0.0, 0.0
        for i in range(n):
            q = self._softmax_row(logits[i, :c_old] / tau)
            want[i, :c_old] = (q - soft[i]) / (tau * n)
            kd -= soft[i] @ np.log(q) / n
            if is_new[i]:
                p = self._softmax_row(logits[i, c_old:])
                want[i, c_old:] = (p - np.eye(c_new)[y[i] - c_old]) / 3
                lce -= np.log(p[y[i] - c_old]) / 3
        parts = {}
        cols = (*lce_targets(self._onehot(y), self.NEW), soft)
        got = _kd_lce(self.OLD, self.NEW, tau)(logits, *cols, parts=parts)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose([parts["kd"], parts["lce"], parts["loss"]],
                                   [kd, lce, kd + lce], rtol=1e-12)

    def test_double_kd_matches_its_formula(self, rng):
        # written out per row from dd's loss: lam/2 KD of the old window's tempered
        # softmax against soft, plus lam/2 KD of the new window's against soft_new,
        # plus (1 - lam) CE of the full softmax, each averaged over all n rows. Fed
        # the phase's one-hot targets, the gradient is the formula's, bit for bit
        n, tau, lam, c_old, c_new = 8, self.TAU, self.LAM, self.C_OLD, self.C_NEW
        y = rng.integers(0, c_old + c_new, n)
        soft = losses.softmax(rng.standard_normal((n, c_old)), tau)
        soft_new = losses.softmax(rng.standard_normal((n, c_new)), tau)
        logits = 3.0 * rng.standard_normal((n, c_old + c_new))
        want, kd, kd_new, ce = np.zeros_like(logits), 0.0, 0.0, 0.0
        for i in range(n):
            q_old = self._softmax_row(logits[i, :c_old] / tau)
            q_new = self._softmax_row(logits[i, c_old:] / tau)
            p = self._softmax_row(logits[i])
            want[i] = (p - np.eye(c_old + c_new)[y[i]]) / n * (1 - lam)
            want[i, :c_old] += (q_old - soft[i]) / (tau * n) * (lam / 2)
            want[i, c_old:] += (q_new - soft_new[i]) / (tau * n) * (lam / 2)
            kd -= soft[i] @ np.log(q_old) / n
            kd_new -= soft_new[i] @ np.log(q_new) / n
            ce -= np.log(p[y[i]]) / n
        parts = {}
        got = _kd_ce(lam, tau, self.OLD, self.NEW)(logits, self._onehot(y), soft, soft_new,
                                                   parts=parts)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(
            [parts["kd"], parts["kd_new"], parts["ce"], parts["loss"]],
            [kd, kd_new, ce, lam / 2 * kd + lam / 2 * kd_new + (1 - lam) * ce], rtol=1e-12)

    def test_double_kd(self, rng):
        y, is_new, soft = self._rows(rng)
        soft_new = losses.softmax(rng.standard_normal((len(y), self.C_NEW)), self.TAU)
        self._check(_kd_ce(self.LAM, self.TAU, self.OLD, self.NEW), rng, is_new,
                    self._onehot(y), soft, soft_new)

    @pytest.mark.parametrize("tau", [1.0, 2.0])
    @pytest.mark.parametrize("shape", [(13,), (3, 13)], ids=["batch", "stack"])
    def test_no_window_at_lambda_0_is_plain_ce(self, rng, tau, shape):
        # the first task, ce and dd's auxiliary nets train _kd_ce(0.0, ...) with no KD
        # window: the CE kernel's bytes (scaled by exactly 1.0, at any tau), and parts
        # the CE value alone, its loss that value (0.0 added to a CE that is >= 0)
        c = self.C_OLD + self.C_NEW
        logits = 4.0 * rng.standard_normal((*shape, c))
        target = np.eye(c)[rng.integers(0, c, shape)]
        want = losses._ce_grad(losses._softmax(logits, 1.0), target)
        for grad in (_kd_ce(0.0, tau), _ce):
            parts = {}
            assert grad(logits, target).tobytes() == want.tobytes()
            assert grad(logits, target, parts=parts).tobytes() == want.tobytes()
            assert parts.keys() == {"ce", "loss"}
            assert np.asarray(parts["loss"]).tobytes() == np.asarray(parts["ce"]).tobytes()

    @pytest.mark.parametrize("loss", ["ce", "composite", "kd_lce", "double_kd"])
    def test_stacked_batch_equals_each_seed_alone(self, rng, loss):
        # _fit hands a phase loss one batch per seed on a leading axis; each
        # seed's gradient and value components must be the bytes its own 2-D
        # batch gives, also for a seed whose batch has no new rows (seed 1)
        grad = {"ce": _ce, "composite": _kd_ce(self.LAM, self.TAU, self.OLD),
                "kd_lce": _kd_lce(self.OLD, self.NEW, self.TAU),
                "double_kd": _kd_ce(self.LAM, self.TAU, self.OLD, self.NEW)}[loss]
        seeds = []
        for s in range(3):
            y, is_new, soft = self._rows(rng, n=40)
            rows = np.flatnonzero(~is_new if s == 1 else np.ones(40, bool))[:13]
            soft_new = losses.softmax(rng.standard_normal((len(rows), self.C_NEW)), self.TAU)
            t = self._onehot(y)[rows]
            lce, new_rows = lce_targets(t, self.NEW)
            seeds.append({"ce": (t,), "composite": (t, soft[rows]),
                          "kd_lce": (lce, new_rows, soft[rows]),
                          "double_kd": (t, soft[rows], soft_new)}[loss])
        logits = 4.0 * rng.standard_normal((3, 13, self.C_OLD + self.C_NEW))
        before, parts = logits.copy(), {}
        stacked = grad(logits, *map(np.stack, zip(*seeds)), parts=parts)
        assert logits.tobytes() == before.tobytes()
        for s, cols in enumerate(seeds):
            own = {}
            assert stacked[s].tobytes() == grad(logits[s], *cols, parts=own).tobytes()
            assert own.keys() == parts.keys()
            for key, value in own.items():
                assert np.float64(parts[key][s]).tobytes() == np.float64(value).tobytes(), key
        if loss == "kd_lce":  # LCE is 0.0 on the batch without new rows, its entries +0.0
            assert seeds[0][1].any() and not seeds[1][1].any()
            assert parts["lce"][1] == 0.0 and parts["lce"][0] > 0.0
            assert stacked[1][:, self.C_OLD:].tobytes() == np.zeros((13, self.C_NEW)).tobytes()


class TestStackedTeachers:
    """Every soft-label teacher of a step runs as one stacked forward pass, and
    each seed's row of it is byte-equal to that seed's own 2-D pass."""

    def _seeds(self):
        seq = small_sequence(num_classes=6, num_tasks=3)
        cfgs = [SchemeConfig(**FAST, seed=s) for s in (0, 1, 2)]
        nets = [build_net(seq.feature_dim, list(c.hidden), 2, seed=c.seed) for c in cfgs]
        rng = np.random.default_rng(4)
        for net in nets:  # nonzero biases, so that their slices count too
            net.params[net.n_weights:] = rng.standard_normal(net.params.size - net.n_weights)
        d1 = seq.tasks[0].train
        mems = [update_exemplars(empty_memory(d1), d1, 20, c.seed) for c in cfgs]
        return seq, cfgs, nets, mems

    @pytest.mark.parametrize("seeds", [1, 3])
    def test_each_net_is_a_row_of_the_stack(self, seeds):
        # _stack copies the nets into one fresh buffer and rebinds none of them, so
        # a teacher pass leaves them as they are; _fit makes such a copy their only
        # one from then on
        seq, cfgs, nets, _ = self._seeds()
        nets, cfgs, d = nets[:seeds], cfgs[:seeds], seq.tasks[0].train
        before = [net.params for net in nets]
        stack, layers = engine._stack(nets)
        assert stack.base is None and stack.shape == (seeds, before[0].size)
        assert stack.tobytes() == np.stack(before).tobytes()
        assert all(net.params is p for net, p in zip(nets, before))
        assert [l.w.shape for l in layers] == [(seeds,) + shape for shape in nets[0].layout]
        assert [l.b.shape for l in layers] == [(seeds, 1, o) for _, o in nets[0].layout]
        _fit(nets, cfgs, 0, (0, 0), _ce,
             *(np.broadcast_to(a, (seeds,) + a.shape) for a in (d.x, np.eye(2)[d.y])))
        stack = nets[0].params.base
        assert stack.base is None and stack.tobytes() == np.stack(before).tobytes()
        for s, net in enumerate(nets):
            assert net.params.base is stack and not np.shares_memory(net.params, before[s])
            assert net.params.__array_interface__ == stack[s].__array_interface__
            for i, (w, b) in enumerate(zip(*_views(stack[s], net.layout))):
                assert net.layers[i].w.__array_interface__ == w.__array_interface__
                assert net.layers[i].b.__array_interface__ == b.__array_interface__
            net.layers[-1].b[0] = 7.0 + s  # a write to a net is a write to its stack row
            assert _views(stack, net.layout)[1][-1][s, 0] == 7.0 + s

    def test_fit_trains_the_nets_in_place(self, monkeypatch):
        # every step's forward pass reads the nets' own parameters: no per-step
        # copy of them into a separate stack, and nothing to write back
        seq, cfgs, nets, _ = self._seeds()
        start, seen, forward = [net.params.copy() for net in nets], [], engine._forward
        def record(layers, x):
            seen.append(all(np.shares_memory(l.w[s], net.params) and
                            np.shares_memory(l.b[s], net.params)
                            for l in layers for s, net in enumerate(nets)))
            return forward(layers, x)
        monkeypatch.setattr(engine, "_forward", record)
        d = seq.tasks[0].train
        _fit(nets, cfgs, 2, (0, 0), _ce,
             *(np.broadcast_to(a, (3,) + a.shape) for a in (d.x, np.eye(2)[d.y])))
        assert len(seen) > 2 and all(seen)
        assert not any(np.array_equal(net.params, p) for net, p in zip(nets, start))

    def test_pool_build_stacks_one_seed_builds(self):
        seq, cfgs, nets, mems = self._seeds()
        pool = Pool.build(seq.tasks[1], mems, nets, cfgs[0])
        singles = [Pool.build(seq.tasks[1], [m], [n], c) for m, n, c in zip(mems, nets, cfgs)]
        assert not all(np.array_equal(pool.x[0], x) for x in pool.x[1:])  # seeds' memories differ
        for name in ("x", "target", "soft"):
            got, want = getattr(pool, name), np.concatenate([getattr(p, name) for p in singles])
            assert got.shape[0] == 3 and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name
        assert (pool.old, pool.new) == (singles[0].old, singles[0].new)

    def test_bridge_teacher_views_the_stack(self):
        seq, cfgs, nets, _ = self._seeds()
        for net in nets:
            net.widen_output(2)
        plan = make_plan(nets[0], cfgs[0].split_index, 2, 2, cfgs[0].rho)
        for net in nets:
            disconnect(net, plan)
        stack, layers = engine._stack(nets)
        teacher = extract_subnet(layers, plan)
        assert all(np.shares_memory(l.w, stack) and np.shares_memory(l.b, stack) for l in teacher)
        assert teacher[-1].w.shape[-1] == 2 and any(l.w.shape != s.w.shape
                                                    for l, s in zip(teacher, layers))
        x = np.random.default_rng(5).standard_normal((3, 17, seq.feature_dim))
        got = engine._forward(teacher, x)[0]
        for net, xs, logits in zip(nets, x, got):
            want = DenseNet(extract_subnet(net.layers, plan)).forward(xs)
            assert logits.tobytes() == want.tobytes()


class TestSplitPhase:
    def test_requires_new_classes(self):
        # the soft labels already cover every output, so there is nothing to split
        cfg = SchemeConfig(**FAST)
        net = build_net(4, list(cfg.hidden), 2, seed=0)
        d = LabeledDataset(np.zeros((4, 4)), [0, 0, 1, 1], 2)
        pool = Pool.build(Task(np.array([2, 3]), d, d), [empty_memory(d)], [net], cfg)
        with pytest.raises(ValueError):
            plan = make_plan(net, cfg.split_index, pool.old.size, pool.new.size, cfg.rho)
            run_split_phase(net, plan, pool, 0, cfg, step=2)

    def test_cut_stays_exactly_zero_under_decay_and_momentum(self):
        # the branched phase zeros the cut's gradients; weight decay and
        # momentum must not move a cut weight off +0.0 either
        seq = small_sequence()
        cfg = SchemeConfig(**FAST, weight_decay=1e-2, momentum=0.9)
        net = build_net(seq.feature_dim, list(cfg.hidden), 2, seed=0)
        run_first_task([net], seq.tasks[0].train, [cfg])
        d1 = seq.tasks[0].train
        mem = update_exemplars(empty_memory(d1), d1, cfg.memory_capacity, 1)
        pool = Pool.build(seq.tasks[1], [mem], [net], cfg)
        net.widen_output(2)
        plan = make_plan(net, cfg.split_index, pool.old.size, pool.new.size, cfg.rho)
        out = run_split_phase(net, plan, pool, 0, cfg, 2)
        assert out[1] is out[2] is plan and plan.per_layer
        for li, (on, no) in plan.per_layer.items():
            cut = net.layers[li].w[on | no]
            assert cut.tobytes() == np.zeros_like(cut).tobytes()
            assert np.count_nonzero(net.layers[li].w[~(on | no)]) > 0
        probe = seq.tasks[1].test.x
        branched = net.forward(probe)
        bridge_reconnect(net, plan)
        assert net.forward(probe).tobytes() == branched.tobytes()
        run_bridge_phase([net], plan, pool, [cfg], 2)
        assert any(np.any(net.layers[li].w[on | no] != 0.0)
                   for li, (on, no) in plan.per_layer.items())

    @pytest.mark.parametrize("gamma", [0.5, 0.0])
    def test_sparsify_hook_equals_the_penalty_each_step(self, gamma):
        # the sparsify stage's penalty hook, bound once per fit to the cut of the
        # stack _fit packs, steps exactly like adding the penalty kernel's gradient
        # on the cut of the net being trained each step; bound before _fit packs, it would
        # read the old, untrained buffer. It is bound at every gamma: at 0.0 the
        # reference still adds the kernel's exact zeros. No branched epochs: the
        # split phase is its sparsify _fit and the disconnect
        seq = small_sequence()
        cfg = SchemeConfig(**{**FAST, "epochs_branched": 0}, gamma=gamma)
        d1 = seq.tasks[0].train
        net = build_net(seq.feature_dim, list(cfg.hidden), 2, seed=0)
        run_first_task([net], d1, [cfg])
        mem = update_exemplars(empty_memory(d1), d1, cfg.memory_capacity, 1)
        pool = Pool.build(seq.tasks[1], [mem], [net], cfg)
        net.widen_output(2)
        plan = make_plan(net, cfg.split_index, pool.old.size, pool.new.size, cfg.rho)
        ref, grad = net.clone(), _kd_lce(pool.old, pool.new, cfg.tau)
        diagnostics = run_split_phase(net, plan, pool, 0, cfg, 2)[3]
        cols = [pool.x[0], *lce_targets(pool.target[0], pool.new), pool.soft[0]]
        rng, velocity = np.random.default_rng([cfg.seed, 2, 1]), np.zeros_like(ref.params)
        for _ in range(cfg.epochs_sparsify):
            order = rng.permutation(len(cols[0]))
            for start in range(0, len(order), cfg.batch_size):
                xb, *batch = (c[order[start : start + cfg.batch_size]] for c in cols)
                grads = backward(ref, xb, grad(ref.forward(xb), *batch))
                losses._penalty(plan.cut([l.w for l in ref.layers]), cfg.gamma,
                                plan.cut(_views(grads, ref.layout)[0]))
                sgd_step(ref, grads, velocity, cfg.learning_rate, cfg.momentum, cfg.weight_decay)
        assert diagnostics["cross_norm_at_disconnect"] == sparsify_penalty(ref, plan, 1.0)
        disconnect(ref, plan)
        assert net.params.tobytes() == ref.params.tobytes()

    def test_zero_width_class_window_rejected(self):
        with pytest.raises(ValueError, match="range"):
            TaskRange(0, 0)


class TestStdReduction:
    def test_composite_lambda_is_the_schedule(self, monkeypatch):
        # std and the bridge phase mix KD against CE with the scheduled weight
        # c_old / (c_old + c_new); nothing else sets it
        seq = small_sequence(num_classes=6, num_tasks=3)
        cfg = SchemeConfig(**FAST)
        kd_ce = engine._kd_ce
        seen = {"std": [], "bridge": []}
        phase = "std"

        def record(lam, tau, *windows):
            seen[phase].append(lam)
            return kd_ce(lam, tau, *windows)

        monkeypatch.setattr(engine, "_kd_ce", record)
        net = build_net(seq.feature_dim, list(cfg.hidden), 4, seed=5)
        pool = Pool.build(seq.tasks[2], [empty_memory(seq.tasks[2].train)], [net], cfg)
        net.widen_output(2)
        run_std_step([net], pool, [cfg], 3)
        phase = "bridge"
        plan = make_plan(net, cfg.split_index, 4, 2, cfg.rho)
        disconnect(net, plan)
        run_bridge_phase([net], plan, pool, [cfg], 3)
        assert seen["std"] and seen["bridge"]
        assert set(seen["std"]) == set(seen["bridge"]) == {lambda_schedule(4, 2)}


class TestDoubleDistillation:
    def test_new_window_distills_the_aux_nets_at_tau(self, monkeypatch):
        # the throwaway nets fit each seed's first len(task.train) pool rows, the
        # task's, on their new-window one-hot columns; the main _fit call's last
        # column is each seed's throwaway-net soft labels on its whole pool,
        # softmax(aux logits / tau) at cfg.tau = 2
        seq = small_sequence()
        d1 = seq.tasks[0].train
        cfgs = [SchemeConfig(**FAST, scheme="dd", tau=2.0, seed=s) for s in (0, 1)]
        nets = [build_net(seq.feature_dim, list(c.hidden), 2, seed=c.seed) for c in cfgs]
        pool = Pool.build(seq.tasks[1], [update_exemplars(empty_memory(d1), d1, 20, c.seed)
                                         for c in cfgs], nets, cfgs[0])
        for net in nets:
            net.widen_output(2)
        calls, fit = [], engine._fit

        def record(fit_nets, fit_cfgs, epochs, stream, grad, x, *cols, **kwargs):
            fit(fit_nets, fit_cfgs, epochs, stream, grad, x, *cols, **kwargs)
            calls.append((fit_nets, x, cols))

        monkeypatch.setattr(engine, "_fit", record)
        engine.run_dd_step(nets, pool, cfgs, 2)
        (aux, aux_x, (aux_target,)), (main, _, (_, soft, soft_new)) = calls
        assert main == nets and soft is pool.soft and len(aux) == 2
        n = len(seq.tasks[1].train)
        assert aux_x.shape == pool.x[:, :n].shape and aux_x.tobytes() == pool.x[:, :n].tobytes()
        want_target = pool.target[:, :n, pool.new.slice()]
        assert aux_target.shape == want_target.shape
        assert aux_target.tobytes() == want_target.tobytes()
        for a, x, got in zip(aux, pool.x, soft_new):
            z = a.forward(x) / 2.0
            want = np.exp(z - z.max(axis=1, keepdims=True))
            want /= want.sum(axis=1, keepdims=True)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


class TestRunSequence:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_shapes_and_reports(self, scheme):
        seq = small_sequence()
        results = run_sequence(seq, [SchemeConfig(scheme=scheme, **FAST)])[0]
        assert [r.report["step"] for r in results] == [1, 2]
        # output layer ends as wide as the total class count
        assert results[-1].net.num_classes == seq.num_classes
        assert results[0].report["n_old"] == 0
        assert results[1].report["n_old"] == results[1].report["n_new"] == 40

    def test_single_task_degenerate(self):
        seq = small_sequence(num_classes=4, num_tasks=1)
        results = run_sequence(seq, [SchemeConfig(**FAST)])[0]
        assert len(results) == 1
        assert results[0].plan_summary is None

    def test_plan_logged_only_for_split_scheme(self):
        seq = small_sequence()
        sb = run_sequence(seq, [SchemeConfig(scheme="sb", **FAST)])[0]
        std = run_sequence(seq, [SchemeConfig(scheme="std", **FAST)])[0]
        assert sb[1].plan_summary is not None
        assert "cross_norm_at_disconnect" in sb[1].diagnostics
        assert std[1].plan_summary is None

    def test_bitwise_determinism(self):
        seq = small_sequence()
        cfg = SchemeConfig(scheme="sb", **FAST)
        a = run_sequence(seq, [cfg])[0]
        b = run_sequence(seq, [cfg])[0]
        for ra, rb in zip(a, b):
            for la, lb in zip(ra.net.layers, rb.net.layers):
                assert np.array_equal(la.w, lb.w)
                assert np.array_equal(la.b, lb.b)
            assert ra.report == rb.report

    def test_one_forward_per_step_and_one_cut_per_split(self, monkeypatch):
        from splitbridge import engine, metrics, partition
        from splitbridge.net import DenseNet

        counts = dict.fromkeys(["train", "forward_cached", "step", "eval", "forward", "cut"], 0)

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        # every stacked forward pass: one per step for all seeds of a stack, and
        # one per soft-label teacher
        monkeypatch.setattr(engine, "_forward", counting("train", engine._forward))
        monkeypatch.setattr(DenseNet, "forward_cached",
                            counting("forward_cached", DenseNet.forward_cached))
        monkeypatch.setattr(engine, "sgd_step", counting("step", engine.sgd_step))
        monkeypatch.setattr(metrics, "evaluate", counting("eval", metrics.evaluate))
        monkeypatch.setattr(DenseNet, "forward", counting("forward", DenseNet.forward))
        monkeypatch.setattr(partition, "make_plan", counting("cut", partition.make_plan))
        seq = small_sequence(num_classes=6, num_tasks=3)
        run_sequence(seq, [SchemeConfig(scheme="sb", **FAST)])
        assert counts["step"] > 0 and counts["eval"] == 3
        # one seed: one training forward per SGD step, plus per split step the
        # soft labels of the previous model and of the old branch for the bridge
        assert counts["train"] == counts["step"] + 2 * 2
        assert counts["forward_cached"] == counts["forward"]
        # the public forward pass serves the evaluations alone
        assert counts["forward"] == counts["eval"]
        assert counts["cut"] == 2    # one plan, and so one cut, per split phase

        # ce distils nothing: no forward pass beyond its steps and evaluations
        counts.update(dict.fromkeys(counts, 0))
        run_sequence(seq, [SchemeConfig(scheme="ce", **FAST)])
        assert counts["step"] > 0 and counts["eval"] == 3
        assert counts["train"] == counts["step"]
        assert counts["forward"] == counts["forward_cached"] == counts["eval"]

    def test_one_clone_per_step(self, monkeypatch):
        # the only copy of the network a step makes is its StepResult checkpoint
        from splitbridge.net import DenseNet

        calls = []
        clone = DenseNet.clone
        monkeypatch.setattr(DenseNet, "clone", lambda net: calls.append(1) or clone(net))
        results = run_sequence(small_sequence(num_classes=6, num_tasks=3),
                               [SchemeConfig(scheme="sb", **FAST)])[0]
        assert len(results) == 3 and len(calls) == 3

    def test_exemplar_draw_after_task_t_is_seeded_seed_plus_t(self, monkeypatch):
        # each seed of a stack updates its memory after task t with cfg.seed + t
        seeds = []

        def recording(mem, d_t, capacity, seed):
            seeds.append(seed)
            return update_exemplars(mem, d_t, capacity, seed)

        monkeypatch.setattr(engine, "update_exemplars", recording)
        cfgs = [SchemeConfig(scheme="ce", **FAST, seed=s) for s in (5, 9)]
        run_sequence(small_sequence(num_classes=6, num_tasks=3), cfgs)
        assert seeds == [5 + 1, 9 + 1, 5 + 2, 9 + 2, 5 + 3, 9 + 3]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_runners_looked_up_at_call_time(self, scheme, monkeypatch):
        # a wrapper set on an engine runner's module name sees every call
        # (the benchmark times its phases this way), and the split phase
        # returns (net, plan, plan, diagnostics)
        from splitbridge import engine

        names = ("run_first_task", "run_split_phase", "run_bridge_phase", "run_std_step",
                 "run_ce_step", "run_dd_step", "update_exemplars")
        calls = dict.fromkeys(names, 0)
        splits = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                out = fn(*args, **kwargs)
                if name == "run_split_phase":
                    splits.append(out)
                return out
            return wrapped

        for name in names:
            monkeypatch.setattr(engine, name, counting(name, getattr(engine, name)))
        run_sequence(small_sequence(num_classes=6, num_tasks=3),
                     [SchemeConfig(scheme=scheme, **FAST)])
        runners = {"sb": ("run_split_phase", "run_bridge_phase"), "std": ("run_std_step",),
                   "ce": ("run_ce_step",), "dd": ("run_dd_step",)}[scheme]
        expected = {name: 2 if name in runners else 0 for name in names}
        expected.update(run_first_task=1, update_exemplars=3)
        assert calls == expected
        assert len(splits) == (2 if scheme == "sb" else 0)
        for out in splits:
            assert isinstance(out, tuple) and len(out) == 4
            assert out[2] is out[1]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_sgd_step_per_seed_and_batch(self, scheme, monkeypatch):
        # a stack of seeds calls engine.sgd_step once per network per step:
        # epochs x ceil(pool / batch) per seed and phase, the count a wrapper
        # on that name (as the benchmark's) sees; dd's throwaway networks train
        # on the task's rows alone
        seq = small_sequence(num_classes=6, num_tasks=3)
        cfgs = [SchemeConfig(scheme=scheme, **FAST, seed=s) for s in (0, 1, 2)]
        cfg, current, steps = cfgs[0], [None], {}

        def entering(name, fn):
            def wrapped(*args, **kwargs):
                current[0] = name
                return fn(*args, **kwargs)
            return wrapped

        def counted(net, *args):
            steps[current[0], net] = steps.get((current[0], net), 0) + 1
            return sgd_step(net, *args)

        phases = ("run_first_task", "run_split_phase", "run_bridge_phase", "run_std_step",
                  "run_ce_step", "run_dd_step")
        for name in phases:
            monkeypatch.setattr(engine, name, entering(name, getattr(engine, name)))
        sgd_step = engine.sgd_step
        monkeypatch.setattr(engine, "sgd_step", counted)
        run_sequence(seq, cfgs)

        def batches(n):
            return -(-n // cfg.batch_size)
        sizes = [len(task.train) for task in seq.tasks]
        assert batches(sizes[0]) * cfg.batch_size > sizes[0]  # a ragged last batch
        pools = sum(batches(n + cfg.memory_capacity) for n in sizes[1:])  # memory is full
        per_seed = {
            "sb": {"run_split_phase": (cfg.epochs_sparsify + cfg.epochs_branched) * pools,
                   "run_bridge_phase": cfg.epochs_bridge * pools},
            "std": {"run_std_step": cfg.epochs_std * pools},
            "ce": {"run_ce_step": cfg.epochs_std * pools},
            "dd": {"run_dd_step": cfg.epochs_std * pools},
        }[scheme]
        per_seed["run_first_task"] = cfg.epochs_first * batches(sizes[0])
        expected = {phase: [k] * len(cfgs) for phase, k in per_seed.items()}
        if scheme == "dd":  # one throwaway network per seed and later step
            expected["run_dd_step"] += [cfg.epochs_std * batches(n) for n in sizes[1:]] * len(cfgs)
        got = {}
        for (phase, _), k in steps.items():
            got.setdefault(phase, []).append(k)
        assert {p: sorted(ks) for p, ks in got.items()} == {
            p: sorted(ks) for p, ks in expected.items()}

    def test_one_plan_per_split_step_for_the_stack(self, monkeypatch):
        # the split depends only on widths and class counts: every seed of a
        # stack trains on the one plan made for its step
        from splitbridge import partition

        plans, seen = [], []
        make_plan, split = partition.make_plan, engine.run_split_phase
        monkeypatch.setattr(partition, "make_plan",
                            lambda *args: plans.append(make_plan(*args)) or plans[-1])
        monkeypatch.setattr(engine, "run_split_phase",
                            lambda net, plan, *args: seen.append(plan) or split(net, plan, *args))
        cfgs = [SchemeConfig(scheme="sb", **FAST, seed=s) for s in (0, 1, 2)]
        results = run_sequence(small_sequence(num_classes=6, num_tasks=3), cfgs)
        assert len(plans) == 2
        assert [id(p) for p in seen] == [id(p) for p in plans for _ in cfgs]
        assert all(r[t].plan_summary == plans[t - 1].summary() for r in results for t in (1, 2))

    @pytest.mark.parametrize("seeds", [[], [{}, {"tau": 3.0}]])
    def test_configs_differing_beyond_seed_rejected(self, seeds):
        cfgs = [SchemeConfig(**FAST, seed=s, **extra) for s, extra in enumerate(seeds)]
        with pytest.raises(ValueError, match="one or more configs that differ only in seed"):
            run_sequence(small_sequence(), cfgs)

    def test_seed_changes_outcome(self):
        seq = small_sequence()
        a = run_sequence(seq, [SchemeConfig(seed=0, **FAST)])[0]
        b = run_sequence(seq, [SchemeConfig(seed=1, **FAST)])[0]
        assert not np.array_equal(a[0].net.layers[0].w, b[0].net.layers[0].w)

    def test_rejects_empty_task(self):
        # a task's class window cannot be empty, so no task with zero classes
        # reaches run_sequence
        with pytest.raises(ValueError, match=r"invalid task range \[2, 2\)"):
            TaskRange(2, 2)

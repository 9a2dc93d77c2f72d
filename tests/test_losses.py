"""Tests for the loss kernels through the phase losses training runs (engine's
_ce, _kd_ce and _kd_lce, fed the targets training builds from the labels),
softmax, the mixing schedule and the penalty."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitbridge.engine import _ce, _kd_ce, _kd_lce, _lce_targets
from splitbridge.data import TaskRange
from splitbridge.losses import lambda_schedule, softmax, sparsify_penalty
from splitbridge.net import _views
from splitbridge.partition import make_plan
from conftest import (assert_close_rel, backward, finite_diff_logit_grad, make_random_net,
                      phase_loss)


class TestSoftmax:
    def test_symmetry(self):
        for tau in (0.5, 1.0, 4.0):
            assert np.allclose(softmax(np.array([0.0, 0.0]), tau), [0.5, 0.5])

    def test_tempered_oracle(self):
        # high-precision independent computation of exp(1)/(exp(1)+exp(0))
        from mpmath import mp, exp

        mp.dps = 30
        expected = float(exp(1) / (exp(1) + exp(0)))
        p = softmax(np.array([2.0, 0.0]), 2.0)
        assert abs(p[0] - expected) < 1e-5
        assert abs(p[0] - 0.73106) < 1e-5
        assert abs(p[1] - 0.26894) < 1e-5

    def test_shift_invariance(self, rng):
        logits = rng.standard_normal(6)
        assert np.allclose(softmax(logits), softmax(logits + 123.456), atol=1e-12)

    def test_sums_to_one(self, rng):
        logits = 50.0 * rng.standard_normal((8, 5))
        assert np.allclose(softmax(logits, 2.0).sum(axis=1), 1.0, atol=1e-12)

    def test_empty_error(self):
        with pytest.raises(ValueError):
            softmax(np.zeros((2, 0)))

    def test_bad_temperature(self):
        with pytest.raises(ValueError):
            softmax(np.zeros(3), 0.0)


def evaluate(grad, logits, *cols):
    """A phase loss's gradient and value components on the batch of logits and
    its rows cols."""
    parts = {}
    g = grad(logits, *cols, parts=parts)
    return g, parts


def onehot(y, c):
    """CE's target rows for the labels y over c classes, as training builds them."""
    return np.eye(c)[np.asarray(y)]


def kd_lce(soft, y, old, new, tau):
    """_kd_lce with the batch's rows bound; a row is new when its label is in new."""
    target, rows = _lce_targets(new, np.asarray(y))
    return partial(_kd_lce(old, new, tau), target=target, rows=rows, soft=soft)


def kd_only(soft, width, tau):
    """_kd_lce on a batch without new rows: KD over the old window
    [0, soft's width) of width logits, and LCE 0.0."""
    n, c_old = soft.shape
    return kd_lce(soft, np.zeros(n, int), TaskRange(0, c_old), TaskRange(c_old, width), tau)


def composite(y, soft, old, lam, tau):
    """_kd_ce over the old window at any mixing weight lam, with the batch's rows bound."""
    grad = _kd_ce(lam, tau, old)
    return lambda logits, parts=None: grad(logits, onehot(y, logits.shape[-1]), soft, parts=parts)


class TestCeLoss:
    def test_perfect_prediction(self):
        _, parts = evaluate(_ce, np.array([[50.0, 0.0]]), onehot([0], 2))
        assert parts["ce"] < 1e-12 and parts["loss"] == parts["ce"]

    def test_uniform_prediction(self):
        _, parts = evaluate(_ce, np.zeros((3, 4)), onehot([0, 2, 3], 4))
        assert abs(parts["ce"] - np.log(4)) < 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((5, 4))
        y = onehot(rng.integers(0, 4, size=5), 4)
        assert_close_rel(_ce(logits, y), finite_diff_logit_grad(phase_loss(_ce, y), logits))


class TestKdLoss:
    def test_uniform_uniform(self):
        _, parts = evaluate(kd_only(np.full((2, 2), 0.5), 3, 2.0), np.zeros((2, 3)))
        assert abs(parts["kd"] - np.log(2)) < 1e-12
        assert parts["lce"] == 0.0 and parts["loss"] == parts["kd"]

    def test_zero_gradient_outside_range(self, rng):
        logits = rng.standard_normal((3, 5))
        q_hat = softmax(rng.standard_normal((3, 3)), 2.0)
        g, _ = evaluate(kd_only(q_hat, 5, 2.0), logits)
        assert np.all(g[:, 3:] == 0.0)

    def test_minimum_at_teacher_distribution(self, rng):
        # descend on a 3-class toy; the optimum is q = q_hat with value
        # equal to the teacher entropy
        q_hat = softmax(rng.standard_normal((1, 3)), 1.0)
        grad = kd_only(q_hat, 4, 1.0)
        logits = np.zeros((1, 4))
        for _ in range(8000):
            logits -= 5.0 * evaluate(grad, logits)[0]
        entropy = -(q_hat * np.log(q_hat)).sum()
        _, final = evaluate(grad, logits)
        assert abs(final["kd"] - entropy) < 1e-6
        assert np.allclose(softmax(logits[:, :3]), q_hat, atol=1e-4)

    def test_value_lower_bounded_by_entropy(self, rng):
        for _ in range(20):
            c = int(rng.integers(3, 6))
            q_hat = softmax(rng.standard_normal((1, c)), 2.0)
            _, parts = evaluate(kd_only(q_hat, c + 1, 2.0), rng.standard_normal((1, c + 1)))
            entropy = -(q_hat * np.log(q_hat)).sum()
            assert parts["kd"] >= entropy - 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((4, 6))
        grad = kd_only(softmax(rng.standard_normal((4, 3)), 2.0), 6, 2.0)
        assert_close_rel(grad(logits), finite_diff_logit_grad(phase_loss(grad), logits))


class TestLceLoss:
    def test_locality_example(self):
        # old-class logits are huge but ignored entirely
        grad = kd_lce(np.full((1, 2), 0.5), [2], TaskRange(0, 2), TaskRange(2, 4), 2.0)
        _, parts = evaluate(grad, np.array([[9.0, 9.0, 1.0, 1.0]]))
        assert abs(parts["lce"] - np.log(2)) < 1e-12

    def test_zero_gradient_at_old_logits(self):
        # the old window's gradient is KD's alone, with or without the LCE row
        logits = np.array([[9.0, 9.0, 1.0, 2.0]])
        soft, old, new = np.array([[0.3, 0.7]]), TaskRange(0, 2), TaskRange(2, 4)
        g, _ = evaluate(kd_lce(soft, [3], old, new, 2.0), logits)
        g_kd, _ = evaluate(kd_lce(soft, [0], old, new, 2.0), logits)  # an old row
        assert g[:, :2].tobytes() == g_kd[:, :2].tobytes()
        assert np.any(g[:, 2:] != 0.0) and np.all(g_kd[:, 2:] == 0.0)

    def test_slicing_equivalence(self, rng):
        logits = rng.standard_normal((6, 7))
        labels = rng.integers(3, 7, size=6)
        soft = softmax(rng.standard_normal((6, 3)), 2.0)
        g, parts = evaluate(kd_lce(soft, labels, TaskRange(0, 3), TaskRange(3, 7), 2.0), logits)
        g_ce, sliced = evaluate(_ce, logits[:, 3:], onehot(labels - 3, 4))
        assert parts["lce"] == sliced["ce"]
        assert np.array_equal(g[:, 3:], g_ce)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariant_to_outside_logits(self, seed):
        r = np.random.default_rng(seed)
        logits = r.standard_normal((3, 6))
        labels = r.integers(2, 5, size=3)
        grad = kd_lce(softmax(r.standard_normal((3, 2)), 2.0), labels, TaskRange(0, 2),
                      TaskRange(2, 5), 2.0)
        ga, a = evaluate(grad, logits)
        mutated = logits.copy()
        mutated[:, :2] = r.standard_normal((3, 2)) * 40
        mutated[:, 5:] = r.standard_normal((3, 1)) * 40
        gb, b = evaluate(grad, mutated)
        assert a["lce"] == b["lce"]
        assert np.array_equal(ga[:, 2:5], gb[:, 2:5])

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((5, 6))
        is_new = np.array([True, False, True, True, False])
        labels = np.where(is_new, rng.integers(2, 6, size=5), rng.integers(0, 2, size=5))
        grad = kd_lce(softmax(rng.standard_normal((5, 2)), 2.0), labels, TaskRange(0, 2),
                      TaskRange(2, 6), 2.0)
        assert_close_rel(grad(logits), finite_diff_logit_grad(phase_loss(grad), logits))


class TestCompositeLoss:
    def _instance(self, rng):
        logits = rng.standard_normal((4, 6))
        labels = rng.integers(0, 6, size=4)
        tr = TaskRange(0, 4)
        q_hat = softmax(rng.standard_normal((4, 4)), 2.0)
        return logits, labels, q_hat, tr

    def test_lambda_zero_is_ce(self, rng):
        logits, labels, q_hat, tr = self._instance(rng)
        g, parts = evaluate(composite(labels, q_hat, tr, 0.0, 2.0), logits)
        g_ce, ce = evaluate(_ce, logits, onehot(labels, 6))
        assert parts["loss"] == ce["ce"]
        assert np.array_equal(g, g_ce)

    def test_lambda_one_is_kd(self, rng):
        logits, labels, q_hat, tr = self._instance(rng)
        g, parts = evaluate(composite(labels, q_hat, tr, 1.0, 2.0), logits)
        g_kd, kd = evaluate(kd_only(q_hat, 6, 2.0), logits)
        assert parts["loss"] == kd["kd"]
        assert np.array_equal(g, g_kd)

    def test_half_is_mean_of_components(self, rng):
        logits, labels, q_hat, tr = self._instance(rng)
        _, parts = evaluate(composite(labels, q_hat, tr, 0.5, 2.0), logits)
        _, kd = evaluate(kd_only(q_hat, 6, 2.0), logits)
        _, ce = evaluate(_ce, logits, onehot(labels, 6))
        assert (parts["kd"], parts["ce"]) == (kd["kd"], ce["ce"])
        assert abs(parts["loss"] - 0.5 * (kd["kd"] + ce["ce"])) < 1e-14

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_linear_in_lambda(self, lam):
        r = np.random.default_rng(99)
        logits = r.standard_normal((3, 5))
        labels = r.integers(0, 5, size=3)
        q_hat = softmax(r.standard_normal((3, 3)), 2.0)
        _, parts = evaluate(composite(labels, q_hat, TaskRange(0, 3), lam, 2.0), logits)
        _, kd = evaluate(kd_only(q_hat, 5, 2.0), logits)
        _, ce = evaluate(_ce, logits, onehot(labels, 5))
        assert abs(parts["loss"] - (lam * kd["kd"] + (1 - lam) * ce["ce"])) < 1e-12


class TestLambdaSchedule:
    @pytest.mark.parametrize("c_old,c_new,expected", [
        (20, 20, 0.5),
        (80, 20, 0.8),
        (0, 20, 0.0),
        (6, 2, 0.75),
    ])
    def test_closed_form(self, c_old, c_new, expected):
        assert lambda_schedule(c_old, c_new) == expected

    def test_zero_new_classes(self):
        with pytest.raises(ValueError):
            lambda_schedule(0, 0)


class TestSparsifyPenalty:
    def _net_and_plan(self, rng, dims=(4, 6, 6, 4)):
        net = make_random_net(rng, list(dims))
        plan = make_plan(net, 1, 2, 2, 1.0)
        return net, plan

    def test_zero_cross_weights(self, rng):
        net, plan = self._net_and_plan(rng)
        for li, (on, no) in plan.per_layer.items():
            net.layers[li].w[on | no] = 0.0
        value = sparsify_penalty(net, plan, 0.1, into=[np.zeros_like(l.w) for l in net.layers])
        assert value == 0.0

    def test_single_weight_group(self):
        # one cross weight per direction: |W|_F reduces to |w|
        from splitbridge.net import DenseNet, Layer

        layers = [
            Layer(np.ones((2, 2)), np.zeros(2)),
            Layer(np.ones((2, 2)), np.zeros(2)),
            Layer(np.array([[1.0, 3.0], [0.5, 1.0]]), np.zeros(2)),
        ]
        net = DenseNet(layers)
        plan = make_plan(net, 1, 1, 1, 1.0)
        wgrads = [np.zeros_like(l.w) for l in net.layers]
        value = sparsify_penalty(net, plan, 0.1, into=wgrads)
        assert abs(value - 0.1 * (3.0 + 0.5)) < 1e-14
        assert abs(wgrads[2][0, 1] - 0.1) < 1e-9
        assert abs(wgrads[2][1, 0] - 0.1) < 1e-9
        assert wgrads[2][0, 0] == 0.0 and wgrads[2][1, 1] == 0.0

    def test_gradient_matches_finite_differences(self, rng):
        net, plan = self._net_and_plan(rng)

        def value_of(n):
            return sparsify_penalty(n, plan, 0.3)

        wgrads = [np.zeros_like(l.w) for l in net.layers]
        sparsify_penalty(net, plan, 0.3, into=wgrads)
        from conftest import finite_diff_param_grads

        fw, _ = finite_diff_param_grads(net, value_of)
        for i in range(net.depth):
            assert_close_rel(wgrads[i], fw[i])

    def test_into_adds_the_dense_gradient(self, rng):
        # the training path adds in place; it must equal adding the dense
        # per-layer arrays of the boolean-selector form, byte for byte
        net, plan = self._net_and_plan(rng)
        # the per-layer weight views of a flat gradient, as _fit hands them over
        wgrads = _views(backward(net, rng.standard_normal((5, 4)), rng.standard_normal((5, 4))),
                        net.layout)[0]
        expected = [w.copy() for w in wgrads]
        value = sparsify_penalty(net, plan, 0.3)
        for li, selectors in plan.per_layer.items():
            for sel in selectors:
                v = net.layers[li].w[sel]
                expected[li][sel] += 0.3 * (v / max(float(np.sqrt((v ** 2).sum())), 1e-8))
        assert sparsify_penalty(net, plan, 0.3, into=wgrads) == value
        for got, want in zip(wgrads, expected):
            assert got.tobytes() == want.tobytes()

    def test_invariant_to_within_partition_changes(self, rng):
        net, plan = self._net_and_plan(rng)
        before = sparsify_penalty(net, plan, 0.2)
        for li, layer in enumerate(net.layers):
            if li in plan.per_layer:
                on, no = plan.per_layer[li]
                within = ~(on | no)
                layer.w[within] += rng.standard_normal(int(within.sum()))
            else:
                layer.w += 1.0
        after = sparsify_penalty(net, plan, 0.2)
        assert before == after

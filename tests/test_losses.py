import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitbridge.losses import (
    TaskRange,
    ce_loss,
    kd_loss,
    lambda_schedule,
    lce_loss,
    softmax,
    sparsify_penalty,
    std_composite_loss,
)
from splitbridge.net import GradientSet
from splitbridge.partition import make_plan
from conftest import assert_close_rel, finite_diff_logit_grad, make_random_net


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


class TestCeLoss:
    def test_perfect_prediction(self):
        logits = np.array([[50.0, 0.0]])
        lv = ce_loss(logits, [0])
        assert lv.value < 1e-12

    def test_uniform_prediction(self):
        logits = np.zeros((3, 4))
        lv = ce_loss(logits, [0, 2, 3])
        assert abs(lv.value - np.log(4)) < 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((5, 4))
        labels = rng.integers(0, 4, size=5)
        lv = ce_loss(logits, labels)
        fd = finite_diff_logit_grad(lambda lg: ce_loss(lg, labels).value, logits)
        assert_close_rel(lv.grad_logits, fd)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ce_loss(np.zeros((1, 3)), [3])


class TestKdLoss:
    def test_uniform_uniform(self):
        logits = np.zeros((2, 2))
        q_hat = np.full((2, 2), 0.5)
        lv = kd_loss(logits, q_hat, TaskRange(0, 2), 2.0)
        assert abs(lv.value - np.log(2)) < 1e-12

    def test_zero_gradient_outside_range(self, rng):
        logits = rng.standard_normal((3, 5))
        tr = TaskRange(0, 3)
        q_hat = softmax(rng.standard_normal((3, 3)), 2.0)
        lv = kd_loss(logits, q_hat, tr, 2.0)
        assert np.all(lv.grad_logits[:, 3:] == 0.0)

    def test_minimum_at_teacher_distribution(self, rng):
        # descend on a 3-class toy; the optimum is q = q_hat with value
        # equal to the teacher entropy
        q_hat = softmax(rng.standard_normal((1, 3)), 1.0)
        tr = TaskRange(0, 3)
        logits = np.zeros((1, 3))
        for _ in range(8000):
            lv = kd_loss(logits, q_hat, tr, 1.0)
            logits -= 5.0 * lv.grad_logits
        entropy = -(q_hat * np.log(q_hat)).sum()
        final = kd_loss(logits, q_hat, tr, 1.0)
        assert abs(final.value - entropy) < 1e-6
        assert np.allclose(softmax(logits), q_hat, atol=1e-4)

    def test_value_lower_bounded_by_entropy(self, rng):
        for _ in range(20):
            c = int(rng.integers(3, 6))
            q_hat = softmax(rng.standard_normal((1, c)), 2.0)
            logits = rng.standard_normal((1, c))
            lv = kd_loss(logits, q_hat, TaskRange(0, c), 2.0)
            entropy = -(q_hat * np.log(q_hat)).sum()
            assert lv.value >= entropy - 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((4, 6))
        tr = TaskRange(1, 4)
        q_hat = softmax(rng.standard_normal((4, 3)), 2.0)
        lv = kd_loss(logits, q_hat, tr, 2.0)
        fd = finite_diff_logit_grad(lambda lg: kd_loss(lg, q_hat, tr, 2.0).value, logits)
        assert_close_rel(lv.grad_logits, fd)

    def test_range_mismatch(self):
        with pytest.raises(ValueError, match="teacher"):
            kd_loss(np.zeros((2, 4)), np.full((2, 3), 1 / 3), TaskRange(0, 2), 2.0)


class TestLceLoss:
    def test_locality_example(self):
        # old-class logits are huge but ignored entirely
        logits = np.array([[9.0, 9.0, 1.0, 1.0]])
        lv = lce_loss(logits, [2], TaskRange(2, 4))
        assert abs(lv.value - np.log(2)) < 1e-12

    def test_zero_gradient_at_old_logits(self):
        logits = np.array([[9.0, 9.0, 1.0, 2.0]])
        lv = lce_loss(logits, [3], TaskRange(2, 4))
        assert np.all(lv.grad_logits[:, :2] == 0.0)

    def test_slicing_equivalence(self, rng):
        logits = rng.standard_normal((6, 7))
        tr = TaskRange(3, 7)
        labels = rng.integers(3, 7, size=6)
        lv = lce_loss(logits, labels, tr)
        sliced = ce_loss(logits[:, 3:], labels - 3)
        assert lv.value == sliced.value
        assert np.array_equal(lv.grad_logits[:, 3:], sliced.grad_logits)

    def test_label_outside_range(self):
        with pytest.raises(ValueError):
            lce_loss(np.zeros((1, 4)), [0], TaskRange(2, 4))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_invariant_to_outside_logits(self, seed):
        r = np.random.default_rng(seed)
        logits = r.standard_normal((3, 6))
        tr = TaskRange(2, 5)
        labels = r.integers(2, 5, size=3)
        a = lce_loss(logits, labels, tr)
        mutated = logits.copy()
        mutated[:, :2] = r.standard_normal((3, 2)) * 40
        mutated[:, 5:] = r.standard_normal((3, 1)) * 40
        b = lce_loss(mutated, labels, tr)
        assert a.value == b.value
        assert np.array_equal(a.grad_logits[:, 2:5], b.grad_logits[:, 2:5])

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((5, 6))
        tr = TaskRange(2, 6)
        labels = rng.integers(2, 6, size=5)
        lv = lce_loss(logits, labels, tr)
        fd = finite_diff_logit_grad(lambda lg: lce_loss(lg, labels, tr).value, logits)
        assert_close_rel(lv.grad_logits, fd)


class TestCompositeLoss:
    def _instance(self, rng):
        logits = rng.standard_normal((4, 6))
        labels = rng.integers(0, 6, size=4)
        tr = TaskRange(0, 4)
        q_hat = softmax(rng.standard_normal((4, 4)), 2.0)
        return logits, labels, q_hat, tr

    def test_lambda_zero_is_ce(self, rng):
        logits, labels, q_hat, tr = self._instance(rng)
        lv = std_composite_loss(logits, labels, q_hat, tr, 0.0, 2.0)
        ce = ce_loss(logits, labels)
        assert lv.value == ce.value
        assert np.array_equal(lv.grad_logits, ce.grad_logits)

    def test_lambda_one_is_kd(self, rng):
        logits, labels, q_hat, tr = self._instance(rng)
        lv = std_composite_loss(logits, labels, q_hat, tr, 1.0, 2.0)
        kd = kd_loss(logits, q_hat, tr, 2.0)
        assert lv.value == kd.value
        assert np.array_equal(lv.grad_logits, kd.grad_logits)

    def test_half_is_mean_of_components(self, rng):
        logits, labels, q_hat, tr = self._instance(rng)
        lv = std_composite_loss(logits, labels, q_hat, tr, 0.5, 2.0)
        kd = kd_loss(logits, q_hat, tr, 2.0)
        ce = ce_loss(logits, labels)
        assert abs(lv.value - 0.5 * (kd.value + ce.value)) < 1e-14

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_linear_in_lambda(self, lam):
        r = np.random.default_rng(99)
        logits = r.standard_normal((3, 5))
        labels = r.integers(0, 5, size=3)
        tr = TaskRange(0, 3)
        q_hat = softmax(r.standard_normal((3, 3)), 2.0)
        lv = std_composite_loss(logits, labels, q_hat, tr, lam, 2.0)
        kd = kd_loss(logits, q_hat, tr, 2.0)
        ce = ce_loss(logits, labels)
        assert abs(lv.value - (lam * kd.value + (1 - lam) * ce.value)) < 1e-12

    def test_lambda_out_of_range(self, rng):
        logits, labels, q_hat, tr = self._instance(rng)
        with pytest.raises(ValueError):
            std_composite_loss(logits, labels, q_hat, tr, 1.5, 2.0)


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
        from splitbridge.partition import cross_groups

        net, plan = self._net_and_plan(rng)
        for li, (on, no) in cross_groups(plan, net).per_layer.items():
            net.layers[li].w[on | no] = 0.0
        value = sparsify_penalty(net, plan, 0.1, into=GradientSet.zeros(net))
        assert value == 0.0

    def test_single_weight_group(self):
        # one cross weight per direction: |W|_F reduces to |w|
        from splitbridge.net import DenseNet, Layer, IDENTITY, RELU

        layers = [
            Layer(np.ones((2, 2)), np.zeros(2), RELU),
            Layer(np.ones((2, 2)), np.zeros(2), RELU),
            Layer(np.array([[1.0, 3.0], [0.5, 1.0]]), np.zeros(2), IDENTITY),
        ]
        net = DenseNet(layers, 2)
        plan = make_plan(net, 1, 1, 1, 1.0)
        grads = GradientSet.zeros(net)
        value = sparsify_penalty(net, plan, 0.1, into=grads)
        assert abs(value - 0.1 * (3.0 + 0.5)) < 1e-14
        assert abs(grads.wgrads[2][0, 1] - 0.1) < 1e-9
        assert abs(grads.wgrads[2][1, 0] - 0.1) < 1e-9
        assert grads.wgrads[2][0, 0] == 0.0 and grads.wgrads[2][1, 1] == 0.0

    def test_gradient_matches_finite_differences(self, rng):
        net, plan = self._net_and_plan(rng)

        def value_of(n):
            return sparsify_penalty(n, plan, 0.3)

        grads = GradientSet.zeros(net)
        sparsify_penalty(net, plan, 0.3, into=grads)
        from conftest import finite_diff_param_grads

        fw, _ = finite_diff_param_grads(net, value_of)
        for i in range(net.depth):
            assert_close_rel(grads.wgrads[i], fw[i])

    def test_into_adds_the_dense_gradient(self, rng):
        # the training path adds in place; it must equal adding the dense
        # per-layer arrays of the boolean-selector form, byte for byte
        net, plan = self._net_and_plan(rng)
        grads = net.backward(rng.standard_normal((5, 4)), rng.standard_normal((5, 4)))
        expected = [w.copy() for w in grads.wgrads]
        value = sparsify_penalty(net, plan, 0.3)
        for li, selectors in plan.groups.per_layer.items():
            for sel in selectors:
                v = net.layers[li].w[sel]
                expected[li][sel] += 0.3 * (v / max(float(np.sqrt((v ** 2).sum())), 1e-8))
        assert sparsify_penalty(net, plan, 0.3, into=grads) == value
        for got, want in zip(grads.wgrads, expected):
            assert got.tobytes() == want.tobytes()

    def test_invariant_to_within_partition_changes(self, rng):
        from splitbridge.partition import cross_groups

        net, plan = self._net_and_plan(rng)
        before = sparsify_penalty(net, plan, 0.2)
        groups = cross_groups(plan, net)
        for li, layer in enumerate(net.layers):
            if li in groups.per_layer:
                on, no = groups.per_layer[li]
                within = ~(on | no)
                layer.w[within] += rng.standard_normal(int(within.sum()))
            else:
                layer.w += 1.0
        after = sparsify_penalty(net, plan, 0.2)
        assert before == after

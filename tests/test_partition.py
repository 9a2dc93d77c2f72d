import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitbridge.net import ShapeError, build_net
from splitbridge.partition import (
    bridge_reconnect,
    cross_groups,
    disconnect,
    extract_subnet,
    make_plan,
)


def widened_net(seed=0, hidden=(8, 8, 8), c_old=2, c_new=2, in_dim=4):
    net = build_net(in_dim, list(hidden), c_old, seed)
    net.widen_output(c_new)
    return net


class TestMakePlan:
    def test_even_split(self):
        net = build_net(4, [64, 64], 40, 0)
        plan = make_plan(net, 1, 20, 20, 1.0)
        assert plan.old_out[1].size == 32
        assert plan.new_out[1].size == 32

    def test_shared_layer_collapse(self):
        # new share (1 - 1.4) * 50 + 10 = -10 < 1
        net = build_net(4, [32, 32], 60, 0)
        plan = make_plan(net, 1, 50, 10, 1.4)
        assert 1 not in plan.old_out
        assert not plan.is_partitioned(1)

    def test_rounded_allocation(self):
        # round(8 * 30 / 40) = 6
        net = build_net(4, [8, 8], 40, 0)
        plan = make_plan(net, 1, 10, 30, 1.0)
        assert plan.old_out[1].size == 2
        assert plan.new_out[1].size == 6

    def test_final_layer_split_by_class(self):
        net = widened_net(c_old=3, c_new=2)
        plan = make_plan(net, 1, 3, 2, 1.0)
        last = net.depth - 1
        assert np.array_equal(plan.old_out[last], [0, 1, 2])
        assert np.array_equal(plan.new_out[last], [3, 4])

    def test_groups_disjoint_and_exhaustive(self):
        net = widened_net()
        plan = make_plan(net, 1, 2, 2, 1.2)
        for li in range(plan.split_index, net.depth):
            if li not in plan.old_out:
                continue
            old, new = plan.old_out[li], plan.new_out[li]
            assert np.intersect1d(old, new).size == 0
            assert np.union1d(old, new).size == net.layers[li].out_dim

    def test_allocation_monotone_in_new_classes(self):
        net = build_net(4, [16, 16], 40, 0)
        prev = 0
        for c_new in range(1, 30):
            plan = make_plan(build_net(4, [16, 16], 10 + c_new, 0), 1, 10, c_new, 1.0)
            n = plan.new_out[1].size
            assert n >= prev
            prev = n

    def test_errors(self):
        net = widened_net()
        with pytest.raises(ValueError):
            make_plan(net, net.depth, 2, 2, 1.0)
        with pytest.raises(ValueError):
            make_plan(net, 1, 2, 2, 0.0)
        with pytest.raises(ShapeError):
            make_plan(net, 1, 3, 3, 1.0)


class TestCrossGroups:
    def test_all_shared_means_final_only_with_empty_inputs(self):
        net = widened_net(c_old=50, c_new=10, hidden=(8, 8, 8))
        net2 = build_net(4, [8, 8, 8], 60, 0)
        plan = make_plan(net2, 1, 50, 10, 1.4)
        groups = cross_groups(plan, net2)
        # the final layer reads a shared layer, so no weight crosses anywhere
        assert groups.per_layer == {}

    def test_exhaustive_two_by_two(self):
        net = widened_net(hidden=(2, 2), in_dim=4, c_old=1, c_new=1)
        plan = make_plan(net, 1, 1, 1, 1.0)
        groups = cross_groups(plan, net)
        on, no = groups.per_layer[2]
        assert on[0, 1] and not on.sum() > 1
        assert no[1, 0] and not no.sum() > 1

    def test_counting_oracle(self, rng):
        # on a 6 -> 6 partitioned pair, cross + within = 36
        net = build_net(4, [6, 6], 4, 0)
        plan = make_plan(net, 1, 2, 2, 1.0)
        groups = cross_groups(plan, net)
        on, no = groups.per_layer[2]
        n_old_in = plan.old_out[1].size
        n_new_in = plan.new_out[1].size
        # within-partition count on the 6 -> 4 output layer
        within = n_old_in * 2 + n_new_in * 2
        assert int(on.sum() + no.sum()) + within == 6 * 4

    def test_plan_caches_groups(self):
        net = widened_net()
        plan = make_plan(net, 1, 2, 2, 1.0)
        fresh = cross_groups(plan, net)
        assert plan.groups.per_layer.keys() == fresh.per_layer.keys()
        for li, (on, no) in fresh.per_layer.items():
            assert np.array_equal(plan.groups.per_layer[li][0], on)
            assert np.array_equal(plan.groups.per_layer[li][1], no)

    def test_first_partitioned_layer_contributes_nothing(self):
        # its inputs come from the shared trunk, so no weight of it crosses
        net = widened_net()
        plan = make_plan(net, 1, 2, 2, 1.0)
        groups = cross_groups(plan, net)
        assert 1 not in groups.per_layer
        assert sorted(groups.per_layer) == [2, 3]


class TestDisconnect:
    def _setup(self, seed=0):
        net = widened_net(seed=seed)
        plan = make_plan(net, 1, 2, 2, 1.0)
        groups = cross_groups(plan, net)
        disconnect(net, groups)
        return net, plan, groups

    @staticmethod
    def _shove(net, plan, groups, branch_out):
        # every weight into and bias of the branch's nodes, in each partitioned layer
        for li in range(plan.split_index, net.depth):
            net.layers[li].w[:, branch_out[li]] += 1.0
            net.layers[li].b[branch_out[li]] += 1.0
        disconnect(net, groups)  # the shove also reached the cut weights

    def test_new_branch_cannot_touch_old_logits(self, rng):
        net, plan, groups = self._setup()
        x = rng.standard_normal((50, 4))
        before = net.forward(x)[:, :2]
        self._shove(net, plan, groups, plan.new_out)
        assert np.array_equal(before, net.forward(x)[:, :2])

    def test_old_branch_cannot_touch_new_logits(self, rng):
        net, plan, groups = self._setup()
        # widen_output zero-fills the new-class columns; without weights there
        # the new logits would read nothing from the network
        net.layers[-1].w[:, 2:] = rng.standard_normal((net.layers[-1].in_dim, 2))
        disconnect(net, groups)
        x = rng.standard_normal((50, 4))
        before = net.forward(x)[:, 2:]
        self._shove(net, plan, groups, plan.old_out)
        assert np.array_equal(before, net.forward(x)[:, 2:])

    def test_full_net_old_slice_equals_subnet(self, rng):
        net, plan, _ = self._setup()
        sub = extract_subnet(net, plan)
        x = rng.standard_normal((30, 4))
        assert np.allclose(net.forward(x)[:, :2], sub.forward(x), atol=1e-12, rtol=0)

    def test_trunk_fed_layer_stays_unmasked(self):
        net = widened_net()
        plan = make_plan(net, 1, 2, 2, 1.0)
        before = net.clone()
        disconnect(net, plan.groups)
        li = plan.split_index
        assert net.layers[li].w.tobytes() == before.layers[li].w.tobytes()
        for li in (2, 3):
            on, no = plan.groups.per_layer[li]
            assert np.all(net.layers[li].w[on | no] == 0.0)
            assert not np.array_equal(net.layers[li].w, before.layers[li].w)

    def test_idempotent(self):
        net, plan, groups = self._setup()
        w_before = [l.w.copy() for l in net.layers]
        disconnect(net, groups)
        for l, w in zip(net.layers, w_before):
            assert np.array_equal(l.w, w)


class TestBridgeReconnect:
    def _setup(self, seed=0):
        net = widened_net(seed=seed)
        plan = make_plan(net, 1, 2, 2, 1.0)
        groups = cross_groups(plan, net)
        disconnect(net, groups)
        return net, plan, groups

    def test_zero_bridge_equivalence(self, rng):
        net, _, groups = self._setup()
        x = rng.standard_normal((100, 4))
        before = net.forward(x)
        bridge_reconnect(net, groups)
        assert np.array_equal(net.forward(x), before)

    def test_bridge_weights_learn_after_step(self, rng):
        from splitbridge.engine import _ce
        from splitbridge.net import GradientSet, sgd_step

        net, _, groups = self._setup()
        bridge_reconnect(net, groups)
        x = rng.standard_normal((16, 4))
        y = rng.integers(0, 4, size=16)
        for _ in range(3):
            grads = net.backward(x, _ce(y)(net.forward(x), np.arange(16)))
            sgd_step(net, grads, GradientSet.zeros(net), 0.5, 0.0, 0.0)
        cross_vals = [net.layers[li].w[on | no] for li, (on, no) in groups.per_layer.items()]
        assert any(np.any(v != 0.0) for v in cross_vals)

    @pytest.mark.parametrize("side", [0, 1])
    def test_nonzero_cut_weight_rejected(self, side):
        # a single trained cut weight, however small, breaks the zero bridge
        net, _, groups = self._setup()
        li = max(groups.per_layer)
        cut = groups.per_layer[li][side]
        net.layers[li].w[tuple(np.argwhere(cut)[0])] = 1e-300
        with pytest.raises(ValueError, match=f"layer {li}: 1 cut weights are not exactly 0.0"):
            bridge_reconnect(net, groups)

    def test_reconnect_then_disconnect_restores(self, rng):
        net, _, groups = self._setup()
        snap = net.clone()
        bridge_reconnect(net, groups)
        disconnect(net, groups)
        for a, b in zip(net.layers, snap.layers):
            assert np.array_equal(a.w, b.w)

    def test_reconnect_never_disconnected_errors(self):
        net = widened_net()
        plan = make_plan(net, 1, 2, 2, 1.0)
        groups = cross_groups(plan, net)
        with pytest.raises(ValueError, match="never disconnected"):
            bridge_reconnect(net, groups)


class TestExtractSubnet:
    def _setup(self):
        net = widened_net(seed=3)
        plan = make_plan(net, 1, 2, 2, 1.0)
        groups = cross_groups(plan, net)
        disconnect(net, groups)
        return net, plan

    def test_old_side_paired_comparison(self, rng):
        net, plan = self._setup()
        sub = extract_subnet(net, plan)
        for _ in range(100):
            x = rng.standard_normal((1, 4))
            # differently shaped matmuls may reorder float sums
            assert np.allclose(sub.forward(x), net.forward(x)[:, :2], atol=1e-12, rtol=0)

    def test_all_layers_shared_old_side(self):
        # every hidden layer stays shared, so only the logit layer is sliced
        net = build_net(4, [8, 8], 12, 0)
        plan = make_plan(net, 1, 10, 2, 1.4)
        sub = extract_subnet(net, plan)
        assert sub.num_classes == 10
        x = np.random.default_rng(0).standard_normal((5, 4))
        assert np.allclose(sub.forward(x), net.forward(x)[:, :10], atol=1e-12, rtol=0)


class TestPartitionClassification:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_every_weight_classified_once(self, seed):
        r = np.random.default_rng(seed)
        c_old = int(r.integers(1, 6))
        c_new = int(r.integers(1, 6))
        hidden = [int(r.integers(4, 10)) for _ in range(3)]
        rho = float(r.uniform(0.8, 1.4))
        net = build_net(4, hidden, c_old + c_new, seed)
        plan = make_plan(net, 1, c_old, c_new, rho)
        groups = cross_groups(plan, net)
        for li in range(1, net.depth):
            if not plan.is_partitioned(li):
                continue
            empty = np.array([], dtype=np.int64)
            in_old, in_new = plan.old_out.get(li - 1, empty), plan.new_out.get(li - 1, empty)
            assert (li in groups.per_layer) == bool(in_old.size)
            empty = np.zeros(net.layers[li].w.shape, dtype=bool)
            on, no = groups.per_layer.get(li, (empty, empty))
            out_old, out_new = plan.old_out[li], plan.new_out[li]
            within = np.zeros(net.layers[li].w.shape, dtype=bool)
            if in_old.size:
                within[np.ix_(in_old, out_old)] = True
                within[np.ix_(in_new, out_new)] = True
            else:
                within[:, :] = True  # whole-input fan-in counts as within
            overlap = (on & no) | (on & within) | (no & within)
            assert not overlap.any()
            assert (on | no | within).all()


def _ix_selectors(plan, li, shape):
    """The old-to-new and new-to-old selectors of layer li, built from the
    plan's index groups."""
    on, no = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    on[np.ix_(plan.old_out[li - 1], plan.new_out[li])] = True
    no[np.ix_(plan.new_out[li - 1], plan.old_out[li])] = True
    return on, no


def _check_slice_encoding(split_index, hidden, rho, c_old, c_new, seed):
    net = build_net(3, hidden, c_old + c_new, seed)
    for layer in net.layers:
        layer.w += np.sign(layer.w) + (layer.w == 0.0)  # no weight is 0.0 before the cut
    plan = make_plan(net, split_index, c_old, c_new, rho)
    fed = [li for li in plan.old_out if plan.is_partitioned(li - 1)]
    assert sorted(plan.groups.per_layer) == sorted(fed)
    for li, (on, no) in plan.groups.per_layer.items():
        want_on, want_no = _ix_selectors(plan, li, net.layers[li].w.shape)
        assert np.array_equal(on, want_on) and np.array_equal(no, want_no)

    before = net.clone()
    disconnect(net, plan.groups)
    for li, (layer, old) in enumerate(zip(net.layers, before.layers)):
        cut = np.zeros(layer.w.shape, dtype=bool)
        if li in fed:
            cut = np.logical_or(*_ix_selectors(plan, li, layer.w.shape))
        assert np.all(layer.w[cut] == 0.0)
        assert layer.w[~cut].tobytes() == old.w[~cut].tobytes()

    sub = extract_subnet(net, plan)
    for li, (layer, got) in enumerate(zip(net.layers, sub.layers)):
        rows = np.arange(layer.in_dim)
        cols = plan.old_out.get(li, np.arange(layer.out_dim))
        if li in fed:
            rows = plan.old_out[li - 1]
        assert got.w.tobytes() == layer.w[np.ix_(rows, cols)].tobytes()
        assert got.b.tobytes() == layer.b[cols].tobytes()


class TestSliceEncoding:
    @given(st.integers(0, 3), st.lists(st.integers(1, 12), min_size=2, max_size=4),
           st.floats(0.5, 2.0), st.integers(1, 6), st.integers(1, 6), st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_blocks_match_the_index_groups(self, split_index, hidden, rho, c_old, c_new, seed):
        split_index = min(split_index, len(hidden))
        _check_slice_encoding(split_index, hidden, rho, c_old, c_new, seed)

    @pytest.mark.parametrize("split_index", [0, 1])
    def test_shared_middle_layer(self, split_index):
        # new share 0.5 of 6: the 4-wide layer 1 rounds to no new node and
        # stays shared, and so does layer 0 below it; layer 2 reads the whole
        # trunk, and only the logit layer has cross weights
        hidden, c_old, c_new, rho = [16, 4, 16], 5, 1, 1.1
        net = build_net(3, hidden, c_old + c_new, 0)
        plan = make_plan(net, split_index, c_old, c_new, rho)
        assert sorted(plan.old_out) == [2, 3]
        assert sorted(plan.groups.per_layer) == [3]
        _check_slice_encoding(split_index, hidden, rho, c_old, c_new, 0)

    def test_one_wide_layer_stays_shared(self):
        # the 1-wide layer 1 has no node to give the new group, so it stays
        # shared with layer 0 below it; layer 2 reads the whole trunk
        plan = make_plan(build_net(4, [8, 1, 8], 4, 0), 0, 2, 2, 1.0)
        assert [(l["layer"], l["shared"], l["new_size"]) for l in plan.summary()["layers"]] == [
            (0, True, None), (1, True, None), (2, False, 4), (3, False, 2)]
        assert sorted(plan.groups.per_layer) == [3]
        _check_slice_encoding(0, [8, 1, 8], 1.0, 2, 2, 0)

    @pytest.mark.parametrize("hidden", [[6, 6, 6], [10, 10, 10]])
    def test_other_width_net_rejected(self, hidden):
        plan = make_plan(build_net(4, [8, 8, 8], 4, 0), 1, 2, 2, 1.0)
        with pytest.raises(ShapeError, match="layer 1: plan groups cover 8 outputs"):
            cross_groups(plan, build_net(4, hidden, 4, 0))

    def test_other_depth_net_rejected(self):
        plan = make_plan(build_net(4, [8, 8, 8], 4, 0), 1, 2, 2, 1.0)
        with pytest.raises(ShapeError, match="plan covers 4 layers"):
            cross_groups(plan, build_net(4, [8, 8], 4, 0))

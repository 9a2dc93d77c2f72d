import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from splitbridge.net import DenseNet, ShapeError, build_net
from splitbridge.partition import bridge_reconnect, disconnect, extract_subnet, make_plan, zero


def widened_net(seed=0, hidden=(8, 8, 8), c_old=2, c_new=2, in_dim=4):
    net = build_net(in_dim, list(hidden), c_old, seed)
    net.widen_output(c_new)
    return net


def _index_groups(plan, li):
    """Layer li's old and new output nodes as index arrays, built from the
    plan's group widths: the reference form the slice blocks must match."""
    b = plan.old_size[li]
    return np.arange(b), np.arange(b, b + plan.new_size[li])


class TestMakePlan:
    def test_even_split(self):
        net = build_net(4, [64, 64], 40, 0)
        plan = make_plan(net, 1, 20, 20, 1.0)
        assert plan.old_size[1] == 32
        assert plan.new_size[1] == 32

    def test_shared_layer_collapse(self):
        # new share (1 - 1.4) * 50 + 10 = -10 < 1
        net = build_net(4, [32, 32], 60, 0)
        plan = make_plan(net, 1, 50, 10, 1.4)
        assert 1 not in plan.old_size
        assert 1 not in plan.new_size

    def test_rounded_allocation(self):
        # round(8 * 30 / 40) = 6
        net = build_net(4, [8, 8], 40, 0)
        plan = make_plan(net, 1, 10, 30, 1.0)
        assert plan.old_size[1] == 2
        assert plan.new_size[1] == 6

    def test_final_layer_split_by_class(self):
        net = widened_net(c_old=3, c_new=2)
        plan = make_plan(net, 1, 3, 2, 1.0)
        last = net.depth - 1
        assert (plan.old_size[last], plan.new_size[last]) == (3, 2)
        old, new = _index_groups(plan, last)
        assert np.array_equal(old, [0, 1, 2]) and np.array_equal(new, [3, 4])

    def test_groups_disjoint_and_exhaustive(self):
        net = widened_net()
        plan = make_plan(net, 1, 2, 2, 1.2)
        for li in range(plan.split_index, net.depth):
            if li not in plan.old_size:
                continue
            assert plan.old_size[li] >= 1 and plan.new_size[li] >= 1
            old, new = _index_groups(plan, li)
            assert np.intersect1d(old, new).size == 0
            assert np.union1d(old, new).size == net.layers[li].out_dim

    def test_allocation_monotone_in_new_classes(self):
        net = build_net(4, [16, 16], 40, 0)
        prev = 0
        for c_new in range(1, 30):
            plan = make_plan(build_net(4, [16, 16], 10 + c_new, 0), 1, 10, c_new, 1.0)
            n = plan.new_size[1]
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
        # the final layer reads a shared layer, so no weight crosses anywhere
        assert plan.per_layer == {}

    def test_exhaustive_two_by_two(self):
        net = widened_net(hidden=(2, 2), in_dim=4, c_old=1, c_new=1)
        plan = make_plan(net, 1, 1, 1, 1.0)
        on, no = plan.per_layer[2]
        assert on[0, 1] and not on.sum() > 1
        assert no[1, 0] and not no.sum() > 1

    def test_counting_oracle(self, rng):
        # on a 6 -> 6 partitioned pair, cross + within = 36
        net = build_net(4, [6, 6], 4, 0)
        plan = make_plan(net, 1, 2, 2, 1.0)
        on, no = plan.per_layer[2]
        n_old_in = plan.old_size[1]
        n_new_in = plan.new_size[1]
        # within-partition count on the 6 -> 4 output layer
        within = n_old_in * 2 + n_new_in * 2
        assert int(on.sum() + no.sum()) + within == 6 * 4

    def test_plan_caches_groups(self):
        # make_plan stores the cut blocks once; they match the index-array
        # reference built from the plan's widths
        net = widened_net()
        plan = make_plan(net, 1, 2, 2, 1.0)
        assert sorted(plan.per_layer) == [2, 3]
        for li, (on, no) in plan.per_layer.items():
            want_on, want_no = _ix_selectors(plan, li, net.layers[li].w.shape)
            assert np.array_equal(on, want_on) and np.array_equal(no, want_no)

    def test_first_partitioned_layer_contributes_nothing(self):
        # its inputs come from the shared trunk, so no weight of it crosses
        net = widened_net()
        plan = make_plan(net, 1, 2, 2, 1.0)
        assert 1 not in plan.per_layer
        assert sorted(plan.per_layer) == [2, 3]


class TestDisconnect:
    def _setup(self, seed=0):
        net = widened_net(seed=seed)
        plan = make_plan(net, 1, 2, 2, 1.0)
        disconnect(net, plan)
        return net, plan

    @staticmethod
    def _shove(net, plan, branch):
        # every weight into and bias of the branch's nodes (0 old, 1 new), in
        # each partitioned layer
        for li in plan.old_size:
            nodes = _index_groups(plan, li)[branch]
            net.layers[li].w[:, nodes] += 1.0
            net.layers[li].b[nodes] += 1.0
        disconnect(net, plan)  # the shove also reached the cut weights

    def test_new_branch_cannot_touch_old_logits(self, rng):
        net, plan = self._setup()
        x = rng.standard_normal((50, 4))
        before = net.forward(x)[:, :2]
        self._shove(net, plan, 1)
        assert np.array_equal(before, net.forward(x)[:, :2])

    def test_old_branch_cannot_touch_new_logits(self, rng):
        net, plan = self._setup()
        # widen_output zero-fills the new-class columns; without weights there
        # the new logits would read nothing from the network
        net.layers[-1].w[:, 2:] = rng.standard_normal((net.layers[-1].in_dim, 2))
        disconnect(net, plan)
        x = rng.standard_normal((50, 4))
        before = net.forward(x)[:, 2:]
        self._shove(net, plan, 0)
        assert np.array_equal(before, net.forward(x)[:, 2:])

    def test_full_net_old_slice_equals_subnet(self, rng):
        net, plan = self._setup()
        sub = DenseNet(extract_subnet(net.layers, plan))
        x = rng.standard_normal((30, 4))
        assert np.allclose(net.forward(x)[:, :2], sub.forward(x), atol=1e-12, rtol=0)

    def test_trunk_fed_layer_stays_unmasked(self):
        net = widened_net()
        plan = make_plan(net, 1, 2, 2, 1.0)
        before = net.clone()
        disconnect(net, plan)
        li = plan.split_index
        assert net.layers[li].w.tobytes() == before.layers[li].w.tobytes()
        for li in (2, 3):
            on, no = plan.per_layer[li]
            assert np.all(net.layers[li].w[on | no] == 0.0)
            assert not np.array_equal(net.layers[li].w, before.layers[li].w)

    def test_idempotent(self):
        net, plan = self._setup()
        w_before = [l.w.copy() for l in net.layers]
        disconnect(net, plan)
        for l, w in zip(net.layers, w_before):
            assert np.array_equal(l.w, w)

    def test_zero_on_a_stack_equals_each_seed(self):
        # plan.cut indexes (..., rows, cols): on (S, in, out) stacked weights, zero
        # zeroes exactly what zeroing each seed's own matrix does
        nets = [widened_net(seed=s) for s in range(3)]
        plan = make_plan(nets[0], 1, 2, 2, 1.0)
        stacked = [np.stack([net.layers[li].w for net in nets]) for li in range(nets[0].depth)]
        zero(plan.cut(stacked))
        for s, net in enumerate(nets):
            disconnect(net, plan)
            for li, layer in enumerate(net.layers):
                assert stacked[li][s].tobytes() == layer.w.tobytes()
        assert sorted(plan.blocks) == [2, 3]


class TestBridgeReconnect:
    def _setup(self, seed=0):
        net = widened_net(seed=seed)
        plan = make_plan(net, 1, 2, 2, 1.0)
        disconnect(net, plan)
        return net, plan

    def test_zero_bridge_equivalence(self, rng):
        net, plan = self._setup()
        x = rng.standard_normal((100, 4))
        before = net.forward(x)
        bridge_reconnect(net, plan)
        assert np.array_equal(net.forward(x), before)

    def test_bridge_weights_learn_after_step(self, rng):
        from splitbridge.engine import _ce
        from splitbridge.net import sgd_step
        from conftest import backward

        net, plan = self._setup()
        bridge_reconnect(net, plan)
        x = rng.standard_normal((16, 4))
        y = np.eye(4)[rng.integers(0, 4, size=16)]
        for _ in range(3):
            grads = backward(net, x, _ce(net.forward(x), y))
            sgd_step(net, grads, np.zeros_like(net.params), 0.5, 0.0, 0.0)
        cross_vals = [net.layers[li].w[on | no] for li, (on, no) in plan.per_layer.items()]
        assert any(np.any(v != 0.0) for v in cross_vals)

    @pytest.mark.parametrize("side", [0, 1])
    def test_nonzero_cut_weight_rejected(self, side):
        # a single trained cut weight, however small, breaks the zero bridge
        net, plan = self._setup()
        li = max(plan.per_layer)
        cut = plan.per_layer[li][side]
        net.layers[li].w[tuple(np.argwhere(cut)[0])] = 1e-300
        with pytest.raises(ValueError, match=f"layer {li}: 1 cut weights are not exactly 0.0"):
            bridge_reconnect(net, plan)

    def test_reconnect_then_disconnect_restores(self, rng):
        net, plan = self._setup()
        snap = net.clone()
        bridge_reconnect(net, plan)
        disconnect(net, plan)
        for a, b in zip(net.layers, snap.layers):
            assert np.array_equal(a.w, b.w)

    def test_reconnect_never_disconnected_errors(self):
        net = widened_net()
        plan = make_plan(net, 1, 2, 2, 1.0)
        with pytest.raises(ValueError, match="never disconnected"):
            bridge_reconnect(net, plan)


class TestExtractSubnet:
    def _setup(self):
        net = widened_net(seed=3)
        plan = make_plan(net, 1, 2, 2, 1.0)
        disconnect(net, plan)
        return net, plan

    def test_old_side_paired_comparison(self, rng):
        net, plan = self._setup()
        sub = DenseNet(extract_subnet(net.layers, plan))
        for _ in range(100):
            x = rng.standard_normal((1, 4))
            # differently shaped matmuls may reorder float sums
            assert np.allclose(sub.forward(x), net.forward(x)[:, :2], atol=1e-12, rtol=0)

    def test_all_layers_shared_old_side(self):
        # every hidden layer stays shared, so only the logit layer is sliced
        net = build_net(4, [8, 8], 12, 0)
        plan = make_plan(net, 1, 10, 2, 1.4)
        sub = DenseNet(extract_subnet(net.layers, plan))
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
        for li in range(1, net.depth):
            if li not in plan.old_size:
                continue
            empty = np.array([], dtype=np.int64)
            in_old, in_new = (_index_groups(plan, li - 1) if li - 1 in plan.old_size
                              else (empty, empty))
            assert (li in plan.per_layer) == bool(in_old.size)
            empty = np.zeros(net.layers[li].w.shape, dtype=bool)
            on, no = plan.per_layer.get(li, (empty, empty))
            out_old, out_new = _index_groups(plan, li)
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
    """The old-to-new and new-to-old selectors of layer li, built with np.ix_
    from index arrays of the plan's group widths."""
    (in_old, in_new), (out_old, out_new) = _index_groups(plan, li - 1), _index_groups(plan, li)
    on, no = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
    on[np.ix_(in_old, out_new)] = True
    no[np.ix_(in_new, out_old)] = True
    return on, no


def _check_slice_encoding(split_index, hidden, rho, c_old, c_new, seed):
    net = build_net(3, hidden, c_old + c_new, seed)
    for layer in net.layers:
        layer.w += np.sign(layer.w) + (layer.w == 0.0)  # no weight is 0.0 before the cut
    plan = make_plan(net, split_index, c_old, c_new, rho)
    fed = [li for li in plan.old_size if li - 1 in plan.old_size]
    assert sorted(plan.per_layer) == sorted(fed)
    for li, (on, no) in plan.per_layer.items():
        want_on, want_no = _ix_selectors(plan, li, net.layers[li].w.shape)
        assert np.array_equal(on, want_on) and np.array_equal(no, want_no)

    before = net.clone()
    disconnect(net, plan)
    for li, (layer, old) in enumerate(zip(net.layers, before.layers)):
        cut = np.zeros(layer.w.shape, dtype=bool)
        if li in fed:
            cut = np.logical_or(*_ix_selectors(plan, li, layer.w.shape))
        assert np.all(layer.w[cut] == 0.0)
        assert layer.w[~cut].tobytes() == old.w[~cut].tobytes()

    sub = extract_subnet(net.layers, plan)
    for li, (layer, got) in enumerate(zip(net.layers, sub)):
        rows = np.arange(layer.in_dim)
        cols = _index_groups(plan, li)[0] if li in plan.old_size else np.arange(layer.out_dim)
        if li in fed:
            rows = _index_groups(plan, li - 1)[0]
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
        assert sorted(plan.old_size) == [2, 3]
        assert sorted(plan.per_layer) == [3]
        _check_slice_encoding(split_index, hidden, rho, c_old, c_new, 0)

    def test_one_wide_layer_stays_shared(self):
        # the 1-wide layer 1 has no node to give the new group, so it stays
        # shared with layer 0 below it; layer 2 reads the whole trunk
        plan = make_plan(build_net(4, [8, 1, 8], 4, 0), 0, 2, 2, 1.0)
        assert [(l["layer"], l["shared"], l["new_size"]) for l in plan.summary()["layers"]] == [
            (0, True, None), (1, True, None), (2, False, 4), (3, False, 2)]
        assert sorted(plan.per_layer) == [3]
        _check_slice_encoding(0, [8, 1, 8], 1.0, 2, 2, 0)

import dataclasses
import re
import struct
import tracemalloc

import numpy as np
import pytest

from splitbridge.net import (
    CHECKPOINT_MAGIC,
    DenseNet,
    Layer,
    ShapeError,
    _backward,
    _views,
    build_net,
    sgd_step,
)

from conftest import backward, make_random_net


def identity_net():
    return DenseNet([Layer(np.eye(2), np.zeros(2))])


class TestForward:
    def test_identity_passthrough(self):
        net = identity_net()
        out = net.forward(np.array([[3.0, -1.0]]))
        assert np.array_equal(out, [[3.0, -1.0]])

    def test_matches_naive_oracle(self, rng):
        net = make_random_net(rng, [2, 2, 2])
        x = rng.standard_normal((5, 2))
        # straightforward per-sample loop, independent of the engine path
        expected = np.zeros((5, 2))
        for s in range(5):
            h = x[s]
            for li, layer in enumerate(net.layers):
                z = np.array([h @ layer.w[:, j] + layer.b[j] for j in range(layer.out_dim)])
                h = np.maximum(z, 0.0) if li < net.depth - 1 else z
            expected[s] = h
        assert np.allclose(net.forward(x), expected, atol=1e-12, rtol=0)

    def test_dim_mismatch_names_layer(self):
        net = identity_net()
        with pytest.raises(ShapeError, match="layer 0"):
            net.forward(np.ones((1, 3)))


class TestBackward:
    def test_linear_layer_outer_product(self):
        net = DenseNet([Layer(np.zeros((3, 2)), np.zeros(2))])
        x = np.array([[1.0, 2.0, 3.0]])
        (gw,), (gb,) = _views(backward(net, x, np.ones((1, 2))), net.layout)
        assert np.array_equal(gw, np.outer(x[0], np.ones(2)))
        assert np.array_equal(gb, np.ones(2))

    def test_matches_finite_differences(self, rng):
        from conftest import finite_diff_param_grads, assert_close_rel

        net = make_random_net(rng, [3, 4, 2])
        x = rng.standard_normal((6, 3))

        def loss(n):
            # fixed smooth scalar loss of the logits
            return float((n.forward(x) ** 2).sum())

        gw, gb = _views(backward(net, x, 2.0 * net.forward(x)), net.layout)
        fw, fb = finite_diff_param_grads(net, loss)
        for i in range(net.depth):
            assert_close_rel(gw[i], fw[i])
            assert_close_rel(gb[i], fb[i])

    def test_masked_positions_zero_gradient(self, monkeypatch):
        # the cut weights carry no mask: the branched phase zeros their
        # gradient before each update, so every gradient sgd_step receives
        # after disconnect is exactly 0.0 on the cut
        from splitbridge import engine, partition
        from splitbridge.data import gen_synthetic, split_tasks

        train, test = gen_synthetic(4, 6, 40, 20, seed=0, mean_radius=4.0)
        seq = split_tasks(train, test, 2, seed=0)
        cfg = engine.SchemeConfig(epochs_first=4, epochs_sparsify=2, epochs_branched=2,
                                  hidden=(12, 12), split_index=1, memory_capacity=20)
        net = build_net(seq.feature_dim, list(cfg.hidden), 2, seed=0)
        engine.run_first_task([net], seq.tasks[0].train, [cfg])
        d1 = seq.tasks[0].train
        mem = engine.update_exemplars(d1.subset(slice(0, 0)), d1, cfg.memory_capacity, 1)
        pool = engine.Pool.build(seq.tasks[1], [mem], [net], cfg)
        net.widen_output(2)
        seen = {"cut": False, "before": [], "after": []}
        disconnect, step = partition.disconnect, engine.sgd_step

        def record_disconnect(n, plan):
            seen["cut"] = True
            return disconnect(n, plan)

        def record_step(n, grads, *args):
            phase = "after" if seen["cut"] else "before"
            seen[phase].append([g.copy() for g in _views(grads, n.layout)[0]])
            return step(n, grads, *args)

        monkeypatch.setattr(partition, "disconnect", record_disconnect)
        monkeypatch.setattr(engine, "sgd_step", record_step)
        plan = partition.make_plan(net, cfg.split_index, pool.old.size, pool.new.size, cfg.rho)
        engine.run_split_phase(net, plan, pool, 0, cfg, 2)
        cuts = [(li, on | no) for li, (on, no) in plan.per_layer.items()]
        assert cuts and seen["before"] and seen["after"]
        assert any(np.any(gw[li][cut] != 0.0) for gw in seen["before"] for li, cut in cuts)
        for gw in seen["after"]:
            for li, cut in cuts:
                assert np.all(gw[li][cut] == 0.0)
                assert np.any(gw[li][~cut] != 0.0)

    @pytest.mark.parametrize("rows", [1, 7])
    def test_in_place_kernels_leave_inputs_and_cache_unchanged(self, rng, rows):
        # the bias, ReLU and mask go in place on arrays the pass made itself
        net = make_random_net(rng, [5, 6, 6, 3])
        x = rng.standard_normal((rows, 5))
        upstream = rng.standard_normal((rows, 3))
        x0, up0 = x.tobytes(), upstream.tobytes()
        cache = net.forward_cached(x)
        assert x.tobytes() == x0 and cache[1][0] is x
        saved = [a.tobytes() for a in (cache[0], *cache[1])]

        def backward_bytes():
            grads = np.empty_like(net.params)
            _backward([l.w.swapaxes(-1, -2) for l in net.layers], cache[1], upstream,
                      *_views(grads, net.layout))
            return grads.tobytes()
        first = backward_bytes()
        assert upstream.tobytes() == up0
        assert [a.tobytes() for a in (cache[0], *cache[1])] == saved
        assert backward_bytes() == first
        # the same bytes as the out-of-place formulas: z = h @ w + b, relu(z)
        h = x
        for i, layer in enumerate(net.layers):
            z = h @ layer.w + layer.b
            h = np.maximum(z, 0.0) if i < net.depth - 1 else z
        assert h.tobytes() == cache[0].tobytes()


class TestSgdStep:
    def test_plain_update_definition(self, rng):
        net = make_random_net(rng, [2, 2])
        w0 = net.layers[0].w.copy()
        g = rng.standard_normal((2, 2))
        grads = np.zeros_like(net.params)
        _views(grads, net.layout)[0][0][...] = g
        sgd_step(net, grads, np.zeros_like(net.params), 0.1, 0.0, 0.0)
        assert np.allclose(net.layers[0].w, w0 - 0.1 * g, atol=1e-15)

    def test_two_step_momentum_oracle(self, rng):
        net = make_random_net(rng, [2, 2])
        w0 = net.layers[0].w.copy()
        g = rng.standard_normal((2, 2))
        velocity, grads = np.zeros_like(net.params), np.zeros_like(net.params)
        _views(grads, net.layout)[0][0][...] = g
        for _ in range(2):
            sgd_step(net, grads, velocity, 0.1, 0.9, 0.0)
        expected = w0 - 0.1 * g - 0.1 * (g + 0.9 * g)
        assert np.allclose(net.layers[0].w, expected, atol=1e-15)

    def test_masked_position_stays_zero_under_weight_decay(self, rng):
        # a cut weight is +0.0 and its gradient is zeroed before each update
        # (as in the branched phase): weight decay and momentum keep it there
        net = make_random_net(rng, [2, 2])
        net.layers[0].w[0, 0] = 0.0
        w0 = net.layers[0].w.copy()
        velocity = np.zeros_like(net.params)
        for _ in range(3):
            grads = backward(net, np.ones((1, 2)), np.ones((1, 2)))
            gw = _views(grads, net.layout)[0][0]
            assert gw[0, 0] != 0.0
            gw[0, 0] = 0.0
            sgd_step(net, grads, velocity, 0.1, 0.9, 0.01)
        assert net.layers[0].w[0, 0].tobytes() == np.float64(0.0).tobytes()
        assert np.all(net.layers[0].w.ravel()[1:] != w0.ravel()[1:])

    def test_state_rejects_widened_output(self, rng):
        # a velocity built before widen_output is stale for the logit layer
        net = make_random_net(rng, [2, 3, 2])
        velocity = np.zeros_like(net.params)
        sgd_step(net, backward(net, np.ones((1, 2)), np.ones((1, 2))), velocity, 0.1, 0.9, 0.0)
        net.widen_output(1)  # 17 parameters become 21
        grads = backward(net, np.ones((1, 2)), np.ones((1, 3)))
        with pytest.raises(ShapeError, match=re.escape(
                "velocity must be a float64 array of shape (21,), got float64 of shape (17,)")):
            sgd_step(net, grads, velocity, 0.1, 0.9, 0.0)
        sgd_step(net, grads, np.zeros_like(net.params), 0.1, 0.9, 0.0)  # a fresh one steps

    @pytest.mark.parametrize("arg, bad, message", [
        ("grads", lambda p: np.zeros(p.size - 1), "grads must be a float64 array of shape "
                                                  "(17,), got float64 of shape (16,)"),
        ("velocity", lambda p: np.zeros(p.size, dtype=np.float32),
         "velocity must be a float64 array of shape (17,), got float32 of shape (17,)"),
    ], ids=["short_grads", "float32_velocity"])
    def test_misfit_gradient_or_velocity_rejected(self, rng, arg, bad, message):
        net = make_random_net(rng, [2, 3, 2])
        args = {"grads": np.ones_like(net.params), "velocity": np.ones_like(net.params)}
        args[arg] = bad(net.params)
        before = [a.tobytes() for a in (net.params, *args.values())]
        with pytest.raises(ShapeError, match=re.escape(message) + "$"):
            sgd_step(net, args["grads"], args["velocity"], 0.1, 0.9, 0.0)
        assert [a.tobytes() for a in (net.params, *args.values())] == before

    def test_three_layer_bitwise_oracle(self, rng):
        # the whole-buffer update against the per-layer formula, written out:
        # v = m * v + (g + wd * w), then w -= lr * v; biases take no decay
        net = make_random_net(rng, [3, 5, 4, 2])
        lr, m, wd = 0.05, 0.9, 1e-4
        ref_w = [l.w.copy() for l in net.layers]
        ref_b = [l.b.copy() for l in net.layers]
        vel_w = [np.zeros_like(w) for w in ref_w]
        vel_b = [np.zeros_like(b) for b in ref_b]
        velocity = np.zeros_like(net.params)
        for _ in range(3):
            grads = backward(net, rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
            gw, gb = _views(grads, net.layout)
            for i in range(net.depth):
                vel_w[i] = m * vel_w[i] + (gw[i] + wd * ref_w[i])
                vel_b[i] = m * vel_b[i] + gb[i]
                ref_w[i] = ref_w[i] - lr * vel_w[i]
                ref_b[i] = ref_b[i] - lr * vel_b[i]
            sgd_step(net, grads, velocity, lr, m, wd)
        vw, vb = _views(velocity, net.layout)
        for i, layer in enumerate(net.layers):
            assert layer.w.tobytes() == ref_w[i].tobytes()
            assert layer.b.tobytes() == ref_b[i].tobytes()
            assert vw[i].tobytes() == vel_w[i].tobytes()
            assert vb[i].tobytes() == vel_b[i].tobytes()

    @pytest.mark.parametrize("attr", ["w", "b"])
    def test_rebound_parameter_rejected(self, rng, attr):
        # a net that views a row of a stack is accepted as is and steps its row
        # alone; a rebound w or b is rejected on either kind of net
        net, other = make_random_net(rng, [2, 3, 2]), make_random_net(rng, [2, 3, 2])
        stack = np.stack([other.params, net.params])
        row = net.clone()
        row._adopt(stack[1])
        grads = rng.standard_normal(net.params.shape)
        for n in (net, row):
            sgd_step(n, grads, np.zeros_like(grads), 0.1, 0.9, 1e-2)
        assert stack[1].tobytes() == net.params.tobytes()
        assert stack[0].tobytes() == other.params.tobytes()
        for n in (net, row):
            layer = n.layers[1]
            setattr(layer, attr, getattr(layer, attr).copy())
            zeros = np.zeros_like(n.params)
            with pytest.raises(ShapeError, match="layer 1 weights or biases are not views"):
                sgd_step(n, zeros, zeros.copy(), 0.1, 0.9, 0.0)
        # a view of another row of its own stack shares the stack as base, but it is
        # not the view the net trains: the net would read row 0 and step row 1
        nets = [build_net(3, [4], 2, s) for s in (0, 1)]
        stack = np.stack([n.params for n in nets])
        for n, params in zip(nets, stack):  # as engine._fit packs a stack
            n._adopt(params)
        layer = nets[1].layers[0]
        setattr(layer, attr, {"w": stack[0, :12].reshape(3, 4), "b": stack[0, 20:24]}[attr])
        zeros = np.zeros_like(nets[1].params)
        with pytest.raises(ShapeError, match="layer 0 weights or biases are not views"):
            sgd_step(nets[1], zeros, zeros.copy(), 0.1, 0.9, 0.0)


class TestSgdStepBuffer:
    """sgd_step with a caller-owned scratch buffer, as _fit passes one."""

    def test_steps_allocate_nothing_the_size_of_the_network(self, rng):
        net = build_net(16, [128, 128, 128, 128], 8, seed=0)  # 421,952 bytes of params
        grads = backward(net, rng.standard_normal((32, 16)), rng.standard_normal((32, 8)))
        velocity, buf = np.zeros_like(net.params), np.empty_like(net.params)
        sgd_step(net, grads, velocity, 0.05, 0.9, 1e-4, buf)  # warm-up
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                sgd_step(net, grads, velocity, 0.05, 0.9, 1e-4, buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 0.01 * net.params.nbytes

    def test_same_bytes_with_and_without_buffer(self, rng):
        a = make_random_net(rng, [5, 7, 6, 3])
        b = a.clone()
        va, vb = np.zeros_like(a.params), np.zeros_like(b.params)
        buf = np.full_like(a.params, np.nan)  # every entry written before it is read
        for _ in range(4):
            x, up = rng.standard_normal((9, 5)), rng.standard_normal((9, 3))
            sgd_step(a, backward(a, x, up), va, 0.05, 0.9, 1e-3)
            sgd_step(b, backward(b, x, up), vb, 0.05, 0.9, 1e-3, buf)
            assert a.params.tobytes() == b.params.tobytes()
            assert va.tobytes() == vb.tobytes()

    @pytest.mark.parametrize("bad", [
        lambda p: np.empty(p.size - 1), lambda p: np.empty(p.size + 1),
        lambda p: np.empty((1, p.size)), lambda p: np.empty(p.size, dtype=np.float32),
        lambda p: list(p),
    ])
    def test_misfit_buffer_rejected(self, rng, bad):
        net = make_random_net(rng, [3, 4, 2])
        grads = backward(net, np.ones((1, 3)), np.ones((1, 2)))
        before = net.params.tobytes()
        with pytest.raises(ShapeError, match="buf must be a float64 array of shape"):
            sgd_step(net, grads, np.zeros_like(net.params), 0.1, 0.9, 0.0, bad(net.params))
        assert net.params.tobytes() == before


def assert_packed(net):
    """Every layer's w and b is a view of net.params, in the flat layout:
    all weights in layer order, then all biases."""
    for layer in net.layers:
        assert layer.w.base is net.params and layer.b.base is net.params
    flat = np.concatenate([l.w.ravel() for l in net.layers] + [l.b for l in net.layers])
    assert flat.tobytes() == net.params.tobytes()
    assert net.layout == tuple(l.w.shape for l in net.layers)


class TestFlatParams:
    def test_every_constructor_packs(self, rng, tmp_path):
        from splitbridge.partition import disconnect, extract_subnet, make_plan

        net = build_net(4, [6, 6], 3, seed=0)
        assert_packed(net)
        net.save(tmp_path / "net.ckpt")
        assert_packed(DenseNet.load(tmp_path / "net.ckpt"))
        assert_packed(net.clone())
        net.widen_output(2)
        assert_packed(net)
        plan = make_plan(net, 1, 3, 2, 1.0)
        disconnect(net, plan)
        # the bridge's teacher is no constructor: it views the network's own params
        assert all(np.shares_memory(l.w, net.params) and np.shares_memory(l.b, net.params)
                   for l in extract_subnet(net.layers, plan))

    def test_clone_buffer_independent(self, rng):
        net = make_random_net(rng, [3, 4, 2])
        before = net.params.copy()
        clone = net.clone()
        assert not np.shares_memory(clone.params, net.params)
        clone.params += 1.0
        clone.layers[0].w[0, 0] = 7.0
        assert net.params.tobytes() == before.tobytes()
        assert_packed(clone)

    def test_bias_shape_checked_before_packing(self):
        # packing would broadcast a short bias into the buffer without a word
        with pytest.raises(ShapeError, match=r"layer 0 bias shape \(1,\) != \(2,\)"):
            DenseNet([Layer(np.eye(2), np.zeros(1))])

    def test_gradients_share_the_layout(self, rng):
        net = make_random_net(rng, [3, 4, 2])
        grads = backward(net, rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
        gw, gb = _views(grads, net.layout)
        assert grads.shape == net.params.shape
        assert [w.shape for w in gw] == [l.w.shape for l in net.layers]
        for w, b in zip(gw, gb):
            assert w.base is grads and b.base is grads
        flat = np.concatenate([w.ravel() for w in gw] + list(gb))
        assert flat.tobytes() == grads.tobytes()


class TestClone:
    def test_clone_then_perturb(self, rng):
        net = make_random_net(rng, [3, 3, 2])
        clone = net.clone()
        net.layers[0].w += 1.0
        assert not np.array_equal(net.layers[0].w, clone.layers[0].w)

    def test_clone_of_clone(self, rng):
        net = make_random_net(rng, [3, 2])
        cc = net.clone().clone()
        assert np.array_equal(cc.layers[0].w, net.layers[0].w)
        assert np.array_equal(cc.layers[0].b, net.layers[0].b)

    def test_paired_forward(self, rng):
        net = make_random_net(rng, [4, 5, 3])
        clone = net.clone()
        for _ in range(100):
            x = rng.standard_normal((1, 4))
            assert np.array_equal(net.forward(x), clone.forward(x))


class TestWiden:
    def test_old_logits_unchanged(self, rng):
        net = make_random_net(rng, [4, 5, 3])
        x = rng.standard_normal((10, 4))
        before = net.forward(x)
        net.widen_output(2)
        after = net.forward(x)
        assert net.num_classes == 5
        assert np.array_equal(after[:, :3], before)
        assert np.all(after[:, 3:] == 0.0)


class TestCheckpoint:
    def test_round_trip(self, rng, tmp_path):
        net = make_random_net(rng, [3, 4, 2])
        path = tmp_path / "net.ckpt"
        net.save(path)
        loaded = DenseNet.load(path)
        for a, b in zip(net.layers, loaded.layers):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.b, b.b)
        assert loaded.depth == net.depth and loaded.num_classes == net.num_classes

    def test_round_trip_without_masks(self, rng, tmp_path):
        net = make_random_net(rng, [3, 4, 2])
        path = tmp_path / "net.ckpt"
        net.save(path)
        # header, then per layer a 10-byte header, weights and biases only
        params = sum(l.w.size + l.b.size for l in net.layers)
        assert path.stat().st_size == 12 + 10 * net.depth + 8 * params
        loaded = DenseNet.load(path)
        for a, b in zip(net.layers, loaded.layers):
            assert a.w.tobytes() == b.w.tobytes()
            assert a.b.tobytes() == b.b.tobytes()
        # ReLU on every layer but the last: the loaded net computes the same logits
        x = rng.standard_normal((5, 3))
        assert loaded.forward(x).tobytes() == net.forward(x).tobytes()
        assert [f.name for f in dataclasses.fields(Layer)] == ["w", "b"]

    @pytest.mark.parametrize("cut, part", [
        (9, "checkpoint header"),
        (20, "layer 0 header"),
        (40, "layer 0 weights"),
        (-8, "layer 1 bias"),       # only the last bias value of the logit layer
    ])
    def test_truncated_rejected(self, rng, tmp_path, cut, part):
        net = make_random_net(rng, [3, 4, 3])
        path = tmp_path / "net.ckpt"
        net.save(path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match=f"truncated .* for {part} at offset"):
            DenseNet.load(path)

    @pytest.mark.parametrize("layer, byte, value", [
        (0, 8, 7),      # activation id
        (0, 9, 9),      # has-mask flag
        (1, 8, 2),
        (1, 9, 2),
        (1, 9, 1),      # no layer carries a mask block
        (0, 8, 0),      # a hidden layer applies ReLU, id 1
        (1, 8, 1),      # the last layer gives the logits, id 0
        (None, 8, 4),   # the checkpoint header's num_classes, not the last width 3
    ])
    def test_bad_header_byte_rejected(self, rng, tmp_path, layer, byte, value):
        net = make_random_net(rng, [3, 4, 3])
        path = tmp_path / "net.ckpt"
        net.save(path)
        # the checkpoint header is magic, depth, num_classes; a layer header is in_dim,
        # out_dim (uint32 each), activation id, has-mask flag
        start = (0 if layer is None else
                 12 + sum(10 + 8 * (l.w.size + l.b.size) for l in net.layers[:layer]))
        raw = bytearray(path.read_bytes())
        raw[start + byte] = value
        path.write_bytes(bytes(raw))
        match = ("checkpoint header: num_classes 4 != layer 1 out_dim 3" if layer is None else
                 f"layer {layer} header: activation id \\d+ must be {int(layer == 0)} "
                 r"\(1 hidden, 0 last\) and has-mask flag \d+ must be 0")
        with pytest.raises(ValueError, match=match):
            DenseNet.load(path)

    def test_huge_declared_layer_rejected(self, tmp_path):
        # the size check comes before any read, so nothing of that size is allocated
        path = tmp_path / "huge.ckpt"
        dims = struct.pack("<IIBB", 2**32 - 1, 2**32 - 1, 0, 0)
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<II", 1, 2**32 - 1) + dims)
        with pytest.raises(ValueError, match="truncated.*layer 0 weights at offset 22"):
            DenseNet.load(path)

    def test_trailing_bytes_rejected(self, rng, tmp_path):
        net = make_random_net(rng, [3, 4, 3])
        path = tmp_path / "net.ckpt"
        net.save(path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match=f"trailing bytes .* offset {size}"):
            DenseNet.load(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            DenseNet.load(path)


def test_build_net_deterministic():
    a = build_net(4, [8, 8], 3, seed=7)
    b = build_net(4, [8, 8], 3, seed=7)
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.w, lb.w)

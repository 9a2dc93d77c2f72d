import dataclasses
import struct

import numpy as np
import pytest

from splitbridge.net import (
    CHECKPOINT_MAGIC,
    DenseNet,
    GradientSet,
    Layer,
    ShapeError,
    IDENTITY,
    RELU,
    build_net,
    sgd_step,
)

from conftest import make_random_net


def identity_net():
    return DenseNet([Layer(np.eye(2), np.zeros(2), IDENTITY)], 2)


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
                h = np.maximum(z, 0.0) if layer.activation == RELU else z
            expected[s] = h
        assert np.allclose(net.forward(x), expected, atol=1e-12, rtol=0)

    def test_dim_mismatch_names_layer(self):
        net = identity_net()
        with pytest.raises(ShapeError, match="layer 0"):
            net.forward(np.ones((1, 3)))


class TestBackward:
    def test_linear_layer_outer_product(self):
        net = DenseNet([Layer(np.zeros((3, 2)), np.zeros(2), IDENTITY)], 2)
        x = np.array([[1.0, 2.0, 3.0]])
        grads = net.backward(x, np.ones((1, 2)))
        assert np.array_equal(grads.wgrads[0], np.outer(x[0], np.ones(2)))
        assert np.array_equal(grads.bgrads[0], np.ones(2))

    def test_matches_finite_differences(self, rng):
        from conftest import finite_diff_param_grads, assert_close_rel

        net = make_random_net(rng, [3, 4, 2])
        x = rng.standard_normal((6, 3))

        def loss(n):
            # fixed smooth scalar loss of the logits
            return float((n.forward(x) ** 2).sum())

        grads = net.backward(x, 2.0 * net.forward(x))
        fw, fb = finite_diff_param_grads(net, loss)
        for i in range(net.depth):
            assert_close_rel(grads.wgrads[i], fw[i])
            assert_close_rel(grads.bgrads[i], fb[i])

    def test_shape_mismatch(self, rng):
        net = make_random_net(rng, [3, 2])
        with pytest.raises(ShapeError):
            net.backward(np.ones((2, 3)), np.ones((2, 3)))

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
        engine.run_first_task(net, seq.tasks[0].train, cfg)
        mem = engine.update_exemplars(engine.ExemplarMemory(cfg.memory_capacity),
                                      seq.tasks[0].train, 1)
        x, y, is_new = engine._pool(seq.tasks[1].train, mem)
        soft = engine.losses.softmax(net.forward(x), cfg.tau)
        net.widen_output(2)
        seen = {"cut": False, "before": [], "after": []}
        disconnect, step = partition.disconnect, engine.sgd_step

        def record_disconnect(n, groups):
            seen["cut"] = True
            return disconnect(n, groups)

        def record_step(n, grads, *args):
            phase = "after" if seen["cut"] else "before"
            seen[phase].append([g.copy() for g in grads.wgrads])
            return step(n, grads, *args)

        monkeypatch.setattr(partition, "disconnect", record_disconnect)
        monkeypatch.setattr(engine, "sgd_step", record_step)
        _, _, groups, _ = engine.run_split_phase(net, x, y, is_new, soft, cfg, 2)
        cuts = [(li, on | no) for li, (on, no) in groups.per_layer.items()]
        assert cuts and seen["before"] and seen["after"]
        assert any(np.any(gw[li][cut] != 0.0) for gw in seen["before"] for li, cut in cuts)
        for gw in seen["after"]:
            for li, cut in cuts:
                assert np.all(gw[li][cut] == 0.0)
                assert np.any(gw[li][~cut] != 0.0)

    def test_cached_forward_gives_identical_gradients(self, rng):
        net = make_random_net(rng, [5, 6, 6, 3])
        x = rng.standard_normal((7, 5))
        upstream = rng.standard_normal((7, 3))
        fresh = net.backward(x, upstream)
        cached = net.backward(x, upstream, net.forward_cached(x))
        for a, b in zip(fresh.wgrads + fresh.bgrads, cached.wgrads + cached.bgrads):
            assert a.tobytes() == b.tobytes()


class TestSgdStep:
    def test_plain_update_definition(self, rng):
        net = make_random_net(rng, [2, 2])
        w0 = net.layers[0].w.copy()
        g = rng.standard_normal((2, 2))
        grads = net.backward(np.zeros((1, 2)), np.zeros((1, 2)))
        grads.wgrads[0][...] = g
        sgd_step(net, grads, GradientSet.zeros(net), 0.1, 0.0, 0.0)
        assert np.allclose(net.layers[0].w, w0 - 0.1 * g, atol=1e-15)

    def test_two_step_momentum_oracle(self, rng):
        net = make_random_net(rng, [2, 2])
        w0 = net.layers[0].w.copy()
        g = rng.standard_normal((2, 2))
        velocity = GradientSet.zeros(net)
        for _ in range(2):
            grads = net.backward(np.zeros((1, 2)), np.zeros((1, 2)))
            grads.wgrads[0][...] = g
            grads.bgrads[0][...] = 0.0
            sgd_step(net, grads, velocity, 0.1, 0.9, 0.0)
        expected = w0 - 0.1 * g - 0.1 * (g + 0.9 * g)
        assert np.allclose(net.layers[0].w, expected, atol=1e-15)

    def test_masked_position_stays_zero_under_weight_decay(self, rng):
        # a cut weight is +0.0 and its gradient is zeroed before each update
        # (as in the branched phase): weight decay and momentum keep it there
        net = make_random_net(rng, [2, 2])
        net.layers[0].w[0, 0] = 0.0
        w0 = net.layers[0].w.copy()
        velocity = GradientSet.zeros(net)
        for _ in range(3):
            grads = net.backward(np.ones((1, 2)), np.ones((1, 2)))
            assert grads.wgrads[0][0, 0] != 0.0
            grads.wgrads[0][0, 0] = 0.0
            sgd_step(net, grads, velocity, 0.1, 0.9, 0.01)
        assert net.layers[0].w[0, 0].tobytes() == np.float64(0.0).tobytes()
        assert np.all(net.layers[0].w.ravel()[1:] != w0.ravel()[1:])

    def test_state_rejects_widened_output(self, rng):
        # a velocity built before widen_output is stale for the logit layer
        net = make_random_net(rng, [2, 3, 2])
        velocity = GradientSet.zeros(net)
        sgd_step(net, net.backward(np.ones((1, 2)), np.ones((1, 2))), velocity, 0.1, 0.9, 0.0)
        net.widen_output(1)
        grads = net.backward(np.ones((1, 2)), np.ones((1, 3)))
        with pytest.raises(ShapeError, match="velocity shape mismatch at layer 1$"):
            sgd_step(net, grads, velocity, 0.1, 0.9, 0.0)
        sgd_step(net, grads, GradientSet.zeros(net), 0.1, 0.9, 0.0)  # a fresh one steps


    def test_three_layer_bitwise_oracle(self, rng):
        # the whole-buffer update against the per-layer formula, written out:
        # v = m * v + (g + wd * w), then w -= lr * v; biases take no decay
        net = make_random_net(rng, [3, 5, 4, 2])
        lr, m, wd = 0.05, 0.9, 1e-4
        ref_w = [l.w.copy() for l in net.layers]
        ref_b = [l.b.copy() for l in net.layers]
        vel_w = [np.zeros_like(w) for w in ref_w]
        vel_b = [np.zeros_like(b) for b in ref_b]
        velocity = GradientSet.zeros(net)
        for _ in range(3):
            grads = net.backward(rng.standard_normal((4, 3)), rng.standard_normal((4, 2)))
            for i in range(net.depth):
                vel_w[i] = m * vel_w[i] + (grads.wgrads[i] + wd * ref_w[i])
                vel_b[i] = m * vel_b[i] + grads.bgrads[i]
                ref_w[i] = ref_w[i] - lr * vel_w[i]
                ref_b[i] = ref_b[i] - lr * vel_b[i]
            sgd_step(net, grads, velocity, lr, m, wd)
        for i, layer in enumerate(net.layers):
            assert layer.w.tobytes() == ref_w[i].tobytes()
            assert layer.b.tobytes() == ref_b[i].tobytes()
            assert velocity.wgrads[i].tobytes() == vel_w[i].tobytes()
            assert velocity.bgrads[i].tobytes() == vel_b[i].tobytes()

    def test_rebound_gradient_entry_rejected(self, rng):
        net = make_random_net(rng, [2, 2])
        grads = net.backward(np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(TypeError):
            grads.wgrads[0] = np.zeros((2, 2))
        with pytest.raises(AttributeError):
            grads.bgrads = (np.zeros(2),)

    @pytest.mark.parametrize("attr", ["w", "b"])
    def test_rebound_parameter_rejected(self, rng, attr):
        net = make_random_net(rng, [2, 3, 2])
        layer = net.layers[1]
        setattr(layer, attr, getattr(layer, attr).copy())
        grads = net.backward(np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(ShapeError, match="layer 1 weights or biases are not views"):
            sgd_step(net, grads, GradientSet.zeros(net), 0.1, 0.9, 0.0)


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
        disconnect(net, plan.groups)
        assert_packed(extract_subnet(net, plan))

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
            DenseNet([Layer(np.eye(2), np.zeros(1), IDENTITY)], 2)

    def test_gradients_share_the_layout(self, rng):
        net = make_random_net(rng, [3, 4, 2])
        grads = net.backward(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
        assert grads.layout == net.layout and grads.flat.shape == net.params.shape
        for w, b in zip(grads.wgrads, grads.bgrads):
            assert w.base is grads.flat and b.base is grads.flat
        flat = np.concatenate([w.ravel() for w in grads.wgrads] + list(grads.bgrads))
        assert flat.tobytes() == grads.flat.tobytes()


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
            assert a.activation == b.activation

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
            assert a.activation == b.activation
        assert [f.name for f in dataclasses.fields(Layer)] == ["w", "b", "activation"]

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
    ])
    def test_bad_header_byte_rejected(self, rng, tmp_path, layer, byte, value):
        net = make_random_net(rng, [3, 4, 3])
        path = tmp_path / "net.ckpt"
        net.save(path)
        # a layer header is in_dim, out_dim (uint32 each), activation id, has-mask flag
        start = 12 + sum(10 + 8 * (l.w.size + l.b.size) for l in net.layers[:layer])
        raw = bytearray(path.read_bytes())
        raw[start + byte] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"layer {layer} header: activation id "
                           r"\d+ must be 0 or 1 and has-mask flag \d+ must be 0"):
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

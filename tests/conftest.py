import numpy as np
import pytest

from splitbridge.net import DenseNet, Layer, _backward, _forward, _views


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_random_net(rng, dims, scale=0.5):
    """Hand-built net with random weights; ReLU hidden, identity output."""
    layers = []
    for i in range(len(dims) - 1):
        w = scale * rng.standard_normal((dims[i], dims[i + 1]))
        b = scale * rng.standard_normal(dims[i + 1])
        layers.append(Layer(w, b))
    return DenseNet(layers)


def backward(net, x, upstream):
    """d(loss)/d(params) of net on the batch x, given d(loss)/d(logits) upstream,
    from the _forward and _backward kernels: a new array in net.params' layout."""
    grads = np.empty_like(net.params)
    _, inputs = _forward(net.layers, x)
    _backward([layer.w.swapaxes(-1, -2) for layer in net.layers], inputs, upstream,
              *_views(grads, net.layout))
    return grads


def finite_diff_param_grads(net, loss_of_net, step=1e-5):
    """Central finite differences of a scalar loss over every parameter."""
    wgrads, bgrads = [], []
    for layer in net.layers:
        gw = np.zeros_like(layer.w)
        for idx in np.ndindex(layer.w.shape):
            orig = layer.w[idx]
            layer.w[idx] = orig + step
            hi = loss_of_net(net)
            layer.w[idx] = orig - step
            lo = loss_of_net(net)
            layer.w[idx] = orig
            gw[idx] = (hi - lo) / (2 * step)
        wgrads.append(gw)
        gb = np.zeros_like(layer.b)
        for i in range(layer.b.size):
            orig = layer.b[i]
            layer.b[i] = orig + step
            hi = loss_of_net(net)
            layer.b[i] = orig - step
            lo = loss_of_net(net)
            layer.b[i] = orig
            gb[i] = (hi - lo) / (2 * step)
        bgrads.append(gb)
    return wgrads, bgrads


def finite_diff_logit_grad(loss_of_logits, logits, step=1e-5):
    """Central finite differences of a scalar loss w.r.t. each logit."""
    g = np.zeros_like(logits)
    for idx in np.ndindex(logits.shape):
        pert = logits.copy()
        pert[idx] += step
        hi = loss_of_logits(pert)
        pert[idx] -= 2 * step
        lo = loss_of_logits(pert)
        g[idx] = (hi - lo) / (2 * step)
    return g


def phase_loss(grad, *cols):
    """The total loss of the phase loss grad (engine's _ce, or a closure of
    _kd_lce or _kd_ce) on the batch's rows cols, as a function of the logits."""
    def loss(logits):
        parts = {}
        grad(logits, *cols, parts=parts)
        return parts["loss"]
    return loss


def assert_close_rel(analytic, numeric, rtol=1e-6, floor=1e-8):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    denom = np.maximum(np.abs(numeric), floor)
    rel = np.abs(analytic - numeric) / denom
    sig = np.abs(numeric) > floor
    assert rel[sig].max(initial=0.0) < rtol, f"max rel error {rel[sig].max():.3e}"
    assert np.abs(analytic[~sig]).max(initial=0.0) < 1e-7

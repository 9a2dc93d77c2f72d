"""Dense feed-forward network engine: the forward and backward kernels and
momentum SGD.

All parameters are float64. A layer holds a weight matrix of shape
(in_dim, out_dim) and a bias vector of shape (out_dim,). A network keeps
every parameter in one flat buffer, every layer's weights first and then
every layer's biases. A gradient or a velocity is a float64 array shaped
like that buffer, with the same layout, so an SGD step is a few
whole-buffer operations.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .data import read_exact

CHECKPOINT_MAGIC = b"SBN1"


class ShapeError(ValueError):
    """Raised when an input or gradient does not match the network's shapes."""


@dataclass
class Layer:
    """One dense layer: x @ w + b, then ReLU unless it is the network's last."""

    w: np.ndarray
    b: np.ndarray

    @property
    def in_dim(self) -> int:
        return self.w.shape[-2]

    @property
    def out_dim(self) -> int:
        return self.w.shape[-1]


def _views(flat: np.ndarray, layout: tuple) -> tuple[tuple, tuple]:
    """Per-layer weight and bias views of flat: all weights first, then all
    biases, layer by layer. layout holds each layer's (in_dim, out_dim). Leading
    axes of flat (a stack of buffers) lead each view: weights (S, in, out)."""
    ws, bs, off, lead = [], [], 0, flat.shape[:-1]
    for shape in layout:
        size = shape[0] * shape[1]
        ws.append(flat[..., off : off + size].reshape(lead + shape))
        off += size
    for _, out_dim in layout:
        bs.append(flat[..., off : off + out_dim])
        off += out_dim
    return tuple(ws), tuple(bs)


def _forward(layers, x: np.ndarray):
    """Unchecked forward pass: (logits, each layer's input). Stacked layers,
    w (S, in, out) and b (S, 1, out), take x (S, n, in); each network's slice
    of every product and sum is its own 2-D pass."""
    inputs, h = [], x
    for i, layer in enumerate(layers):
        inputs.append(h)
        h = h @ layer.w  # a fresh array: the bias and ReLU go in place
        h += layer.b
        if i < len(layers) - 1:
            np.maximum(h, 0.0, out=h)
    return h, inputs


def _backward(wts, inputs, delta: np.ndarray, wgrads, bgrads) -> None:
    """Unchecked: backpropagate d(loss)/d(logits) delta of a _forward pass into
    the views wgrads and bgrads, shaped like the layers' w and b; delta stays.
    wts are the layers' w.swapaxes(-1, -2), views a training loop makes once."""
    for i in range(len(wts) - 1, -1, -1):
        if i < len(wts) - 1:
            # a hidden layer's output, the next input, is relu(z) >= +0.0: its sign is the
            # float mask of z > 0. The logit layer has no ReLU; delta is a fresh product
            delta *= np.sign(inputs[i + 1])
        np.matmul(inputs[i].swapaxes(-1, -2), delta, out=wgrads[i])
        np.add.reduce(delta, axis=-2, out=bgrads[i])
        if i > 0:
            delta = delta @ wts[i]


class DenseNet:
    """Ordered dense layers: ReLU after every layer but the last, whose
    outputs are the logits, one per class.

    The parameters live in one float64 buffer, `params`: every layer's
    weights in layer order, then every layer's biases. Each `layer.w` and
    `layer.b` is a view into it, and `layout` holds the layers' weight
    shapes. The constructor copies the given layers' values into a fresh
    buffer; a net in a seed stack views the stack's row instead (`_adopt`).
    Write parameters in place (`layer.w[...] = ...`); a rebound `layer.w` or
    `layer.b`, even to another view of the same buffer, is not the view the net
    trains: sgd_step raises ShapeError for it. A gradient or velocity is an
    array shaped like `params`; `_views(g, layout)` gives its layer views.
    """

    def __init__(self, layers: list[Layer]):
        if not layers:
            raise ValueError("a network needs at least one layer")
        for i, layer in enumerate(layers):
            if i and layers[i - 1].out_dim != layer.in_dim:
                raise ShapeError(f"layer {i - 1} out_dim {layers[i - 1].out_dim} != "
                                 f"layer {i} in_dim {layer.in_dim}")
            if np.shape(layer.b) != (layer.out_dim,):
                raise ShapeError(f"layer {i} bias shape {np.shape(layer.b)} != ({layer.out_dim},)")
        self._pack(layers)

    def _pack(self, layers: list[Layer]) -> None:
        """Copy the layers' values into a fresh params buffer and view them."""
        self.layout = tuple(layer.w.shape for layer in layers)
        self.n_weights = sum(i * o for i, o in self.layout)
        ws, bs = [layer.w.ravel() for layer in layers], [layer.b for layer in layers]
        self._adopt(np.concatenate(ws + bs, dtype=np.float64))

    def _adopt(self, params: np.ndarray) -> None:
        """View params, a float64 vector in this layout (a stack's row, say), as the net's own."""
        self.params = params
        self._own = (params, *_views(params, self.layout))  # what sgd_step checks by identity
        self.layers = [Layer(w, b) for w, b in zip(*self._own[1:])]

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def num_classes(self) -> int:
        return self.layers[-1].out_dim

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute logits for a batch x of shape (n, in_dim)."""
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray):
        """Forward pass that also returns each layer's input: (logits, inputs)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.in_dim:
            raise ShapeError(f"input dim {x.shape[1]} != layer 0 in_dim {self.in_dim}")
        return _forward(self.layers, x)

    def clone(self) -> "DenseNet":
        """Copy with its own params buffer; mutations on either side do not
        affect the other."""
        return DenseNet(self.layers)

    def widen_output(self, extra: int) -> None:
        """Append `extra` zero-initialized logit columns to the final layer.

        Old-class logits are unchanged for every input. The parameters move
        to a new, larger params buffer, so a gradient or velocity built
        before has too few entries and sgd_step rejects it.
        """
        if extra < 1:
            raise ValueError("extra must be at least 1")
        last = self.layers[-1]
        self._pack(self.layers[:-1] + [Layer(np.hstack([last.w, np.zeros((last.in_dim, extra))]),
                                             np.concatenate([last.b, np.zeros(extra)]))])

    def save(self, path) -> None:
        """Write the checkpoint format: magic, dims, then raw float64 params."""
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<II", self.depth, self.num_classes))
            for i, layer in enumerate(self.layers):
                act = int(i < self.depth - 1)
                f.write(struct.pack("<IIBB", layer.in_dim, layer.out_dim, act, 0))
                f.write(np.ascontiguousarray(layer.w, dtype="<f8").tobytes())
                f.write(np.ascontiguousarray(layer.b, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "DenseNet":
        """Read a save() checkpoint; a truncated or padded file raises ValueError.

        Each layer header's activation id must be 1 (ReLU) on a hidden layer and
        0 on the last, and its has-mask flag byte must be 0: no layer carries a
        mask block. The header's num_classes must be the last layer's width.
        """
        with open(path, "rb") as f:
            magic = f.read(4)
            if magic != CHECKPOINT_MAGIC:
                raise ValueError(f"bad checkpoint magic {magic!r} at offset 0")
            depth, num_classes = struct.unpack("<II", read_exact(f, 8, "checkpoint header"))
            layers = []
            for i in range(depth):
                in_dim, out_dim, act, has_mask = struct.unpack(
                    "<IIBB", read_exact(f, 10, f"layer {i} header"))
                relu = int(i < depth - 1)
                if act != relu or has_mask:
                    raise ValueError(f"layer {i} header: activation id {act} must be {relu} "
                                     f"(1 hidden, 0 last) and has-mask flag {has_mask} must be 0")
                if not relu and out_dim != num_classes:
                    raise ValueError(f"checkpoint header: num_classes {num_classes} != "
                                     f"layer {i} out_dim {out_dim}")
                w = np.frombuffer(read_exact(f, 8 * in_dim * out_dim, f"layer {i} weights"),
                                  dtype="<f8").reshape(in_dim, out_dim)
                b = np.frombuffer(read_exact(f, 8 * out_dim, f"layer {i} bias"), dtype="<f8")
                layers.append(Layer(w, b))
            if f.read(1):
                raise ValueError(f"trailing bytes after layer {depth - 1} at offset {f.tell() - 1}")
        return cls(layers)


def build_net(in_dim: int, hidden: list[int], num_classes: int,
              seed: int | list[int]) -> DenseNet:
    """He-uniform initialized MLP: hidden widths, then num_classes logits.

    seed is passed to np.random.default_rng as is: an int or an entropy list.
    """
    rng = np.random.default_rng(seed)
    dims = [in_dim] + list(hidden) + [num_classes]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
        layers.append(Layer(w, b))
    return DenseNet(layers)


def sgd_step(net: DenseNet, grads: np.ndarray, velocity: np.ndarray, lr: float,
             momentum: float, weight_decay: float, buf: np.ndarray | None = None) -> None:
    """In-place momentum SGD update over the whole params buffer.

    grads, velocity and buf are float64 arrays shaped like net.params, in its
    layout. Per entry: v = momentum * v + (g + weight_decay * w), then
    w -= lr * v; weight decay applies to weights only. velocity holds the
    momentum, updated in place: start from np.zeros_like(net.params). buf (a
    fresh one if None) takes the intermediates. Raises ShapeError naming the
    argument when grads, velocity or buf does not fit (as for a velocity built
    before widen_output), or naming the layer when its w or b (or net.params) is
    not the view the net made, as when rebound to another row of the same stack.
    """
    p, g, v = net.params, grads, velocity
    own, ws, bs = net._own
    for i, (layer, w, b) in enumerate(zip(net.layers, ws, bs)):
        if layer.w is not w or layer.b is not b or p is not own:
            raise ShapeError(f"layer {i} weights or biases are not views of net.params "
                             "(rebound instead of written in place)")
    buf = np.empty_like(p) if buf is None else buf
    for name, a in (("grads", g), ("velocity", v), ("buf", buf)):
        if not (isinstance(a, np.ndarray) and a.shape == p.shape and a.dtype == p.dtype):
            raise ShapeError(f"{name} must be a float64 array of shape {p.shape}, "
                             f"got {getattr(a, 'dtype', type(a).__name__)} of shape {np.shape(a)}")
    nw = net.n_weights
    v *= momentum
    np.multiply(p[:nw], weight_decay, out=buf[:nw])
    buf[:nw] += g[:nw]
    v[:nw] += buf[:nw]
    v[nw:] += g[nw:]
    np.multiply(v, lr, out=buf)
    p -= buf

"""Dense feed-forward network engine with manual backprop and momentum SGD.

All parameters are float64. A layer holds a weight matrix of shape
(in_dim, out_dim) and a bias vector of shape (out_dim,). A network keeps
every parameter in one flat buffer, every layer's weights first and then
every layer's biases; gradients and velocities use the same layout, so an
SGD step is a few whole-buffer operations.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .data import read_exact

RELU = "relu"
IDENTITY = "identity"

_ACTIVATIONS = (RELU, IDENTITY)

CHECKPOINT_MAGIC = b"SBN1"


class ShapeError(ValueError):
    """Raised when an input or gradient does not match the network's shapes."""


@dataclass
class Layer:
    """One dense layer: out = act(x @ w + b)."""

    w: np.ndarray
    b: np.ndarray
    activation: str

    @property
    def in_dim(self) -> int:
        return self.w.shape[0]

    @property
    def out_dim(self) -> int:
        return self.w.shape[1]


def _views(flat: np.ndarray, layout: tuple) -> tuple[tuple, tuple]:
    """Per-layer weight and bias views of flat: all weights first, then all
    biases, layer by layer. layout holds each layer's (in_dim, out_dim)."""
    ws, bs, off = [], [], 0
    for shape in layout:
        size = shape[0] * shape[1]
        ws.append(flat[off : off + size].reshape(shape))
        off += size
    for _, out_dim in layout:
        bs.append(flat[off : off + out_dim])
        off += out_dim
    return tuple(ws), tuple(bs)


class DenseNet:
    """Ordered dense layers ending in an identity-activation logit layer.

    The parameters live in one float64 buffer, `params`: every layer's
    weights in layer order, then every layer's biases. Each `layer.w` and
    `layer.b` is a view into it, and `layout` holds the layers' weight
    shapes. The constructor copies the given layers' values into a fresh
    buffer. Write parameters in place (`layer.w[...] = ...`); a rebound
    `layer.w` or `layer.b` is no longer part of `params`, and sgd_step
    raises ShapeError for it.
    """

    def __init__(self, layers: list[Layer], num_classes: int):
        if not layers:
            raise ValueError("a network needs at least one layer")
        for i in range(len(layers) - 1):
            if layers[i].out_dim != layers[i + 1].in_dim:
                raise ShapeError(
                    f"layer {i} out_dim {layers[i].out_dim} != "
                    f"layer {i + 1} in_dim {layers[i + 1].in_dim}"
                )
        if layers[-1].activation != IDENTITY:
            raise ValueError("final layer must use the identity activation")
        if layers[-1].out_dim != num_classes:
            raise ShapeError("final out_dim must equal num_classes")
        for i, layer in enumerate(layers):
            if np.shape(layer.b) != (layer.out_dim,):
                raise ShapeError(f"layer {i} bias shape {np.shape(layer.b)} != ({layer.out_dim},)")
        self.num_classes = num_classes
        self._pack(layers)

    def _pack(self, layers: list[Layer]) -> None:
        """Copy the layers' values into a fresh params buffer and view them."""
        self.layout = tuple(layer.w.shape for layer in layers)
        self.n_weights = sum(i * o for i, o in self.layout)
        self.params = np.empty(self.n_weights + sum(o for _, o in self.layout))
        ws, bs = _views(self.params, self.layout)
        for layer, w, b in zip(layers, ws, bs):
            w[...] = layer.w
            b[...] = layer.b
        self.layers = [Layer(w, b, layer.activation) for layer, w, b in zip(layers, ws, bs)]

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def depth(self) -> int:
        return len(self.layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute logits for a batch x of shape (n, in_dim)."""
        return self.forward_cached(x)[0]

    def forward_cached(self, x: np.ndarray):
        """Forward pass that also returns each layer's input: (logits, inputs)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.in_dim:
            raise ShapeError(
                f"input dim {x.shape[1]} != layer 0 in_dim {self.in_dim}"
            )
        inputs = []
        h = x
        for layer in self.layers:
            inputs.append(h)
            z = h @ layer.w + layer.b
            h = np.maximum(z, 0.0) if layer.activation == RELU else z
        return h, inputs

    def backward(self, x: np.ndarray, upstream: np.ndarray, cache=None) -> "GradientSet":
        """Backpropagate d(loss)/d(logits) to per-parameter gradients.

        cache is the forward_cached(x) result for the current parameters;
        without it the forward pass is recomputed.
        """
        logits, inputs = self.forward_cached(x) if cache is None else cache
        upstream = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
        if upstream.shape != logits.shape:
            raise ShapeError(
                f"upstream shape {upstream.shape} != logits shape {logits.shape}"
            )
        grads = GradientSet(np.empty_like(self.params), self.layout)
        wgrads, bgrads = grads.wgrads, grads.bgrads
        delta = upstream
        for i in range(self.depth - 1, -1, -1):
            layer = self.layers[i]
            if layer.activation == RELU:
                # a ReLU layer's output is the next input; relu(z) > 0 exactly where z > 0
                delta = delta * (inputs[i + 1] > 0)
            np.matmul(inputs[i].T, delta, out=wgrads[i])
            delta.sum(axis=0, out=bgrads[i])
            if i > 0:
                delta = delta @ layer.w.T
        return grads

    def clone(self) -> "DenseNet":
        """Copy with its own params buffer; mutations on either side do not
        affect the other."""
        return DenseNet(self.layers, self.num_classes)

    def widen_output(self, extra: int) -> None:
        """Append `extra` zero-initialized logit columns to the final layer.

        Old-class logits are unchanged for every input. The parameters move
        to a new params buffer, so a GradientSet built before (a velocity)
        no longer fits and sgd_step rejects it.
        """
        if extra < 1:
            raise ValueError("extra must be at least 1")
        last = self.layers[-1]
        widened = Layer(np.hstack([last.w, np.zeros((last.in_dim, extra))]),
                        np.concatenate([last.b, np.zeros(extra)]), last.activation)
        self._pack(self.layers[:-1] + [widened])
        self.num_classes += extra

    def save(self, path) -> None:
        """Write the checkpoint format: magic, dims, then raw float64 params."""
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<II", self.depth, self.num_classes))
            for layer in self.layers:
                act = 0 if layer.activation == IDENTITY else 1
                f.write(struct.pack("<IIBB", layer.in_dim, layer.out_dim, act, 0))
                f.write(np.ascontiguousarray(layer.w, dtype="<f8").tobytes())
                f.write(np.ascontiguousarray(layer.b, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "DenseNet":
        """Read a save() checkpoint; a truncated or padded file raises ValueError.

        Each layer header keeps a has-mask flag byte, which must be 0: no
        layer carries a mask block.
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
                if act > 1 or has_mask:
                    raise ValueError(f"layer {i} header: activation id {act} must be 0 or 1 "
                                     f"and has-mask flag {has_mask} must be 0")
                w = np.frombuffer(read_exact(f, 8 * in_dim * out_dim, f"layer {i} weights"),
                                  dtype="<f8").reshape(in_dim, out_dim)
                b = np.frombuffer(read_exact(f, 8 * out_dim, f"layer {i} bias"), dtype="<f8")
                layers.append(Layer(w, b, RELU if act else IDENTITY))
            if f.read(1):
                raise ValueError(f"trailing bytes after layer {depth - 1} at offset {f.tell() - 1}")
        return cls(layers, num_classes)


class GradientSet:
    """Per-layer weight and bias gradients, or sgd_step's velocity.

    `flat` is one buffer in its network's params layout, and `layout` is
    that network's layout. `wgrads` and `bgrads` are tuples of views into
    flat, so edit them in place (`grads.wgrads[i][...] = g`); rebinding an
    entry raises TypeError.
    """

    __slots__ = ("flat", "layout", "_w", "_b")

    def __init__(self, flat: np.ndarray, layout: tuple):
        self.flat = flat
        self.layout = layout
        self._w, self._b = _views(flat, layout)

    @property
    def wgrads(self) -> tuple[np.ndarray, ...]:
        return self._w

    @property
    def bgrads(self) -> tuple[np.ndarray, ...]:
        return self._b

    @classmethod
    def zeros(cls, net: DenseNet) -> "GradientSet":
        return cls(np.zeros_like(net.params), net.layout)


def build_net(in_dim: int, hidden: list[int], num_classes: int,
              seed: int | list[int]) -> DenseNet:
    """He-uniform initialized MLP: ReLU hidden layers, identity logit layer.

    seed is passed to np.random.default_rng as is: an int or an entropy list.
    """
    rng = np.random.default_rng(seed)
    dims = [in_dim] + list(hidden) + [num_classes]
    layers = []
    for i in range(len(dims) - 1):
        fan_in = dims[i]
        limit = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-limit, limit, size=(dims[i], dims[i + 1]))
        b = np.zeros(dims[i + 1])
        act = RELU if i < len(dims) - 2 else IDENTITY
        layers.append(Layer(w, b, act))
    return DenseNet(layers, num_classes)


def sgd_step(net: DenseNet, grads: GradientSet, velocity: GradientSet, lr: float,
             momentum: float, weight_decay: float) -> None:
    """In-place momentum SGD update over the whole params buffer.

    Per entry: v = momentum * v + (g + weight_decay * w), then w -= lr * v;
    weight decay applies to weights only. velocity holds the momentum
    buffers, updated in place: start from GradientSet.zeros(net). Raises
    ShapeError naming the layer when grads or velocity do not fit net's
    layout (as for a velocity built before widen_output), or when a
    layer's w or b is no longer a view of net.params.
    """
    p, g, v = net.params, grads.flat, velocity.flat
    for i, layer in enumerate(net.layers):
        if layer.w.base is not p or layer.b.base is not p:
            raise ShapeError(f"layer {i} weights or biases are not views of net.params "
                             "(rebound instead of written in place)")
    if not grads.layout == velocity.layout == net.layout:
        i = next((i for i, shape in enumerate(net.layout)
                  if not grads.layout[i:i + 1] == velocity.layout[i:i + 1] == (shape,)), net.depth)
        raise ShapeError(f"gradient or velocity shape mismatch at layer {i}")
    nw = net.n_weights
    v *= momentum
    if weight_decay:
        decayed = weight_decay * p[:nw]
        decayed += g[:nw]
        v[:nw] += decayed
        v[nw:] += g[nw:]
    else:
        v += g
    p -= lr * v

"""Dense feed-forward network engine: the forward and backward kernels and
momentum SGD.

All parameters are float64. A layer holds a weight matrix of shape
(in_dim, out_dim) and a bias vector of shape (out_dim,). A network is its
layers' shapes and one flat buffer of every parameter, every layer's weights
first and then every layer's biases; its layers are views of that buffer,
made on each read. A gradient or a velocity is a float64 array shaped like
the buffer, with the same layout, so an SGD step is a few whole-buffer
operations.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .data import read_exact

CHECKPOINT_MAGIC = b"SBN2"


class ShapeError(ValueError):
    """Raised when an input or gradient does not match the network's shapes."""


@dataclass
class Layer:
    """One dense layer: x @ w + b, then ReLU unless it is the network's last. w and b
    are bound once: rebinding either to another array raises AttributeError; writes in
    place, layer.w[...] = ... or layer.w += d (w rebound to itself), go through."""

    w: np.ndarray
    b: np.ndarray

    def __setattr__(self, name, value):
        if getattr(self, name, value) is not value:
            raise AttributeError(f"layer.{name} is bound once: write it in place "
                                 f"(layer.{name}[...] = ...) instead of rebinding it")
        object.__setattr__(self, name, value)

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

    A net is its `layout`, the layers' weight shapes, and `params`, one float64
    vector: every layer's weights in layer order, then every layer's biases.
    The constructor copies the given layers' values into a fresh vector; a net
    in a seed stack is given the stack's row instead (`net.params = row`).
    `layers` derives a tuple of fresh Layer views of `params` on every read:
    write them in place (`layer.w[...] = ...`, `layer.w += d`). A gradient or
    velocity is an array shaped like `params`; `_views(g, layout)` gives its
    layer views.
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

    def _pack(self, layers) -> None:
        """Copy the layers' values into a fresh params vector in their layout."""
        self.layout = tuple(layer.w.shape for layer in layers)
        self.n_weights = sum(i * o for i, o in self.layout)  # params[:n_weights] are weights
        ws, bs = [layer.w.ravel() for layer in layers], [layer.b for layer in layers]
        self.params = np.concatenate(ws + bs, dtype=np.float64)

    @property
    def layers(self) -> tuple[Layer, ...]:
        """Fresh Layer views of params, one per layer, on every read."""
        return tuple(map(Layer, *_views(self.params, self.layout)))

    @property
    def in_dim(self) -> int:
        return self.layout[0][0]

    @property
    def depth(self) -> int:
        return len(self.layout)

    @property
    def num_classes(self) -> int:
        return self.layout[-1][1]

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
        *hidden, last = self.layers
        self._pack(hidden + [Layer(np.hstack([last.w, np.zeros((last.in_dim, extra))]),
                                   np.concatenate([last.b, np.zeros(extra)]))])

    def save(self, file) -> None:
        """Write the net's SBN2 record (magic, depth, the depth + 1 widths, then params)
        at the position of file, open for binary writing, or as a new file at a path."""
        if not hasattr(file, "write"):
            with open(file, "wb") as f:
                return self.save(f)
        widths = (self.in_dim, *(out_dim for _, out_dim in self.layout))
        file.write(CHECKPOINT_MAGIC + struct.pack(f"<{len(widths) + 1}I", self.depth, *widths))
        file.write(np.ascontiguousarray(self.params, dtype="<f8"))

    @classmethod
    def load(cls, path, step: int | None = None) -> "DenseNet":
        """The net of a checkpoint file's one record, or record `step` of save()'s records
        back to back (a run's steps 1..T); errors name the count, or record, part and offset."""
        nets = []
        with open(path, "rb") as f:
            while (magic := f.read(4)) or not nets:
                try:
                    if magic != CHECKPOINT_MAGIC:
                        raise ValueError(f"bad checkpoint magic {magic!r} at offset "
                                         f"{f.tell() - len(magic)}")
                    (depth,) = struct.unpack("<I", read_exact(f, 4, "checkpoint header"))
                    widths = struct.unpack(f"<{depth + 1}I",
                                           read_exact(f, 4 * (depth + 1), "checkpoint widths"))
                    shapes = list(enumerate(zip(widths[:-1], widths[1:])))  # (layer, (in, out))
                    ws = [np.frombuffer(read_exact(f, 8 * i * o, f"layer {li} weights"),
                                        dtype="<f8").reshape(i, o) for li, (i, o) in shapes]
                    bs = [np.frombuffer(read_exact(f, 8 * o, f"layer {li} bias"), dtype="<f8")
                          for li, (_, o) in shapes]
                except ValueError as exc:
                    raise ValueError(f"checkpoint record {len(nets) + 1}: {exc}") from None
                nets.append(cls(list(map(Layer, ws, bs))))
        if len(nets) > 1 and step not in range(1, len(nets) + 1):
            raise ValueError(f"checkpoint {path} holds {len(nets)} records; step {step} is not one")
        return nets[step - 1 if len(nets) > 1 else 0]


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
    before widen_output). net.params is the net's whole state: its layers are
    views of it that no one can rebind, so they need no check.
    """
    p, g, v = net.params, grads, velocity
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

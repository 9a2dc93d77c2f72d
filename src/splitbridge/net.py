"""Dense feed-forward network engine with manual backprop and momentum SGD.

All parameters are float64. A layer holds a weight matrix of shape
(in_dim, out_dim) and a bias vector of shape (out_dim,).
"""

from __future__ import annotations

import copy
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


class DenseNet:
    """Ordered dense layers ending in an identity-activation logit layer."""

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
        self.layers = layers
        self.num_classes = num_classes

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
        """Forward pass that also returns per-layer inputs and pre-activations."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.in_dim:
            raise ShapeError(
                f"input dim {x.shape[1]} != layer 0 in_dim {self.in_dim}"
            )
        inputs = []
        preacts = []
        h = x
        for layer in self.layers:
            inputs.append(h)
            z = h @ layer.w + layer.b
            preacts.append(z)
            h = np.maximum(z, 0.0) if layer.activation == RELU else z
        return h, inputs, preacts

    def backward(self, x: np.ndarray, upstream: np.ndarray, cache=None) -> "GradientSet":
        """Backpropagate d(loss)/d(logits) to per-parameter gradients.

        cache is the forward_cached(x) result for the current parameters;
        without it the forward pass is recomputed.
        """
        logits, inputs, preacts = self.forward_cached(x) if cache is None else cache
        upstream = np.atleast_2d(np.asarray(upstream, dtype=np.float64))
        if upstream.shape != logits.shape:
            raise ShapeError(
                f"upstream shape {upstream.shape} != logits shape {logits.shape}"
            )
        wgrads = [None] * self.depth
        bgrads = [None] * self.depth
        delta = upstream
        for i in range(self.depth - 1, -1, -1):
            layer = self.layers[i]
            if layer.activation == RELU:
                delta = delta * (preacts[i] > 0)
            wgrads[i] = inputs[i].T @ delta
            bgrads[i] = delta.sum(axis=0)
            if i > 0:
                delta = delta @ layer.w.T
        return GradientSet(wgrads, bgrads)

    def clone(self) -> "DenseNet":
        """Deep copy; mutations on either side do not affect the other."""
        return copy.deepcopy(self)

    def widen_output(self, extra: int) -> None:
        """Append `extra` zero-initialized logit columns to the final layer.

        Old-class logits are unchanged for every input.
        """
        if extra < 1:
            raise ValueError("extra must be at least 1")
        last = self.layers[-1]
        last.w = np.hstack([last.w, np.zeros((last.in_dim, extra))])
        last.b = np.concatenate([last.b, np.zeros(extra)])
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
                                  dtype="<f8").reshape(in_dim, out_dim).copy()
                b = np.frombuffer(read_exact(f, 8 * out_dim, f"layer {i} bias"),
                                  dtype="<f8").copy()
                layers.append(Layer(w, b, RELU if act else IDENTITY))
            if f.read(1):
                raise ValueError(f"trailing bytes after layer {depth - 1} at offset {f.tell() - 1}")
        return cls(layers, num_classes)


@dataclass
class GradientSet:
    """Per-layer weight and bias gradients, or sgd_step's velocity; shapes mirror a DenseNet."""

    wgrads: list[np.ndarray]
    bgrads: list[np.ndarray]

    @classmethod
    def zeros(cls, net: DenseNet) -> "GradientSet":
        return cls([np.zeros_like(l.w) for l in net.layers],
                   [np.zeros_like(l.b) for l in net.layers])


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
    """In-place momentum SGD update. velocity holds the momentum buffers,
    updated in place: start from GradientSet.zeros(net); one built before
    widen_output raises ShapeError."""
    for i, layer in enumerate(net.layers):
        gw = grads.wgrads[i]
        gb = grads.bgrads[i]
        vw, vb = velocity.wgrads[i], velocity.bgrads[i]
        if not (gw.shape == vw.shape == layer.w.shape and gb.shape == vb.shape == layer.b.shape):
            raise ShapeError(f"gradient or velocity shape mismatch at layer {i}")
        if weight_decay:
            gw = gw + weight_decay * layer.w
        vw *= momentum
        vw += gw
        vb *= momentum
        vb += gb
        layer.w -= lr * vw
        layer.b -= lr * vb

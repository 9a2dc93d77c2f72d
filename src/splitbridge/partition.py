"""Network partitioning: the adaptive split plan, cross-partition weight
groups, disconnection into a shared trunk plus two branches by zeroing the
cut weights, and the zero-bridge check at reconnection.

Layers are indexed 0-based. A plan covers layers split_index .. depth-1;
within each partitioned layer the old group takes the low output indices and
the new group the high ones, and the final layer is split by class ownership
(old classes low, new classes high). The groups are contiguous, so the cut of
a layer whose inputs are partitioned is two rectangular blocks of its weight
matrix: with a the old input width and b the old output width, w[:a, b:]
(old to new) and w[a:, :b] (new to old).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .net import DenseNet, Layer, ShapeError


@dataclass
class PartitionPlan:
    split_index: int            # first layer eligible for partitioning
    depth: int
    rho: float
    c_old: int
    c_new: int
    old_out: dict[int, np.ndarray] = field(default_factory=dict)  # partitioned layers only
    new_out: dict[int, np.ndarray] = field(default_factory=dict)
    groups: CrossGroups | None = None     # cut blocks, set by make_plan

    def is_partitioned(self, layer: int) -> bool:
        return layer in self.old_out

    def summary(self) -> dict:
        """JSON-ready record for the run manifest."""
        return {
            "split_index": self.split_index,
            "rho": self.rho,
            "c_old": self.c_old,
            "c_new": self.c_new,
            "layers": [
                {
                    "layer": li,
                    "shared": li not in self.old_out,
                    "old_size": int(self.old_out[li].size) if li in self.old_out else None,
                    "new_size": int(self.new_out[li].size) if li in self.new_out else None,
                }
                for li in range(self.split_index, self.depth)
            ],
        }


@dataclass
class CrossGroups:
    """Per layer with cross weights: the old-to-new and new-to-old blocks.

    blocks[li] is the pair ((rows, cols), (rows, cols)) of slices that select
    w[:a, b:] and w[a:, :b] of the layer's weight matrix, with a the old input
    width and b the old output width. Each slice carries its stop, so the
    pair also gives the matrix shape. per_layer derives the boolean view.
    """

    blocks: dict[int, tuple[tuple[slice, slice], tuple[slice, slice]]]

    @property
    def per_layer(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Boolean (on, no) selectors of each layer's weight matrix, built
        afresh from blocks on every read."""
        view = {}
        for li, (on_block, no_block) in self.blocks.items():
            shape = (no_block[0].stop, on_block[1].stop)
            on, no = np.zeros(shape, dtype=bool), np.zeros(shape, dtype=bool)
            on[on_block] = True
            no[no_block] = True
            view[li] = (on, no)
        return view

    def zero(self, mats) -> None:
        """Zero both cut blocks of each layer's matrix in mats (weights or gradients), in place."""
        for li, pair in self.blocks.items():
            for block in pair:
                mats[li][block] = 0.0


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def make_plan(net: DenseNet, split_index: int, c_old: int, c_new: int, rho: float) -> PartitionPlan:
    """Allocate old/new node groups for layers split_index..depth-1.

    Hidden-layer allocation follows |old| : |new| = rho*c_old : (1-rho)*c_old + c_new,
    rounded half-up on the new share and clamped so both groups keep at least
    one node. A layer whose new share falls below one node stays shared, and
    so does every layer below it: the trunk reaches up to the last shared
    layer. The final layer is always split by class ownership. The cross
    groups of the plan are computed once here, from net's shapes.
    """
    depth = net.depth
    if not (0 <= split_index < depth):
        raise ValueError(f"split_index {split_index} out of range for depth {depth}")
    if c_old < 1 or c_new < 1:
        raise ValueError("need c_old >= 1 and c_new >= 1")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if net.num_classes != c_old + c_new:
        raise ShapeError(
            f"net has {net.num_classes} outputs, expected c_old + c_new = {c_old + c_new}"
        )

    plan = PartitionPlan(split_index, depth, rho, c_old, c_new)
    new_share = (1.0 - rho) * c_old + c_new
    old_share = rho * c_old
    for li in range(split_index, depth - 1):
        width = net.layers[li].out_dim
        if width < 1:
            raise ValueError(f"layer {li} has zero width")
        n_new = _round_half_up(width * max(0.0, new_share) / (old_share + max(0.0, new_share)))
        if n_new < 1:
            plan.old_out.clear()  # the layers below join the shared trunk too
            plan.new_out.clear()
            continue  # stays shared: in neither old_out nor new_out
        n_new = min(n_new, width - 1)
        plan.old_out[li] = np.arange(0, width - n_new, dtype=np.int64)
        plan.new_out[li] = np.arange(width - n_new, width, dtype=np.int64)
    last = depth - 1
    plan.old_out[last] = np.arange(0, c_old, dtype=np.int64)
    plan.new_out[last] = np.arange(c_old, c_old + c_new, dtype=np.int64)
    plan.groups = cross_groups(plan, net)
    return plan


def cross_groups(plan: PartitionPlan, net: DenseNet) -> CrossGroups:
    """The two cut blocks of each partitioned layer whose inputs are partitioned.

    Raises ShapeError naming the layer unless the plan's old and new output
    groups of each partitioned layer together cover its out_dim exactly. The
    input widths then match as well: a layer's in_dim is the previous
    layer's out_dim.
    """
    if net.depth != plan.depth:
        raise ShapeError(f"plan covers {plan.depth} layers, net has {net.depth}")
    blocks = {}
    for li in range(plan.split_index, plan.depth):
        if not plan.is_partitioned(li):
            continue
        in_dim, out_dim = net.layers[li].w.shape
        b = plan.old_out[li].size
        n_out = b + plan.new_out[li].size
        if n_out != out_dim:
            raise ShapeError(f"layer {li}: plan groups cover {n_out} outputs, not {out_dim}")
        if not plan.is_partitioned(li - 1):
            continue  # inputs from the shared trunk: no weight crosses
        a = plan.old_out[li - 1].size
        blocks[li] = ((slice(0, a), slice(b, out_dim)), (slice(a, in_dim), slice(0, b)))
    return CrossGroups(blocks)


def disconnect(net: DenseNet, groups: CrossGroups) -> None:
    """Zero every cross-partition weight, in place.

    Afterwards the network computes the branched form: no path connects the
    old branch to the new branch above the shared trunk. Training keeps it
    that way only if the cut weights' gradients are zeroed too. Idempotent.
    """
    groups.zero([layer.w for layer in net.layers])


def bridge_reconnect(net: DenseNet, groups: CrossGroups) -> None:
    """Check the zero-bridge invariant before the cut weights train again.

    The cut weights re-enter the network at exactly 0.0, so reconnecting
    changes no logit; nothing is written. Raises ValueError naming the
    layer if a cut weight is not exactly 0.0.
    """
    for li, pair in groups.blocks.items():
        bad = sum(np.count_nonzero(net.layers[li].w[block]) for block in pair)
        if bad:
            raise ValueError(f"layer {li}: {bad} cut weights are not exactly 0.0 at "
                             "reconnection (never disconnected, or trained while cut)")


def extract_subnet(net: DenseNet, plan: PartitionPlan) -> DenseNet:
    """Standalone copy of the shared trunk plus the old branch: the bridge
    phase's distillation teacher.

    The result maps inputs to the old-class logits only; they equal the
    parent's old-class logits whenever the parent is disconnected under
    `plan`. Each partitioned layer contributes its block w[:a, :b], with b its
    old output width and a the previous layer's old output width, or the full
    in_dim when the layer reads the shared trunk.
    """
    layers = []
    for li, layer in enumerate(net.layers):
        if not plan.is_partitioned(li):
            layers.append(layer)
            continue
        a = plan.old_out[li - 1].size if plan.is_partitioned(li - 1) else layer.in_dim
        b = plan.old_out[li].size
        layers.append(Layer(layer.w[:a, :b], layer.b[:b], layer.activation))
    return DenseNet(layers, layers[-1].out_dim)

"""Network partitioning: the adaptive split plan, the one cut object of an
incremental step, disconnection into a shared trunk plus two branches by
zeroing the cut weights, and the zero-bridge check at reconnection.

Layers are indexed 0-based. A plan covers layers split_index .. depth-1;
within each partitioned layer the old group takes the low output indices and
the new group the high ones, and the final layer is split by class ownership
(old classes low, new classes high). The groups are contiguous, so a plan
keeps each group's width alone, and the cut of a layer whose inputs are
partitioned is two blocks of its weight matrix: with a the old input width
and b the old output width, w[:a, b:] (old to new) and w[a:, :b] (new to old).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .net import DenseNet, Layer, ShapeError


@dataclass
class PartitionPlan:
    """One step's split, which depends only on widths and class counts, so every
    seed of a stack shares it. blocks[li] is the pair of (rows, cols) slices of a
    layer's cut, w[:a, b:] and w[a:, :b]; each slice carries its stop, so the pair
    also gives the matrix shape. per_layer derives the boolean view."""

    split_index: int            # first layer eligible for partitioning
    depth: int
    rho: float
    old_size: dict[int, int] = field(default_factory=dict)  # widths; partitioned layers only
    new_size: dict[int, int] = field(default_factory=dict)
    blocks: dict[int, tuple[tuple[slice, slice], tuple[slice, slice]]] = field(
        default_factory=dict)

    def is_partitioned(self, layer: int) -> bool:
        return layer in self.old_size

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

    def cut(self, mats) -> list[np.ndarray]:
        """Views of every cut block of the per-layer matrices mats (weights or gradients,
        one network's or a stack's (S, in, out)), (..., rows, cols): training binds them."""
        return [mats[li][..., rows, cols] for li, pair in self.blocks.items()
                for rows, cols in pair]

    def summary(self) -> dict:
        """JSON-ready record for the run manifest."""
        return {
            "split_index": self.split_index,
            "rho": self.rho,
            "c_old": self.old_size[self.depth - 1],  # the final layer splits by class
            "c_new": self.new_size[self.depth - 1],
            "layers": [
                {
                    "layer": li,
                    "shared": li not in self.old_size,
                    "old_size": self.old_size.get(li),
                    "new_size": self.new_size.get(li),
                }
                for li in range(self.split_index, self.depth)
            ],
        }


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def make_plan(net: DenseNet, split_index: int, c_old: int, c_new: int, rho: float) -> PartitionPlan:
    """Allocate old/new node groups for layers split_index..depth-1.

    Hidden-layer allocation follows |old| : |new| = rho*c_old : (1-rho)*c_old + c_new,
    rounded half-up on the new share and clamped so the old group keeps at
    least one node. A layer left with no new node (a 1-wide one, too) stays
    shared, and so does every layer below it: the trunk reaches up to the last
    shared layer. The final layer is always split by class ownership. The cut
    blocks, plan.blocks, are built once here from the group widths and net's
    shapes; a layer that reads the shared trunk has none.
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

    plan = PartitionPlan(split_index, depth, rho)
    new_share = (1.0 - rho) * c_old + c_new
    old_share = rho * c_old
    for li in range(split_index, depth - 1):
        width = net.layers[li].out_dim
        n_new = _round_half_up(width * max(0.0, new_share) / (old_share + max(0.0, new_share)))
        n_new = min(n_new, width - 1)
        if n_new < 1:
            plan.old_size.clear()  # the layers below join the shared trunk too
            plan.new_size.clear()
            continue  # stays shared: in neither old_size nor new_size
        plan.old_size[li] = width - n_new
        plan.new_size[li] = n_new
    plan.old_size[depth - 1] = c_old
    plan.new_size[depth - 1] = c_new

    for li, b in plan.old_size.items():
        if plan.is_partitioned(li - 1):  # else its inputs come from the shared trunk
            a = plan.old_size[li - 1]
            in_dim, out_dim = net.layers[li].w.shape
            plan.blocks[li] = ((slice(0, a), slice(b, out_dim)), (slice(a, in_dim), slice(0, b)))
    return plan


def zero(views) -> None:
    """Write 0.0 into every view, plan.cut's, say, in place."""
    for view in views:
        view.fill(0.0)


def disconnect(net: DenseNet, plan: PartitionPlan) -> None:
    """Zero every cross-partition weight, in place.

    Afterwards the network computes the branched form: no path connects the
    old branch to the new branch above the shared trunk. Training keeps it
    that way only if the cut weights' gradients are zeroed too. Idempotent.
    """
    zero(plan.cut([layer.w for layer in net.layers]))


def bridge_reconnect(net: DenseNet, plan: PartitionPlan) -> None:
    """Check the zero-bridge invariant before the cut weights train again.

    The cut weights re-enter the network at exactly 0.0, so reconnecting
    changes no logit; nothing is written. Raises ValueError naming the
    layer if a cut weight is not exactly 0.0.
    """
    for li, pair in plan.blocks.items():
        bad = sum(np.count_nonzero(net.layers[li].w[block]) for block in pair)
        if bad:
            raise ValueError(f"layer {li}: {bad} cut weights are not exactly 0.0 at "
                             "reconnection (never disconnected, or trained while cut)")


def extract_subnet(layers: list[Layer], plan: PartitionPlan) -> list[Layer]:
    """Views of the shared trunk plus the old branch in layers, a network's or a
    stack's: the bridge phase's distillation teacher, for _forward.

    They map inputs to the old-class logits only; these equal the parent's
    old-class logits whenever the parent is disconnected under `plan`. Each
    partitioned layer contributes its block w[..., :a, :b], with b its old
    output width and a the previous layer's old output width, or all its
    inputs when the layer reads the shared trunk; the trunk's layers are whole.
    """
    old = [plan.old_size.get(li) for li in range(len(layers))]  # None: shared
    return [Layer(layer.w[..., :a, :b], layer.b[..., :b])
            for layer, a, b in zip(layers, [None] + old, old)]

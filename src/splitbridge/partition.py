"""Network partitioning: the adaptive split plan, cross-partition weight
groups, disconnection into a shared trunk plus two branches by zeroing the
cut weights, and the zero-bridge check at reconnection.

Layers are indexed 0-based. A plan covers layers split_index .. depth-1;
within each partitioned layer the old group takes the low output indices and
the new group the high ones, and the final layer is split by class ownership
(old classes low, new classes high).
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
    groups: CrossGroups | None = None     # cut selectors, set by make_plan

    def is_partitioned(self, layer: int) -> bool:
        return layer in self.old_out

    def input_groups(self, layer: int):
        """Old/new input-node groups of `layer` (output groups of layer-1).

        Empty when the previous layer belongs to the shared trunk, as for the
        first partitioned layer.
        """
        prev = layer - 1
        if prev not in self.old_out:
            empty = np.array([], dtype=np.int64)
            return empty, empty
        return self.old_out[prev], self.new_out[prev]

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
    """Per layer with cross weights: selectors of the old-to-new and new-to-old ones.

    per_layer holds boolean (on, no) selectors of the layer's weight matrix;
    flat holds the same groups as indices into the flattened matrix
    (np.flatnonzero of each selector, in the same order).
    """

    per_layer: dict[int, tuple[np.ndarray, np.ndarray]]
    flat: dict[int, tuple[np.ndarray, np.ndarray]] = field(init=False)

    def __post_init__(self):
        self.flat = {li: (np.flatnonzero(on), np.flatnonzero(no))
                     for li, (on, no) in self.per_layer.items()}

    def cuts(self) -> list[tuple[int, np.ndarray]]:
        """(layer, selector of every cross weight) for each layer with cross weights."""
        return [(li, on | no) for li, (on, no) in self.per_layer.items()]


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def make_plan(net: DenseNet, split_index: int, c_old: int, c_new: int, rho: float) -> PartitionPlan:
    """Allocate old/new node groups for layers split_index..depth-1.

    Hidden-layer allocation follows |old| : |new| = rho*c_old : (1-rho)*c_old + c_new,
    rounded half-up on the new share and clamped so both groups keep at least
    one node. A layer whose new share falls below one node stays shared. The
    final layer is always split by class ownership. The cross groups of the
    plan are computed once here, from net's shapes.
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
    """Enumerate the weights connecting opposite partitions in each layer."""
    per_layer = {}
    for li in range(plan.split_index, plan.depth):
        if not plan.is_partitioned(li):
            continue
        in_old, in_new = plan.input_groups(li)
        if not in_old.size:
            continue  # inputs from the shared trunk: no weight crosses
        layer = net.layers[li]
        out_old = plan.old_out[li]
        out_new = plan.new_out[li]
        if out_old.size and out_old.max() >= layer.out_dim:
            raise ShapeError(f"plan group exceeds layer {li} width")
        on = np.zeros(layer.w.shape, dtype=bool)
        no = np.zeros(layer.w.shape, dtype=bool)
        on[np.ix_(in_old, out_new)] = True
        no[np.ix_(in_new, out_old)] = True
        per_layer[li] = (on, no)
    return CrossGroups(per_layer)


def disconnect(net: DenseNet, groups: CrossGroups) -> None:
    """Zero every cross-partition weight, in place.

    Afterwards the network computes the branched form: no path connects the
    old branch to the new branch above the shared trunk. Training keeps it
    that way only if the cut weights' gradients are zeroed too. Idempotent.
    """
    for li, cut in groups.cuts():
        net.layers[li].w[cut] = 0.0


def bridge_reconnect(net: DenseNet, groups: CrossGroups) -> None:
    """Check the zero-bridge invariant before the cut weights train again.

    The cut weights re-enter the network at exactly 0.0, so reconnecting
    changes no logit; nothing is written. Raises ValueError naming the
    layer if a cut weight is not exactly 0.0.
    """
    for li, cut in groups.cuts():
        bad = np.count_nonzero(net.layers[li].w[cut])
        if bad:
            raise ValueError(f"layer {li}: {bad} cut weights are not exactly 0.0 at "
                             "reconnection (never disconnected, or trained while cut)")


def extract_subnet(net: DenseNet, plan: PartitionPlan) -> DenseNet:
    """Standalone copy of the shared trunk plus the old branch: the bridge
    phase's distillation teacher.

    The result maps inputs to the old-class logits only; they equal the
    parent's old-class logits whenever the parent is disconnected under
    `plan`.
    """
    layers = []
    for li, layer in enumerate(net.layers):
        if not plan.is_partitioned(li):
            layers.append(layer)
            continue
        in_idx = plan.input_groups(li)[0]
        if in_idx.size == 0:
            in_idx = np.arange(layer.in_dim, dtype=np.int64)
        out_idx = plan.old_out[li]
        layers.append(Layer(layer.w[np.ix_(in_idx, out_idx)], layer.b[out_idx], layer.activation))
    return DenseNet(layers, layers[-1].out_dim)

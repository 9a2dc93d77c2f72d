"""Split-and-Bridge class-incremental learning on small dense networks.

Library layout:
  net        dense MLP engine: forward, manual backprop, momentum SGD
  losses     CE, temperature KD, localized CE, composite mix, sparsity penalty
  partition  adaptive split plans, disconnection, the zero-bridge check
  engine     incremental loop over one Pool per step, exemplar memory, baselines
  data       synthetic / IDX / CSV datasets and task splits
  metrics    five-way accuracy decomposition
  runner     experiment sweeps with JSONL/CSV outputs
  cli        command-line interface
"""

from .data import LabeledDataset, Task, TaskSequence, gen_synthetic, load_idx, split_tasks
from .engine import SchemeConfig, run_sequence, update_exemplars
from .losses import (
    TaskRange,
    ce_loss,
    kd_loss,
    lambda_schedule,
    lce_loss,
    softmax,
    sparsify_penalty,
    std_composite_loss,
)
from .metrics import EvalReport, average_incremental_accuracy, evaluate
from .net import DenseNet, Layer, build_net, sgd_step
from .partition import (
    CrossGroups,
    PartitionPlan,
    bridge_reconnect,
    cross_groups,
    disconnect,
    extract_subnet,
    make_plan,
)

__version__ = "0.1.0"

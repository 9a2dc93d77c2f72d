"""Split-and-Bridge class-incremental learning on small dense networks.

Library layout:
  net        dense MLP engine: forward, manual backprop, momentum SGD
  losses     CE and temperature-KD kernels, softmax, sparsity penalty
  partition  adaptive split plans and their cut blocks, disconnection, the zero-bridge check
  engine     incremental loop for a stack of seeds, one Pool per step, phase losses
  data       synthetic / IDX / CSV datasets, task splits and class windows (TaskRange)
  metrics    per-step accuracy decomposition, as the dict a manifest stores
  runner     experiment sweeps, one seed stack per cell group, with JSONL/CSV outputs
  cli        command-line interface
"""

from .data import (LabeledDataset, Task, TaskRange, TaskSequence, gen_synthetic, load_idx,
                   split_tasks)
from .engine import SchemeConfig, run_sequence, update_exemplars
from .losses import lambda_schedule, softmax, sparsify_penalty
from .metrics import average_incremental_accuracy, evaluate
from .net import DenseNet, Layer, build_net, sgd_step
from .partition import PartitionPlan, bridge_reconnect, disconnect, extract_subnet, make_plan

__version__ = "0.1.0"

"""Walk through one split-and-bridge incremental step in slow motion.

A small network learns the first four classes, then meets four more. We watch
the three mechanical stages of the step:

  1. sparsify: a group-norm penalty shrinks the weights that cross between the
     old and new node partitions;
  2. disconnect: those cross weights are cut outright and each branch trains
     alone, so the new classes cannot trample the old representation;
  3. bridge: the cut weights come back at exactly zero and the whole network
     fine-tunes under distillation from the old branch.

Along the way we print the cross-partition weight norm and verify the two
isolation guarantees that make the phases meaningful.
"""

import numpy as np

from splitbridge.data import gen_synthetic, split_tasks
from splitbridge.engine import (
    Pool,
    SchemeConfig,
    run_bridge_phase,
    run_first_task,
    run_split_phase,
    update_exemplars,
)
from splitbridge.losses import sparsify_penalty
from splitbridge.metrics import evaluate
from splitbridge.net import build_net
from splitbridge.partition import bridge_reconnect, disconnect


def main():
    train, test = gen_synthetic(8, 16, 200, 100, seed=1, mean_radius=4.0)
    seq = split_tasks(train, test, 2, seed=1)
    cfg = SchemeConfig(
        scheme="sb", hidden=(16, 16, 16, 16), split_index=2,
        epochs_sparsify=60,
        memory_capacity=24, seed=0,
    )

    net = build_net(seq.feature_dim, list(cfg.hidden), 4, cfg.seed)
    run_first_task([net], seq.tasks[0].train, [cfg])  # a stack of one seed
    rep = evaluate(net, seq.tasks[:1], 1)
    print(f"task 1 trained: accuracy {rep['overall_acc']:.3f} on 4 classes")

    d1 = seq.tasks[0].train
    mem = update_exemplars(d1.subset(slice(0, 0)), d1, cfg.memory_capacity, cfg.seed + 1)
    # the training pool is task 2's data plus the exemplars; the task-1
    # model's soft labels on it, taken before the output layer widens, are
    # the only teacher the split phase reads
    pool = Pool.build(seq.tasks[1], mem, net, cfg)
    net.widen_output(4)

    net, plan, groups, diag = run_split_phase(net, pool, cfg, step=2)
    print(f"\nsplit phase (layers {plan.split_index}..{plan.depth - 1} partitioned):")
    for li in sorted(plan.old_size):
        print(f"  layer {li}: {plan.old_size[li]} old nodes, "
              f"{plan.new_size[li]} new nodes")
    print(f"  cross-partition norm {diag['cross_norm_start']:.2f} -> "
          f"{diag['cross_norm_at_disconnect']:.2f} after sparsification")
    # the penalty at gamma = 1 is the summed cross-partition Frobenius norm
    cross_norm = sparsify_penalty(net, plan, 1.0)
    print(f"  cross norm after disconnect: {cross_norm:.4f} (exactly 0)")

    # isolation check: pushing hard on the new branch cannot move old logits
    probe = np.random.default_rng(9).standard_normal((50, seq.feature_dim))
    old_logits = net.forward(probe)[:, :4]
    # (columns also hold cut weights, so the cut is re-applied after each shove)
    def shove(delta):
        for li, b in plan.old_size.items():  # the new group: every column from b on
            net.layers[li].w[:, b:] += delta
        disconnect(net, groups)

    shove(1.0)
    moved = np.abs(net.forward(probe)[:, :4] - old_logits).max()
    print(f"  old logits moved by {moved} after shoving every new-branch weight")
    shove(-1.0)

    # reconnecting at zero must not change a single bit of any logit;
    # bridge_reconnect raises if any cut weight is not exactly 0.0
    branched = net.forward(probe)
    preview = net.clone()
    bridge_reconnect(preview, groups)
    print("\nbridge phase: cut weights re-enabled at zero, composite loss trained")
    print(f"  zero-bridge logits bit-identical to branched logits: "
          f"{np.array_equal(preview.forward(probe), branched)}")
    run_bridge_phase([net], [plan], pool, [cfg], step=2)

    rep = evaluate(net, seq.tasks, 2)
    print(f"\nfinal step-2 metrics over all 8 classes:")
    print(f"  overall {rep['overall_acc']:.3f}  old {rep['old_acc']:.3f}  "
          f"new {rep['new_acc']:.3f}")
    print(f"  intra-old {rep['intra_old_acc']:.3f}  intra-new {rep['intra_new_acc']:.3f}")


if __name__ == "__main__":
    main()

"""Command-line entry point.

Subcommands: run (single experiment), matrix (full sweep), eval (metrics from
a checkpoint plus dataset), gen-data (emit synthetic datasets), and
replicate-table1 (the two-task CE-only vs KD+CE accuracy decomposition).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import engine, runner
from .data import INT, OBJECT, check, gen_synthetic, must_be, save_csv
from .metrics import evaluate
from .net import DenseNet


RUN_KEYS = ("benchmark", "scheme", "tasks", "seed", "config")
MATRIX_KEYS = ("benchmark", "schemes", "task_counts", "seeds", "config")


def _load_config(path, keys) -> dict:
    try:
        with open(path) as f:
            cfg = json.load(f)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config parse error in {path} at line {exc.lineno}: {exc.msg}")
    for key in (None, "benchmark", "config"):  # None: the top level, checked first
        check(f"config {path}: {repr(key) if key else 'the top level'}",
              cfg if key is None else cfg.get(key, {}), OBJECT)
    for key in sorted(cfg.keys() - keys):
        raise ValueError(f"config {path}: unknown top-level key {key!r}, "
                         f"expected one of {', '.join(keys)}")
    return cfg


def _add_override_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int)
    p.add_argument("--scheme", choices=engine.SCHEMES)
    p.add_argument("--tasks", type=int)
    p.add_argument("--rho", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--memory-size", type=int)


def _apply_overrides(cfg: dict, args, matrix: bool = False) -> dict:
    """Merge the override flags into a run config, or into a matrix config,
    where --seed/--scheme/--tasks replace the seeds/schemes/task_counts axes."""
    cfg = {**cfg, "config": dict(cfg.get("config", {}))}
    for flag, axis in (("seed", "seeds"), ("scheme", "schemes"), ("tasks", "task_counts")):
        v = getattr(args, flag)
        if v is not None:
            cfg.update({axis: [v]} if matrix else {flag: v})
    for flag, key in (("rho", "rho"), ("gamma", "gamma"), ("tau", "tau"),
                      ("memory_size", "memory_capacity")):
        v = getattr(args, flag)
        if v is not None:
            cfg["config"][key] = v
    return cfg


def _cmd_run(args) -> int:
    cfg = _apply_overrides(_load_config(args.config, RUN_KEYS) if args.config else {}, args)
    manifest = runner.run_experiment(cfg.get("benchmark", {}), cfg.get("scheme", "sb"),
                                     cfg.get("tasks", 2), cfg.get("seed", 0),
                                     cfg.get("config", {}), out_dir=args.out)
    for rep in manifest["reports"]:
        print(f"step {rep['step']}: overall {rep['overall_acc']:.4f} "
              f"old {rep['old_acc']:.4f} new {rep['new_acc']:.4f} "
              f"intra-old {rep['intra_old_acc']:.4f} intra-new {rep['intra_new_acc']:.4f}")
    if manifest["avg_incremental_acc"] is not None:
        print(f"avg incremental acc (steps >= 2): {manifest['avg_incremental_acc']:.4f}")
    return 0


def _cmd_matrix(args) -> int:
    matrix = _apply_overrides(_load_config(args.config, MATRIX_KEYS), args, matrix=True)
    code = runner.run_matrix(matrix, args.out)
    print(f"wrote {Path(args.out) / 'rows.jsonl'} and summary.csv")
    return code


def _cmd_eval(args) -> int:
    step = args.step if args.step is not None else args.tasks
    if not 1 <= step <= args.tasks:  # before any checkpoint record is read
        raise must_be("--step", step, f"in 1..{args.tasks} (--tasks)")
    net = DenseNet.load(args.checkpoint, step)  # a file of several records: step's
    keys = dict.fromkeys(RUN_KEYS + MATRIX_KEYS)  # a run's or a matrix's config
    bench = _load_config(args.config, keys).get("benchmark", {}) if args.config else {}
    seq = runner.make_benchmark(bench, args.tasks)
    report = evaluate(net, seq.tasks[:step])
    print(json.dumps(report, indent=2))
    return 0


def _cmd_gen_data(args) -> int:
    train, test = gen_synthetic(
        num_classes=args.classes,
        feature_dim=args.dim,
        train_per_class=args.train_per_class,
        test_per_class=args.test_per_class,
        seed=args.seed,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_csv(train, out / "train.csv")
    save_csv(test, out / "test.csv")
    print(f"wrote {out / 'train.csv'} ({len(train)} rows) and "
          f"{out / 'test.csv'} ({len(test)} rows)")
    return 0


def _cmd_replicate_table1(args) -> int:
    check("--seeds", args.seeds, INT, 1)
    seeds = list(range(args.seeds))
    tables = {}
    for scheme in ("ce", "std"):
        rows = [m["reports"][-1] for m in runner.run_cells(
            runner.DEFAULT_BENCHMARK, scheme, 2, seeds, {"memory_capacity": args.memory_size})]
        tables[scheme] = {k: float(np.mean([r[k] for r in rows])) for k in runner.METRIC_KEYS}
    header = f"{'loss':<10}" + "".join(f"{k:>16}" for k in runner.METRIC_KEYS)
    print(header)
    for scheme, label in (("ce", "CE"), ("std", "KD+CE")):
        cells = "".join(f"{100 * tables[scheme][k]:>15.2f}%" for k in runner.METRIC_KEYS)
        print(f"{label:<10}{cells}")
    deltas = "".join(
        f"{100 * (tables['std'][k] - tables['ce'][k]):>+15.2f}%" for k in runner.METRIC_KEYS
    )
    print(f"{'delta':<10}{deltas}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="splitbridge",
                                     description="Incremental-learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment from a config file")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output directory for the checkpoint file and manifest")
    _add_override_flags(p)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("matrix", help="run a scheme x tasks x seeds sweep")
    p.add_argument("--config", required=True, help="JSON matrix config")
    p.add_argument("--out", required=True, help="output directory")
    _add_override_flags(p)
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("eval", help="metrics from a checkpoint and dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="JSON config with a benchmark section")
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--step", type=int, help="evaluate as of this step (default: tasks)")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("gen-data", help="emit a synthetic dataset as CSV")
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--train-per-class", type=int, default=200)
    p.add_argument("--test-per-class", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_data)

    p = sub.add_parser("replicate-table1",
                       help="two-task CE-only vs KD+CE accuracy decomposition")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds to average")
    p.add_argument("--memory-size", type=int, default=24)
    p.set_defaults(fn=_cmd_replicate_table1)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # bad values (ShapeError too), unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()

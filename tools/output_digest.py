#!/usr/bin/env python3
"""sha256 of every output file of a fixed set of runs.

    python tools/output_digest.py ROOT OUT

Imports splitbridge from ROOT/src only, writes the outputs under OUT (which
must be missing or empty) and prints sorted JSON mapping each output file,
relative to OUT, to its sha256. Running it on two source trees and comparing
the two maps shows which output bytes a change moved. One more entry,
`_environment`, sorts before every file: numpy's version, its BLAS, the CPU
core type OpenBLAS chose at load time (`OPENBLAS_CORETYPE` overrides it) and
its thread count. The bytes hold for one numpy build and one kernel, so a
compare of two digests names a kernel mismatch before the files it moves. The
runs use the caller's `OPENBLAS_NUM_THREADS`, 1 if it is unset, so a digest
at another thread count checks that the bytes do not depend on it. The runs:

- all four schemes on the two criterion-5 setups (synthetic 4 tasks and
  glyphs 5 tasks, hidden 32x4, memory 48), and again at memory 0;
- all four schemes on the width-128 synthetic 4-task cells;
- one run_matrix sweep: 4 schemes x tasks {2, 4} x 3 seeds of tiny cells;
- three sb edge cases on the tiny 2-task cells: gamma 0 (no sparsity penalty),
  split_index = len(hidden) (a plan without cut blocks) and a 1-wide hidden
  layer (make_plan's clamp leaves it shared, with the layers below it);
- two `splitbridge run` commands through cli_main, from OUT so that the
  manifests name relative paths: sb on a csv section (4 classes from
  gen-data, its files under OUT/cli/csv, no arrange_seed) and sb on a glyphs
  section that leaves num_classes and noise to their defaults, each 2 tasks
  of the tiny cells, with their stdout;
- the stdout of every demo.
"""

import os
import sys

# before numpy is imported: BLAS reads its thread count once, at load time
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.pop("SPLITBRIDGE_WORKERS", None)

import contextlib
import ctypes
import hashlib
import json
import subprocess
from pathlib import Path

SCHEMES = ("sb", "std", "ce", "dd")
SEED = 0
C5 = {"hidden": [32, 32, 32, 32], "memory_capacity": 48, "rho": 1.0}
WIDE = {"hidden": [128, 128, 128, 128], "memory_capacity": 48}
GLYPHS = {"source": "glyphs", "num_classes": 10, "side": 8, "train_per_class": 150,
          "test_per_class": 60, "data_seed": 1, "arrange_seed": 1, "noise": 0.6}
MATRIX_BENCH = {"num_classes": 4, "feature_dim": 6, "train_per_class": 30,
                "test_per_class": 15}
MATRIX = {"hidden": [10, 10, 10], "split_index": 1, "epochs_first": 4,
          "epochs_sparsify": 2, "epochs_branched": 2, "epochs_bridge": 2,
          "epochs_std": 4, "memory_capacity": 12}
EDGES = {"gamma0": {**MATRIX, "gamma": 0.0},
         "no_cut": {**MATRIX, "split_index": len(MATRIX["hidden"])},
         "one_wide": {**MATRIX, "hidden": [10, 1, 10]}}
CLI_BENCHES = {"csv": {"source": "csv", "train_csv": "cli/csv/train.csv",
                       "test_csv": "cli/csv/test.csv"},
               "glyphs": {"source": "glyphs", "side": 4, "train_per_class": 20,
                          "test_per_class": 8}}
# a function's symbols in a scipy-openblas or a plain OpenBLAS build, 64-bit ints or not
OPENBLAS_PREFIXES, OPENBLAS_SUFFIXES = ("scipy_openblas", "openblas"), ("64_", "")


def run_all(root: Path, out: Path) -> None:
    src = root / "src"
    sys.path.insert(0, str(src))
    from splitbridge import runner

    if Path(runner.__file__).resolve().parent != (src / "splitbridge").resolve():
        sys.exit(f"splitbridge imported from {runner.__file__}, not from {src}")
    cells = [("c5_synthetic", runner.DEFAULT_BENCHMARK, 4, C5),
             ("c5_glyphs", GLYPHS, 5, C5),
             ("c5_synthetic_mem0", runner.DEFAULT_BENCHMARK, 4, {**C5, "memory_capacity": 0}),
             ("c5_glyphs_mem0", GLYPHS, 5, {**C5, "memory_capacity": 0}),
             ("wide_synthetic", runner.DEFAULT_BENCHMARK, 4, WIDE)]
    for label, bench, tasks, overrides in cells:
        for scheme in SCHEMES:
            runner.run_experiment(bench, scheme, tasks, SEED, overrides,
                                  out / label / f"{scheme}_t{tasks}_s{SEED}")
    matrix = {"benchmark": MATRIX_BENCH, "schemes": list(SCHEMES), "task_counts": [2, 4],
              "seeds": [0, 1, 2], "config": MATRIX}
    if runner.run_matrix(matrix, out / "matrix") != 0:
        sys.exit("run_matrix reported failed cells")
    for label, overrides in EDGES.items():
        runner.run_experiment(MATRIX_BENCH, "sb", 2, SEED, overrides, out / "edge" / label)

    from splitbridge.cli import cli_main

    cwd = os.getcwd()
    os.chdir(out)
    try:
        with open("cli.out", "w") as stdout, contextlib.redirect_stdout(stdout):
            argv = ["gen-data", "--classes", "4", "--dim", "3", "--train-per-class", "20",
                    "--test-per-class", "5", "--out", "cli/csv"]
            if cli_main(argv) != 0:
                sys.exit("gen-data failed")
            for name, bench in CLI_BENCHES.items():
                config = Path("cli", f"{name}.json")
                config.write_text(json.dumps({"benchmark": bench, "config": MATRIX}))
                argv = ["run", "--tasks", "2", "--config", str(config), "--out", f"cli/{name}"]
                if cli_main(argv) != 0:
                    sys.exit(f"splitbridge run on the {name} section failed")
    finally:
        os.chdir(cwd)

    env = {**os.environ, "PYTHONPATH": str(src)}
    (out / "demos").mkdir()
    for demo in sorted((root / "demos").glob("*.py")):
        run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                             cwd=root, env=env, capture_output=True)
        if run.returncode:
            sys.stderr.buffer.write(run.stderr)
            sys.exit(f"demo {demo.name} exited with status {run.returncode}")
        (out / "demos" / f"{demo.name}.out").write_bytes(run.stdout)


def openblas(function: str, restype):
    """Call the no-argument `function` (get_corename, get_num_threads) of the
    OpenBLAS this process loaded, under any build's symbol for it; "unknown" if
    no loaded library has one."""
    maps = Path("/proc/self/maps")
    libs = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                   if "openblas" in line} if maps.exists() else ())
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for name in (f"{prefix}_{function}{suffix}" for prefix in OPENBLAS_PREFIXES
                     for suffix in OPENBLAS_SUFFIXES):
            if hasattr(dll, name):
                call = getattr(dll, name)
                call.argtypes, call.restype = [], restype
                return call()
    return "unknown"


def environment() -> dict:
    """numpy's version, its BLAS name and version, and the OpenBLAS core type
    and thread count."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = openblas("get_corename", ctypes.c_char_p)
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "openblas_core": core.decode() if isinstance(core, bytes) else core,
            "openblas_threads": openblas("get_num_threads", ctypes.c_int)}


def main(argv) -> None:
    if len(argv) != 3:
        sys.exit(__doc__)
    root, out = Path(argv[1]).resolve(), Path(argv[2]).resolve()
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    run_all(root, out)
    digests = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.rglob("*") if p.is_file()}
    digests["_environment"] = environment()
    print(json.dumps(digests, indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv)

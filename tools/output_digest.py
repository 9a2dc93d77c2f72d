#!/usr/bin/env python3
"""sha256 of every output file of a fixed set of runs.

    python tools/output_digest.py ROOT OUT

Imports splitbridge from ROOT/src only, writes the outputs under OUT (which
must be missing or empty) and prints sorted JSON mapping each output file,
relative to OUT, to its sha256. Running it on two source trees and comparing
the two maps shows which output bytes a change moved. The runs:

- all four schemes on the two criterion-5 setups (synthetic 4 tasks and
  glyphs 5 tasks, hidden 32x4, memory 48), and again at memory 0;
- all four schemes on the width-128 synthetic 4-task cells;
- one run_matrix sweep: 4 schemes x tasks {2, 4} x 3 seeds of tiny cells;
- the stdout of every demo.
"""

import os
import sys

# before numpy is imported: BLAS reads its thread count once, at load time
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("SPLITBRIDGE_WORKERS", None)

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

    env = {**os.environ, "PYTHONPATH": str(src)}
    (out / "demos").mkdir()
    for demo in sorted((root / "demos").glob("*.py")):
        run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                             cwd=root, env=env, capture_output=True)
        if run.returncode:
            sys.stderr.buffer.write(run.stderr)
            sys.exit(f"demo {demo.name} exited with status {run.returncode}")
        (out / "demos" / f"{demo.name}.out").write_bytes(run.stdout)


def main(argv) -> None:
    if len(argv) != 3:
        sys.exit(__doc__)
    root, out = Path(argv[1]).resolve(), Path(argv[2]).resolve()
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    run_all(root, out)
    digests = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.rglob("*") if p.is_file()}
    print(json.dumps(digests, indent=1, sort_keys=True))


if __name__ == "__main__":
    main(sys.argv)

#!/usr/bin/env python3
"""Run the CI workflow's shell steps offline, on one source tree.

    python tools/ci_local.py [ROOT] [--coretype K[,K...]]

Reads ROOT/.github/workflows/tests.yml (ROOT defaults to the tree this script
is in) and runs the `run:` block of every step of every job, in order, with
`bash -e` from ROOT, as a runner does when a step names no shell. Each job
gets a fresh RUNNER_TEMP, shared by its steps, and the job's and the step's
`env:`. A `${{ ... }}` expression reads as empty, as on an event that sets
nothing, so the output-digest job compares ROOT against its HEAD^1.

Steps that `uses:` an action and steps that `pip install` are skipped: the
interpreter running this script, with what it has installed, stands in for
setup-python and the install, once, not per matrix entry. A `splitbridge`
shim on PATH runs `python -m splitbridge.cli` with PYTHONPATH=ROOT/src in
place of the installed console script, and `python` is this interpreter.

Every step runs even after one fails, where a runner would skip the rest of
the job. Prints PASS, FAIL (with the step's last output lines) or SKIP per
step and exits 1 if any step failed.

With --coretype, only the tier-1 step runs, once per OpenBLAS kernel named,
with OPENBLAS_CORETYPE set to it in that step's processes alone (`default`
leaves it unset, so OpenBLAS picks the kernel for this CPU) and COLUMNS
wide. Each kernel's PASS or FAIL is printed with its criterion verdicts,
failed tests and pytest summary: the offline form of a CPU matrix. OpenBLAS
reads the variable when numpy loads it; a kernel whose instructions this CPU
lacks cannot run. It exits 1 if any kernel's run failed.
"""

import argparse
import contextlib
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

EXPRESSION = re.compile(r"\$\{\{.*?\}\}", re.DOTALL)
TAIL, WIDTH = 30, 200  # the lines shown of a failed step's output, cut to WIDTH
TIER1 = "Tier-1 tests"  # the step --coretype runs once per kernel
# what a kernel's report shows: the acceptance verdicts, which pytest -q prints after its
# progress dots, and the failed tests, whose messages COLUMNS keeps whole
VERDICT = re.compile(r"criterion \d+ \(.*\): (PASS|FAIL).*|^(FAILED|ERROR) .*")


def expand(text) -> str:
    """text with every ${{ ... }} expression read as empty."""
    return EXPRESSION.sub("", str(text))


def make_bin(bin_dir: Path, src: Path) -> None:
    """The splitbridge shim and a python that is this interpreter, in bin_dir."""
    bin_dir.mkdir()
    (bin_dir / "python").symlink_to(sys.executable)
    shim = bin_dir / "splitbridge"
    shim.write_text(f'#!/bin/sh\nPYTHONPATH="{src}" exec "{sys.executable}" '
                    f'-m splitbridge.cli "$@"\n')
    shim.chmod(0o755)


@contextlib.contextmanager
def job_env(root: Path, name: str, job: dict):
    """The environment of one job's steps: a fresh RUNNER_TEMP, the shims first
    on PATH, and the job's env; the temporary files go when the job ends."""
    with tempfile.TemporaryDirectory(prefix=f"ci_{name}_") as tmp:
        make_bin(Path(tmp) / "bin", root / "src")
        temp = Path(tmp) / "runner_temp"
        temp.mkdir()
        yield {**os.environ, "RUNNER_TEMP": str(temp),
               "PATH": f"{Path(tmp) / 'bin'}{os.pathsep}{os.environ['PATH']}",
               **{k: expand(v) for k, v in job.get("env", {}).items()}}
    # a step may register a git worktree under RUNNER_TEMP, which is gone now
    subprocess.run(["git", "-C", str(root), "worktree", "prune"], capture_output=True)


def run_step(root: Path, label: str, step: dict, env: dict) -> tuple[bool, str]:
    """Run one step's script with `bash -e` in env and the step's env; prints
    its PASS or FAIL and returns it with the step's output."""
    start = time.monotonic()
    done = subprocess.run(
        ["bash", "-e", "-c", expand(step["run"])], cwd=root,
        env={**env, **{k: expand(v) for k, v in step.get("env", {}).items()}},
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    ok = done.returncode == 0
    print(f"{'PASS' if ok else 'FAIL'}  {label} ({time.monotonic() - start:.0f} s)", flush=True)
    return ok, done.stdout


def run_job(root: Path, name: str, job: dict) -> list[bool]:
    """Run one job's steps; returns each run step's pass or fail."""
    results = []
    with job_env(root, name, job) as env:
        for i, step in enumerate(job["steps"], start=1):
            label = f"{name} / {step.get('name') or step.get('uses') or f'step {i}'}"
            script = step.get("run")
            if script is None or script.lstrip().startswith("pip install"):
                print(f"SKIP  {label}", flush=True)
                continue
            ok, output = run_step(root, label, step, env)
            results.append(ok)
            if not ok:
                for line in output.splitlines()[-TAIL:]:
                    print(f"      | {line[:WIDTH]}")
    return results


def run_coretypes(root: Path, workflow: dict, kernels: list[str]) -> list[bool]:
    """Run the tier-1 step once per kernel, OPENBLAS_CORETYPE set to it (unset for
    `default`); prints each run's verdict lines and pytest summary."""
    (name, job, step), = [(name, job, step) for name, job in workflow["jobs"].items()
                          for step in job["steps"] if step.get("name") == TIER1]
    results = []
    for kernel in kernels:
        with job_env(root, name, job) as env:
            env.pop("OPENBLAS_CORETYPE", None)
            if kernel != "default":
                env["OPENBLAS_CORETYPE"] = kernel
            env["COLUMNS"] = "400"
            ok, output = run_step(root, f"{name} / {TIER1} [OPENBLAS_CORETYPE={kernel}]",
                                  step, env)
        results.append(ok)
        lines = output.splitlines()
        for line in [m.group(0) for m in map(VERDICT.search, lines) if m] + lines[-1:]:
            print(f"      | {line[:WIDTH]}")
    return results


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run the CI workflow's steps offline.")
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--coretype", type=lambda text: text.split(","),
                        help="run only the tier-1 step, once per OPENBLAS_CORETYPE in this "
                             "comma-separated list; 'default' leaves it unset")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    workflow = yaml.safe_load((root / ".github/workflows/tests.yml").read_text())
    if args.coretype:
        results = run_coretypes(root, workflow, args.coretype)
        print(f"{results.count(True)} of {len(results)} kernels passed")
    else:
        results = [ok for name, job in workflow["jobs"].items()
                   for ok in run_job(root, name, job)]
        print(f"{results.count(True)} of {len(results)} steps passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

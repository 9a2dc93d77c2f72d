#!/usr/bin/env python3
"""Run the CI workflow's shell steps offline, on one source tree.

    python tools/ci_local.py [ROOT]

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
"""

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


def run_job(root: Path, name: str, job: dict) -> list[bool]:
    """Run one job's steps; returns each run step's pass or fail."""
    results = []
    with tempfile.TemporaryDirectory(prefix=f"ci_{name}_") as tmp:
        make_bin(Path(tmp) / "bin", root / "src")
        temp = Path(tmp) / "runner_temp"
        temp.mkdir()
        env = {**os.environ, "RUNNER_TEMP": str(temp),
               "PATH": f"{Path(tmp) / 'bin'}{os.pathsep}{os.environ['PATH']}",
               **{k: expand(v) for k, v in job.get("env", {}).items()}}
        for i, step in enumerate(job["steps"], start=1):
            label = f"{name} / {step.get('name') or step.get('uses') or f'step {i}'}"
            script = step.get("run")
            if script is None or script.lstrip().startswith("pip install"):
                print(f"SKIP  {label}", flush=True)
                continue
            start = time.monotonic()
            done = subprocess.run(
                ["bash", "-e", "-c", expand(script)], cwd=root,
                env={**env, **{k: expand(v) for k, v in step.get("env", {}).items()}},
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            ok = done.returncode == 0
            results.append(ok)
            print(f"{'PASS' if ok else 'FAIL'}  {label} ({time.monotonic() - start:.0f} s)",
                  flush=True)
            if not ok:
                for line in done.stdout.splitlines()[-TAIL:]:
                    print(f"      | {line[:WIDTH]}")
    # a step may register a git worktree under RUNNER_TEMP, which is gone now
    subprocess.run(["git", "-C", str(root), "worktree", "prune"], capture_output=True)
    return results


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    workflow = yaml.safe_load((root / ".github/workflows/tests.yml").read_text())
    results = [ok for name, job in workflow["jobs"].items() for ok in run_job(root, name, job)]
    print(f"{results.count(True)} of {len(results)} steps passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""The only runtime dependency is numpy: every import in the package is from
the standard library, numpy, or the package itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "splitbridge"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "splitbridge"}


def _imported_roots(path: Path):
    """Top-level module names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_imports_are_stdlib_numpy_or_own():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no package sources under {SRC}"
    foreign = {p.name: sorted(set(_imported_roots(p)) - ALLOWED) for p in paths}
    assert {name: mods for name, mods in foreign.items() if mods} == {}

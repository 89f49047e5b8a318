"""Import layering of the engine package: one direction, no hidden cycles,
and a start-up that loads no module it does not use."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gmi"

#: Each module may import only modules earlier in this order.
LAYERS = ("errors", "schema", "rubric", "ingest", "scoring", "report", "cli")
#: Outside the chain: ``bundled`` only locates data files and imports no
#: engine module; the package facade re-exports every layer.
RANK = {name: i for i, name in enumerate(LAYERS)} | {"bundled": -1, "__init__": len(LAYERS)}

TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


def _relative_imports(tree: ast.AST) -> list[ast.ImportFrom]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0]


def _targets(node: ast.ImportFrom) -> list[str]:
    """Engine modules named by ``from .x import ...`` or ``from . import x``."""
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name for alias in node.names]


def test_no_relative_import_inside_a_function():
    local = [
        f"{module} line {node.lineno}"
        for module, tree in TREES.items()
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in _relative_imports(func)
    ]
    assert local == []


def test_relative_imports_point_down_the_layers():
    assert set(TREES) == set(RANK)
    upward = [
        f"{module} line {node.lineno} -> {target}"
        for module, tree in TREES.items()
        for node in _relative_imports(tree)
        for target in _targets(node)
        if RANK[target] >= RANK[module]
    ]
    assert upward == []


#: Modules that ``import gmi.cli`` must not load: ``dataclasses`` and the
#: ``inspect`` it pulls in cost a short ``gmi`` run more than the engine's
#: own imports, and ``typing`` is needed only by type checkers.
HEAVY_AT_START_UP = ("dataclasses", "inspect", "typing")


def test_start_up_imports_no_heavy_module():
    # -S: a site-packages ``.pth`` file may import any of them before gmi.
    code = ("import sys; import gmi, gmi.cli; "
            f"print(' '.join(m for m in {HEAVY_AT_START_UP!r} if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.split() == []

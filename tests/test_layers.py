"""Import layering of the engine package: one direction, no hidden cycles,
no private ``collections`` name, and a start-up that loads no module it
does not use."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gmi"

#: Each module may import only modules earlier in this order.
LAYERS = ("errors", "schema", "rubric", "ingest", "scoring", "report", "cli")
#: Outside the chain: ``bundled`` only locates data files, and the package
#: (``__init__``), which every ``import gmi.<module>`` runs first, holds only
#: ``__version__``; neither imports an engine module.
RANK = {name: i for i, name in enumerate(LAYERS)} | {"bundled": -1, "__init__": -1}

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


def test_the_engine_reaches_no_private_collections_name():
    # The records are collections.namedtuple classes; the engine reaches none
    # of that module's private names (such as _tuplegetter), which may change
    # between Python versions.
    found = []
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("collections"):
                names = [alias.name for alias in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "collections"):
                names = [node.attr]
            else:
                continue
            found += [f"{module} line {node.lineno}: {name}" for name in names
                      if name.startswith("_")]
    assert found == []


#: Modules that ``import gmi.cli`` and ``import gmi.bundled`` must not load:
#: ``dataclasses`` and the ``inspect`` it pulls in cost a short ``gmi`` run
#: more than the engine's own imports, and ``typing`` is needed only by type
#: checkers.
HEAVY_AT_START_UP = ("dataclasses", "inspect", "typing")


def _printed_by_a_fresh_interpreter(code: str) -> list[str]:
    """The words *code* prints in a new ``python -S`` with the engine on its
    path.  -S: a site-packages ``.pth`` file may import any module first."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": path}).stdout.split()


def test_start_up_imports_no_heavy_module():
    code = ("import sys; import gmi, gmi.cli, gmi.bundled; "
            f"print(' '.join(m for m in {HEAVY_AT_START_UP!r} if m in sys.modules))")
    assert _printed_by_a_fresh_interpreter(code) == []


def test_the_cli_alone_loads_no_pathlib():
    # pathlib also loads urllib.parse, ipaddress, fnmatch and ntpath; only
    # gmi.bundled, which locates the bundled data files, needs it.
    code = "import sys, gmi.cli; print('pathlib' in sys.modules)"
    assert _printed_by_a_fresh_interpreter(code) == ["False"]


def test_importing_a_module_loads_no_module_above_it():
    # One interpreter per module, so no earlier import loads a module first.
    above = {}
    for module in sorted(RANK):
        name = "gmi" if module == "__init__" else f"gmi.{module}"
        loaded = [m.partition(".")[2] or "__init__" for m in _printed_by_a_fresh_interpreter(
            f"import sys, {name}; "
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'gmi'))")]
        assert module in loaded
        above[module] = sorted(m for m in loaded if RANK[m] > RANK[module])
    assert above == {module: [] for module in RANK}

"""Every sum of scores is correctly rounded.

Since Python 3.12 the builtin ``sum`` of floats is compensated, so one
list of scores can add up to different last bits on different
interpreters, and in different orders on any of them.  At an exact tie
that bit decides between composite 0 and 6.  The engine adds with
``math.fsum``, which is correctly rounded, so its sums depend on neither.
This test finds every use of the name ``sum`` in the engine's modules.
"""

from __future__ import annotations

import ast
from pathlib import Path

import gmi


def test_no_engine_module_uses_the_builtin_sum():
    modules = sorted(Path(gmi.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    uses = [f"{path.name}:{node.lineno}"
            for path in modules
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and node.id == "sum"]
    assert uses == []

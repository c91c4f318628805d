"""Rules the package source keeps, checked on its syntax tree.

`src/` makes no `gc` calls: each would change global process state and
act as a hidden knob.  It cannot call what it never imports.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def gc_imports(source):
    """Line numbers of the `import gc` and `from gc import` statements in
    source, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "gc" for a in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module.split(".")[0] == "gc":
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, lines", [
    ("import gc\n", [1]),
    ("import os, gc as g\n", [1]),
    ("from gc import disable\n", [1]),
    ("from gc import *\n", [1]),
    ("def f():\n    import gc\n    gc.freeze()\n", [2]),
    ("import gcstat\nfrom . import gc\nfrom .gc import x\n", []),
    ("import os\nx = 'import gc'\n", []),
])
def test_gc_imports_found(source, lines):
    assert gc_imports(source) == lines


def test_src_imports_no_gc():
    found = {}
    for root, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as f:
                    found[os.path.relpath(path, SRC)] = gc_imports(f.read())
    assert "cavsim/scenario.py" in found
    assert {path: lines for path, lines in found.items() if lines} == {}

"""Rules the package source keeps, checked on its syntax tree.

`src/` makes no `gc` calls: each would change global process state and
act as a hidden knob.  It cannot call what it never imports.

Only the network sets a CPM's plate mask: it builds the mask of every
CPM it delivers, and the object store builds its own vehicle's CPMs'
masks without storing them.  No other file assigns an attribute named
`mask` or passes one to `Cpm(...)`, positionally (its sixth field) or by
keyword.
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


def mask_sets(source):
    """Line numbers in source of each assignment to an attribute named
    `mask` and each `Cpm(...)` call given a mask, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if any(isinstance(t, ast.Attribute) and t.attr == "mask"
                       for t in ast.walk(target)):
                    lines.append(node.lineno)
                    break
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) \
                else getattr(func, "id", None)
            if name == "Cpm" and (len(node.args) > 5 or any(
                    k.arg == "mask" for k in node.keywords)):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("source, lines", [
    ("cpm.mask = 0\n", [1]),
    ("cpm.mask |= 1\n", [1]),
    ("a.b.mask: int = 0\n", [1]),
    ("x, cpm.mask = 1, 2\n", [1]),
    ("def f(c):\n    c.mask = None\n", [2]),
    ("Cpm(1, 0, pose, objs, True, 7)\n", [1]),
    ("m.Cpm(1, 0, pose, objs, mask=m)\n", [1]),
    ("Cpm(1, 0, pose, objs, True)\n", []),
    ("mask = cpm.mask\nm = ctx.plate_mask(objs)\n", []),
    ("Other(1, 2, 3, 4, 5, 6, mask=0)\n", []),
])
def test_mask_sets_found(source, lines):
    assert mask_sets(source) == lines


def src_files():
    """{path relative to src/: source} of every .py file in src/."""
    found = {}
    for root, _dirs, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(root, name)
                with open(path, encoding="utf-8") as f:
                    found[os.path.relpath(path, SRC)] = f.read()
    assert "cavsim/scenario.py" in found
    return found


def test_src_imports_no_gc():
    found = {path: gc_imports(source) for path, source in src_files().items()}
    assert {path: lines for path, lines in found.items() if lines} == {}


def test_src_sets_masks_only_in_the_network():
    found = {path: mask_sets(source) for path, source in src_files().items()
             if path != "cavsim/network.py"}
    assert "cavsim/sandbox.py" in found
    assert {path: lines for path, lines in found.items() if lines} == {}

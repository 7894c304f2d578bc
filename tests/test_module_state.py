"""The library keeps one piece of module state: the rotation memo.

A second cache, or the memo's removal, must change ``GLOBALS`` on purpose.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sfmlab"

# (function rebinding the name, module-level name)
GLOBALS = [("cameras.CameraClass._rotations", "_last_rotations")]


def _globals(node, scope: str):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Global):
            yield from ((scope, name) for name in child.names)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _globals(child, f"{scope}.{child.name}")
        else:
            yield from _globals(child, scope)


def test_src_rebinds_only_the_rotation_memo():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += _globals(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert found == GLOBALS

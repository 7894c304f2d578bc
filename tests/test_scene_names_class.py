"""A scene names its own class, so no function asks for the class beside a
scene; the old ``_jet`` names of such functions are the same objects."""

import ast
from pathlib import Path

from sfmlab import reconstruct, symmetry

SRC = Path(__file__).resolve().parent.parent / "src" / "sfmlab"
SCENE_TYPES = {"Scene", "JetScene"}
# perfbench/workloads.py::reconstruct_op calls solve(cls, measurements, init).
ALLOWED = {"reconstruct.solve"}


def _annotated(arg: ast.arg) -> set[str]:
    """Names in the parameter's annotation: ``Scene | JetScene`` gives both."""
    if arg.annotation is None:
        return set()
    return {n.id for n in ast.walk(arg.annotation) if isinstance(n, ast.Name)}


def _class_beside_scene(path: Path) -> list[str]:
    """Functions of ``path`` with a parameter annotated ``CameraClass`` and
    one annotated ``Scene`` or ``JetScene``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = [_annotated(a) for a in args.posonlyargs + args.args + args.kwonlyargs]
            if (any("CameraClass" in n for n in names)
                    and any(n & SCENE_TYPES for n in names)):
                found.append(f"{path.stem}.{node.name}")
    return found


def test_only_solve_takes_a_class_beside_a_scene():
    found = [name for path in sorted(SRC.glob("*.py")) for name in _class_beside_scene(path)]
    assert sorted(found) == sorted(ALLOWED)


def test_jet_names_are_bare_aliases():
    assert reconstruct.gauge_fix_jet is reconstruct.gauge_fix
    assert symmetry.jet_generators is symmetry.generators

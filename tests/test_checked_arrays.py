"""Every numeric field of the library is a frozen, C-ordered float copy made by
``cameras.checked_array``."""

import ast
from pathlib import Path

import numpy as np
import pytest

from sfmlab.cameras import Camera, catalog_lookup
from sfmlab.sfm import JetScene, Measurements, Scene, evaluate, random_jet_scene, random_scene
from sfmlab.symmetry import GroupElement, random_element

SRC = Path(__file__).resolve().parent.parent / "src" / "sfmlab"


def test_only_checked_array_freezes_arrays():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for node in ast.walk(tree):  # breadth first: a nested function overwrites its parent
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.name))
        for node in ast.walk(tree):
            sets_flag = (isinstance(node, ast.Attribute) and node.attr == "writeable"
                         and isinstance(node.ctx, ast.Store))
            calls_setflags = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                              and node.func.attr == "setflags")
            if sets_flag or calls_setflags:
                found.append(f"{path.stem}.{owner.get(node.lineno)}")
    assert found == ["cameras.checked_array"]


def _strided(values):
    """A writable array holding ``values`` that is neither C- nor
    F-contiguous: a reversed view of a Fortran-ordered copy."""
    return np.asfortranarray(np.array(values, dtype=float)[::-1])[::-1]


SCENE = random_scene(catalog_lookup("perspective-2d"), 3, 4, seed=6)  # h = 1
JET = random_jet_scene(catalog_lookup("perspective-2d"), 3, 4, seed=6)
GAMMA = random_element("euclidean", 2, 1)

BUILDERS = {
    "Scene": (lambda a: Scene(SCENE.cls, a["points"], a["params"], a["globals_vec"]),
              {"points": SCENE.points, "params": SCENE.params, "globals_vec": SCENE.globals_vec}),
    "JetScene": (lambda a: JetScene(JET.cls, "circle", a["motion"], a["times"], a["params"],
                                    a["globals_vec"], JET.omega),
                 {"motion": JET.motion, "times": JET.times, "params": JET.params,
                  "globals_vec": JET.globals_vec}),
    "Camera": (lambda a: Camera(SCENE.cls, a["params"]), {"params": SCENE.params[0]}),
    "Measurements": (lambda a: Measurements(SCENE.cls, a["data"]), {"data": evaluate(SCENE).data}),
    "GroupElement": (lambda a: GroupElement(1.0, a["rotation"], a["translation"]),
                     {"rotation": GAMMA.rotation, "translation": GAMMA.translation}),
}


@pytest.mark.parametrize("kind", list(BUILDERS))
def test_stored_arrays_are_frozen_c_ordered_copies(kind):
    build, fields = BUILDERS[kind]
    given = {name: _strided(values) for name, values in fields.items()}
    built = build(given)
    for name, caller in given.items():
        stored = getattr(built, name)
        assert not stored.flags.writeable and stored.flags.c_contiguous, name
        assert np.array_equal(stored, caller), name
        before = stored.copy()
        caller += 1.0
        assert np.array_equal(stored, before), name

"""Each camera-class fact is stated once, in ``cameras.py``: what a symmetry
group contains in ``GROUPS``, and each class's group in its catalog row. The
group dimension, omni orientation and perspective focal mode follow from the
row."""

import ast
from pathlib import Path

from sfmlab.cameras import GROUPS, catalog, catalog_lookup

SRC = Path(__file__).resolve().parent.parent / "src" / "sfmlab"
OWNERS = ("GROUPS", "_CATALOG")  # the cameras.py assignments that may name a group


def _group_names(path: Path) -> list[str]:
    """Lines of ``path`` holding a string constant equal to a group name,
    outside the assignments named in ``OWNERS``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owned = set()
    for node in tree.body if path.stem == "cameras" else ():
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(getattr(t, "id", None) in OWNERS for t in targets):
            owned.update(map(id, ast.walk(node)))
    return [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value in GROUPS and id(node) not in owned]


def test_only_the_group_table_and_catalog_name_groups():
    found = [line for path in sorted(SRC.glob("*.py")) for line in _group_names(path)]
    assert found == []


def test_every_group_has_a_class():
    assert {cls.group for cls in catalog()} == set(GROUPS)


ORIENTED = {"omni-oriented-2d": True, "omni-oriented-3d": True, "omni-2d": False,
            "omni-3d": False}
FOCAL_MODES = {"perspective-2d": "global", "perspective-3d": "global",
               "perspective-zoom-2d": "zoom", "perspective-zoom-3d": "zoom",
               "perspective-known-2d": "known", "perspective-known-3d": "known"}


def test_orientation_and_focal_mode_follow_from_the_row():
    assert {name: catalog_lookup(name).oriented for name in ORIENTED} == ORIENTED
    assert {name: catalog_lookup(name).focal_mode for name in FOCAL_MODES} == FOCAL_MODES
    zoom = catalog_lookup("perspective-zoom-3d")
    assert zoom.focal_index == zoom.f - 1
    assert catalog_lookup("perspective-3d").focal_index is None

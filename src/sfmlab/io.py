"""Scene and measurement file formats, plus CSV/SVG feasibility grids.

JSON is emitted by a small deterministic serializer: keys keep insertion
order and floats are printed with 17 significant digits, so write -> read ->
write round-trips byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .cameras import Camera, catalog_lookup
from .counting import FeasibilityReport
from .errors import FormatError
from .sfm import JetScene, Measurements, Scene

SCENE_VERSION = "sfmlab/1"


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def dumps(doc) -> str:
    """Deterministic JSON text for dicts/lists/numbers/strings/bools/None."""
    return _dumps(doc, 0)


def _dumps(doc, indent: int) -> str:
    pad = " " * indent
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        inner = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_dumps(v, indent + 2)}' for k, v in doc.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(doc, (list, tuple)):
        flat = all(not isinstance(v, (dict, list, tuple)) for v in doc)
        if flat:
            return "[" + ", ".join(_dumps(v, indent) for v in doc) + "]"
        inner = ",\n".join(f"{pad}  {_dumps(v, indent + 2)}" for v in doc)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(doc, bool):
        return "true" if doc else "false"
    if isinstance(doc, (int, np.integer)):
        return str(int(doc))
    if isinstance(doc, (float, np.floating)):
        return format_float(doc) if np.isfinite(doc) else "null"  # JSON has no inf
    if isinstance(doc, str):
        return json.dumps(doc)
    if doc is None:
        return "null"
    raise TypeError(f"cannot serialize {type(doc).__name__}")


def write_json(path, doc) -> None:
    Path(path).write_text(dumps(doc) + "\n")


def read_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # too deep a nesting recurses
        raise FormatError(f"{path}: not valid JSON ({exc})") from None


def scene_to_doc(scene: Scene | JetScene) -> dict:
    doc = {"version": SCENE_VERSION, "class": scene.cls.name}
    if isinstance(scene, JetScene):
        doc["model"] = scene.model
        doc["omega"] = float(scene.omega)
        doc["times"] = scene.times.tolist()
        doc["motion"] = scene.motion.tolist()
    else:
        doc["points"] = scene.points.tolist()
    doc["cameras"] = [{"params": p} for p in scene.params.tolist()]
    doc["globals"] = scene.globals_vec.tolist()
    return doc


def _require(doc: dict, key: str, context: str):
    if not isinstance(doc, dict):
        raise FormatError(f"{context} must be a JSON object")
    if key not in doc:
        raise FormatError(f"{context}: missing field {key!r}")
    return doc[key]


def _numbers(value, context: str) -> np.ndarray:
    """A JSON number or regularly nested lists of numbers as a float array."""
    try:
        arr = np.asarray(value)
        if not np.issubdtype(arr.dtype, np.number):
            raise TypeError
        return arr.astype(float)
    except (TypeError, ValueError):
        raise FormatError(f"{context} must be a number or a regular list of numbers") from None


def _number(value, context: str, integral: bool = False):
    x = _numbers(value, context)
    if x.ndim or (integral and not float(x).is_integer()):
        raise FormatError(f"{context} must be a single {'integer' if integral else 'number'}")
    return int(x) if integral else float(x)


def doc_to_scene(doc: dict) -> Scene | JetScene:
    if not isinstance(doc, dict):
        raise FormatError("scene document must be a JSON object")
    if doc.get("version") != SCENE_VERSION:
        raise FormatError(f"scene document must declare version {SCENE_VERSION!r}")
    cls = catalog_lookup(str(_require(doc, "class", "scene")))
    cam_docs = _require(doc, "cameras", "scene")
    if not isinstance(cam_docs, list):
        raise FormatError("scene: 'cameras' must be a list")
    glob = _numbers(doc.get("globals", []), "scene globals")
    try:
        params = [Camera(cls, _numbers(_require(c, "params", "camera"), "camera params")).params
                  for c in cam_docs]
        if "model" in doc:
            model = str(doc["model"])
            motion = _numbers(_require(doc, "motion", "jet scene"), "jet scene motion")
            times = _numbers(_require(doc, "times", "jet scene"), "jet scene times")
            return JetScene(cls, model, motion, times, params, glob,
                            _number(doc.get("omega", 0.0), "jet scene omega"))
        points = _numbers(_require(doc, "points", "scene"), "scene points")
        return Scene(cls, points, params, glob)
    except ValueError as exc:
        raise FormatError(f"scene document invalid: {exc}") from None


def measurements_to_doc(meas: Measurements) -> dict:
    return {
        "class": meas.cls.name,
        "n": meas.n,
        "m": meas.m,
        "s": meas.cls.s,
        "data": meas.data.tolist(),
    }


def doc_to_measurements(doc: dict) -> Measurements:
    if not isinstance(doc, dict):
        raise FormatError("measurements document must be a JSON object")
    cls = catalog_lookup(str(_require(doc, "class", "measurements")))
    data = _numbers(_require(doc, "data", "measurements"), "measurements data")
    n, m, s = (_number(_require(doc, key, "measurements"), f"measurements {key!r}", integral=True)
               for key in ("n", "m", "s"))
    if s != cls.s or data.shape != (n, m, s):
        raise FormatError(
            f"measurements data shape {data.shape} does not match header (n={n}, m={m}, s={s})"
        )
    try:
        return Measurements(cls, data)
    except ValueError as exc:
        raise FormatError(f"measurements invalid: {exc}") from None


def region_csv(grid: list[list[FeasibilityReport]]) -> str:
    lines = ["n,m,lhs,rhs,slack,feasible"]
    for row in grid:
        for rep in row:
            lines.append(
                f"{rep.n},{rep.m},{rep.lhs},{rep.rhs},{rep.slack},{'true' if rep.feasible else 'false'}"
            )
    return "\n".join(lines) + "\n"


def region_svg(grid: list[list[FeasibilityReport]], title: str) -> str:
    """Fixed 40px cell grid: infeasible cells shaded, borderline outlined,
    n (points) rightward and m (cameras) upward."""
    cell = 40
    n_max, m_max = len(grid), len(grid[0])
    left, bottom, top = 60, 50, 30
    width = left + n_max * cell + 20
    height = top + m_max * cell + bottom
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{left}" y="20" font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for i, row in enumerate(grid):
        for rep in row:
            x = left + i * cell
            y = top + (m_max - rep.m) * cell
            fill = "#e07a6a" if not rep.feasible else ("#bfe3bf" if rep.borderline else "#ffffff")
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{fill}" stroke="#888888"/>'
            )
    for i in range(n_max):
        x = left + i * cell + cell // 2
        parts.append(
            f'<text x="{x}" y="{top + m_max * cell + 16}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{i + 1}</text>'
        )
    for j in range(m_max):
        y = top + (m_max - 1 - j) * cell + cell // 2 + 4
        parts.append(
            f'<text x="{left - 8}" y="{y}" font-family="sans-serif" font-size="11" '
            f'text-anchor="end">{j + 1}</text>'
        )
    parts.append(
        f'<text x="{left + n_max * cell // 2}" y="{height - 8}" font-family="sans-serif" '
        f'font-size="12" text-anchor="middle">n (points)</text>'
    )
    parts.append(
        f'<text x="14" y="{top + m_max * cell // 2}" font-family="sans-serif" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 14 {top + m_max * cell // 2})">m (cameras)</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

"""Malformed arguments are rejected with ValueError (or FormatError for
documents) before any work is done."""

import json

import numpy as np
import pytest

from sfmlab import io
from sfmlab.cameras import Camera, catalog_lookup, embed
from sfmlab.counting import (
    anchored_slack,
    feasible,
    forbidden_region,
    jet_feasible,
    jet_min_cameras,
    jet_min_points,
    min_cameras,
    min_points,
)
from sfmlab.errors import ChartRangeError, FormatError
from sfmlab.reconstruct import solve
from sfmlab.sfm import (
    JetScene,
    evaluate,
    generic_rank,
    jet_position,
    numerical_rank,
    predicted_rank,
    random_jet_scene,
    random_scene,
    scene_from_vector,
)
from sfmlab.symmetry import align, random_element

OMNI = catalog_lookup("omni-oriented-2d")
OMNI_3D = catalog_lookup("omni-3d")
SCENE = random_scene(OMNI, 3, 3, seed=4)
SCENE_3D = random_scene(OMNI_3D, 3, 3, seed=4)
OTHER = random_scene(catalog_lookup("omni-2d"), 3, 3, seed=4)
LARGER = random_scene(OMNI, 4, 3, seed=4)


def _with_entry(doc, path, value):
    """A copy of a JSON document with the entry at ``path`` set to ``value``."""
    doc = json.loads(io.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


CASES = {
    "vector of the wrong length": (
        lambda: scene_from_vector(OMNI, 3, 3, np.zeros(5)), ValueError, "vector of length 12"),
    "rel_tol of 0": (lambda: numerical_rank(np.eye(2), rel_tol=0.0), ValueError, "rel_tol"),
    "rel_tol of 1": (lambda: numerical_rank(np.eye(2), rel_tol=1.0), ValueError, "rel_tol"),
    "scene without points": (lambda: random_scene(OMNI, 0, 3, seed=0), ValueError, "n >= 1"),
    "scene without cameras": (lambda: random_scene(OMNI, 3, 0, seed=0), ValueError, "m >= 1"),
    "circle jets with negative points": (lambda: random_jet_scene(OMNI, -1, 3, seed=0),
                                         ValueError, "n >= 1"),
    "circle jets without points": (lambda: random_jet_scene(OMNI, 0, 3, seed=0), ValueError,
                                   "n >= 1"),
    "circle jets without cameras": (lambda: random_jet_scene(OMNI, 3, 0, seed=0), ValueError,
                                    "m >= 1"),
    "scene of a huge count": (lambda: random_scene(OMNI_3D, 100_000, 100_000, seed=0), ValueError,
                              "exceeds"),
    "circle jets of a huge count": (lambda: random_jet_scene(OMNI, 100_000, 100_000, seed=0),
                                    ValueError, "exceeds"),
    "circle jets in 3-D": (lambda: random_jet_scene(catalog_lookup("omni-3d"), 3, 3, seed=0),
                           ValueError, "planar"),
    "no rank trials": (lambda: generic_rank(OMNI, 3, 3, trials=0), ValueError, "trials"),
    "solve for another class": (lambda: solve(OTHER.cls, evaluate(OTHER), SCENE), ValueError,
                                "init scene class"),
    "measurements of another class": (lambda: solve(OMNI, evaluate(OTHER), SCENE), ValueError,
                                      "measurements class"),
    "measurements of another grid": (lambda: solve(OMNI, evaluate(LARGER), SCENE), ValueError,
                                     "grid"),
    "align another class": (lambda: align(SCENE, OTHER), ValueError, "share class"),
    "align another point count": (lambda: align(SCENE, LARGER), ValueError, "point count"),
    "scene document not an object": (lambda: io.doc_to_scene([SCENE.points.tolist()]),
                                     FormatError, "JSON object"),
    "measurements document not an object": (lambda: io.doc_to_measurements("data"),
                                            FormatError, "JSON object"),
    "measurements holding a NaN": (
        lambda: io.doc_to_measurements({**io.measurements_to_doc(evaluate(SCENE)),
                                        "data": [[[float("nan")]] * 3] * 3}),
        FormatError, "finite"),
    "scene with a true point coordinate": (
        lambda: io.doc_to_scene(_with_entry(io.scene_to_doc(SCENE), ("points", 0, 0), True)),
        FormatError, "scene points must be a number"),
    "camera with a true parameter": (
        lambda: io.doc_to_scene(_with_entry(io.scene_to_doc(SCENE), ("cameras", 0, "params", 1),
                                            True)),
        FormatError, "camera params must be a number"),
    "measurements holding a false": (
        lambda: io.doc_to_measurements(_with_entry(io.measurements_to_doc(evaluate(SCENE)),
                                                   ("data", 0, 0, 0), False)),
        FormatError, "measurements data must be a number"),
    "scene points nested 500 deep": (
        lambda: io.doc_to_scene({**io.scene_to_doc(SCENE), "points": json.loads("[" * 500 + "]" * 500)}),
        FormatError, "scene points must be a number"),
    "scene document without cameras": (
        lambda: io.doc_to_scene({k: v for k, v in io.scene_to_doc(SCENE).items()
                                 if k != "cameras"}),
        FormatError, "missing field 'cameras'"),
    "chart of the wrong length": (lambda: embed(Camera(OMNI, SCENE.params[0]), [], [0.1, 0.2]),
                                  ChartRangeError, "chart has 1 coordinates"),
    "min_cameras without points": (lambda: min_cameras(OMNI, 0), ValueError, "n >= 1"),
    "min_points without cameras": (lambda: min_points(OMNI, 0), ValueError, "m >= 1"),
    "forbidden_region without points": (lambda: forbidden_region(OMNI, 0, 3), ValueError,
                                        "n_max >= 1"),
    "jet_feasible with a negative dimension": (lambda: jet_feasible(-1, 2, 3, 0, 1, 3, 3),
                                               ValueError, "non-negative"),
    "jet_feasible without points": (lambda: jet_feasible(2, 2, 3, 0, 1, 0, 3), ValueError,
                                    "n >= 1"),
    "jet_min_points without cameras": (lambda: jet_min_points(2, 2, 3, 0, 1, 0), ValueError,
                                       "m >= 1"),
    "jet_min_cameras without a retina": (lambda: jet_min_cameras(2, 2, 3, 0, 0), ValueError,
                                         "s >= 1"),
    "jet_min_points with a negative dimension": (lambda: jet_min_points(-4, 3, 4, 0, 1, 3),
                                                 ValueError, "non-negative"),
    "jet_min_cameras with a negative dimension": (lambda: jet_min_cameras(-4, 3, 4, 0, 1),
                                                  ValueError, "non-negative"),
    "anchored_slack without points": (lambda: anchored_slack(OMNI, 0, 2), ValueError, "n >= 1"),
    "feasible of a fractional point count": (lambda: feasible(OMNI, 2.5, 3), ValueError,
                                             r"must be integers, got n=2\.5$"),
    "predicted_rank of a float count": (lambda: predicted_rank(OMNI_3D, 2.5, 3), ValueError,
                                        "integers"),
    "predicted_rank of a bool count": (lambda: predicted_rank(OMNI_3D, 3, True), ValueError,
                                       "integers"),
    "predicted_rank without points": (lambda: predicted_rank(OMNI_3D, 0, 3), ValueError,
                                      "n >= 1"),
    "predicted_rank without cameras": (lambda: predicted_rank(OMNI_3D, 3, -1), ValueError,
                                       "m >= 1"),
    "circle JetScene in 3-D": (
        lambda: JetScene(OMNI_3D, "circle", np.ones((3, 4)), np.arange(3.0), SCENE_3D.params,
                         SCENE_3D.globals_vec),
        ValueError, "planar"),
    "unknown motion model": (lambda: jet_position(np.ones(4), 0.5, "spiral"), ValueError,
                             "unknown motion model"),
    "unknown group": (lambda: random_element("affine", 2, 0), ValueError, "unknown group"),
    "serializing an object": (lambda: io.dumps({"x": [object()]}), TypeError,
                              "cannot serialize object"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_malformed_arguments_are_rejected(case):
    call, error, match = CASES[case]
    with pytest.raises(error, match=match):
        call()

"""Malformed arguments are rejected with ValueError (or FormatError for
documents) before any work is done."""

import numpy as np
import pytest

from sfmlab import io
from sfmlab.cameras import catalog_lookup
from sfmlab.errors import FormatError
from sfmlab.reconstruct import solve
from sfmlab.sfm import (
    evaluate,
    generic_rank,
    numerical_rank,
    random_jet_scene,
    random_scene,
    scene_from_vector,
)
from sfmlab.symmetry import align

OMNI = catalog_lookup("omni-oriented-2d")
SCENE = random_scene(OMNI, 3, 3, seed=4)
OTHER = random_scene(catalog_lookup("omni-2d"), 3, 3, seed=4)
LARGER = random_scene(OMNI, 4, 3, seed=4)

CASES = {
    "vector of the wrong length": (
        lambda: scene_from_vector(OMNI, 3, 3, np.zeros(5)), ValueError, "vector of length 12"),
    "rel_tol of 0": (lambda: numerical_rank(np.eye(2), rel_tol=0.0), ValueError, "rel_tol"),
    "rel_tol of 1": (lambda: numerical_rank(np.eye(2), rel_tol=1.0), ValueError, "rel_tol"),
    "scene without points": (lambda: random_scene(OMNI, 0, 3, seed=0), ValueError, "n >= 1"),
    "scene without cameras": (lambda: random_scene(OMNI, 3, 0, seed=0), ValueError, "m >= 1"),
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
}


@pytest.mark.parametrize("case", list(CASES))
def test_malformed_arguments_are_rejected(case):
    call, error, match = CASES[case]
    with pytest.raises(error, match=match):
        call()

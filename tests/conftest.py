import os
from pathlib import Path

import numpy as np
import pytest

from sfmlab.cameras import LineClass, OmniClass, catalog

# `python -m sfmlab` subprocesses import the same checkout as the tests
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

ALL_CLASS_NAMES = [c.name for c in catalog()]

# small scene sizes that keep every class generic and the Jacobian cheap
DEFAULT_COUNTS = {"n": 3, "m": 3}


@pytest.fixture(scope="session")
def class_names():
    return ALL_CLASS_NAMES


def sample_chart_point(cls, rng):
    """Random retinal chart coordinates inside the class's chart range."""
    if isinstance(cls, OmniClass):
        theta = rng.uniform(-np.pi * 0.98, np.pi * 0.98)
        if cls.d == 2:
            return np.array([theta])
        return np.array([theta, rng.uniform(0.1, np.pi - 0.1)])
    if isinstance(cls, LineClass):
        return rng.uniform(-3.0, 3.0, size=1)
    return rng.uniform(-3.0, 3.0, size=cls.s)

"""The benchmark's tracer wraps sfmlab entry points by name and must put
every one back; a renamed or inherited entry point breaks it."""

import importlib.util
from pathlib import Path

from sfmlab import sfm

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_binding():
    tracing = _load_tracing()
    # read from each owner's own namespace, as the tracer does
    targets = [(owner, attr) for owner, attr, _ in tracing._layer_patches()]
    targets.append((sfm, "jacobian"))
    before = [owner.__dict__[attr] for owner, attr in targets]
    with tracing.instrument(tracing.Tracer()):
        during = [owner.__dict__[attr] for owner, attr in targets]
    after = [owner.__dict__[attr] for owner, attr in targets]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))

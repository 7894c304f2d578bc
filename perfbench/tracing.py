"""In-memory span recorder for the traced benchmark run.

Spans are kept in flat typed arrays (name id, parent index, operation index,
start, end) so that a run with millions of layer calls stays small, and are
written out once when the benchmark ends. ``instrument`` wraps the public
functions of each sfmlab layer for the duration of a ``with`` block and puts
the originals back afterwards; the untraced run never installs a wrapper.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter

import numpy as np


@contextlib.contextmanager
def no_span(_name):
    yield


class Tracer:
    """Records one span per wrapped call: name, parent span, operation,
    start and end (``time.perf_counter`` seconds)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self._stack = [-1]
        self.current_op = -1

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (number of spans, summed self time in seconds).

        Self time is a span's duration minus the durations of its direct
        children; calls are single-threaded, so children never overlap."""
        if not self.names:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = np.bincount(names, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_time[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )


def _layer_patches():
    """(owner, attribute, span name) for every layer entry point reached from
    inside the package. A function imported by name into another module is
    patched in both places, since the importer calls its own binding."""
    from sfmlab import cameras, geometry, reconstruct, sfm

    return [
        (cameras, "project_points", "cameras.project_points"),
        (geometry, "rotation_matrix", "geometry.rotation_matrix"),
        (sfm, "evaluate", "sfm.evaluate"),
        (sfm, "evaluate_jet", "sfm.evaluate"),
        (reconstruct, "evaluate", "sfm.evaluate"),
        (reconstruct, "evaluate_jet", "sfm.evaluate"),
        (sfm, "scene_from_vector", "sfm.with_vector"),
        (sfm.JetScene, "with_vector", "sfm.with_vector"),
        (sfm, "random_scene", "sfm.random_scene"),
        (sfm, "numerical_rank", "sfm.numerical_rank"),
        (reconstruct, "gauge_fix", "reconstruct.gauge_fix"),
        (reconstruct, "gauge_fix_jet", "reconstruct.gauge_fix"),
        (reconstruct, "generators", "symmetry.generators"),
        (reconstruct, "jet_generators", "symmetry.generators"),
        (np.linalg, "solve", "reconstruct.normal_solve"),
    ]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer entry point with ``tracer`` for the duration of the
    block. The Jacobian wrapper also counts the entries and nonzeros of each
    matrix it returns, outside its own span."""
    from sfmlab import sfm

    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    try:
        for owner, attr, name in _layer_patches():
            patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        traced_jacobian = tracer.wrap("sfm.jacobian", sfm.jacobian)

        def jacobian(*args, **kwargs):
            J = traced_jacobian(*args, **kwargs)
            tracer.counters["sfm.jacobian.entries"] += J.size
            tracer.counters["sfm.jacobian.nonzero"] += int(np.count_nonzero(J))
            tracer.counters["sfm.jacobian.bytes"] += J.nbytes
            return J

        patch(sfm, "jacobian", jacobian)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

"""Camera classes, their parameter charts, and their retinal charts.

A camera is an idempotent piecewise-smooth map of d-space whose image is a
lower dimensional retinal surface (a plane, a line, a circle, or a sphere).
``project`` reads chart coordinates on that surface, ``embed`` lifts chart
coordinates back to ambient space, and ``camera_map`` is the composite
idempotent map of ambient space into itself.

Implemented families
--------------------
affine-ortho
    Orthogonal projection onto a retinal plane (a line in 2D): rotate into
    the camera frame, keep the first ``s`` coordinates, add an in-retina
    chart offset. Parameters: orientation block, retina offset.
omni / omni-oriented
    Central projection onto a unit circle/sphere around the camera center.
    The chart is the direction angle (2D) or azimuth/polar pair (3D) of the
    outgoing ray; non-oriented variants carry their own rotation, oriented
    ones read directions in the world frame.
perspective
    Pinhole projection onto a film plane that passes through the camera
    position, with the projection center one focal length behind the film.
    The focal length is a fixed constant (``known``), a scene-level shared
    parameter (``global``), or a per-camera parameter (``zoom``). Known and
    global cameras measure film offsets in absolute units; zoom cameras
    measure them in units of their own focal length, which is what makes a
    joint rescaling of scene and focal lengths invisible to them.
line
    Orthographic projection onto a directed line in space; the chart is the
    coordinate along the line. The component of the line's position
    perpendicular to its direction never enters the readout and is excluded
    from the parameter chart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ChartRangeError, SingularConfigurationError, UnknownClassError

SINGULAR_CUTOFF = 1e-9
POLE_MARGIN = 1e-3  # rejection radius around angle-chart poles, radians


@dataclass(frozen=True)
class CameraClass:
    """Catalog entry for one camera family in one ambient dimension.

    ``d`` ambient dimension, ``s`` retinal dimension, ``f`` per-camera
    parameter count, ``g`` symmetry group dimension, ``h`` number of shared
    scene-level parameters.
    """

    name: str
    d: int
    s: int
    f: int
    g: int
    h: int
    group: str  # euclidean | dilation | similarity
    kind: str  # affine | omni | perspective | line
    chart_doc: str
    oriented: bool = True  # omni only
    focal_mode: str | None = None  # perspective: known | global | zoom
    known_focal: float = 1.0

    @property
    def rot_dim(self) -> int:
        return 1 if self.d == 2 else 3

    @property
    def rotation_slice(self) -> slice | None:
        """Indices of the orientation block inside the parameter vector."""
        if self.kind == "affine":
            return slice(0, self.rot_dim)
        if self.kind == "omni" and not self.oriented:
            return slice(self.d, self.d + self.rot_dim)
        if self.kind == "perspective":
            return slice(self.d, self.d + self.rot_dim)
        if self.kind == "line":
            return slice(0, 2)
        return None

    @property
    def position_slice(self) -> slice | None:
        """Indices of the camera position, for classes that expose one."""
        if self.kind in ("omni", "perspective"):
            return slice(0, self.d)
        return None

    @property
    def focal_index(self) -> int | None:
        if self.kind == "perspective" and self.focal_mode == "zoom":
            return self.f - 1
        return None

    @property
    def angular_param_indices(self) -> tuple[int, ...]:
        """Parameter coordinates that live on a circle and wrap at +-pi."""
        if self.d == 2 and self.kind in ("affine", "perspective"):
            rs = self.rotation_slice
            return (rs.start,)
        if self.d == 2 and self.kind == "omni" and not self.oriented:
            return (2,)
        if self.kind == "line":
            return (0,)  # azimuth of the direction chart
        return ()

    @property
    def angular_output_indices(self) -> tuple[int, ...]:
        """Components of the retinal chart that wrap at +-pi."""
        if self.kind == "omni":
            return (0,)
        return ()


@dataclass(frozen=True)
class Camera:
    """A camera class instance with its parameter vector."""

    cls: CameraClass
    params: np.ndarray

    def __post_init__(self):
        params = np.asarray(self.params, dtype=float).copy()
        if params.shape != (self.cls.f,):
            raise ValueError(
                f"{self.cls.name} expects {self.cls.f} parameters, got shape {params.shape}"
            )
        if not np.isfinite(params).all():
            raise ValueError("camera parameters must be finite")
        params.flags.writeable = False
        object.__setattr__(self, "params", params)

    @property
    def position(self) -> np.ndarray | None:
        sl = self.cls.position_slice
        return None if sl is None else self.params[sl]


def _entry(name, d, s, f, g, h, group, kind, chart_doc, **kw) -> CameraClass:
    return CameraClass(name, d, s, f, g, h, group, kind, chart_doc, **kw)


_CATALOG: tuple[CameraClass, ...] = (
    _entry("affine-ortho-2d", 2, 1, 2, 3, 0, "euclidean", "affine",
           "params = [orientation angle, retina offset]"),
    _entry("omni-oriented-2d", 2, 1, 2, 3, 0, "dilation", "omni",
           "params = [center x, center y]", oriented=True),
    _entry("omni-2d", 2, 1, 3, 4, 0, "similarity", "omni",
           "params = [center x, center y, heading angle]", oriented=False),
    _entry("perspective-2d", 2, 1, 3, 3, 1, "euclidean", "perspective",
           "params = [position x, position y, orientation angle]; shared focal length",
           focal_mode="global"),
    _entry("perspective-zoom-2d", 2, 1, 4, 4, 0, "similarity", "perspective",
           "params = [position x, position y, orientation angle, focal length]",
           focal_mode="zoom"),
    _entry("affine-ortho-3d", 3, 2, 5, 6, 0, "euclidean", "affine",
           "params = [orientation (3, exponential), retina offset (2)]"),
    _entry("omni-oriented-3d", 3, 2, 3, 4, 0, "dilation", "omni",
           "params = [center (3)]", oriented=True),
    _entry("omni-3d", 3, 2, 6, 7, 0, "similarity", "omni",
           "params = [center (3), orientation (3, exponential)]", oriented=False),
    _entry("perspective-3d", 3, 2, 6, 6, 1, "euclidean", "perspective",
           "params = [position (3), orientation (3, exponential)]; shared focal length",
           focal_mode="global"),
    _entry("perspective-zoom-3d", 3, 2, 7, 7, 0, "similarity", "perspective",
           "params = [position (3), orientation (3, exponential), focal length]",
           focal_mode="zoom"),
    _entry("line-3d", 3, 1, 3, 6, 0, "euclidean", "line",
           "params = [direction azimuth, direction polar angle, chart offset]"),
    _entry("perspective-known-2d", 2, 1, 3, 3, 0, "euclidean", "perspective",
           "params = [position x, position y, orientation angle]; focal length fixed at 1",
           focal_mode="known"),
    _entry("perspective-known-3d", 3, 2, 6, 6, 0, "euclidean", "perspective",
           "params = [position (3), orientation (3, exponential)]; focal length fixed at 1",
           focal_mode="known"),
)

_BY_NAME = {c.name: c for c in _CATALOG}


def catalog() -> tuple[CameraClass, ...]:
    """All implemented camera classes, fixed order."""
    return _CATALOG


def catalog_lookup(name: str) -> CameraClass:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise UnknownClassError(f"unknown camera class {name!r}; known: {known}") from None


def focal_value(camera: Camera, globals_vec) -> float:
    cls = camera.cls
    if cls.kind != "perspective":
        raise ValueError(f"{cls.name} has no focal length")
    if cls.focal_mode == "known":
        return cls.known_focal
    if cls.focal_mode == "global":
        return float(np.asarray(globals_vec, dtype=float)[0])
    return float(camera.params[cls.focal_index])


def _camera_rotation(camera: Camera) -> np.ndarray:
    sl = camera.cls.rotation_slice
    if camera.cls.kind == "omni" and camera.cls.oriented:
        return np.eye(camera.cls.d)
    if camera.cls.kind == "line":
        raise ValueError("line cameras use a direction chart, not a rotation block")
    return geometry.rotation_matrix(camera.cls.d, camera.params[sl])


def line_direction(camera: Camera) -> np.ndarray:
    theta, phi = camera.params[0], camera.params[1]
    return geometry.unit_from_angles(theta, phi)


def _as_globals(cls: CameraClass, globals_vec) -> np.ndarray:
    if globals_vec is None:
        if cls.h:
            raise ValueError(f"{cls.name} requires {cls.h} scene-level parameter(s)")
        return np.zeros(0)
    g = np.asarray(globals_vec, dtype=float).reshape(-1)
    if g.size != cls.h:
        raise ValueError(f"{cls.name} expects {cls.h} scene-level parameter(s), got {g.size}")
    return g


def project_points(camera: Camera, globals_vec, points: np.ndarray) -> np.ndarray:
    """Chart coordinates of several points under one camera, shape (n, s)."""
    cls = camera.cls
    pts = np.asarray(points, dtype=float).reshape(-1, cls.d)
    glob = _as_globals(cls, globals_vec)

    if cls.kind == "affine":
        R = _camera_rotation(camera)
        offset = camera.params[cls.rot_dim:]
        return pts @ R.T[:, : cls.s] + offset

    if cls.kind == "omni":
        delta = pts - camera.params[: cls.d]
        dist = np.linalg.norm(delta, axis=1)
        bad = np.flatnonzero(dist < SINGULAR_CUTOFF)
        if bad.size:
            raise SingularConfigurationError(
                "point coincides with an omni camera center", point_index=int(bad[0])
            )
        if cls.d == 2:
            theta = np.arctan2(delta[:, 1], delta[:, 0])
            if not cls.oriented:
                theta -= camera.params[2]
            return geometry.wrap_angle(theta)[:, None]  # chart is (-pi, pi]
        frame = delta if cls.oriented else delta @ _camera_rotation(camera).T
        theta = geometry.wrap_angle(np.arctan2(frame[:, 1], frame[:, 0]))
        phi = np.arccos(np.clip(frame[:, 2] / dist, -1.0, 1.0))
        return np.column_stack([theta, phi])

    if cls.kind == "perspective":
        F = focal_value(camera, glob)
        R = _camera_rotation(camera)
        X = (pts - camera.params[: cls.d]) @ R.T
        den = X[:, cls.d - 1] + F
        bad = np.flatnonzero(np.abs(den) < SINGULAR_CUTOFF)
        if bad.size:
            raise SingularConfigurationError(
                "point lies on the projection-center plane", point_index=int(bad[0])
            )
        scale = F if cls.focal_mode in ("known", "global") else 1.0
        return scale * X[:, : cls.s] / den[:, None]

    if cls.kind == "line":
        u = line_direction(camera)
        return (pts @ u - camera.params[2])[:, None]

    raise AssertionError(f"unhandled camera kind {cls.kind}")


def project(camera: Camera, globals_vec, point) -> np.ndarray:
    """Chart coordinates of one point, length ``s``."""
    return project_points(camera, globals_vec, np.asarray(point, dtype=float)[None, :])[0]


def embed(camera: Camera, globals_vec, r) -> np.ndarray:
    """Ambient point on the retinal surface with chart coordinates ``r``."""
    cls = camera.cls
    r = np.asarray(r, dtype=float).reshape(-1)
    if r.size != cls.s:
        raise ChartRangeError(f"{cls.name} chart has {cls.s} coordinates, got {r.size}")
    if not np.all(np.isfinite(r)):
        raise ChartRangeError("chart coordinates must be finite")
    glob = _as_globals(cls, globals_vec)

    if cls.kind == "affine":
        R = _camera_rotation(camera)
        offset = camera.params[cls.rot_dim:]
        lifted = np.zeros(cls.d)
        lifted[: cls.s] = r - offset
        return R.T @ lifted

    if cls.kind == "omni":
        if abs(r[0]) > np.pi + 1e-12:
            raise ChartRangeError("azimuth outside (-pi, pi]")
        center = camera.params[: cls.d]
        if cls.d == 2:
            angle = r[0] if cls.oriented else r[0] + camera.params[2]
            return center + np.array([np.cos(angle), np.sin(angle)])
        if not -1e-12 <= r[1] <= np.pi + 1e-12:
            raise ChartRangeError("polar angle outside [0, pi]")
        u = geometry.unit_from_angles(r[0], r[1])
        if cls.oriented:
            return center + u
        return center + _camera_rotation(camera).T @ u

    if cls.kind == "perspective":
        F = focal_value(camera, glob)
        R = _camera_rotation(camera)
        offsets = r if cls.focal_mode in ("known", "global") else F * r
        lifted = np.zeros(cls.d)
        lifted[: cls.s] = offsets
        return camera.params[: cls.d] + R.T @ lifted

    if cls.kind == "line":
        u = line_direction(camera)
        return (camera.params[2] + r[0]) * u

    raise AssertionError(f"unhandled camera kind {cls.kind}")


def camera_map(camera: Camera, globals_vec, point) -> np.ndarray:
    """The idempotent ambient map: embed the projection of ``point``."""
    return embed(camera, globals_vec, project(camera, globals_vec, point))


def singular_margin(camera: Camera, globals_vec, point) -> float:
    """Distance from ``point`` to the camera's singular set (inf if none)."""
    cls = camera.cls
    p = np.asarray(point, dtype=float)
    if cls.kind == "omni":
        return float(np.linalg.norm(p - camera.params[: cls.d]))
    if cls.kind == "perspective":
        F = focal_value(camera, _as_globals(cls, globals_vec))
        R = _camera_rotation(camera)
        X = R @ (p - camera.params[: cls.d])
        return float(abs(X[cls.d - 1] + F))
    return float("inf")


def pole_margin(camera: Camera, globals_vec, point) -> float:
    """Angular distance of the measured direction from a chart pole.

    Only 3D omni charts have poles tied to the point; everything else
    returns inf. Used by scene samplers to keep angle charts regular.
    """
    cls = camera.cls
    if cls.kind == "omni" and cls.d == 3:
        r = project(camera, globals_vec, point)
        return float(min(r[1], np.pi - r[1]))
    return float("inf")


def random_camera(cls: CameraClass, seed, spread: float = 2.0) -> Camera:
    """Deterministic random camera: positions in [-spread, spread]^d,
    rotations uniform in normalized exponential coordinates, focal lengths
    in [0.5, 2] * spread."""
    if spread <= 0:
        raise ValueError("spread must be positive")
    return random_camera_rng(cls, np.random.default_rng(seed), spread)


def random_camera_rng(cls: CameraClass, rng: np.random.Generator, spread: float = 2.0) -> Camera:
    if cls.kind == "affine":
        rot = geometry.random_rotation_coords(cls.d, rng)
        offset = rng.uniform(-spread, spread, size=cls.s)
        return Camera(cls, np.concatenate([rot, offset]))
    if cls.kind == "omni":
        center = rng.uniform(-spread, spread, size=cls.d)
        if cls.oriented:
            return Camera(cls, center)
        rot = geometry.random_rotation_coords(cls.d, rng)
        return Camera(cls, np.concatenate([center, rot]))
    if cls.kind == "perspective":
        pos = rng.uniform(-spread, spread, size=cls.d)
        rot = geometry.random_rotation_coords(cls.d, rng)
        parts = [pos, rot]
        if cls.focal_mode == "zoom":
            parts.append(np.array([rng.uniform(0.5, 2.0) * spread]))
        return Camera(cls, np.concatenate(parts))
    if cls.kind == "line":
        while True:
            theta = rng.uniform(-np.pi, np.pi)
            phi = float(np.arccos(rng.uniform(-1.0, 1.0)))
            if POLE_MARGIN < phi < np.pi - POLE_MARGIN:
                break
        c = rng.uniform(-spread, spread)
        return Camera(cls, np.array([theta, phi, c]))
    raise AssertionError(f"unhandled camera kind {cls.kind}")

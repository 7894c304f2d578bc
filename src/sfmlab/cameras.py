"""Camera classes, their parameter charts, and their retinal charts.

A camera is an idempotent piecewise-smooth map of d-space whose image is a
lower dimensional retinal surface (a plane, a line, a circle, or a sphere).
``project`` reads chart coordinates on that surface, ``embed`` lifts chart
coordinates back to ambient space, and ``camera_map`` is the composite
idempotent map of ambient space into itself.

Each kind of camera is one ``CameraClass`` subclass: ``AffineClass``,
``OmniClass``, ``PerspectiveClass`` and ``LineClass``. A subclass holds the
kind's parameter slices, its charts, its group action, its random sampling
and scene placement, and its singular set. ``project`` and ``margins_ok``
take the parameters of all ``m`` cameras of a scene as one (m, f) array and
work on every camera at once; the module-level functions validate their
arguments and delegate to the camera's class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import geometry
from .errors import ChartRangeError, SingularConfigurationError, UnknownClassError

SINGULAR_CUTOFF = 1e-9
SPREAD = 2.0  # sampled points fill [-SPREAD, SPREAD]^d
POLE_MARGIN = 1e-3  # rejection radius around angle-chart poles, radians

# Symmetry groups by name: (rotates, scales). Every group translates.
GROUPS: dict[str, tuple[bool, bool]] = {
    "euclidean": (True, False),
    "dilation": (False, True),
    "similarity": (True, True),
}

# (key, matrices) of the latest CameraClass._rotations block, replaced as one tuple
_last_rotations: tuple = (None, None)


@dataclass(frozen=True)
class CameraClass:
    """Catalog entry for one camera family in one ambient dimension.

    ``d`` ambient dimension, ``s`` retinal dimension, ``f`` per-camera
    parameter count, ``h`` number of shared scene-level parameters, ``group``
    a key of ``GROUPS``; the symmetry group dimension ``g`` follows from
    ``d`` and the group.

    Subclasses implement ``project(P, glob, X)`` (chart coordinates of the
    positions X of shape (m, n, d) under the cameras with parameter rows P of
    shape (m, f), shape (m, n, s)), ``embed(p, glob, r)``, ``act(p, scale, R,
    v)`` (the parameters of the camera moved by ``x -> scale * R x + v``) and
    ``sample(rng, spread)``, where ``p`` is one camera's parameter vector and
    ``glob`` the scene-level parameters.
    """

    name: str
    d: int
    s: int
    f: int
    h: int
    group: str
    chart_doc: str
    # Subclasses override these with the indices their parameter vector has.
    rotation_slice: ClassVar[slice | None] = None  # orientation block
    position_slice: ClassVar[slice | None] = None  # camera position
    focal_index: ClassVar[int | None] = None  # per-camera focal length
    angular_output_indices: ClassVar[tuple[int, ...]] = ()  # chart components wrapping at +-pi

    @property
    def rot_dim(self) -> int:
        return 1 if self.d == 2 else 3

    @property
    def g(self) -> int:
        """Dimension of the symmetry group: translations, then rotations and
        the scaling where the group has them."""
        rotates, scales = GROUPS[self.group]
        return self.d + self.rot_dim * rotates + scales

    @property
    def angular_param_indices(self) -> tuple[int, ...]:
        """Parameter coordinates that live on a circle and wrap at +-pi."""
        rs = self.rotation_slice
        return (rs.start,) if self.d == 2 and rs is not None else ()

    def rotation(self, p: np.ndarray) -> np.ndarray:  # (d, d), or (m, d, d) for (m, f)
        return geometry.rotation_matrix(self.d, p[..., self.rotation_slice])

    def _rotations(self, P: np.ndarray) -> np.ndarray:
        """``rotation(P)`` for a block of camera rows, computed once while
        successive blocks hold the same orientation coordinates, as the finite
        differences of point coordinates do. The result must not be written."""
        global _last_rotations
        coords = P[..., self.rotation_slice]
        # matmul rounds by memory layout, so the strides belong to the key
        key = (self.d, coords.shape, coords.strides, coords.tobytes())
        last_key, R = _last_rotations
        if last_key != key:
            R = geometry.rotation_matrix(self.d, coords)
            _last_rotations = (key, R)
        return R

    def _turned(self, p: np.ndarray, R: np.ndarray) -> np.ndarray:
        """Orientation coordinates of the camera after rotating the world by ``R``."""
        return geometry.rotation_log(self.d, self.rotation(p) @ R.T)

    def place(self, rng: np.random.Generator, box: float) -> np.ndarray:
        """Parameters of a camera for a scene whose points fill [-SPREAD, SPREAD]^d;
        ``box`` is the half-width of the box that omni centers are drawn from."""
        return self.sample(rng, SPREAD)

    def margins_ok(self, P: np.ndarray, glob: np.ndarray, X: np.ndarray) -> bool:
        """Whether every camera's positions (row j of X for camera row j of P)
        keep the sampling margins from its singular set and chart poles."""
        return True

    def singular_margin(self, p: np.ndarray, glob: np.ndarray, point: np.ndarray) -> float:
        return float("inf")


@dataclass(frozen=True)
class AffineClass(CameraClass):
    """Orthogonal projection onto a retinal plane (a line in 2D): rotate into
    the camera frame, keep the first ``s`` coordinates, add an in-retina
    chart offset. Parameters: orientation block, retina offset."""

    @property
    def rotation_slice(self) -> slice:
        return slice(0, self.rot_dim)

    def project(self, P, glob, X):
        return X @ self._rotations(P).swapaxes(-1, -2)[..., : self.s] + P[:, None, self.rot_dim:]

    def embed(self, p, glob, r):
        lifted = np.zeros(self.d)
        lifted[: self.s] = r - p[self.rot_dim:]
        return self.rotation(p).T @ lifted

    def act(self, p, scale, R, v):
        Rc_new = self.rotation(p) @ R.T
        offset_new = p[self.rot_dim:] - (Rc_new @ v)[: self.s]
        return np.concatenate([geometry.rotation_log(self.d, Rc_new), offset_new])

    def sample(self, rng, spread):
        rot = geometry.random_rotation_coords(self.d, rng)
        return np.concatenate([rot, rng.uniform(-spread, spread, size=self.s)])


@dataclass(frozen=True)
class OmniClass(CameraClass):
    """Central projection onto a unit circle/sphere around the camera center.

    The chart is the direction angle (2D) or azimuth/polar pair (3D) of the
    outgoing ray; non-oriented variants carry their own rotation, oriented
    ones read directions in the world frame.
    """

    @property
    def oriented(self) -> bool:
        """Whether the parameters are the center alone, without a rotation."""
        return self.f == self.d

    @property
    def rotation_slice(self) -> slice | None:
        return None if self.oriented else slice(self.d, self.d + self.rot_dim)

    angular_output_indices: ClassVar[tuple[int, ...]] = (0,)

    @property
    def position_slice(self) -> slice:
        return slice(0, self.d)

    def project(self, P, glob, X):
        delta = X - P[:, None, : self.d]
        dist = np.linalg.norm(delta, axis=-1)
        _check_regular(dist < SINGULAR_CUTOFF, "point coincides with an omni camera center")
        if self.d == 2:
            theta = np.arctan2(delta[..., 1], delta[..., 0])
            if not self.oriented:
                theta -= P[:, 2:3]
            return geometry.wrap_angle(theta)[..., None]  # chart is (-pi, pi]
        frame = delta if self.oriented else delta @ self._rotations(P).swapaxes(-1, -2)
        theta = geometry.wrap_angle(np.arctan2(frame[..., 1], frame[..., 0]))
        phi = np.arccos(np.clip(frame[..., 2] / dist, -1.0, 1.0))
        return np.stack([theta, phi], -1)

    def embed(self, p, glob, r):
        if abs(r[0]) > np.pi + 1e-12:
            raise ChartRangeError("azimuth outside (-pi, pi]")
        center = p[: self.d]
        if self.d == 2:
            angle = r[0] if self.oriented else r[0] + p[2]
            return center + np.array([np.cos(angle), np.sin(angle)])
        if not -1e-12 <= r[1] <= np.pi + 1e-12:
            raise ChartRangeError("polar angle outside [0, pi]")
        u = geometry.unit_from_angles(r[0], r[1])
        return center + (u if self.oriented else self.rotation(p).T @ u)

    def act(self, p, scale, R, v):
        center = scale * (R @ p[: self.d]) + v
        if self.oriented:
            return center
        if self.d == 2:
            return np.append(center, geometry.wrap_angle(p[2] + geometry.rot2_angle(R)))
        return np.concatenate([center, self._turned(p, R)])

    def sample(self, rng, spread):
        center = rng.uniform(-spread, spread, size=self.d)
        if self.oriented:
            return center
        return np.concatenate([center, geometry.random_rotation_coords(self.d, rng)])

    def place(self, rng, box):
        return self.sample(rng, box)

    def margins_ok(self, P, glob, X):
        """Positions at least 0.25 * SPREAD from the center and, in 3D, at
        least ``POLE_MARGIN`` away from the poles of the polar angle."""
        if np.linalg.norm(X - P[:, None, : self.d], axis=-1).min() < 0.25 * SPREAD:
            return False
        if self.d == 2:
            return True
        phi = self.project(P, glob, X)[..., 1]
        return bool(np.minimum(phi, np.pi - phi).min() >= POLE_MARGIN)

    def singular_margin(self, p, glob, point):
        return float(np.linalg.norm(point - p[: self.d]))


@dataclass(frozen=True)
class PerspectiveClass(CameraClass):
    """Pinhole projection onto a film plane that passes through the camera
    position, with the projection center one focal length behind the film.

    The focal length is a fixed constant (``known``), the scene-level shared
    parameter (``global``), or the last per-camera parameter (``zoom``). Known and
    global cameras measure film offsets in absolute units; zoom cameras
    measure them in units of their own focal length, which is what makes a
    joint rescaling of scene and focal lengths invisible to them.
    """

    known_focal: ClassVar[float] = 1.0

    @property
    def focal_mode(self) -> str:
        """Where the focal length lives: ``zoom``, ``global`` or ``known``."""
        if self.f == self.d + self.rot_dim + 1:
            return "zoom"
        return "global" if self.h == 1 else "known"

    @property
    def rotation_slice(self) -> slice:
        return slice(self.d, self.d + self.rot_dim)

    @property
    def position_slice(self) -> slice:
        return slice(0, self.d)

    @property
    def focal_index(self) -> int | None:
        return self.f - 1 if self.focal_mode == "zoom" else None

    def focal(self, P, glob):
        """The focal length, or a column (m, 1) of them for zoom cameras."""
        if self.focal_mode == "known":
            return self.known_focal
        if self.focal_mode == "global":
            return float(glob[0])
        return P[:, self.focal_index, None]

    def _frame(self, P, glob, X):
        """Camera-frame coordinates of the positions, and their signed
        distances in front of the projection-center plane."""
        Y = (X - P[:, None, : self.d]) @ self._rotations(P).swapaxes(-1, -2)
        return Y, Y[..., self.d - 1] + self.focal(P, glob)

    def project(self, P, glob, X):
        Y, den = self._frame(P, glob, X)
        _check_regular(np.abs(den) < SINGULAR_CUTOFF, "point lies on the projection-center plane")
        scale = 1.0 if self.focal_mode == "zoom" else self.focal(P, glob)
        return scale * Y[..., : self.s] / den[..., None]

    def embed(self, p, glob, r):
        lifted = np.zeros(self.d)
        lifted[: self.s] = p[self.focal_index] * r if self.focal_mode == "zoom" else r
        return p[: self.d] + self.rotation(p).T @ lifted

    def act(self, p, scale, R, v):
        parts = [scale * (R @ p[: self.d]) + v, self._turned(p, R)]
        if self.focal_mode == "zoom":
            parts.append(np.array([scale * p[self.focal_index]]))
        return np.concatenate(parts)

    def _with_focal(self, parts, rng, spread):
        if self.focal_mode == "zoom":
            parts.append(np.array([rng.uniform(0.5, 2.0) * spread]))
        return np.concatenate(parts)

    def sample(self, rng, spread):
        pos = rng.uniform(-spread, spread, size=self.d)
        return self._with_focal([pos, geometry.random_rotation_coords(self.d, rng)], rng, spread)

    def place(self, rng, box):
        """Outside the point cloud, looking at a target near its middle."""
        direction = rng.normal(size=self.d)
        direction /= np.linalg.norm(direction)
        pos = direction * SPREAD * rng.uniform(2.0, 3.0)
        target = rng.uniform(-0.3, 0.3, size=self.d) * SPREAD
        R = geometry.look_at_rotation(target - pos,
                                      rng.uniform(-np.pi, np.pi) if self.d == 3 else 0.0)
        return self._with_focal([pos, geometry.rotation_log(self.d, R)], rng, SPREAD)

    def margins_ok(self, P, glob, X):
        """Positions at least 0.5 in front of the projection-center plane."""
        return bool(self._frame(P, glob, X)[1].min() >= 0.5)

    def singular_margin(self, p, glob, point):
        return float(abs(self._frame(p[None], glob, point[None, None])[1][0, 0]))


@dataclass(frozen=True)
class LineClass(CameraClass):
    """Orthographic projection onto a directed line in space; the chart is
    the coordinate along the line. The component of the line's position
    perpendicular to its direction never enters the readout and is excluded
    from the parameter chart."""

    rotation_slice: ClassVar[slice] = slice(0, 2)  # the direction chart
    angular_param_indices: ClassVar[tuple[int, ...]] = (0,)  # azimuth of the direction

    def direction(self, p) -> np.ndarray:  # (3,), or (m, 3) for (m, f)
        return geometry.unit_from_angles(p[..., 0], p[..., 1])

    def project(self, P, glob, X):
        return X @ self.direction(P)[:, :, None] - P[:, None, 2:3]

    def embed(self, p, glob, r):
        return (p[2] + r[0]) * self.direction(p)

    def act(self, p, scale, R, v):
        u_new = R @ self.direction(p)
        theta, phi = geometry.angles_from_unit(u_new)
        return np.array([theta, phi, p[2] + u_new @ v])

    def sample(self, rng, spread):
        while True:
            theta = rng.uniform(-np.pi, np.pi)
            phi = float(np.arccos(rng.uniform(-1.0, 1.0)))
            if POLE_MARGIN < phi < np.pi - POLE_MARGIN:
                break
        return np.array([theta, phi, rng.uniform(-spread, spread)])


@dataclass(frozen=True)
class Camera:
    """A camera class instance with its parameter vector."""

    cls: CameraClass
    params: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "params", checked_array(f"{self.cls.name} camera parameters",
                                                         self.params, (self.cls.f,)))


_CATALOG: tuple[CameraClass, ...] = (
    AffineClass("affine-ortho-2d", 2, 1, 2, 0, "euclidean",
                "params = [orientation angle, retina offset]"),
    OmniClass("omni-oriented-2d", 2, 1, 2, 0, "dilation", "params = [center x, center y]"),
    OmniClass("omni-2d", 2, 1, 3, 0, "similarity",
              "params = [center x, center y, heading angle]"),
    PerspectiveClass("perspective-2d", 2, 1, 3, 1, "euclidean",
                     "params = [position x, position y, orientation angle]; shared focal length"),
    PerspectiveClass("perspective-zoom-2d", 2, 1, 4, 0, "similarity",
                     "params = [position x, position y, orientation angle, focal length]"),
    AffineClass("affine-ortho-3d", 3, 2, 5, 0, "euclidean",
                "params = [orientation (3, exponential), retina offset (2)]"),
    OmniClass("omni-oriented-3d", 3, 2, 3, 0, "dilation", "params = [center (3)]"),
    OmniClass("omni-3d", 3, 2, 6, 0, "similarity",
              "params = [center (3), orientation (3, exponential)]"),
    PerspectiveClass("perspective-3d", 3, 2, 6, 1, "euclidean",
                     "params = [position (3), orientation (3, exponential)]; shared focal length"),
    PerspectiveClass("perspective-zoom-3d", 3, 2, 7, 0, "similarity",
                     "params = [position (3), orientation (3, exponential), focal length]"),
    LineClass("line-3d", 3, 1, 3, 0, "euclidean",
              "params = [direction azimuth, direction polar angle, chart offset]"),
    PerspectiveClass("perspective-known-2d", 2, 1, 3, 0, "euclidean",
                     "params = [position x, position y, orientation angle]; focal length fixed at 1"),
    PerspectiveClass("perspective-known-3d", 3, 2, 6, 0, "euclidean",
                     "params = [position (3), orientation (3, exponential)]; focal length fixed at 1"),
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


def checked_array(what: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a read-only, C-ordered float copy of shape ``shape``, where
    a None axis takes any length >= 1. A wrong rank or shape or a non-finite
    entry raises ValueError naming ``what``."""
    a = np.asarray(value, dtype=float).copy()
    if a.ndim != len(shape) or not all(map(_fits, shape, a.shape)):
        want = ", ".join("k" if w is None else str(w) for w in shape)
        where = " with every k >= 1" if None in shape else ""
        raise ValueError(f"{what} must have shape ({want}){where}, got {a.shape}")
    if np.count_nonzero(np.isfinite(a)) != a.size:  # faster than .all() on small arrays
        raise ValueError(f"{what} must be finite")
    a.flags.writeable = False
    return a


def _fits(want: int | None, length: int) -> bool:
    return length >= 1 if want is None else length == want


def checked_globals(cls: CameraClass, globals_vec) -> np.ndarray:
    """The ``h`` shared scene-level parameters of ``cls``; None means none."""
    return checked_array(f"{cls.name} scene-level parameters",
                         () if globals_vec is None else globals_vec, (cls.h,))


def _check_regular(bad: np.ndarray, reason: str) -> None:
    """Raise for the first True entry of an (m, n) mask, in camera-major order."""
    if bad.any():
        j, i = np.argwhere(bad)[0]
        raise SingularConfigurationError(reason, point_index=int(i), camera_index=int(j))


def project_points(camera: Camera, globals_vec, points: np.ndarray) -> np.ndarray:
    """Chart coordinates of several points under one camera, shape (n, s)."""
    cls = camera.cls
    pts = checked_array("points", points, (None, cls.d))
    try:
        return cls.project(camera.params[None], checked_globals(cls, globals_vec), pts[None])[0]
    except SingularConfigurationError as exc:  # a lone camera has no index
        raise SingularConfigurationError(exc.reason, point_index=exc.point_index) from None


def project(camera: Camera, globals_vec, point) -> np.ndarray:
    """Chart coordinates of one point, length ``s``."""
    point = checked_array("point", point, (camera.cls.d,))
    return project_points(camera, globals_vec, point[None])[0]


def embed(camera: Camera, globals_vec, r) -> np.ndarray:
    """Ambient point on the retinal surface with chart coordinates ``r``."""
    cls = camera.cls
    r = np.asarray(r, dtype=float).reshape(-1)
    if r.size != cls.s:
        raise ChartRangeError(f"{cls.name} chart has {cls.s} coordinates, got {r.size}")
    if not np.all(np.isfinite(r)):
        raise ChartRangeError("chart coordinates must be finite")
    return cls.embed(camera.params, checked_globals(cls, globals_vec), r)


def camera_map(camera: Camera, globals_vec, point) -> np.ndarray:
    """The idempotent ambient map: embed the projection of ``point``."""
    return embed(camera, globals_vec, project(camera, globals_vec, point))


def singular_margin(camera: Camera, globals_vec, point) -> float:
    """Distance from ``point`` to the camera's singular set (inf if none)."""
    cls = camera.cls
    return cls.singular_margin(camera.params, checked_globals(cls, globals_vec),
                               checked_array("point", point, (cls.d,)))


def random_camera(cls: CameraClass, seed) -> Camera:
    """Deterministic random camera: positions in [-SPREAD, SPREAD]^d,
    rotations uniform in normalized exponential coordinates, focal lengths
    in [0.5, 2] * SPREAD."""
    return Camera(cls, cls.sample(np.random.default_rng(seed), SPREAD))

"""Scenes, the measurement map, finite-difference Jacobians, and rank analysis.

A scene is ``n`` points and ``m`` cameras of one class plus any shared
scene-level parameters. ``evaluate`` produces the full n-by-m grid of retinal
chart coordinates; stacking the grid row-major gives the measurement map whose
Jacobian is analyzed here. Moving-point scenes (``JetScene``) replace each
static point by a small motion model sampled at the per-camera shot times; a
static point is the order-0 case, so both kinds share one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import cameras as cam
from . import geometry
from .cameras import Camera, CameraClass
from .errors import DegenerateConfigurationError, SingularConfigurationError

DEFAULT_FD_STEP = 1e-6
MAX_DRAWS = 100  # scenes a sampler draws before it gives up
JET_OMEGA = 0.7  # angular velocity of every sampled circle jet


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float).copy()
    a.flags.writeable = False
    return a


def _check_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")


def _cameras_and_globals(cls: CameraClass, cams, globals_vec) -> tuple:
    cams_t = tuple(cams)
    if len(cams_t) < 1:
        raise ValueError("at least one camera required")
    for c in cams_t:
        if c.cls.name != cls.name:
            raise ValueError(f"camera class {c.cls.name} does not match scene class {cls.name}")
    glob = np.asarray(globals_vec, dtype=float).reshape(-1)
    if glob.size != cls.h:
        raise ValueError(f"{cls.name} expects {cls.h} scene-level parameter(s)")
    _check_finite("scene-level parameters", glob)
    return cams_t, _freeze(glob)


def _split_vector(cls: CameraClass, block_shape: tuple, m: int, vec) -> tuple:
    """Point coefficient block, cameras and globals of a coordinate vector."""
    vec = np.asarray(vec, dtype=float).reshape(-1)
    block = math.prod(block_shape)
    cams_end = block + cls.f * m
    if vec.size != cams_end + cls.h:
        raise ValueError(f"expected vector of length {cams_end + cls.h}, got {vec.size}")
    cams = tuple(Camera(cls, vec[off : off + cls.f]) for off in range(block, cams_end, cls.f))
    return vec[:block].reshape(block_shape), cams, vec[cams_end:]


class _SceneLayout:
    """What static and moving scenes share.

    Each point owns ``point_dim`` motion coefficients, viewed as ``coefficients``
    of shape (n, rows, d). Row 0 is the anchor, which moves like a point under
    the symmetry group; the other rows (radius vectors, higher Taylor terms)
    only rotate and scale. ``with_coefficients`` rebuilds the scene from such
    rows, and ``positions(j)`` gives the positions camera ``j`` photographs.
    The coordinate vector is all coefficients, then each camera's parameters,
    then the scene-level parameters.
    """

    @property
    def m(self) -> int:
        return len(self.cams)

    @property
    def dim(self) -> int:
        """Length of the full coordinate vector point_dim*n + f*m + h."""
        return self.point_dim * self.n + self.cls.f * self.m + self.cls.h

    def to_vector(self) -> np.ndarray:
        parts = [self.coefficients.reshape(-1)]
        parts.extend(c.params for c in self.cams)
        parts.append(self.globals_vec)
        return np.concatenate(parts)

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate indices by owner: ``points`` of shape (n, point_dim) and
        ``cams`` of shape (m, f); the h shared parameters come last."""
        points = np.arange(self.n * self.point_dim).reshape(self.n, self.point_dim)
        cams = points.size + np.arange(self.m * self.cls.f).reshape(self.m, self.cls.f)
        return points, cams

    @property
    def angle_mask(self) -> np.ndarray:
        """Coordinates that are angles and wrap at +-pi."""
        mask = np.zeros(self.dim, dtype=bool)
        mask[self.columns()[1][:, list(self.cls.angular_param_indices)]] = True
        return mask

    @property
    def output_angle_mask(self) -> np.ndarray:
        """Entries of the flattened measurement vector that are angles."""
        mask = np.zeros(self.cls.s, dtype=bool)
        mask[list(self.cls.angular_output_indices)] = True
        return np.tile(mask, self.n * self.m)


@dataclass(frozen=True)
class Scene(_SceneLayout):
    """Static configuration: points, cameras, shared parameters."""

    cls: CameraClass
    points: np.ndarray  # (n, d)
    cams: tuple[Camera, ...]
    globals_vec: np.ndarray  # (h,)
    model: ClassVar[str] = "static"  # the order-0 motion law; align compares models

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.cls.d or pts.shape[0] < 1:
            raise ValueError(f"points must have shape (n, {self.cls.d}) with n >= 1")
        _check_finite("points", pts)
        cams_t, glob = _cameras_and_globals(self.cls, self.cams, self.globals_vec)
        object.__setattr__(self, "points", _freeze(pts))
        object.__setattr__(self, "cams", cams_t)
        object.__setattr__(self, "globals_vec", glob)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def point_dim(self) -> int:
        return self.cls.d

    @property
    def coefficients(self) -> np.ndarray:
        return self.points[:, None, :]

    def positions(self, j: int) -> np.ndarray:
        return self.points

    def with_coefficients(self, coefficients: np.ndarray, cams) -> "Scene":
        return Scene(self.cls, coefficients[:, 0, :], cams, self.globals_vec)

    def with_vector(self, vec: np.ndarray) -> "Scene":
        return scene_from_vector(self.cls, self.n, self.m, vec)


def scene_from_vector(cls: CameraClass, n: int, m: int, vec: np.ndarray) -> Scene:
    pts, cams, glob = _split_vector(cls, (n, cls.d), m, vec)
    return Scene(cls, pts, cams, glob)


@dataclass(frozen=True)
class Measurements:
    """Retinal chart coordinates for every (point, camera) pair."""

    cls: CameraClass
    data: np.ndarray  # (n, m, s)

    def __post_init__(self):
        d = np.asarray(self.data, dtype=float)
        if d.ndim != 3 or d.shape[2] != self.cls.s:
            raise ValueError(f"data must have shape (n, m, {self.cls.s})")
        if not np.isfinite(d).all():
            raise ValueError("measurements must be finite")
        object.__setattr__(self, "data", _freeze(d))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]

    def flat(self) -> np.ndarray:
        return self.data.ravel()


@dataclass(frozen=True)
class JetScene(_SceneLayout):
    """Moving-point configuration shot at known per-camera times.

    ``model`` selects the motion law. ``circle`` keeps each point on a
    circle traversed at the shared known angular velocity ``omega``; its
    coefficient row is [center, radius vector]. ``taylor`` stores polynomial
    coefficients of shape (k+1, d) per point.
    """

    cls: CameraClass
    model: str  # circle | taylor
    motion: np.ndarray  # circle: (n, 4); taylor: (n, k+1, d)
    times: np.ndarray  # (m,), strictly increasing
    cams: tuple[Camera, ...]
    globals_vec: np.ndarray
    omega: float = 0.0

    def __post_init__(self):
        if self.model not in ("circle", "taylor"):
            raise ValueError(f"unknown motion model {self.model!r}")
        motion = np.asarray(self.motion, dtype=float)
        times = np.asarray(self.times, dtype=float).reshape(-1)
        _check_finite("motion", motion)
        _check_finite("times", times)
        if not math.isfinite(self.omega):
            raise ValueError("omega must be finite")
        if self.model == "circle":
            if self.cls.d != 2:
                raise ValueError("the circle motion model is planar")
            if motion.ndim != 2 or motion.shape[1] != 4 or motion.shape[0] < 1:
                raise ValueError("circle motion rows are [cx, cy, rx, ry]")
            radii = np.linalg.norm(motion[:, 2:], axis=1)
            if np.any(radii < 1e-12):
                raise ValueError("circle radius vectors must be nonzero")
        else:
            if motion.ndim != 3 or motion.shape[2] != self.cls.d or motion.shape[0] < 1:
                raise ValueError("taylor motion must have shape (n, k+1, d)")
        if times.size != len(self.cams):
            raise ValueError("one shot time per camera required")
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        cams_t, glob = _cameras_and_globals(self.cls, self.cams, self.globals_vec)
        object.__setattr__(self, "motion", _freeze(motion))
        object.__setattr__(self, "times", _freeze(times))
        object.__setattr__(self, "cams", cams_t)
        object.__setattr__(self, "globals_vec", glob)

    @property
    def n(self) -> int:
        return self.motion.shape[0]

    @property
    def point_dim(self) -> int:
        return self.motion[0].size

    @property
    def coefficients(self) -> np.ndarray:
        return self.motion.reshape(self.n, -1, self.cls.d)

    def positions(self, j: int) -> np.ndarray:
        return jet_position(self.motion, self.times[j], self.model, self.omega)

    def with_coefficients(self, coefficients: np.ndarray, cams) -> "JetScene":
        return JetScene(self.cls, self.model, coefficients.reshape(self.motion.shape), self.times,
                        cams, self.globals_vec, self.omega)

    def with_vector(self, vec: np.ndarray) -> "JetScene":
        motion, cams, glob = _split_vector(self.cls, self.motion.shape, self.m, vec)
        return JetScene(self.cls, self.model, motion, self.times, cams, glob, self.omega)


def jet_position(coeffs, t: float, model: str = "circle", omega: float = 0.0) -> np.ndarray:
    """Position at time ``t`` of one moving point, or of a stack of them.

    ``coeffs`` is one point's motion row (circle: (4,); taylor: (k+1, d)) or
    a stack of such rows along the leading axes.
    Circle model: center + R(omega * t) applied to the radius vector.
    Taylor model: sum of coeffs[..., l, :] * t**l over the Taylor rows.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if model == "circle":
        return coeffs[..., :2] + (geometry.rot2(omega * t) @ coeffs[..., 2:, None])[..., 0]
    if model == "taylor":
        return (t ** np.arange(coeffs.shape[-2])) @ coeffs
    raise ValueError(f"unknown motion model {model!r}")


def evaluate(scene: Scene | JetScene) -> Measurements:
    """Project the positions each camera sees, at its shot time for moving
    points, through that camera."""
    n, m, s = scene.n, scene.m, scene.cls.s
    data = np.empty((n, m, s))
    for j, camera in enumerate(scene.cams):
        try:
            data[:, j, :] = cam.project_points(camera, scene.globals_vec, scene.positions(j))
        except SingularConfigurationError as exc:
            raise SingularConfigurationError(
                exc.reason, point_index=exc.point_index, camera_index=j
            ) from None
    return Measurements(scene.cls, data)


evaluate_jet = evaluate


def fd_jacobian(fn, x: np.ndarray, rows: int, wrap: np.ndarray,
                step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central finite differences of ``fn`` at ``x``, shape (rows, x.size).

    Outputs marked in ``wrap`` are angles: their differences are wrapped so
    chart seams do not leak 2*pi jumps into the matrix.
    """
    J = np.empty((rows, x.size))
    for k in range(x.size):
        xp = x.copy()
        xp[k] += step
        xm = x.copy()
        xm[k] -= step
        diff = fn(xp) - fn(xm)
        diff[wrap] = geometry.wrap_angle(diff[wrap])
        J[:, k] = diff / (2.0 * step)
    return J


def jacobian(scene: Scene | JetScene, step: float = DEFAULT_FD_STEP) -> np.ndarray:
    """Central finite-difference Jacobian of the flattened measurement map.

    Rows follow the row-major (point, camera, chart component) order, columns
    the scene coordinate vector.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    return fd_jacobian(lambda v: evaluate(scene.with_vector(v)).flat(), scene.to_vector(),
                       scene.cls.s * scene.n * scene.m,
                       scene.output_angle_mask, step)


@dataclass(frozen=True)
class RankReport:
    """Numerical rank of a matrix from its singular spectrum."""

    shape: tuple[int, int]
    singular_values: np.ndarray
    rel_tol: float
    threshold: float
    rank: int
    gap: float  # ratio of the last kept to the first dropped singular value


def numerical_rank(mat: np.ndarray, rel_tol: float | None = None) -> RankReport:
    """Rank = number of singular values above rel_tol * sigma_max.

    The default tolerance is 1e-8 * max(rows, cols), a spectral cutoff sized
    for double-precision finite-difference Jacobians.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        raise ValueError("empty matrix has no rank report")
    if rel_tol is None:
        rel_tol = 1e-8 * max(mat.shape)
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    sigma = np.linalg.svd(mat, compute_uv=False)
    top = float(sigma[0])
    threshold = rel_tol * top
    rank = int(np.count_nonzero(sigma > threshold)) if top > 0.0 else 0
    if 0 < rank < sigma.size and sigma[rank] > 0.0:
        gap = float(sigma[rank - 1] / sigma[rank])
    else:
        gap = float("inf")
    return RankReport(mat.shape, sigma, float(rel_tol), float(threshold), rank, gap)


def predicted_rank(cls: CameraClass, n: int, m: int) -> int:
    """Generic rank bound min(d*n + f*m + h - g, s*n*m)."""
    return min(cls.d * n + cls.f * m + cls.h - cls.g, cls.s * n * m)


@dataclass(frozen=True)
class GenericRankReport:
    class_name: str
    n: int
    m: int
    trial_ranks: tuple[int, ...]
    rank: int  # max over trials
    best: RankReport  # report of the best trial (max rank, then widest gap)


def _draw_scene(cls: CameraClass, m: int, seed, spread: float, box: float,
                draw_points) -> Scene | JetScene:
    """Draw scenes until every camera keeps its margins from the positions it sees.

    Each try draws the point coefficients (``draw_points(rng)`` returns a
    function of the cameras and shared parameters that builds the scene),
    then the shared parameters, then the cameras through their class's
    placement; ``box`` bounds omni camera centers.
    """
    rng = np.random.default_rng(seed)
    for _ in range(MAX_DRAWS):
        build = draw_points(rng)
        glob = np.array([rng.uniform(0.5, 2.0) * spread]) if cls.h else np.zeros(0)
        cams = tuple(Camera(cls, cls.place(rng, spread, box)) for _ in range(m))
        scene = build(cams, glob)
        if all(cls.margins_ok(c.params, scene.globals_vec, scene.positions(j), spread)
               for j, c in enumerate(scene.cams)):
            return scene
    raise DegenerateConfigurationError(
        f"no non-singular {cls.name} scene found in {MAX_DRAWS} draws"
    )


def random_scene(cls: CameraClass, n: int, m: int, seed, spread: float = 2.0) -> Scene:
    """Deterministic generic scene with singularity margins enforced.

    Points are drawn in a box; omni cameras keep a minimum distance from all
    points and 3D angle charts stay away from their poles; perspective
    cameras are placed outside the point cloud looking at it, so every point
    sits safely in front of the film.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 points and m >= 1 cameras")

    def draw_points(rng):
        points = rng.uniform(-spread, spread, size=(n, cls.d))
        return lambda cams, glob: Scene(cls, points, cams, glob)

    return _draw_scene(cls, m, seed, spread, 1.6 * spread, draw_points)


def random_jet_scene(cls: CameraClass, n: int, m: int, seed, spread: float = 2.0) -> JetScene:
    """Deterministic circle-motion scene observed by planar cameras, with
    shared parameters, camera placement and margins as in ``random_scene``."""
    if cls.d != 2:
        raise ValueError("circle jets are planar")
    times = 0.35 * np.arange(m)

    def draw_points(rng):
        centers = rng.uniform(-spread, spread, size=(n, 2))
        angles = rng.uniform(-np.pi, np.pi, size=n)
        radii = rng.uniform(0.3, 0.8, size=n) * spread
        motion = np.column_stack([centers,
                                  radii * np.cos(angles), radii * np.sin(angles)])
        return lambda cams, glob: JetScene(cls, "circle", motion, times, cams, glob, JET_OMEGA)

    return _draw_scene(cls, m, seed, spread, 1.8 * spread, draw_points)


def generic_rank(cls: CameraClass, n: int, m: int, trials: int = 5, seed: int = 0,
                 rel_tol: float | None = None) -> GenericRankReport:
    """Max numerical rank of the measurement Jacobian over random scenes.

    The rank can only drop on thin subsets of configuration space, so the max
    over independent draws estimates the generic value.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    reports = [
        numerical_rank(jacobian(random_scene(cls, n, m, seed=(seed, t))), rel_tol=rel_tol)
        for t in range(trials)
    ]
    ranks = tuple(r.rank for r in reports)
    best = max(reports, key=lambda r: (r.rank, r.gap))
    return GenericRankReport(cls.name, n, m, ranks, max(ranks), best)


@dataclass(frozen=True)
class KernelCheckReport:
    """Relative residuals of the symmetry directions under the Jacobian."""

    ratios: np.ndarray  # one per generator column
    tol: float
    passed: bool

    @property
    def worst(self) -> float:
        return float(np.max(self.ratios))


def kernel_check(scene, tol: float = 1e-5) -> KernelCheckReport:
    """Verify that every symmetry generator is annihilated by the Jacobian.

    Checks |J v| <= tol * |J| * |v| for each generator column v; directions
    that change the pictures fail the bound.
    """
    from .symmetry import generators

    J = jacobian(scene)
    G = generators(scene.cls, scene)
    jnorm = float(np.linalg.norm(J, 2))
    ratios = np.linalg.norm(J @ G, axis=0) / (jnorm * np.linalg.norm(G, axis=0))
    return KernelCheckReport(ratios, tol, bool(np.all(ratios <= tol)))

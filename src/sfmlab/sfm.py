"""Scenes, the measurement map, finite-difference Jacobians, and rank analysis.

A scene is ``n`` points and ``m`` cameras of one class, held as one (m, f)
parameter array, plus any shared scene-level parameters. ``evaluate`` produces
the full n-by-m grid of retinal chart coordinates; stacking the grid row-major
gives the measurement map whose Jacobian is analyzed here. Moving-point scenes
(``JetScene``) replace each static point by a small motion model sampled at
the per-camera shot times; a static point is the order-0 case, so both kinds
share one code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import geometry
from .cameras import SPREAD, Camera, CameraClass, checked_array, checked_globals
from .counting import checked_ints, feasible
from .errors import DegenerateConfigurationError

FD_STEP = 1e-6  # central-difference step of every finite-difference Jacobian
MAX_DRAWS = 100  # scenes a sampler draws before it gives up
JET_OMEGA = 0.7  # angular velocity of every sampled circle jet


def _split_vector(cls: CameraClass, block_shape: tuple, m: int, vec) -> tuple:
    """Point coefficient block, camera parameters and globals of a coordinate vector."""
    vec = np.asarray(vec, dtype=float).reshape(-1)
    block = math.prod(block_shape)
    cams_end = block + cls.f * m
    if vec.size != cams_end + cls.h:
        raise ValueError(f"expected vector of length {cams_end + cls.h}, got {vec.size}")
    return vec[:block].reshape(block_shape), vec[block:cams_end].reshape(m, cls.f), vec[cams_end:]


class _SceneLayout:
    """What static and moving scenes share.

    Each point owns ``point_dim`` motion coefficients, viewed as ``coefficients``
    of shape (n, rows, d). Row 0 is the anchor, which moves like a point under
    the symmetry group; the other rows (radius vectors, higher Taylor terms)
    only rotate and scale. ``with_coefficients`` rebuilds the scene from such
    rows, and ``shot_positions()`` gives the positions every camera
    photographs, shape (m, n, d). The coordinate vector is all coefficients,
    then each camera's parameters (the rows of ``params``), then the
    scene-level parameters.
    """

    def _check_cameras(self) -> None:
        """Freeze ``params`` as a checked (m, f) array, stacked first from a
        sequence of cameras of the scene's class, and the shared parameters."""
        cls, params = self.cls, self.params
        if not isinstance(params, np.ndarray):
            params = tuple(params)
            if not all(isinstance(c, Camera) and c.cls.name == cls.name for c in params):
                raise ValueError(f"cameras must be {cls.name} Camera objects or an (m, f) array")
            params = [c.params for c in params]
        object.__setattr__(self, "params", checked_array(f"{cls.name} camera parameters", params,
                                                         (None, cls.f)))
        object.__setattr__(self, "globals_vec", checked_globals(cls, self.globals_vec))

    @property
    def m(self) -> int:
        return self.params.shape[0]

    @property
    def cams(self) -> tuple[Camera, ...]:
        """The cameras as ``Camera`` objects, built on each access."""
        return tuple(Camera(self.cls, p) for p in self.params)

    def positions(self, j: int) -> np.ndarray:  # row j of shot_positions()
        return self.shot_positions()[j]

    @property
    def dim(self) -> int:
        """Length of the full coordinate vector point_dim*n + f*m + h."""
        return self.point_dim * self.n + self.cls.f * self.m + self.cls.h

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.coefficients.reshape(-1), self.params.reshape(-1),
                               self.globals_vec])

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate indices by owner: ``points`` of shape (n, point_dim) and
        ``cams`` of shape (m, f); the h shared parameters come last."""
        points = np.arange(self.n * self.point_dim).reshape(self.n, self.point_dim)
        cams = points.size + np.arange(self.m * self.cls.f).reshape(self.m, self.cls.f)
        return points, cams

    def column_groups(self) -> list[tuple]:
        """``fd_jacobian`` groups of the measurement map, point_dim + f + h of them.

        Measurement (i, j) depends only on point i, camera j and the shared
        parameters, so coefficient c of every point is one group, each column
        reading the m*s rows of its point, and parameter k of every camera is
        one group, each column reading the n*s rows of its camera (Curtis,
        Powell & Reid 1974). Each shared parameter is a group of its own.
        """
        points, cams = self.columns()
        rows = np.arange(self.n * self.m * self.cls.s).reshape(self.n, self.m, -1)
        point_rows = rows.reshape(self.n, -1)
        cam_rows = rows.swapaxes(0, 1).reshape(self.m, -1)
        return ([(points[:, [c]], point_rows) for c in range(self.point_dim)]
                + [(cams[:, [k]], cam_rows) for k in range(self.cls.f)]
                + single_columns(self.dim)[points.size + cams.size:])

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
    """Static configuration: points, camera parameters (or cameras), shared parameters."""

    cls: CameraClass
    points: np.ndarray  # (n, d)
    params: np.ndarray  # (m, f)
    globals_vec: np.ndarray  # (h,)
    model: ClassVar[str] = "static"  # the order-0 motion law; align compares models

    def __post_init__(self):
        object.__setattr__(self, "points", checked_array("points", self.points, (None, self.cls.d)))
        self._check_cameras()

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def point_dim(self) -> int:
        return self.cls.d

    @property
    def coefficients(self) -> np.ndarray:
        return self.points[:, None, :]

    def shot_positions(self) -> np.ndarray:
        return np.broadcast_to(self.points, (self.m,) + self.points.shape)

    def with_coefficients(self, coefficients: np.ndarray, params: np.ndarray) -> "Scene":
        return Scene(self.cls, coefficients[:, 0, :], params, self.globals_vec)

    def with_vector(self, vec: np.ndarray) -> "Scene":
        return scene_from_vector(self.cls, self.n, self.m, vec)


def scene_from_vector(cls: CameraClass, n: int, m: int, vec: np.ndarray) -> Scene:
    pts, params, glob = _split_vector(cls, (n, cls.d), m, vec)
    return Scene(cls, pts, params, glob)


@dataclass(frozen=True)
class Measurements:
    """Retinal chart coordinates for every (point, camera) pair."""

    cls: CameraClass
    data: np.ndarray  # (n, m, s)

    def __post_init__(self):
        object.__setattr__(self, "data", checked_array("measurements", self.data,
                                                       (None, None, self.cls.s)))

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
    coefficients of shape (k+1, d) per point. ``params`` may be given as a
    sequence of ``Camera`` objects.
    """

    cls: CameraClass
    model: str  # circle | taylor
    motion: np.ndarray  # circle: (n, 4); taylor: (n, k+1, d)
    times: np.ndarray  # (m,), strictly increasing
    params: np.ndarray  # (m, f)
    globals_vec: np.ndarray
    omega: float = 0.0

    def __post_init__(self):
        if self.model not in ("circle", "taylor"):
            raise ValueError(f"unknown motion model {self.model!r}")
        if self.model == "circle":
            if self.cls.d != 2:
                raise ValueError("the circle motion model is planar")
            motion = checked_array("circle motion rows [cx, cy, rx, ry]", self.motion, (None, 4))
            if np.any(np.linalg.norm(motion[:, 2:], axis=1) < 1e-12):
                raise ValueError("circle radius vectors must be nonzero")
        else:
            motion = checked_array("taylor motion", self.motion, (None, None, self.cls.d))
        if not math.isfinite(self.omega):
            raise ValueError("omega must be finite")
        object.__setattr__(self, "motion", motion)
        self._check_cameras()
        times = checked_array("shot times", self.times, (self.m,))
        if np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @property
    def n(self) -> int:
        return self.motion.shape[0]

    @property
    def point_dim(self) -> int:
        return self.motion[0].size

    @property
    def coefficients(self) -> np.ndarray:
        return self.motion.reshape(self.n, -1, self.cls.d)

    def shot_positions(self) -> np.ndarray:
        return jet_position(self.motion, self.times, self.model, self.omega)

    def with_coefficients(self, coefficients: np.ndarray, params: np.ndarray) -> "JetScene":
        return JetScene(self.cls, self.model, coefficients.reshape(self.motion.shape), self.times,
                        params, self.globals_vec, self.omega)

    def with_vector(self, vec: np.ndarray) -> "JetScene":
        motion, params, glob = _split_vector(self.cls, self.motion.shape, self.m, vec)
        return JetScene(self.cls, self.model, motion, self.times, params, glob, self.omega)


def jet_position(coeffs, t, model: str, omega: float = 0.0) -> np.ndarray:
    """Positions at time ``t`` of one moving point, or of a stack of them.

    ``coeffs`` is one point's motion row (circle: (4,); taylor: (k+1, d)) or
    a stack of such rows along the leading axes. An array of times puts its
    axes first: times (m,) and coefficients (n, ...) give positions (m, n, d).
    Circle model: center + R(omega * t) applied to the radius vector.
    Taylor model: sum of coeffs[..., l, :] * t**l over the Taylor rows.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    t = np.asarray(t, dtype=float)
    t = t.reshape(t.shape + (1,) * (coeffs.ndim - 1))  # time axes before the stack's axes
    if model == "circle":
        return coeffs[..., :2] + (geometry.rot2(omega * t) @ coeffs[..., 2:, None])[..., 0]
    if model == "taylor":
        powers = t ** np.arange(coeffs.shape[-2])
        return (powers[..., None, :] @ coeffs)[..., 0, :]
    raise ValueError(f"unknown motion model {model!r}")


def evaluate(scene: Scene | JetScene) -> Measurements:
    """Project the positions each camera sees, at its shot time for moving
    points, through that camera: every camera in one call of its class."""
    data = scene.cls.project(scene.params, scene.globals_vec, scene.shot_positions())
    return Measurements(scene.cls, data.swapaxes(0, 1))


evaluate_jet = evaluate


def fd_jacobian(fn, x: np.ndarray, rows: int, wrap: np.ndarray, groups) -> np.ndarray:
    """Central finite differences of ``fn`` at ``x``, shape (rows, x.size).

    Each group ``(cols, reads)`` costs one evaluation pair: it steps every
    coordinate in ``cols`` at once and sets ``J[reads, cols]`` from the
    difference, so its columns must move disjoint outputs; entries that no
    group reads are 0. Outputs marked in ``wrap`` are angles: their
    differences are wrapped so chart seams do not leak 2*pi jumps into the
    matrix.
    """
    J = np.zeros((rows, x.size))
    for cols, reads in groups:
        xp = x.copy()
        xp[cols] += FD_STEP
        xm = x.copy()
        xm[cols] -= FD_STEP
        diff = fn(xp) - fn(xm)
        diff[wrap] = geometry.wrap_angle(diff[wrap])
        J[reads, cols] = diff[reads] / (2.0 * FD_STEP)
    return J


def single_columns(size: int) -> list[tuple]:
    """``fd_jacobian`` groups of one column each, reading every row."""
    return [(k, slice(None)) for k in range(size)]


def jacobian(scene: Scene | JetScene) -> np.ndarray:
    """Central finite-difference Jacobian of the flattened measurement map.

    Rows follow the row-major (point, camera, chart component) order, columns
    the scene coordinate vector. Columns are taken in the groups of
    ``column_groups``; the result equals the ``single_columns`` loop bit for bit.
    """
    return fd_jacobian(lambda v: evaluate(scene.with_vector(v)).flat(), scene.to_vector(),
                       scene.cls.s * scene.n * scene.m, scene.output_angle_mask,
                       scene.column_groups())


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
    if mat.ndim != 2:
        raise ValueError(f"rank needs a 2-D matrix, got shape {mat.shape}")
    if not np.isfinite([mat.min(), mat.max()]).all():  # a nan or inf reaches them, without a copy
        raise ValueError("matrix must be finite")
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
    """Generic rank bound min(d*n + f*m + h, s*n*m + g) - g."""
    rep = feasible(cls, n, m)
    return min(rep.lhs, rep.rhs) - cls.g


@dataclass(frozen=True)
class GenericRankReport:
    class_name: str
    n: int
    m: int
    trial_ranks: tuple[int, ...]
    rank: int  # max over trials
    best: RankReport  # report of the best trial (max rank, then widest gap)


def _draw_scene(cls: CameraClass, m: int, seed, box: float, draw_points) -> Scene | JetScene:
    """Draw scenes until every camera keeps its margins from the positions it sees.

    Each try draws the point coefficients (``draw_points(rng)`` returns a
    function of the camera parameters and shared parameters that builds it),
    then the shared parameters, then the cameras through their class's
    placement; ``box`` bounds omni camera centers.
    """
    rng = np.random.default_rng(seed)
    for _ in range(MAX_DRAWS):
        build = draw_points(rng)
        glob = np.array([rng.uniform(0.5, 2.0) * SPREAD]) if cls.h else np.zeros(0)
        scene = build(np.array([cls.place(rng, box) for _ in range(m)]), glob)
        if cls.margins_ok(scene.params, scene.globals_vec, scene.shot_positions()):
            return scene
    raise DegenerateConfigurationError(
        f"no non-singular {cls.name} scene found in {MAX_DRAWS} draws"
    )


def random_scene(cls: CameraClass, n: int, m: int, seed) -> Scene:
    """Deterministic generic scene with singularity margins enforced.

    Points are drawn in a box; omni cameras keep a minimum distance from all
    points and 3D angle charts stay away from their poles; perspective
    cameras are placed outside the point cloud looking at it, so every point
    sits safely in front of the film.
    """
    n, m = checked_ints("counts", n, m)
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 points and m >= 1 cameras")

    def draw_points(rng):
        points = rng.uniform(-SPREAD, SPREAD, size=(n, cls.d))
        return lambda params, glob: Scene(cls, points, params, glob)

    return _draw_scene(cls, m, seed, 1.6 * SPREAD, draw_points)


def random_jet_scene(cls: CameraClass, n: int, m: int, seed) -> JetScene:
    """Deterministic circle-motion scene observed by planar cameras, with
    shared parameters, camera placement and margins as in ``random_scene``."""
    n, m = checked_ints("counts", n, m)
    if cls.d != 2:
        raise ValueError("circle jets are planar")
    times = 0.35 * np.arange(m)

    def draw_points(rng):
        centers = rng.uniform(-SPREAD, SPREAD, size=(n, 2))
        angles = rng.uniform(-np.pi, np.pi, size=n)
        radii = rng.uniform(0.3, 0.8, size=n) * SPREAD
        motion = np.column_stack([centers,
                                  radii * np.cos(angles), radii * np.sin(angles)])
        return lambda params, glob: JetScene(cls, "circle", motion, times, params, glob,
                                             JET_OMEGA)

    return _draw_scene(cls, m, seed, 1.8 * SPREAD, draw_points)


def generic_rank(cls: CameraClass, n: int, m: int, trials: int = 5, seed: int = 0,
                 rel_tol: float | None = None) -> GenericRankReport:
    """Max numerical rank of the measurement Jacobian over random scenes.

    The rank can only drop on thin subsets of configuration space, so the max
    over independent draws estimates the generic value.
    """
    (trials,) = checked_ints("trials", trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    reports = [
        numerical_rank(jacobian(random_scene(cls, n, m, seed=(seed, t))), rel_tol=rel_tol)
        for t in range(trials)
    ]
    ranks = tuple(r.rank for r in reports)
    best = max(reports, key=lambda r: (r.rank, r.gap))
    return GenericRankReport(cls.name, n, m, ranks, max(ranks), best)

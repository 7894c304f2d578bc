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
from dataclasses import dataclass, replace
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import geometry
from .cameras import SPREAD, CameraClass, checked_array, checked_globals
from .counting import checked_counts, feasible
from .errors import DegenerateConfigurationError

FD_STEP = 1e-6  # central-difference step of every finite-difference Jacobian
MAX_DRAWS = 100  # scenes a sampler draws before it gives up
JET_OMEGA = 0.7  # angular velocity of every sampled circle jet
MAX_ENTRIES = 2**27  # samplers refuse a larger m*n*d position grid, check_jacobian a larger J
PANEL = 16  # columns per panel of _reduce_rows' blocked QR
CHUNK_ROWS = 2048  # leftover rows jacobian_factor writes and reduces per chunk of points


def _split_vector(cls: CameraClass, block_shape: tuple, m: int, vec) -> tuple:
    """Point coefficient block, camera parameters and globals of a coordinate
    vector, as views of it: the one statement of where a coordinate sits."""
    vec = np.asarray(vec).reshape(-1)
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
    only rotate and scale. ``shot_positions()`` gives the positions every
    camera photographs, shape (m, n, d). The cameras are the rows of the
    (m, f) array ``params``. The coordinate vector is all coefficients, then
    each camera's parameters, then the scene-level parameters. ``columns``
    gives each owner's indices in it, ``with_vector`` rebuilds the scene from
    it, and ``measure`` maps it to the flattened measurements.
    """

    def _check_cameras(self) -> None:
        """Freeze ``params`` as a checked (m, f) array, and the shared parameters."""
        cls = self.cls
        object.__setattr__(self, "params", checked_array(f"{cls.name} camera parameters",
                                                         self.params, (None, cls.f)))
        object.__setattr__(self, "globals_vec", checked_globals(cls, self.globals_vec))

    @property
    def n(self) -> int:
        return self.coefficients.shape[0]

    @property
    def point_dim(self) -> int:
        return self.coefficients[0].size

    @property
    def m(self) -> int:
        return self.params.shape[0]

    def shot_positions(self) -> np.ndarray:
        return self._positions(self.coefficients)

    def _check_motion(self, coefficients: np.ndarray) -> None:
        if self.model == "circle" and np.hypot(*coefficients[:, 1].T).min() < 1e-12:
            raise ValueError("circle radius vectors must be nonzero")

    def measure(self, vec) -> np.ndarray:
        """The measurement map at coordinate vector ``vec``: the flattened
        measurements, equal to ``evaluate(self.with_vector(vec)).flat()``.

        Computed from views of ``vec``, with one ``project`` call and without
        building a scene or ``Measurements``. It rejects what they reject, with
        ValueError: a wrong length, a non-finite coordinate, a zero circle
        radius or a non-finite measurement.
        """
        # C-ordered like the copies with_vector makes, so project rounds the same way
        vec = np.ascontiguousarray(vec, dtype=float).reshape(-1)
        coefficients, params, glob = _split_vector(self.cls, self.coefficients.shape, self.m, vec)
        if np.count_nonzero(np.isfinite(vec)) != vec.size:
            raise ValueError("scene coordinates must be finite")
        self._check_motion(coefficients)
        data = self.cls.project(params, glob, self._positions(coefficients))
        flat = data.swapaxes(0, 1).reshape(-1)
        if np.count_nonzero(np.isfinite(flat)) != flat.size:
            raise ValueError("measurements must be finite")
        return flat

    @property
    def dim(self) -> int:
        """Length of the full coordinate vector point_dim*n + f*m + h."""
        return self.point_dim * self.n + self.cls.f * self.m + self.cls.h

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.coefficients.reshape(-1), self.params.reshape(-1),
                               self.globals_vec])

    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate indices by owner: ``points`` of shape (n, point_dim),
        ``cams`` of shape (m, f) and the h ``shared`` ones, split from the
        index vector as ``with_vector`` splits a coordinate vector."""
        return _split_vector(self.cls, (self.n, self.point_dim), self.m, np.arange(self.dim))

    def owner_jacobian(self) -> np.ndarray:
        """The measurement Jacobian by owner, shape (n, m, s, point_dim + f + h).

        Measurement (i, j) depends only on point i, camera j and the shared
        parameters, its owners. Entry [i, j, :, c] is its derivative by
        coordinate c of its owners: point i's coefficients, then camera j's
        parameters, then the shared parameters. So one evaluation pair steps
        coefficient c of every point, one steps parameter k of every camera,
        and each shared parameter has its own (Curtis, Powell & Reid 1974).
        """
        points, cams, shared = self.columns()
        groups = [*points.T, *cams.T, *shared]
        J = fd_jacobian(self.measure, self.to_vector(), self.output_angle_mask, groups)
        return J.reshape(self.n, self.m, self.cls.s, -1)

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
    """Static configuration: points, camera parameters, shared parameters."""

    cls: CameraClass
    points: np.ndarray  # (n, d)
    params: np.ndarray  # (m, f)
    globals_vec: np.ndarray  # (h,)
    model: ClassVar[str] = "static"  # the order-0 motion law; align compares models

    def __post_init__(self):
        object.__setattr__(self, "points", checked_array("points", self.points, (None, self.cls.d)))
        self._check_cameras()

    @property
    def coefficients(self) -> np.ndarray:
        return self.points[:, None, :]

    def _positions(self, coefficients: np.ndarray) -> np.ndarray:
        return coefficients[:, 0, :][None].repeat(self.m, axis=0)

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
    coefficients of shape (k+1, d) per point. The motion law's time factors
    at the shot times are computed once per scene, on first use.
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
            self._check_motion(motion.reshape(-1, 2, 2))
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
    def coefficients(self) -> np.ndarray:
        return self.motion.reshape(len(self.motion), -1, self.cls.d)

    @cached_property
    def _basis(self) -> np.ndarray:
        return _motion_basis(self.times, self.model, self.omega, self.motion.shape)

    def _positions(self, coefficients: np.ndarray) -> np.ndarray:
        return _moved(self._basis, coefficients.reshape(self.motion.shape), self.model)

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
    return _moved(_motion_basis(t, model, omega, coeffs.shape), coeffs, model)


def _motion_basis(t, model: str, omega: float, coeffs_shape: tuple) -> np.ndarray:
    """The time factors of a motion law at times ``t``, which depend on no
    coefficient: rotations R(omega * t) for circles, powers t**l for Taylor
    rows. The time axes come first, then one axis per stack axis of the
    coefficients."""
    t = np.asarray(t, dtype=float)
    t = t.reshape(t.shape + (1,) * (len(coeffs_shape) - 1))
    if model == "circle":
        return geometry.rot2(omega * t)
    if model == "taylor":
        return t ** np.arange(coeffs_shape[-2])
    raise ValueError(f"unknown motion model {model!r}")


def _moved(basis: np.ndarray, coeffs: np.ndarray, model: str) -> np.ndarray:
    """Positions of the coefficients under a ``_motion_basis`` of their model."""
    if model == "circle":
        return coeffs[..., :2] + (basis @ coeffs[..., 2:, None])[..., 0]
    return (basis[..., None, :] @ coeffs)[..., 0, :]


def evaluate(scene: Scene | JetScene) -> Measurements:
    """Project the positions each camera sees, at its shot time for moving
    points, through that camera: ``scene.measure`` of the scene's own vector."""
    return Measurements(scene.cls, scene.measure(scene.to_vector()).reshape(scene.n, scene.m, -1))


evaluate_jet = evaluate


def fd_jacobian(fn, x: np.ndarray, wrap: np.ndarray, groups) -> np.ndarray:
    """Central finite differences of ``fn`` at ``x``, one column per group,
    shape (wrap.size, len(groups)).

    Group k, an index or an index array, costs one evaluation pair: it steps
    every coordinate in it at once, and column k is the difference. Outputs
    marked in ``wrap`` are angles: their differences are wrapped so chart
    seams do not leak 2*pi jumps into the matrix.
    """
    J = np.empty((wrap.size, len(groups)))
    for k, cols in enumerate(groups):
        xp = x.copy()
        xp[cols] += FD_STEP
        xm = x.copy()
        xm[cols] -= FD_STEP
        diff = fn(xp) - fn(xm)
        diff[wrap] = geometry.wrap_angle(diff[wrap])
        J[:, k] = diff / (2.0 * FD_STEP)
    return J


def check_jacobian(cls: CameraClass, n: int, m: int, cols: int) -> None:
    """Refuse, with ValueError, a Jacobian of one row per measured value
    (``s*n*m``) and ``cols`` columns that has more than ``MAX_ENTRIES``
    entries (read at call time), before it is allocated."""
    rows = cls.s * n * m
    if rows * cols > MAX_ENTRIES:
        raise ValueError(f"{cls.name} ({n},{m}): a {rows} x {cols} Jacobian exceeds "
                         f"{MAX_ENTRIES} entries")


def jacobian(scene: Scene | JetScene) -> np.ndarray:
    """Central finite-difference Jacobian of the flattened measurement map.

    Rows follow the row-major (point, camera, chart component) order, columns
    the scene coordinate vector. Each entry of ``owner_jacobian`` goes into
    its owner's column, found through ``columns()``; every other entry is 0.
    The result equals the one-column-per-coordinate loop bit for bit.
    """
    n, m, dim = scene.n, scene.m, scene.dim
    check_jacobian(scene.cls, n, m, dim)
    points, cams, shared = scene.columns()
    owners = np.concatenate([np.broadcast_to(points[:, None], (n, m, scene.point_dim)),
                             np.broadcast_to(cams, (n, m, scene.cls.f)),
                             np.broadcast_to(shared, (n, m, scene.cls.h))], axis=2)
    J = np.zeros((n, m, scene.cls.s, dim))
    np.put_along_axis(J, owners[:, :, None], scene.owner_jacobian(), axis=3)
    return J.reshape(-1, dim)


@dataclass(frozen=True)
class RankReport:
    """Numerical rank of a matrix from its singular spectrum."""

    shape: tuple[int, int]
    singular_values: np.ndarray
    rel_tol: float
    threshold: float
    rank: int
    gap: float  # ratio of the last kept to the first dropped singular value

    @property
    def full_column_rank(self) -> bool:
        """No column direction is lost: the rank equals the column count."""
        return self.rank == self.shape[1]


def _default_rel_tol(shape: tuple[int, int]) -> float:
    """1e-8 * max(rows, cols): a spectral cutoff sized for double-precision
    finite-difference Jacobians."""
    return 1e-8 * max(shape)


def numerical_rank(mat: np.ndarray, rel_tol: float | None = None) -> RankReport:
    """Rank = number of singular values above rel_tol * sigma_max.

    The tolerance defaults to ``_default_rel_tol`` of the matrix's shape.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.size == 0:
        raise ValueError("empty matrix has no rank report")
    if mat.ndim != 2:
        raise ValueError(f"rank needs a 2-D matrix, got shape {mat.shape}")
    if not np.isfinite([mat.min(), mat.max()]).all():  # a nan or inf reaches them, without a copy
        raise ValueError("matrix must be finite")
    if rel_tol is None:
        rel_tol = _default_rel_tol(mat.shape)
    return _spectrum_rank(mat.shape, np.linalg.svd(mat, compute_uv=False), rel_tol)


def _spectrum_rank(shape: tuple[int, int], sigma: np.ndarray, rel_tol: float) -> RankReport:
    """The rank rule, on a spectrum sorted in descending order: the rank is
    the count of singular values above ``rel_tol * sigma[0]``, and the gap
    is the ratio of the last kept to the first dropped one."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    top = float(sigma[0])
    threshold = rel_tol * top
    rank = int(np.count_nonzero(sigma > threshold)) if top > 0.0 else 0
    if 0 < rank < sigma.size and sigma[rank] > 0.0:
        gap = float(sigma[rank - 1] / sigma[rank])
    else:
        gap = float("inf")
    return RankReport(shape, sigma, float(rel_tol), float(threshold), rank, gap)


def jacobian_factor(scene: Scene | JetScene) -> np.ndarray:
    """A factor M of the measurement Jacobian: J = Q M up to zero rows, where
    Q has orthonormal columns, so M has J's singular values.

    M = [D T; 0 S] in the point columns, then the camera and shared columns:
    D is block diagonal in the R_i[:k], T is ``top`` and S the reduced
    leftover rows, all three from ``_eliminate_points``. It assumes nothing
    about the rank of any block, and M has min(n*m*s, dim) rows.
    """
    return _assemble_factor(scene, *_eliminate_points(scene))


def _eliminate_points(scene: Scene | JetScene) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The point elimination of J: ``R`` of shape (n, k, pd), ``top`` of shape
    (n, k, c) and the reduced leftover rows ``S`` of shape (at most c, c),
    where k = min(m*s, point_dim) and c = m*f + h.

    Point i's coefficients move only the m*s rows of point i, so those rows
    of J are one block [A_i | B_i]: A_i in point i's columns, B_i in the
    camera and shared columns, where camera j's parameters move only camera
    j's rows. Both are read from ``owner_jacobian``; J itself is never
    built. One batched QR gives A_i = Q_i R_i with Q_i square. The first k
    rows of Q_i^T [A_i | B_i] are R_i[:k] and ``top``; the rest are zero in
    the point columns, so they are stacked and reduced by one more QR to S.
    This is the orthogonal form of the point elimination of bundle
    adjustment (Triggs et al., 2000, section 6).

    The leftover rows are reduced chunk by chunk, as in sequential TSQR
    (Demmel, Grigori, Hoemmen & Langou, 2012). Each chunk of points, as many
    as fit in ``CHUNK_ROWS`` leftover rows (at least one), has
    ``_rotated_blocks`` write its leftover rows into one work array, just
    below the R reduced so far, and ``_reduce_rows`` reduces that prefix in
    place. So the work array holds at most c rows more than one chunk's,
    however many points there are, and when all leftover rows fit in one
    chunk it is exactly their stack. The owner derivatives die with the last
    chunk, and S is copied out of the work array, which is freed on return.
    """
    n, m, pd = scene.n, scene.m, scene.point_dim
    k = min(m * scene.cls.s, pd)
    left = m * scene.cls.s - k  # leftover rows per point
    c = scene.cls.f * m + scene.cls.h
    per = max(1, CHUNK_ROWS // max(left, 1))  # points per chunk
    owners = scene.owner_jacobian()
    chunks = [owners[i0:i0 + per] for i0 in range(0, n, per)]
    del owners  # it dies with its last chunk, before that chunk's reduction
    R = np.empty((n, k, pd))
    top = np.empty((n, k, c))
    work = np.empty((min(n * left, c + per * left), c))
    done = 0  # rows of the R reduced so far, at the top of work
    for i0 in range(0, n, per):
        rows = done + len(chunks[0]) * left
        _rotated_blocks(chunks.pop(0), scene.cls.f, R[i0:i0 + per], top[i0:i0 + per],
                        work[done:rows])
        done = _reduce_rows(work[:rows]).shape[0]
    return R, top, work[:done].copy()


def _assemble_factor(scene: Scene | JetScene, R: np.ndarray, top: np.ndarray,
                     S: np.ndarray) -> np.ndarray:
    """M = [D T; 0 S] from the parts ``_eliminate_points`` returns, its
    columns in the order of the scene's coordinate vector."""
    n, k, _ = R.shape
    points, cams, shared = scene.columns()
    others = np.concatenate([cams.ravel(), shared])  # B_i's columns, in the order of Q_i^T B_i
    M = np.zeros((n * k + len(S), scene.dim))
    head = M[:n * k].reshape(n, k, -1)
    head[np.arange(n)[:, None, None], np.arange(k)[:, None], points[:, None, :]] = R
    head[:, :, others] = top
    M[n * k:, others] = S
    return M


def _rotated_blocks(owners: np.ndarray, f: int, R: np.ndarray, top: np.ndarray,
                    rest: np.ndarray) -> None:
    """From the owner derivatives of shape (n, m, s, pd + f + h), write R_i[:k]
    of the batched QR A_i = Q_i R_i into ``R``, of shape (n, k, pd), and
    Q_i^T B_i split at row k: its first k rows into ``top``, of shape
    (n, k, m*f + h), and its leftover rows, stacked, into the C-ordered
    ``rest``, of shape (n*(m*s - k), m*f + h). Both products write into them.
    """
    n, m, s, _ = owners.shape
    _, k, pd = R.shape
    # contiguous copies: the QR and the products round differently on strided views
    A = np.ascontiguousarray(owners[..., :pd]).reshape(n, m * s, pd)
    B_cams = np.ascontiguousarray(owners[..., pd:pd + f])
    B_glob = np.ascontiguousarray(owners[..., pd + f:]).reshape(n, m * s, -1)
    Q, R_full = np.linalg.qr(A, mode="complete")
    R[:] = R_full[:, :k]
    Qt_cams = Q.reshape(n, m, s, -1).swapaxes(2, 3)  # camera j's block is taken from its rows only
    Qt = Q.swapaxes(1, 2)
    width = top.shape[2]
    for rows, out in ((slice(None, k), top), (slice(k, None), rest.reshape(n, -1, width))):
        np.matmul(Qt_cams[:, :, rows], B_cams,
                  out=out[..., :m * f].reshape(n, -1, m, f).swapaxes(1, 2))
        np.matmul(Qt[:, rows], B_glob, out=out[..., m * f:])


def _reduce_rows(a: np.ndarray) -> np.ndarray:
    """Overwrite the C-ordered (N, c) array ``a`` with the R factor of its QR
    and return it, ``a[:min(N, c)]``, zero below the diagonal.

    Blocked Householder QR, ``PANEL`` columns at a time: each panel is
    factored by ``np.linalg.qr(mode="raw")``, its reflectors are accumulated
    in compact WY form Q = I - V T V^T (Schreiber & Van Loan, 1989), with V
    built in the raw panel's own array, and the trailing columns are updated
    in place one panel-wide tile at a time. So no copy of ``a`` is made.
    """
    N, c = a.shape
    r = min(N, c)
    for j0 in range(0, r, PANEL):
        j1 = min(j0 + PANEL, c)
        h, tau = np.linalg.qr(a[j0:, j0:j1], mode="raw")
        p = tau.size
        a[j0:j0 + p, j0:j1] = np.triu(h.T[:p])  # the panel's R
        a[j0 + p:r, j0:j1] = 0.0
        V = h.T[:, :p]  # the reflectors, below the diagonal
        V[:p] = np.tril(V[:p], -1) + np.eye(p)
        VtV = V.T @ V
        T = np.diag(tau)
        for i in range(1, p):
            T[:i, i] = -tau[i] * (T[:i, :i] @ VtV[:i, i])
        for t0 in range(j1, c, PANEL):
            tile = a[j0:, t0:t0 + PANEL]
            tile -= V @ (T.T @ (V.T @ tile))
    return a[:r]


def jacobian_rank(scene: Scene | JetScene, columns, rel_tol: float | None) -> RankReport:
    """``numerical_rank`` of ``jacobian(scene)[:, columns]``, read from
    ``jacobian_factor``: J[:, columns] = Q M[:, columns] has the same
    spectrum. The tolerance and the reported shape are those of J[:, columns].
    """
    M = jacobian_factor(scene)[:, columns]
    shape = (scene.cls.s * scene.n * scene.m, M.shape[1])
    report = numerical_rank(M, _default_rel_tol(shape) if rel_tol is None else rel_tol)
    return replace(report, shape=shape)


def reduced_rank(scene: Scene | JetScene, rel_tol: float | None) -> RankReport:
    """The rank of the measurement Jacobian J from its point elimination,
    with no SVD of the dim x dim factor M.

    M = [D T; 0 S] with D block diagonal in the R_i[:k]. When every R_i[:k]
    has full row rank k, a column operation clears T, so rank J = n*k +
    rank S (Triggs et al., 2000, section 6). The reported spectrum is that
    of the point-eliminated J: the singular values of every R_i[:k] merged
    with those of S, in descending order, as many as M's. Its top is at most
    sigma_max(J), since both are blocks of M. The rank rule of
    ``numerical_rank`` applies to it, with J's shape and tolerance. If some
    R_i[:k] has a singular value at or below the threshold, the closed form
    does not hold, and the report is ``numerical_rank`` of M, assembled from
    the same parts: ``jacobian_rank``'s report.
    """
    shape = (scene.cls.s * scene.n * scene.m, scene.dim)
    rel_tol = _default_rel_tol(shape) if rel_tol is None else rel_tol
    R, top, S = _eliminate_points(scene)
    blocks = np.linalg.svd(R, compute_uv=False)
    sigma = np.sort(np.concatenate([blocks.ravel(), np.linalg.svd(S, compute_uv=False)]))[::-1]
    report = _spectrum_rank(shape, sigma, rel_tol)
    if blocks.min() > report.threshold:
        return report
    return replace(numerical_rank(_assemble_factor(scene, R, top, S), rel_tol), shape=shape)


def predicted_rank(cls: CameraClass, n: int, m: int) -> int:
    """Generic rank bound min(d*n + f*m + h, s*n*m + g) - g."""
    rep = feasible(cls, n, m)
    return min(rep.lhs, rep.rhs) - cls.g


@dataclass(frozen=True)
class GenericRankReport:
    trial_ranks: tuple[int, ...]
    rank: int  # max over trials
    best: RankReport  # report of the best trial (max rank, then widest gap)


def _draw_scene(cls: CameraClass, n: int, m: int, seed, box: float,
                draw_points) -> Scene | JetScene:
    """Draw scenes until every camera keeps its margins from the positions it sees.

    Each try draws the point coefficients (``draw_points(rng)`` returns a
    function of the camera parameters and shared parameters that builds it),
    then the shared parameters, then the cameras through their class's
    placement; ``box`` bounds omni camera centers. A scene with more than
    ``MAX_ENTRIES`` shot positions (m*n*d) is refused before the first try.
    """
    if m * n * cls.d > MAX_ENTRIES:
        raise ValueError(f"{cls.name} ({n},{m}): a {m} x {n} x {cls.d} grid of shot positions "
                         f"exceeds {MAX_ENTRIES} entries")
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
    n, m = checked_counts(n=n, m=m)

    def draw_points(rng):
        points = rng.uniform(-SPREAD, SPREAD, size=(n, cls.d))
        return lambda params, glob: Scene(cls, points, params, glob)

    return _draw_scene(cls, n, m, seed, 1.6 * SPREAD, draw_points)


def random_jet_scene(cls: CameraClass, n: int, m: int, seed) -> JetScene:
    """Deterministic circle-motion scene observed by planar cameras, with
    shared parameters, camera placement and margins as in ``random_scene``."""
    n, m = checked_counts(n=n, m=m)
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

    return _draw_scene(cls, n, m, seed, 1.8 * SPREAD, draw_points)


def generic_rank(cls: CameraClass, n: int, m: int, trials: int = 5, seed: int = 0,
                 rel_tol: float | None = None) -> GenericRankReport:
    """Max numerical rank of the measurement Jacobian over random scenes.

    The rank can only drop on thin subsets of configuration space, so the max
    over independent draws estimates the generic value. Each trial's report
    is ``reduced_rank`` of its scene: the spectrum of the point-eliminated
    Jacobian. Cells whose Jacobian has more than ``MAX_ENTRIES`` entries are
    refused before any scene is drawn.
    """
    n, m, trials = checked_counts(n=n, m=m, trials=trials)
    check_jacobian(cls, n, m, feasible(cls, n, m).lhs)  # J: one column per coordinate
    reports = [
        reduced_rank(random_scene(cls, n, m, seed=(seed, t)), rel_tol)
        for t in range(trials)
    ]
    ranks = tuple(r.rank for r in reports)
    best = max(reports, key=lambda r: (r.rank, r.gap))
    return GenericRankReport(ranks, max(ranks), best)

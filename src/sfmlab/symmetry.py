"""Point-camera symmetry groups and their action on scenes.

Each camera class declares the group that moves points and cameras together
without changing any picture: Euclidean motions (affine, perspective, line
cameras), dilations = translations plus scalings (oriented omni cameras), or
the full similarity group (non-oriented omni and zoom cameras). Elements are
stored as scale-then-rotate-then-translate composites acting on points as
``p -> scale * R p + v``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .cameras import GROUPS, Camera, CameraClass, checked_array
from .errors import DegenerateConfigurationError, GroupMismatchError
from .sfm import JetScene, Scene, fd_jacobian, jacobian_factor

_ORTHO_TOL = 1e-10
KERNEL_TOL = 1e-5  # largest relative residual |J v| / (|J| |v|) of a symmetry direction v


@dataclass(frozen=True)
class GroupElement:
    """One similarity transformation: scale, proper rotation, translation."""

    scale: float
    rotation: np.ndarray  # (d, d)
    translation: np.ndarray  # (d,)

    def __post_init__(self):
        v = checked_array("translation", self.translation, (None,))
        R = checked_array("rotation", self.rotation, (v.size, v.size))
        if np.max(np.abs(R.T @ R - np.eye(v.size))) > _ORTHO_TOL or np.linalg.det(R) < 0:
            raise ValueError("rotation must be orthogonal with determinant +1")
        if not 0 < self.scale < np.inf:
            raise ValueError("scale must be positive and finite")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", v)


def identity(d: int) -> GroupElement:
    return GroupElement(1.0, np.eye(d), np.zeros(d))


def act_point(gamma: GroupElement, points) -> np.ndarray:
    """``p -> scale * R p + v`` for one point ``(d,)`` or a stack ``(..., d)``."""
    p = np.asarray(points, dtype=float)
    return gamma.scale * (p @ gamma.rotation.T) + gamma.translation


def _check_group(gamma: GroupElement, cls: CameraClass):
    rotates, scales = GROUPS[cls.group]
    if not scales and abs(gamma.scale - 1.0) > 1e-12:
        raise GroupMismatchError(f"{cls.name} admits no scaling (scale={gamma.scale})")
    if not rotates and np.max(np.abs(gamma.rotation - np.eye(cls.d))) > 1e-12:
        raise GroupMismatchError(f"{cls.name} admits no rotations")


def act_camera(gamma: GroupElement, camera: Camera) -> Camera:
    """Transform a camera so the moved camera photographs moved points
    identically to the original photographing the original points."""
    cls = camera.cls
    _check_group(gamma, cls)
    return Camera(cls, cls.act(camera.params, gamma.scale, gamma.rotation, gamma.translation))


def act_scene(gamma: GroupElement, scene: Scene | JetScene) -> Scene | JetScene:
    """Transform a scene: anchor rows move like points, while radius vectors
    and higher Taylor terms only rotate and scale."""
    cls = scene.cls
    _check_group(gamma, cls)
    coefficients = scene.coefficients
    moved = coefficients @ (gamma.scale * gamma.rotation).T
    moved[:, 0, :] = act_point(gamma, coefficients[:, 0, :])
    params = [cls.act(p, gamma.scale, gamma.rotation, gamma.translation) for p in scene.params]
    return scene.with_vector(np.concatenate([moved.reshape(-1), np.ravel(params),
                                             scene.globals_vec]))


def random_element(group: str, d: int, seed) -> GroupElement:
    """Deterministic random group element: rotation uniform, translation in
    [-5, 5]^d, scale in [0.5, 2] where the group allows each generator."""
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    rotates, scales = GROUPS[group]
    rng = np.random.default_rng(seed)
    lam = float(rng.uniform(0.5, 2.0)) if scales else 1.0
    R = (geometry.rotation_matrix(d, geometry.random_rotation_coords(d, rng)) if rotates
         else np.eye(d))
    return GroupElement(lam, R, rng.uniform(-5.0, 5.0, size=d))


def _element(group: str, d: int, t: np.ndarray) -> GroupElement:
    """Group element with coordinates ``t``: d translations, then the
    rotation chart where the group rotates, then the log of the scale where
    it scales."""
    rotates, scales = GROUPS[group]
    coords = t[d : d + rotates * d * (d - 1) // 2]
    R = geometry.rotation_matrix(d, coords) if np.any(coords) else np.eye(d)
    return GroupElement(float(np.exp(t[-1])) if scales else 1.0, R, t[:d])


def generators(scene: Scene | JetScene) -> np.ndarray:
    """Tangent vectors of the symmetry orbits at ``scene``, one column per
    group generator (translations, rotations, scaling), shape (dim, g): the
    finite-difference Jacobian of the group action at the identity."""
    cls = scene.cls
    G = fd_jacobian(lambda t: act_scene(_element(cls.group, cls.d, t), scene).to_vector(),
                    np.zeros(cls.g), scene.angle_mask, range(cls.g))
    if not np.all(np.isfinite(G)):
        raise DegenerateConfigurationError("generators undefined at a singular scene")
    return G


# Kept because perfbench/tracing.py::_layer_patches binds this name.
jet_generators = generators


def _matched_positions(scene) -> np.ndarray:
    """Positions used for alignment: anchor rows plus camera positions where
    the class exposes one. Parameter charts are not equivariant; positions are."""
    rows = [scene.coefficients[:, 0, :]]
    if scene.cls.position_slice is not None:
        rows.append(scene.params[:, scene.cls.position_slice])
    return np.concatenate(rows, axis=0)


def _procrustes(A: np.ndarray, B: np.ndarray, group: str) -> GroupElement:
    """Closed-form group element minimizing sum |gamma(A_k) - B_k|^2."""
    rotates, scales = GROUPS[group]
    d = A.shape[1]
    a_bar = A.mean(axis=0)
    b_bar = B.mean(axis=0)
    A0 = A - a_bar
    B0 = B - b_bar
    denom = float(np.sum(A0 * A0))
    if denom < 1e-20:
        raise DegenerateConfigurationError("alignment positions are coincident")

    if rotates:
        U, sig, Vt = np.linalg.svd(B0.T @ A0)
        if sig[d - 2] <= 1e-12 * max(1.0, sig[0]):
            raise DegenerateConfigurationError(
                "positions are affinely degenerate; rotation not identifiable"
            )
        D = np.eye(d)
        D[-1, -1] = np.sign(np.linalg.det(U @ Vt)) or 1.0
        R = U @ D @ Vt
        stretch = float(np.trace(np.diag(sig) @ D))  # sum of B0 . (R A0)
    else:
        R = np.eye(d)
        stretch = float(np.sum(A0 * B0))
    lam = stretch / denom if scales else 1.0
    if lam <= 0:
        raise DegenerateConfigurationError("alignment would require a non-positive scale")
    v = b_bar - lam * (R @ a_bar)
    return GroupElement(lam, R, v)


def align(a: Scene | JetScene, b: Scene | JetScene) -> tuple[GroupElement, float]:
    """Best group element of the class's group mapping scene ``a`` onto
    ``b``, fitted to anchor rows and camera positions, and the residual RMSE
    over those plus the moved radius vectors or higher Taylor terms."""
    if (a.cls.name != b.cls.name or a.model != b.model
            or a.coefficients.shape != b.coefficients.shape or a.m != b.m):
        raise ValueError("scenes must share class, motion model, point count, and camera count")
    A = _matched_positions(a)
    B = _matched_positions(b)
    gamma = _procrustes(A, B, a.cls.group)
    a_free, b_free = (s.coefficients[:, 1:, :].reshape(-1, a.cls.d) for s in (a, b))
    resid = np.concatenate([act_point(gamma, A) - B,
                            a_free @ (gamma.scale * gamma.rotation).T - b_free])
    rmse = float(np.sqrt(np.mean(np.sum(resid * resid, axis=1))))
    return gamma, rmse


align_jet = align


@dataclass(frozen=True)
class KernelCheckReport:
    """Relative residuals of the symmetry directions under the Jacobian."""

    ratios: np.ndarray  # one per generator column
    tol: float
    passed: bool

    @property
    def worst(self) -> float:
        return float(np.max(self.ratios))


def kernel_check(scene: Scene | JetScene) -> KernelCheckReport:
    """Verify that every symmetry generator is annihilated by the Jacobian.

    Checks |J v| <= KERNEL_TOL * |J| * |v| for each generator column v;
    directions that change the pictures fail the bound. Both norms are read
    from ``jacobian_factor``: J = Q M with orthonormal Q, so |J v| = |M v|
    and |J| = |M|.
    """
    M = jacobian_factor(scene)
    G = generators(scene)
    jnorm = float(np.linalg.norm(M, 2))
    ratios = np.linalg.norm(M @ G, axis=0) / (jnorm * np.linalg.norm(G, axis=0))
    return KernelCheckReport(ratios, KERNEL_TOL, bool(np.all(ratios <= KERNEL_TOL)))

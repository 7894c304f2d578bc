"""Rotation charts, angle wrapping, and unit-sphere coordinates.

Rotations are parameterized by exponential coordinates throughout: a single
angle in the plane, an axis-angle 3-vector in space.
"""

from __future__ import annotations

import numpy as np

TAU = 2.0 * np.pi


def wrap_angle(theta):
    """Wrap an angle (or array of angles) to the interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=float), TAU)


def rot2(theta) -> np.ndarray:
    """Rotation by ``theta``, shape (2, 2), or a stack of them for an array of angles."""
    c, s = np.cos(theta), np.sin(theta)
    return np.stack([c, -s, s, c], -1).reshape(np.shape(theta) + (2, 2))


def rot2_angle(R: np.ndarray) -> float:
    return float(np.arctan2(R[1, 0], R[0, 0]))


def hat3(w) -> np.ndarray:
    """Cross-product matrices of 3-vectors (..., 3), shape (..., 3, 3)."""
    w = np.asarray(w, dtype=float)
    K = np.zeros(w.shape[:-1] + (9,))
    K[..., [7, 2, 3]], K[..., [5, 6, 1]] = w, -w  # row-major slots of +w and -w
    return K.reshape(w.shape[:-1] + (3, 3))


def rot3(rho) -> np.ndarray:
    """Rodrigues map from axis-angle coordinates (..., 3) to rotations (..., 3, 3)."""
    rho = np.asarray(rho, dtype=float)
    angle = np.sqrt((rho[..., None, :] @ rho[..., :, None])[..., 0, 0])
    K = hat3(rho)
    small = angle < 1e-8
    a2 = angle * angle
    safe = np.where(small, 1.0, angle)  # keeps the unused branch free of 0/0
    A = np.where(small, 1.0 - a2 / 6.0, np.sin(angle) / safe)[..., None, None]
    B = np.where(small, 0.5 - a2 / 24.0, (1.0 - np.cos(angle)) / (safe * safe))[..., None, None]
    return np.eye(3) + A * K + B * (K @ K)


def rot3_log(R: np.ndarray) -> np.ndarray:
    """Principal axis-angle coordinates of a rotation matrix (angle in [0, pi]).

    Goes through a unit quaternion (largest-component extraction), which stays
    accurate for all angles including near the branch cut at pi.
    """
    tr = float(np.trace(R))
    # quaternion (w, x, y, z) from the numerically largest component
    cands = [tr, R[0, 0], R[1, 1], R[2, 2]]
    k = int(np.argmax(cands))
    if k == 0:
        w = 0.5 * np.sqrt(1.0 + tr)
        s = 0.25 / w
        q = np.array([(R[2, 1] - R[1, 2]) * s,
                      (R[0, 2] - R[2, 0]) * s,
                      (R[1, 0] - R[0, 1]) * s])
    else:
        i = k - 1
        j, l = (i + 1) % 3, (i + 2) % 3
        qi = 0.5 * np.sqrt(max(1.0 + R[i, i] - R[j, j] - R[l, l], 0.0))
        s = 0.25 / qi
        w = (R[l, j] - R[j, l]) * s
        q = np.empty(3)
        q[i] = qi
        q[j] = (R[j, i] + R[i, j]) * s
        q[l] = (R[l, i] + R[i, l]) * s
    if w < 0.0:  # principal branch: angle in [0, pi]
        w, q = -w, -q
    norm = float(np.linalg.norm(q))
    if norm < 1e-12:
        return 2.0 * q
    return q * (2.0 * np.arctan2(norm, w) / norm)


def rotation_matrix(d: int, coords) -> np.ndarray:
    """Rotations with exponential coordinates of shape (..., 1) in the plane or
    (..., 3) in space, shape (..., d, d)."""
    coords = np.asarray(coords, dtype=float)
    return rot2(coords[..., 0]) if d == 2 else rot3(coords)


def rotation_log(d: int, R: np.ndarray):
    if d == 2:
        return np.array([rot2_angle(R)])
    return rot3_log(R)


def unit_from_angles(theta, phi) -> np.ndarray:
    """Unit vectors (..., 3) with azimuths theta and polar angles phi (0 at +z)."""
    sp = np.sin(phi)
    return np.stack([sp * np.cos(theta), sp * np.sin(theta), np.cos(phi)], -1)


def angles_from_unit(u) -> tuple[float, float]:
    z = min(1.0, max(-1.0, float(u[2])))
    return float(np.arctan2(u[1], u[0])), float(np.arccos(z))


def random_rotation_coords(d: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform rotation in normalized exponential coordinates."""
    if d == 2:
        return np.array([rng.uniform(-np.pi, np.pi)])
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-12:  # a zero draw has no direction
        axis = rng.normal(size=3)
    angle = rng.uniform(0.0, np.pi * (1.0 - 1e-9))
    return angle * (axis / np.linalg.norm(axis))


def look_at_rotation(direction: np.ndarray, roll: float = 0.0) -> np.ndarray:
    """Rotation R with R @ direction pointing along the last coordinate axis.

    ``roll`` adds an in-retina rotation about the optical axis (3D only).
    """
    d = direction.size
    u = direction / np.linalg.norm(direction)
    if d == 2:
        return rot2(np.pi / 2.0 - np.arctan2(u[1], u[0]))  # R @ u == e2
    e3 = np.array([0.0, 0.0, 1.0])
    v = np.cross(u, e3)
    s = np.linalg.norm(v)
    c = float(u @ e3)
    if s < 1e-12:
        R0 = np.eye(3) if c > 0 else rot3(np.array([np.pi, 0.0, 0.0]))
    else:
        axis = v / s
        R0 = rot3(axis * np.arctan2(s, c))
    Rz = rot3(np.array([0.0, 0.0, roll]))
    return Rz @ R0

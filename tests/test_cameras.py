"""Catalog integrity, projection charts, and the idempotent camera map."""

import numpy as np
import pytest

from sfmlab import geometry
from sfmlab.cameras import (
    SPREAD,
    Camera,
    LineClass,
    camera_map,
    catalog,
    catalog_lookup,
    embed,
    project,
    project_points,
    random_camera,
    singular_margin,
)
from sfmlab.errors import ChartRangeError, SingularConfigurationError, UnknownClassError

from conftest import ALL_CLASS_NAMES, sample_chart_point

# name -> (d, s, f, g, h, group)
CATALOG_ROWS = {
    "affine-ortho-2d": (2, 1, 2, 3, 0, "euclidean"),
    "omni-oriented-2d": (2, 1, 2, 3, 0, "dilation"),
    "omni-2d": (2, 1, 3, 4, 0, "similarity"),
    "perspective-2d": (2, 1, 3, 3, 1, "euclidean"),
    "perspective-zoom-2d": (2, 1, 4, 4, 0, "similarity"),
    "affine-ortho-3d": (3, 2, 5, 6, 0, "euclidean"),
    "omni-oriented-3d": (3, 2, 3, 4, 0, "dilation"),
    "omni-3d": (3, 2, 6, 7, 0, "similarity"),
    "perspective-3d": (3, 2, 6, 6, 1, "euclidean"),
    "perspective-zoom-3d": (3, 2, 7, 7, 0, "similarity"),
    "line-3d": (3, 1, 3, 6, 0, "euclidean"),
    "perspective-known-2d": (2, 1, 3, 3, 0, "euclidean"),
    "perspective-known-3d": (3, 2, 6, 6, 0, "euclidean"),
}


def _globals_for(cls, value=1.0):
    return np.array([value]) if cls.h else np.zeros(0)


@pytest.mark.parametrize("name", sorted(CATALOG_ROWS))
def test_catalog_rows_exact(name):
    d, s, f, g, h, group = CATALOG_ROWS[name]
    cls = catalog_lookup(name)
    assert (cls.d, cls.s, cls.f, cls.g, cls.h, cls.group) == (d, s, f, g, h, group)
    assert cls.s < cls.d
    assert cls.f >= 1
    assert cls.g >= cls.d


def test_catalog_size_and_lookup_error():
    assert len(catalog()) == 13
    with pytest.raises(UnknownClassError):
        catalog_lookup("push-broom")


def test_camera_param_length_validated():
    cls = catalog_lookup("omni-oriented-2d")
    with pytest.raises(ValueError):
        Camera(cls, np.zeros(3))


def test_affine_identity_projection():
    cls = catalog_lookup("affine-ortho-3d")
    cam = Camera(cls, np.zeros(5))
    assert np.allclose(project(cam, None, [1.0, 2.0, 3.0]), [1.0, 2.0])
    assert np.allclose(camera_map(cam, None, [1.0, 2.0, 3.0]), [1.0, 2.0, 0.0])
    assert np.allclose(embed(cam, None, [1.0, 2.0]), [1.0, 2.0, 0.0])


def test_perspective_projection_matches_ray_film_intersection():
    # independent oracle: intersect the ray from the projection center with
    # the film plane and read the in-plane offset
    cls = catalog_lookup("perspective-known-3d")
    cam = Camera(cls, np.zeros(6))  # film through the origin, axis +z, center at -F e_z
    P = np.array([2.0, 4.0, 2.0])
    F = cls.known_focal
    O = np.array([0.0, 0.0, -F])
    t = (0.0 - O[2]) / (P[2] - O[2])
    hit = O + t * (P - O)
    assert abs(hit[2]) < 1e-15
    assert np.allclose(project(cam, None, P), hit[:2], atol=1e-14)


def test_perspective_depends_on_scene_scale():
    # scaling points alone must change pictures for a fixed-focal camera
    cls = catalog_lookup("perspective-known-3d")
    cam = Camera(cls, np.array([0.2, -0.4, 0.1, 0.05, -0.1, 0.2]))
    P = np.array([0.5, 0.8, 3.0])
    p1 = project(cam, None, P)
    p2 = project(cam, None, 2.0 * P)
    assert np.linalg.norm(p1 - p2) > 1e-3


def test_omni2d_heading_example():
    cls = catalog_lookup("omni-2d")
    cam = Camera(cls, np.array([0.0, 0.0, np.pi / 2]))
    assert abs(project(cam, None, [0.0, 1.0])[0]) < 1e-15


def test_omni2d_bearing_equation():
    # sin(theta + alpha) (x - a) = cos(theta + alpha) (y - b)
    cls = catalog_lookup("omni-2d")
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        cam = random_camera(cls, int(rng.integers(1 << 31)))
        P = rng.uniform(-4, 4, size=2)
        if np.linalg.norm(P - cam.params[:2]) < 1e-3:
            continue
        theta = project(cam, None, P)[0]
        a, b, alpha = cam.params
        worst = max(worst, abs(np.sin(theta + alpha) * (P[0] - a)
                               - np.cos(theta + alpha) * (P[1] - b)))
    assert worst < 1e-12


def test_line_camera_axis_projection():
    cls = catalog_lookup("line-3d")
    cam = Camera(cls, np.array([0.0, 0.0, 0.0]))  # direction (0, 0, 1), offset 0
    assert abs(project(cam, None, [5.0, 7.0, 2.0])[0] - 2.0) < 1e-15
    assert np.allclose(camera_map(cam, None, [5.0, 7.0, 2.0]), [0.0, 0.0, 2.0])


def test_omni_oriented_embed_and_map_examples():
    cls = catalog_lookup("omni-oriented-2d")
    cam = Camera(cls, np.zeros(2))
    assert np.allclose(embed(cam, None, [0.0]), [1.0, 0.0])
    assert np.allclose(camera_map(cam, None, [3.0, 4.0]), [0.6, 0.8])


@pytest.mark.parametrize("name", ALL_CLASS_NAMES)
def test_embed_project_round_trip(name):
    cls = catalog_lookup(name)
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in range(100):
        cam = random_camera(cls, (7, k))
        glob = _globals_for(cls, rng.uniform(0.8, 2.0))
        r = sample_chart_point(cls, rng)
        back = project(cam, glob, embed(cam, glob, r))
        worst = max(worst, float(np.max(np.abs(back - r))))
    assert worst < 1e-12


@pytest.mark.parametrize("name", ALL_CLASS_NAMES)
def test_camera_map_idempotent(name):
    cls = catalog_lookup(name)
    rng = np.random.default_rng(23)
    worst = 0.0
    for k in range(200):
        cam = random_camera(cls, (13, k))
        glob = _globals_for(cls, rng.uniform(0.8, 2.0))
        P = rng.uniform(-4.0, 4.0, size=cls.d)
        try:
            q1 = camera_map(cam, glob, P)
            q2 = camera_map(cam, glob, q1)
        except SingularConfigurationError:
            continue
        worst = max(worst, float(np.max(np.abs(q2 - q1))))
    assert worst < 1e-9


def test_singular_configurations_raise():
    omni = Camera(catalog_lookup("omni-oriented-2d"), np.array([1.0, 1.0]))
    with pytest.raises(SingularConfigurationError):
        project(omni, None, [1.0, 1.0 + 1e-12])
    persp = Camera(catalog_lookup("perspective-known-3d"), np.zeros(6))
    with pytest.raises(SingularConfigurationError):
        project(persp, None, [0.3, 0.1, -1.0])  # on the projection-center plane


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_single_camera_functions_reject_non_finite_points(bad):
    cam = random_camera(catalog_lookup("omni-2d"), 1)
    with pytest.raises(ValueError, match="finite"):
        project_points(cam, None, [[bad, 0.0]])
    for single in (project, camera_map, singular_margin):
        with pytest.raises(ValueError, match="finite"):
            single(cam, None, [bad, 0.0])


def test_embed_chart_range_errors():
    cam = Camera(catalog_lookup("omni-3d"), np.zeros(6))
    with pytest.raises(ChartRangeError):
        embed(cam, None, [4.0, 0.5])  # azimuth outside (-pi, pi]
    with pytest.raises(ChartRangeError):
        embed(cam, None, [0.0, 3.5])  # polar angle outside [0, pi]
    with pytest.raises(ChartRangeError):
        embed(cam, None, [np.nan, 0.5])


def test_random_camera_deterministic_and_valid():
    for name in ALL_CLASS_NAMES:
        cls = catalog_lookup(name)
        a = random_camera(cls, 5)
        b = random_camera(cls, 5)
        c = random_camera(cls, 6)
        assert np.array_equal(a.params, b.params)
        assert not np.array_equal(a.params, c.params)
        for k in range(1000):
            cam = random_camera(cls, k)
            assert cam.params.shape == (cls.f,)
            assert np.all(np.isfinite(cam.params))
            if cls.focal_index is not None:
                assert 0.5 * SPREAD <= cam.params[cls.focal_index] <= 2.0 * SPREAD
            if isinstance(cls, LineClass):
                u = np.linalg.norm(
                    np.array([np.sin(cam.params[1]) * np.cos(cam.params[0]),
                              np.sin(cam.params[1]) * np.sin(cam.params[0]),
                              np.cos(cam.params[1])]))
                assert abs(u - 1.0) < 1e-12


def test_rotation_matrix_of_a_stack_equals_its_rows_exactly():
    rng = np.random.default_rng(17)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    stacks = {
        2: np.concatenate([[0.0, 1e-9, np.pi - 1e-9, -np.pi], rng.uniform(-np.pi, np.pi, 4)]),
        3: np.vstack([np.zeros(3), 1e-9 * axis, (np.pi - 1e-9) * axis, -np.pi * axis,
                      rng.normal(size=(4, 3))]),
    }
    for d, coords in stacks.items():
        coords = coords.reshape(8, -1)  # (8, 1) angles in the plane, (8, 3) in space
        R = geometry.rotation_matrix(d, coords)
        assert R.shape == (8, d, d)
        for k in range(8):
            assert np.array_equal(R[k], geometry.rotation_matrix(d, coords[k]))
        assert np.array_equal(geometry.rotation_matrix(d, coords.reshape(2, 4, -1)),
                              R.reshape(2, 4, d, d))
        assert np.allclose(R @ R.swapaxes(-1, -2), np.eye(d), atol=1e-12)


def test_rot3_log_of_a_rotation_below_its_cutoff_is_its_quaternion_vector():
    """Below 1e-12 rad the log returns twice the quaternion's vector part."""
    assert geometry.rot3_log(np.eye(3)).tolist() == [0.0, 0.0, 0.0]
    rho = 1e-13 * np.array([0.36, -0.48, 0.8])
    assert np.max(np.abs(geometry.rot3_log(geometry.rot3(rho)) - rho)) <= 1e-20


@pytest.mark.parametrize("z", [2.5, -0.7], ids=["+z", "-z"])
def test_look_at_rotation_along_the_optical_axis(z):
    """A direction along +-z has no cross product with e_z to turn about."""
    R = geometry.look_at_rotation(np.array([0.0, 0.0, z]), 0.3)
    assert np.allclose(R @ [0.0, 0.0, np.sign(z)], [0.0, 0.0, 1.0], atol=1e-12)
    assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
    assert abs(np.linalg.det(R) - 1.0) < 1e-12

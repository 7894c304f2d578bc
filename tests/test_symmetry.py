"""Group actions, the defining invariance, orbit generators, and alignment."""

from types import SimpleNamespace

import numpy as np
import pytest

from sfmlab import symmetry
from sfmlab.cameras import Camera, catalog_lookup, project, random_camera
from sfmlab.errors import DegenerateConfigurationError, GroupMismatchError
from sfmlab.geometry import rot2, wrap_angle
from sfmlab.sfm import Scene, evaluate, jacobian, numerical_rank, random_scene
from sfmlab.symmetry import (
    GroupElement,
    act_camera,
    act_point,
    act_scene,
    align,
    generators,
    identity,
    random_element,
)

from conftest import ALL_CLASS_NAMES


def _globals_for(cls, rng):
    return np.array([rng.uniform(0.8, 2.0)]) if cls.h else np.zeros(0)


def test_act_point_examples():
    assert np.allclose(act_point(identity(2), [3.0, -1.0]), [3.0, -1.0])
    shift = GroupElement(1.0, np.eye(2), np.array([1.0, 0.0]))
    assert np.allclose(act_point(shift, [0.0, 0.0]), [1.0, 0.0])
    double = GroupElement(2.0, np.eye(2), np.zeros(2))
    assert np.allclose(act_point(double, [1.0, 1.0]), [2.0, 2.0])
    gamma = random_element("similarity", 3, 4)
    stack = np.arange(12.0).reshape(2, 2, 3)
    assert np.allclose(act_point(gamma, stack), [[act_point(gamma, p) for p in row]
                                                 for row in stack])


def test_random_element_group_constraints():
    for seed in range(20):
        assert random_element("euclidean", 3, seed).scale == 1.0
        assert np.array_equal(random_element("dilation", 2, seed).rotation, np.eye(2))
    a = random_element("similarity", 3, 9)
    b = random_element("similarity", 3, 9)
    assert a.scale == b.scale
    assert np.array_equal(a.translation, b.translation)


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(1.0, np.eye(2) * 2.0, np.zeros(2))
    with pytest.raises(ValueError):
        GroupElement(-1.0, np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        GroupElement(float("nan"), np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        GroupElement(1.0, np.full((2, 2), np.nan), np.zeros(2))
    with pytest.raises(ValueError):
        GroupElement(1.0, np.eye(2), [np.inf, 0.0])


def test_act_camera_identity_and_mismatch():
    cam = random_camera(catalog_lookup("perspective-3d"), 4)
    moved = act_camera(identity(3), cam)
    assert np.allclose(moved.params, cam.params, atol=1e-12)
    scaling = GroupElement(2.0, np.eye(3), np.zeros(3))
    with pytest.raises(GroupMismatchError):
        act_camera(scaling, cam)  # euclidean class admits no scaling
    rotating = GroupElement(1.0, rot2(0.3), np.zeros(2))
    with pytest.raises(GroupMismatchError):
        act_camera(rotating, random_camera(catalog_lookup("omni-oriented-2d"), 1))


def test_dilation_moves_omni_center_as_point():
    cam = Camera(catalog_lookup("omni-oriented-2d"), np.zeros(2))
    gamma = GroupElement(3.0, np.eye(2), np.array([1.0, 1.0]))
    assert np.allclose(act_camera(gamma, cam).params, [1.0, 1.0])


@pytest.mark.parametrize("name", ALL_CLASS_NAMES)
def test_defining_invariance(name):
    from sfmlab.cameras import singular_margin

    cls = catalog_lookup(name)
    rng = np.random.default_rng(101)
    worst = 0.0
    trials = 0
    k = 0
    while trials < 300:
        k += 1
        gamma = random_element(cls.group, cls.d, (1, k))
        cam = random_camera(cls, (2, k))
        glob = _globals_for(cls, rng)
        P = rng.uniform(-4.0, 4.0, size=cls.d)
        # the invariance only applies off the singular set; keep a margin so
        # roundoff is not amplified by a vanishing denominator
        if singular_margin(cam, glob, P) < 0.05:
            continue
        before = project(cam, glob, P)
        after = project(act_camera(gamma, cam), glob, act_point(gamma, P))
        diff = after - before
        mask = np.zeros(cls.s, dtype=bool)
        for idx in cls.angular_output_indices:
            mask[idx] = True
        diff[mask] = wrap_angle(diff[mask])
        worst = max(worst, float(np.max(np.abs(diff))))
        trials += 1
    assert worst < 1e-9


@pytest.mark.parametrize("name", ALL_CLASS_NAMES)
def test_generator_count_and_rank(name):
    cls = catalog_lookup(name)
    scene = random_scene(cls, 3, 3, seed=77)
    G = generators(scene)
    assert G.shape == (scene.dim, cls.g)
    assert numerical_rank(G).rank == cls.g


def test_translation_generator_is_unit_pattern():
    cls = catalog_lookup("omni-oriented-3d")
    scene = random_scene(cls, 2, 2, seed=5)
    G = generators(scene)
    # translation along x: every point and every center moves with d/dt = e_x
    col = G[:, 0]
    expected = np.zeros(scene.dim)
    expected[0] = expected[3] = 1.0  # points block
    expected[6] = expected[9] = 1.0  # camera centers
    assert np.allclose(col, expected, atol=1e-9)


def test_generator_matches_directional_derivative():
    from sfmlab.symmetry import _element

    cls = catalog_lookup("omni-2d")
    scene = random_scene(cls, 3, 3, seed=19)
    J = jacobian(scene)
    G = generators(scene)
    eps = 1e-4
    # moving along the orbit changes no picture, so the forward difference of
    # the measurements must match J @ column, both near zero
    for gamma, col in zip((_element(cls.group, cls.d, eps * e) for e in np.eye(cls.g)), G.T):
        lhs = (evaluate(act_scene(gamma, scene)).flat() - evaluate(scene).flat()) / eps
        assert np.linalg.norm(lhs - J @ col) < 5e-2

    # chain rule on generic coordinate directions
    rng = np.random.default_rng(8)
    vec = scene.to_vector()
    for _ in range(5):
        v = rng.normal(size=vec.size)
        v /= np.linalg.norm(v)
        fplus = evaluate(scene.with_vector(vec + eps * v)).flat()
        fminus = evaluate(scene.with_vector(vec - eps * v)).flat()
        assert np.linalg.norm((fplus - fminus) / (2 * eps) - J @ v) < 5e-4


def test_align_identity_and_round_trip():
    for name in ("omni-oriented-2d", "affine-ortho-3d", "omni-3d", "perspective-3d"):
        cls = catalog_lookup(name)
        scene = random_scene(cls, 4, 3, seed=31)
        gamma, rmse = align(scene, scene)
        assert rmse < 1e-12
        assert abs(gamma.scale - 1.0) < 1e-9
        g0 = random_element(cls.group, cls.d, 55)
        moved = act_scene(g0, scene)
        rec, rmse = align(scene, moved)
        assert rmse < 1e-9
        assert abs(rec.scale - g0.scale) < 1e-9
        assert np.allclose(rec.rotation, g0.rotation, atol=1e-9)
        assert np.allclose(rec.translation, g0.translation, atol=1e-8)


def test_align_with_noise_stays_bounded():
    cls = catalog_lookup("omni-oriented-2d")
    scene = random_scene(cls, 5, 3, seed=41)
    g0 = random_element(cls.group, cls.d, 42)
    moved = act_scene(g0, scene)
    rng = np.random.default_rng(43)
    noisy_points = moved.points + rng.uniform(-1e-3, 1e-3, size=moved.points.shape)
    noisy_params = moved.params + rng.uniform(-1e-3, 1e-3, size=moved.params.shape)
    noisy = Scene(cls, noisy_points, noisy_params, moved.globals_vec)
    _, rmse = align(scene, noisy)
    assert rmse <= 2e-3


def test_taylor_jet_action_and_alignment_round_trip():
    from sfmlab.sfm import JetScene, evaluate_jet, random_scene
    from sfmlab.symmetry import align_jet

    cls = catalog_lookup("omni-2d")
    base = random_scene(cls, 4, 3, seed=140)
    rng = np.random.default_rng(141)
    motion = np.stack([base.points, rng.uniform(-0.5, 0.5, size=(4, 2))], axis=1)
    js = JetScene(cls, "taylor", motion, np.array([0.0, 0.4, 0.9]),
                  base.params, base.globals_vec)
    gamma = random_element(cls.group, cls.d, 142)
    moved = act_scene(gamma, js)
    # the action preserves every picture
    diff = evaluate_jet(moved).flat() - evaluate_jet(js).flat()
    assert np.max(np.abs(wrap_angle(diff))) < 1e-9
    rec, rmse = align_jet(js, moved)
    assert rmse < 1e-9
    assert abs(rec.scale - gamma.scale) < 1e-9


def test_align_rejects_degenerate_points():
    cls = catalog_lookup("affine-ortho-3d")
    params = [random_camera(cls, k).params for k in range(2)]
    for pts, message in [
        (np.zeros((3, 3)), "positions are coincident"),
        (np.outer([-1.0, 0.5, 2.0], [1.0, 2.0, -0.5]), "rotation not identifiable"),  # one line
    ]:
        scene = Scene(cls, pts, params, np.zeros(0))
        with pytest.raises(DegenerateConfigurationError, match=message):
            align(scene, scene)


def test_align_refuses_a_point_reflection_of_a_dilation_scene():
    """omni-oriented-2d's group holds no rotation, so the point reflection
    p -> -p is fitted only by a negative scale, which no element has."""
    cls = catalog_lookup("omni-oriented-2d")
    a = random_scene(cls, 3, 3, seed=4)
    reflected = Scene(cls, -a.points, -a.params, a.globals_vec)
    with pytest.raises(DegenerateConfigurationError, match="non-positive scale"):
        align(a, reflected)


def test_generators_refuse_a_non_finite_orbit(monkeypatch):
    """An action that leaves the finite scenes, as at a singular chart point,
    gives no orbit directions: generators raise instead of returning nan."""
    scene = random_scene(catalog_lookup("omni-2d"), 3, 3, seed=5)
    nowhere = SimpleNamespace(to_vector=lambda: np.full(scene.dim, np.nan))
    monkeypatch.setattr(symmetry, "act_scene", lambda gamma, s: nowhere)
    with pytest.raises(DegenerateConfigurationError, match="undefined at a singular scene"):
        generators(scene)


def test_kernel_check_report_passes_only_within_the_tolerance():
    tol = symmetry.KERNEL_TOL
    assert symmetry.KernelCheckReport(np.array([0.0, tol])).passed
    assert not symmetry.KernelCheckReport(np.array([0.0, 2.0 * tol])).passed

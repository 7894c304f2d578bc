"""Gauge fixing, the damped least-squares solver, and uniqueness diagnostics."""

import numpy as np
import pytest

from sfmlab.cameras import Camera, catalog_lookup
from sfmlab.errors import InfeasibleCountError
from sfmlab.reconstruct import (
    SolveOptions,
    gauge_fix,
    gauge_fix_jet,
    local_uniqueness,
    perturb_jet_scene,
    perturb_scene,
    reprojection_rmse,
    solve,
    solve_jet,
)
from sfmlab.sfm import (
    Measurements,
    Scene,
    evaluate,
    evaluate_jet,
    random_jet_scene,
    random_scene,
)
from sfmlab.symmetry import act_scene, align, random_element

from conftest import ALL_CLASS_NAMES


def test_gauge_pin_counts():
    expected = {"affine-ortho-3d": 6, "omni-oriented-2d": 3}
    for name in ALL_CLASS_NAMES:
        cls = catalog_lookup(name)
        scene = random_scene(cls, 3, 3, seed=7)
        gauge = gauge_fix(cls, scene)
        assert len(gauge.indices) == cls.g
        if name in expected:
            assert len(gauge.indices) == expected[name]
        # pinned values are the template's own coordinates
        vec = scene.to_vector()
        assert np.allclose(gauge.values, vec[list(gauge.indices)])


def test_gauge_structure_for_named_classes():
    scene = random_scene(catalog_lookup("affine-ortho-3d"), 3, 3, seed=8)
    gauge = gauge_fix(scene.cls, scene)
    # point 1 coordinates plus camera 1 orientation block
    assert set(gauge.indices) == {0, 1, 2, 9, 10, 11}

    scene = random_scene(catalog_lookup("omni-oriented-2d"), 3, 3, seed=8)
    gauge = gauge_fix(scene.cls, scene)
    assert set(gauge.indices) >= {0, 1}
    assert len(set(gauge.indices) & {2, 3}) == 1  # one scale pin on point 2


def test_gauge_fixed_jacobian_has_full_column_rank():
    for name, n, m in [("affine-ortho-3d", 3, 3), ("omni-oriented-2d", 3, 3),
                       ("omni-2d", 5, 3)]:
        cls = catalog_lookup(name)
        for k in range(3):
            scene = random_scene(cls, n, m, seed=(15, k))
            gauge = gauge_fix(cls, scene)
            rep = local_uniqueness(scene, gauge)
            assert rep.passed and rep.rank == scene.dim - cls.g


def test_reprojection_rmse_examples():
    cls = catalog_lookup("omni-oriented-2d")
    scene = random_scene(cls, 3, 3, seed=17)
    meas = evaluate(scene)
    assert reprojection_rmse(scene, meas) == 0.0

    gamma = random_element(cls.group, cls.d, 18)
    assert reprojection_rmse(act_scene(gamma, scene), meas) < 1e-12

    bumped = meas.data.copy()
    bumped[1, 2, 0] += 1.0
    rmse = reprojection_rmse(scene, Measurements(cls, bumped))
    assert abs(rmse - 1.0 / np.sqrt(meas.flat().size)) < 1e-12


def test_reprojection_rmse_shape_mismatch():
    cls = catalog_lookup("omni-oriented-2d")
    a = random_scene(cls, 3, 3, seed=1)
    b = random_scene(cls, 4, 3, seed=2)
    with pytest.raises(ValueError):
        reprojection_rmse(a, evaluate(b))


@pytest.mark.parametrize("name,n,m", [
    ("omni-oriented-2d", 3, 3),
    ("affine-ortho-3d", 3, 3),
    ("omni-2d", 5, 3),
])
def test_round_trip_recovers_truth(name, n, m):
    cls = catalog_lookup(name)
    truth = random_scene(cls, n, m, seed=(90, n, m))
    meas = evaluate(truth)
    init = perturb_scene(truth, 0.10, seed=(91, n, m))
    report = solve(cls, meas, init)
    assert report.converged
    _, rmse = align(report.scene, truth)
    assert rmse < 1e-6


def test_round_trip_across_the_angle_seam():
    # bearings straddling +-pi: the wrapped residual must not see 2*pi jumps
    cls = catalog_lookup("omni-oriented-2d")
    pts = np.array([[-3.0, 0.05], [-2.4, -1.6], [-3.6, 1.8]])  # west of all cameras
    cams = tuple(Camera(cls, np.array([x, y])) for x, y in
                 [(0.0, 0.0), (0.9, 1.1), (-0.4, -1.2)])
    truth = Scene(cls, pts, cams, np.zeros(0))
    meas = evaluate(truth)
    assert np.max(np.abs(meas.data)) > 3.0  # seam actually exercised
    init = perturb_scene(truth, 0.05, seed=77)
    report = solve(cls, meas, init)
    assert report.converged
    _, rmse = align(report.scene, truth)
    assert rmse < 1e-6


def test_solve_rejects_infeasible_counts():
    cls = catalog_lookup("affine-ortho-2d")
    scene = random_scene(cls, 5, 2, seed=5)
    meas = evaluate(scene)
    with pytest.raises(InfeasibleCountError):
        solve(cls, meas, scene)


def test_solve_cost_history_never_increases():
    cls = catalog_lookup("omni-2d")
    truth = random_scene(cls, 5, 3, seed=96)
    init = perturb_scene(truth, 0.10, seed=97)
    report = solve(cls, evaluate(truth), init)
    costs = np.array(report.cost_history)
    assert np.all(np.diff(costs) <= 0)


def test_gauge_independence_of_the_reconstruction():
    cls = catalog_lookup("omni-oriented-2d")
    truth = random_scene(cls, 3, 3, seed=98)
    meas = evaluate(truth)
    init = perturb_scene(truth, 0.05, seed=99)
    rep1 = solve(cls, meas, init, gauge=gauge_fix(cls, init, anchor_point=0))
    rep2 = solve(cls, meas, init, gauge=gauge_fix(cls, init, anchor_point=1))
    _, rmse = align(rep1.scene, rep2.scene)
    assert rmse < 1e-6


def test_noise_scales_roughly_linearly():
    cls = catalog_lookup("omni-oriented-2d")
    truth = random_scene(cls, 3, 3, seed=100)
    init = perturb_scene(truth, 0.05, seed=101)
    rng = np.random.default_rng(102)
    noise = rng.normal(size=evaluate(truth).data.shape)
    out = {}
    for sigma in (1e-4, 1e-3):
        noisy = Measurements(cls, evaluate(truth).data + sigma * noise)
        rep = solve(cls, noisy, init)
        _, out[sigma] = align(rep.scene, truth)
    ratio = out[1e-3] / out[1e-4]
    assert 1.0 <= ratio <= 100.0
    assert out[1e-4] < 1e-2


def test_local_uniqueness_flags_deficient_cases():
    cls = catalog_lookup("affine-ortho-3d")
    good = random_scene(cls, 3, 3, seed=110)
    assert local_uniqueness(good, gauge_fix(cls, good)).passed

    wide = random_scene(cls, 6, 2, seed=111)
    assert not local_uniqueness(wide, gauge_fix(cls, wide)).passed

    rng = np.random.default_rng(112)
    pts = np.column_stack([rng.uniform(-2, 2, size=(3, 2)), np.zeros(3)])
    cams = tuple(
        Camera(cls, np.concatenate([[0.0, 0.0, rng.uniform(-np.pi, np.pi)],
                                    rng.uniform(-2, 2, size=2)]))
        for _ in range(3)
    )
    coplanar = Scene(cls, pts, cams, np.zeros(0))
    assert not local_uniqueness(coplanar, gauge_fix(cls, coplanar)).passed


def test_jet_gauge_and_solver_runs():
    cls = catalog_lookup("omni-2d")
    truth = random_jet_scene(cls, 7, 6, seed=120)
    gauge = gauge_fix_jet(truth)
    assert len(gauge.indices) == cls.g
    meas = evaluate_jet(truth)
    init = perturb_jet_scene(truth, 0.05, seed=121)
    report = solve_jet(meas, init)
    assert report.converged
    assert report.rmse < 1e-8  # fits the data even though the fiber is a family


def test_jet_solver_rejects_four_cameras():
    cls = catalog_lookup("omni-2d")
    truth = random_jet_scene(cls, 9, 4, seed=122)
    with pytest.raises(InfeasibleCountError):
        solve_jet(evaluate_jet(truth), truth)


def test_solver_options_cap_iterations():
    cls = catalog_lookup("omni-2d")
    truth = random_scene(cls, 5, 3, seed=123)
    init = perturb_scene(truth, 0.10, seed=124)
    report = solve(cls, evaluate(truth), init, options=SolveOptions(max_iterations=2))
    assert report.iterations <= 2


@pytest.mark.parametrize("name", ["omni-2d", "omni-oriented-2d", "omni-3d", "perspective-3d",
                                  "affine-ortho-3d"])
def test_order_zero_taylor_scene_matches_its_static_scene(name):
    """A static point is the order-0 Taylor motion law: the moving-point API
    must give the static scene's pictures, Jacobian, orbits, pins, action and
    alignment."""
    from sfmlab.sfm import JetScene, jacobian
    from sfmlab.symmetry import act_jet_scene, align_jet, generators, jet_generators

    cls = catalog_lookup(name)
    scene = random_scene(cls, 5, 3, seed=150)
    js = JetScene(cls, "taylor", scene.points[:, None, :], np.array([0.0, 0.5, 1.5]),
                  scene.cams, scene.globals_vec)
    assert np.array_equal(js.to_vector(), scene.to_vector())
    assert np.array_equal(evaluate_jet(js).data, evaluate(scene).data)
    assert np.array_equal(jacobian(js), jacobian(scene))
    assert np.array_equal(jet_generators(js), generators(cls, scene))
    assert gauge_fix_jet(js).indices == gauge_fix(cls, scene).indices
    gamma = random_element(cls.group, cls.d, 151)
    moved_js, moved = act_jet_scene(gamma, js), act_scene(gamma, scene)
    assert np.array_equal(moved_js.to_vector(), moved.to_vector())
    (g_js, rmse_js), (g, rmse) = align_jet(js, moved_js), align(scene, moved)
    assert rmse_js == rmse and g_js.scale == g.scale
    assert np.array_equal(g_js.rotation, g.rotation)
    assert np.array_equal(g_js.translation, g.translation)

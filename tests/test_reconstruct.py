"""Gauge fixing, the damped least-squares solver, and uniqueness diagnostics."""

import numpy as np
import pytest

from sfmlab.cameras import catalog_lookup
from sfmlab.errors import DegenerateConfigurationError, InfeasibleCountError
from sfmlab import geometry, reconstruct, sfm
from sfmlab.reconstruct import (
    gauge_fix,
    local_uniqueness,
    perturb_jet_scene,
    perturb_scene,
    reprojection_rmse,
    solve,
    solve_jet,
)
from sfmlab.sfm import (
    JetScene,
    Measurements,
    Scene,
    evaluate,
    evaluate_jet,
    fd_jacobian,
    jacobian,
    random_jet_scene,
    random_scene,
)
from sfmlab.symmetry import act_scene, align, generators, random_element

from conftest import ALL_CLASS_NAMES


# The exact pins of each class's (3,3) seed-7 scene, in the order chosen.
PINS_3_3 = {
    "affine-ortho-2d": (0, 1, 6),
    "affine-ortho-3d": (0, 1, 2, 9, 10, 11),
    "omni-oriented-2d": (0, 1, 3),
    "omni-oriented-3d": (0, 1, 2, 4),
    "omni-2d": (0, 1, 8, 3),
    "omni-3d": (0, 1, 2, 12, 13, 14, 4),
    "perspective-2d": (0, 1, 8),
    "perspective-3d": (0, 1, 2, 12, 13, 14),
    "perspective-known-2d": (0, 1, 8),
    "perspective-known-3d": (0, 1, 2, 12, 13, 14),
    "perspective-zoom-2d": (0, 1, 8, 3),
    "perspective-zoom-3d": (0, 1, 2, 12, 13, 14, 4),
    "line-3d": (0, 1, 2, 9, 10, 5),
}


def test_gauge_pin_counts():
    assert set(PINS_3_3) == set(ALL_CLASS_NAMES)
    jet = random_jet_scene(catalog_lookup("omni-2d"), 7, 6, seed=7)
    scenes = [(random_scene(catalog_lookup(name), 3, 3, seed=7), PINS_3_3[name])
              for name in ALL_CLASS_NAMES] + [(jet, (0, 1, 30, 2))]
    solved = 0
    for scene, pins in scenes:
        gauge = gauge_fix(scene)
        assert len(gauge) == scene.cls.g
        assert gauge == pins
        # solve holds the pins of its start at the start's values, bit for bit
        init = perturb_scene(scene, 0.05, seed=8)
        try:
            report = solve(scene.cls, evaluate(scene), init)
        except InfeasibleCountError:
            continue
        solved += 1
        assert report.gauge == gauge_fix(init)
        pinned = list(report.gauge)
        assert np.array_equal(report.scene.to_vector()[pinned], init.to_vector()[pinned])
    assert solved == 5  # the feasible cells: four static (3,3) scenes and the jet


def test_gauge_structure_for_named_classes():
    scene = random_scene(catalog_lookup("affine-ortho-3d"), 3, 3, seed=8)
    gauge = gauge_fix(scene)
    # point 1 coordinates plus camera 1 orientation block
    assert set(gauge) == {0, 1, 2, 9, 10, 11}

    scene = random_scene(catalog_lookup("omni-oriented-2d"), 3, 3, seed=8)
    gauge = gauge_fix(scene)
    assert set(gauge) >= {0, 1}
    assert len(set(gauge) & {2, 3}) == 1  # one scale pin on point 2


def test_gauge_skips_a_point_that_repeats_the_anchor():
    """Point 1 on top of point 0 moves with it under every dilation, so the
    second pool has no usable pin and the scale pin comes from elsewhere."""
    cls = catalog_lookup("omni-oriented-2d")
    base = random_scene(cls, 3, 3, seed=7)
    points = base.points.copy()
    points[1] = points[0]
    scene = Scene(cls, points, base.params, base.globals_vec)
    gauge = gauge_fix(scene)
    assert gauge[:2] == (0, 1) and len(gauge) == 3
    assert gauge[2] not in scene.columns()[0][1]


@pytest.mark.parametrize("craft,message", [
    (lambda G: G[[0, 0, *range(2, len(G))]], "a forced gauge pin does not cut the orbit"),
    (lambda G: G[:, [0, 1, 0]], "gauge pins incomplete"),
], ids=["forced pin", "incomplete"])
def test_gauge_refuses_orbit_directions_it_cannot_pin(craft, message, monkeypatch):
    """omni-oriented-2d forces point 0's two coordinates as pins. With the
    second one's generator row made a copy of the first's, it cuts nothing;
    with the scaling column made a copy of the x translation, no g pins span
    the orbit directions."""
    scene = random_scene(catalog_lookup("omni-oriented-2d"), 3, 3, seed=7)
    G = generators(scene)
    monkeypatch.setattr(reconstruct, "generators", lambda s: craft(G))
    with pytest.raises(DegenerateConfigurationError, match=message):
        gauge_fix(scene)


def test_gauge_fixed_jacobian_has_full_column_rank():
    for name, n, m in [("affine-ortho-3d", 3, 3), ("omni-oriented-2d", 3, 3),
                       ("omni-2d", 5, 3)]:
        cls = catalog_lookup(name)
        for k in range(3):
            scene = random_scene(cls, n, m, seed=(15, k))
            rep = local_uniqueness(scene)
            assert rep.full_column_rank and rep.rank == scene.dim - cls.g


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
    for empty in (np.zeros((0, 3, 1)), np.zeros((3, 0, 1))):
        with pytest.raises(ValueError, match="k >= 1"):
            Measurements(cls, empty)


def test_measurements_of_another_class_are_rejected():
    """Measurements of the same shape but another class are not fitted."""
    meas = evaluate(random_scene(catalog_lookup("omni-oriented-2d"), 4, 3, seed=1))
    cls = catalog_lookup("affine-ortho-2d")
    init = perturb_scene(random_scene(cls, 4, 3, seed=1), 0.05, seed=2)
    with pytest.raises(ValueError, match="measurements class does not match"):
        solve(cls, meas, init)
    with pytest.raises(ValueError, match="measurements class does not match"):
        reprojection_rmse(init, meas)


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
    params = np.array([(0.0, 0.0), (0.9, 1.1), (-0.4, -1.2)])
    truth = Scene(cls, pts, params, np.zeros(0))
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


def test_solve_builds_no_scene_per_evaluation(monkeypatch):
    """The scenes one solve constructs (the gauge's generators, the result)
    are as many whatever the iteration count and the dimension: the
    residuals and finite differences run on the coordinate vector."""
    counted = []
    for scene_type in (Scene, JetScene):
        build = scene_type.__post_init__
        monkeypatch.setattr(scene_type, "__post_init__",
                            lambda s, build=build: counted.append(s) or build(s))
    cls = catalog_lookup("perspective-3d")
    runs = []
    for n, m, rel in ((5, 3, 0.02), (5, 3, 0.2), (12, 6, 0.1)):
        truth = random_scene(cls, n, m, seed=(1, n))
        meas, init = evaluate(truth), perturb_scene(truth, rel, seed=2)
        counted.clear()
        report = solve(cls, meas, init)
        runs.append((init.dim, report.iterations, len(counted)))
    (dim_a, iters_a, built_a), (_, iters_b, built_b), (dim_c, _, built_c) = runs
    assert iters_a != iters_b and dim_a != dim_c  # each count varies what it should
    assert built_a == built_b == built_c


class _Captured(Exception):
    pass


def _lm_jacobian(monkeypatch, init):
    """The Jacobian callable and the start vector that ``solve`` hands to
    ``_lm`` for the measurements of ``init`` itself."""
    captured = {}

    def capture(residual, jacobian, x0):
        captured.update(jacobian=jacobian, x0=x0)
        raise _Captured

    monkeypatch.setattr(reconstruct, "_lm", capture)
    with pytest.raises(_Captured):
        solve(init.cls, evaluate(init), init)
    return captured["jacobian"], captured["x0"]


def _solve_start(kind, seed):
    cls = catalog_lookup(kind.split()[-1])
    draw = random_jet_scene if kind.startswith("circle ") else random_scene
    return perturb_scene(draw(cls, 7, 6, seed=seed), 0.05, seed=seed + 1)


@pytest.mark.parametrize("kind", ["perspective-3d", "omni-3d", "circle omni-2d"])
def test_lm_jacobian_is_the_measurement_jacobian_of_the_free_coordinates(kind, monkeypatch):
    init = _solve_start(kind, 130)
    lm_jacobian, x0 = _lm_jacobian(monkeypatch, init)
    assert np.array_equal(lm_jacobian(x0), np.delete(jacobian(init), gauge_fix(init), axis=1))


def test_lm_jacobian_computes_each_camera_rotation_block_once(monkeypatch):
    """Stepping a point coordinate leaves every camera alone, so only the
    camera columns and the first evaluation compute rotations."""
    init = _solve_start("omni-3d", 132)
    lm_jacobian, x0 = _lm_jacobian(monkeypatch, init)
    free_camera_coordinates = np.setdiff1d(init.columns()[1], gauge_fix(init)).size
    calls = []
    rot3 = geometry.rot3
    monkeypatch.setattr(geometry, "rot3", lambda rho: calls.append(1) or rot3(rho))
    lm_jacobian(x0)
    assert 0 < len(calls) <= 2 * free_camera_coordinates + 1


def test_gauge_independence_of_the_reconstruction():
    """Listing the points in another order makes another point the gauge
    anchor; the reconstruction is the same modulo the group."""
    cls = catalog_lookup("omni-oriented-2d")
    truth = random_scene(cls, 3, 3, seed=98)
    meas = evaluate(truth)
    init = perturb_scene(truth, 0.05, seed=99)
    rep1 = solve(cls, meas, init)
    perm = np.array([1, 2, 0])  # point 1 is the anchor, point 2 the next pool
    rep2 = solve(cls, Measurements(cls, meas.data[perm]),
                 Scene(cls, init.points[perm], init.params, init.globals_vec))
    back = np.argsort(perm)
    _, rmse = align(rep1.scene, Scene(cls, rep2.scene.points[back], rep2.scene.params,
                                      rep2.scene.globals_vec))
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
    assert local_uniqueness(good).full_column_rank

    wide = random_scene(cls, 6, 2, seed=111)
    assert not local_uniqueness(wide).full_column_rank

    rng = np.random.default_rng(112)
    pts = np.column_stack([rng.uniform(-2, 2, size=(3, 2)), np.zeros(3)])
    params = [np.concatenate([[0.0, 0.0, rng.uniform(-np.pi, np.pi)],
                              rng.uniform(-2, 2, size=2)]) for _ in range(3)]
    coplanar = Scene(cls, pts, params, np.zeros(0))
    assert not local_uniqueness(coplanar).full_column_rank


def test_jet_gauge_and_solver_runs():
    cls = catalog_lookup("omni-2d")
    truth = random_jet_scene(cls, 7, 6, seed=120)
    assert len(gauge_fix(truth)) == cls.g
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


def test_solver_options_cap_iterations(monkeypatch):
    cls = catalog_lookup("omni-2d")
    truth = random_scene(cls, 5, 3, seed=123)
    init = perturb_scene(truth, 0.10, seed=124)
    monkeypatch.setattr(reconstruct, "MAX_ITERATIONS", 2)
    report = solve(cls, evaluate(truth), init)
    assert report.iterations == 2 and not report.converged
    assert len(report.cost_history) == 3  # the start and both accepted steps


def test_lm_stops_when_a_step_barely_lowers_the_cost():
    """From x = 5e-8 the residual [x, 1] has cost 1 + 2.5e-15: the first step
    lowers it by a share below COST_DECREASE_TOL, which counts as converged."""
    x, iterations, converged, grad_norm, history = reconstruct._lm(
        res := lambda x: np.array([x[0], 1.0]),
        lambda x: fd_jacobian(res, x, np.zeros(2, dtype=bool), range(x.size)), np.array([5e-8]))
    assert iterations == 1 and converged
    assert abs(x[0]) < 1e-10 and grad_norm < 1e-10
    assert len(history) == 2 and history[1] < history[0]


def test_lm_gives_up_when_the_damping_runs_out():
    """At the kink x = 0 central differences give the residual 1 + x + 10|x|
    slope 1, so every step goes left, where the residual 1 - 9x grows: each
    damping up to 1e12 is rejected and the solver stops, unconverged, where it
    started."""
    x, iterations, converged, grad_norm, history = reconstruct._lm(
        res := lambda x: np.array([1.0 + x[0] + 10.0 * abs(x[0])]),
        lambda x: fd_jacobian(res, x, np.zeros(1, dtype=bool), range(x.size)), np.array([0.0]))
    assert iterations == 1 and not converged
    assert x.tolist() == [0.0] and history == (1.0,)
    assert grad_norm > 0.5


def test_lm_raises_the_damping_when_the_damped_system_is_singular(monkeypatch):
    """A LinAlgError from the damped normal equations is not a stop: LM
    quadruples the damping and solves again, and the solve still converges
    with a cost history that never increases."""
    cls = catalog_lookup("omni-oriented-2d")
    truth = random_scene(cls, 3, 3, seed=(100, 0))
    init = perturb_scene(truth, 0.10, seed=(200, 0))
    systems = []
    real_solve = np.linalg.solve

    def singular_once(a, b):
        systems.append(a.copy())
        if len(systems) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_once)
    report = solve(cls, evaluate(truth), init)
    assert report.converged and report.rmse < 1e-8
    assert np.all(np.diff(report.cost_history) <= 0)
    first, retry = systems[:2]
    assert np.allclose(retry - first, 3e-3 * np.eye(len(first)), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("name", ["omni-2d", "omni-oriented-2d", "omni-3d", "perspective-3d",
                                  "affine-ortho-3d"])
def test_order_zero_taylor_scene_matches_its_static_scene(name):
    """A static point is the order-0 Taylor motion law: the moving-point API
    must give the static scene's pictures, Jacobian, orbits, pins, action and
    alignment."""
    from sfmlab.sfm import JetScene, jacobian
    from sfmlab.symmetry import align_jet, generators

    cls = catalog_lookup(name)
    scene = random_scene(cls, 5, 3, seed=150)
    js = JetScene(cls, "taylor", scene.points[:, None, :], np.array([0.0, 0.5, 1.5]),
                  scene.params, scene.globals_vec)
    assert np.array_equal(js.to_vector(), scene.to_vector())
    assert np.array_equal(evaluate_jet(js).data, evaluate(scene).data)
    assert np.array_equal(jacobian(js), jacobian(scene))
    assert np.array_equal(generators(js), generators(scene))
    assert gauge_fix(js) == gauge_fix(scene)
    gamma = random_element(cls.group, cls.d, 151)
    moved_js, moved = act_scene(gamma, js), act_scene(gamma, scene)
    assert np.array_equal(moved_js.to_vector(), moved.to_vector())
    (g_js, rmse_js), (g, rmse) = align_jet(js, moved_js), align(scene, moved)
    assert rmse_js == rmse and g_js.scale == g.scale
    assert np.array_equal(g_js.rotation, g.rotation)
    assert np.array_equal(g_js.translation, g.translation)


def test_solve_refuses_an_oversized_jacobian_before_measuring(monkeypatch):
    """LM's (s*n*m) x free Jacobian is held to ``sfm.MAX_ENTRIES``, as
    ``generic_rank``'s is, before the map is evaluated once."""
    cls = catalog_lookup("omni-2d")
    truth = random_scene(cls, 5, 3, seed=96)
    meas = evaluate(truth)

    def measure(self, vec):
        raise AssertionError("the measurement map was evaluated")

    monkeypatch.setattr(sfm._SceneLayout, "measure", measure)
    monkeypatch.setattr(sfm, "MAX_ENTRIES", 15 * 15 - 1)  # 15 values, 19 - 4 free coordinates
    with pytest.raises(ValueError, match=r"omni-2d \(5,3\): a 15 x 15 Jacobian exceeds 224 "):
        solve(cls, meas, truth)

"""Measurement map, jets, finite-difference Jacobians, and rank analysis."""

import tracemalloc

import numpy as np
import pytest

from sfmlab import geometry, sfm
from sfmlab.cameras import (
    POLE_MARGIN,
    SPREAD,
    Camera,
    OmniClass,
    PerspectiveClass,
    catalog,
    catalog_lookup,
    project,
    project_points,
)
from sfmlab.errors import DegenerateConfigurationError, SingularConfigurationError
from sfmlab.sfm import (
    JetScene,
    Scene,
    evaluate,
    evaluate_jet,
    generic_rank,
    jacobian,
    jet_position,
    numerical_rank,
    predicted_rank,
    random_jet_scene,
    random_scene,
)
from sfmlab.symmetry import act_scene, generators, kernel_check, random_element


def test_evaluate_reduces_to_project():
    """Each column of the batched measurement grid is exactly the one-camera
    projection of the positions that camera photographs."""
    scenes = [random_scene(cls, 4, 3, seed=3) for cls in catalog()]
    scenes.append(random_jet_scene(catalog_lookup("omni-2d"), 4, 3, seed=3))
    base = random_scene(catalog_lookup("perspective-2d"), 4, 3, seed=4)  # h = 1
    motion = np.random.default_rng(5).normal(size=(4, 3, 2))  # order-2 Taylor jet
    scenes.append(JetScene(base.cls, "taylor", motion, np.array([0.0, 0.5, 1.0]), base.params,
                           base.globals_vec))
    for scene in scenes:
        data = evaluate(scene).data
        assert data.shape == (4, 3, scene.cls.s)
        shots = scene.shot_positions()
        for j, p in enumerate(scene.params):
            camera = Camera(scene.cls, p)
            direct = project_points(camera, scene.globals_vec, shots[j])
            assert np.array_equal(data[:, j], direct), scene.cls.name
            # one point takes another BLAS kernel, so only the last bits may differ
            assert np.allclose(data[1, j], project(camera, scene.globals_vec, shots[j][1]),
                               rtol=1e-14, atol=1e-14)


def test_evaluate_shapes():
    rng = np.random.default_rng(5)
    for name in ("omni-2d", "affine-ortho-3d", "line-3d"):
        cls = catalog_lookup(name)
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        scene = random_scene(cls, n, m, seed=(9, n, m))
        assert evaluate(scene).flat().shape == (cls.s * n * m,)


def test_evaluate_reports_singular_pair():
    cls = catalog_lookup("omni-oriented-2d")
    # point 1 sits on camera 1's center and point 0 on camera 2's: the first
    # pair in camera-major order is reported
    params = np.array([[0.0, 0.0], [3.0, 3.0], [1.0, 1.0]])
    scene = Scene(cls, np.array([[1.0, 1.0], [3.0, 3.0]]), params, np.zeros(0))
    with pytest.raises(SingularConfigurationError) as err:
        evaluate(scene)
    assert err.value.point_index == 1 and err.value.camera_index == 1
    assert str(err.value) == "point coincides with an omni camera center (point 1, camera 1)"


def test_singular_error_names_only_known_indices():
    cls = catalog_lookup("omni-oriented-2d")
    with pytest.raises(SingularConfigurationError) as err:
        project_points(Camera(cls, np.array([1.0, 1.0])), None, np.array([[0.0, 0.0], [1.0, 1.0]]))
    assert err.value.point_index == 1 and err.value.camera_index is None
    assert str(err.value) == "point coincides with an omni camera center (point 1)"


def test_scenes_take_only_a_parameter_array():
    scene = random_scene(catalog_lookup("perspective-2d"), 3, 4, seed=6)  # f = 3, h = 1
    assert scene.params.shape == (4, 3) and not scene.params.flags.writeable

    def both(params):
        return (Scene(scene.cls, scene.points, params, scene.globals_vec),
                JetScene(scene.cls, "taylor", scene.points[:, None, :], np.arange(4.0), params,
                         scene.globals_vec))

    for from_array, from_list in zip(both(scene.params.copy()), both(scene.params.tolist())):
        assert np.array_equal(from_array.params, scene.params)
        assert np.array_equal(from_list.to_vector(), from_array.to_vector())
    bad_params = {
        "wrong width": np.zeros((4, 2)),
        "no cameras": np.zeros((0, 3)),
        "one row": np.zeros(3),
        "non-finite": np.where(np.eye(4, 3) > 0, np.nan, 1.0),
    }
    for case, params in bad_params.items():
        with pytest.raises(ValueError):
            Scene(scene.cls, scene.points, params, scene.globals_vec)
        with pytest.raises(ValueError):
            JetScene(scene.cls, "taylor", scene.points[:, None, :], np.arange(4.0), params,
                     scene.globals_vec)
    cameras = [Camera(scene.cls, p) for p in scene.params]
    with pytest.raises(TypeError):
        Scene(scene.cls, scene.points, cameras, scene.globals_vec)
    with pytest.raises(TypeError):
        JetScene(scene.cls, "taylor", scene.points[:, None, :], np.arange(4.0), cameras,
                 scene.globals_vec)


def test_evaluate_invariant_under_group_action():
    for name in ("omni-oriented-2d", "omni-3d", "perspective-3d", "line-3d"):
        cls = catalog_lookup(name)
        worst = 0.0
        for k in range(50):
            scene = random_scene(cls, 3, 3, seed=(21, k))
            gamma = random_element(cls.group, cls.d, (22, k))
            moved = act_scene(gamma, scene)
            diff = evaluate(moved).flat() - evaluate(scene).flat()
            worst = max(worst, float(np.max(np.abs(diff))))
        assert worst < 1e-9


def test_jet_position_circle_and_taylor():
    coeffs = np.array([1.0, 2.0, 0.5, 0.0])  # center (1,2), radius (0.5, 0)
    assert np.allclose(jet_position(coeffs, 0.0, "circle", omega=0.7), [1.5, 2.0])
    t_half = np.pi / 0.7
    assert np.allclose(jet_position(coeffs, t_half, "circle", omega=0.7), [0.5, 2.0])
    taylor = np.array([[1.0, 0.0], [0.5, -1.0]])  # P0 + P1 t
    assert np.allclose(jet_position(taylor, 2.0, "taylor"), [2.0, -2.0])


def test_jet_position_of_a_stack_equals_its_rows_exactly():
    rng = np.random.default_rng(65)
    stacks = [("circle", rng.normal(size=(7, 4)))]
    stacks += [("taylor", rng.normal(size=(7, k + 1, d))) for k in range(4) for d in (2, 3)]
    times = np.array([0.0, 0.35, -1.7, 2.45])
    for model, coeffs in stacks:
        for t in times:
            rows = np.array([jet_position(c, t, model, omega=0.7) for c in coeffs])
            assert np.array_equal(jet_position(coeffs, t, model, omega=0.7), rows)
        shots = jet_position(coeffs, times, model, omega=0.7)  # (times, points, d)
        assert np.array_equal(shots, [jet_position(coeffs, t, model, omega=0.7) for t in times])
    cls = catalog_lookup("omni-2d")
    circle = random_jet_scene(cls, 6, 5, seed=66)
    taylor = JetScene(cls, "taylor", rng.normal(size=(6, 3, 2)), circle.times, circle.params,
                      circle.globals_vec)
    for js in (circle, taylor):
        for j in range(js.m):
            assert np.array_equal(js.shot_positions()[j],
                                  jet_position(js.motion, js.times[j], js.model, js.omega))


def test_evaluate_jet_taylor_order_zero_is_static():
    cls = catalog_lookup("omni-oriented-2d")
    scene = random_scene(cls, 3, 4, seed=33)
    js = JetScene(cls, "taylor", scene.points[:, None, :], np.arange(4.0),
                  scene.params, scene.globals_vec)
    assert np.allclose(evaluate_jet(js).data, evaluate(scene).data)


def test_evaluate_jet_quadratic_taylor_matches_displaced_static():
    cls = catalog_lookup("omni-oriented-2d")
    scene = random_scene(cls, 3, 4, seed=34)
    rng = np.random.default_rng(35)
    motion = np.stack([scene.points,
                       rng.uniform(-0.5, 0.5, size=(3, 2)),
                       rng.uniform(-0.2, 0.2, size=(3, 2))], axis=1)
    times = np.array([0.0, 0.5, 1.0, 1.5])
    js = JetScene(cls, "taylor", motion, times, scene.params, scene.globals_vec)
    got = evaluate_jet(js).data
    for j, t in enumerate(times):
        displaced = Scene(cls, motion[:, 0] + t * motion[:, 1] + t * t * motion[:, 2],
                          scene.params, scene.globals_vec)
        assert np.allclose(got[:, j, :], evaluate(displaced).data[:, j, :])


def test_evaluate_jet_frozen_circle_matches_static():
    cls = catalog_lookup("omni-2d")
    js0 = random_jet_scene(cls, 4, 3, seed=44)
    frozen = JetScene(cls, "circle", js0.motion, js0.times, js0.params,
                      js0.globals_vec, omega=0.0)
    start_points = frozen.motion[:, :2] + frozen.motion[:, 2:]
    static = Scene(cls, start_points, frozen.params, frozen.globals_vec)
    assert np.allclose(evaluate_jet(frozen).data, evaluate(static).data)


def test_jet_scene_shape_and_validation():
    cls = catalog_lookup("omni-2d")
    js = random_jet_scene(cls, 7, 6, seed=2)
    assert evaluate_jet(js).flat().size == 42
    with pytest.raises(ValueError):
        JetScene(cls, "circle", js.motion, js.times[::-1], js.params, js.globals_vec, 0.7)
    bad = js.motion.copy()
    bad[0, 2:] = 0.0
    with pytest.raises(ValueError):
        JetScene(cls, "circle", bad, js.times, js.params, js.globals_vec, 0.7)


def test_jacobian_of_affine_point_block_is_rotation_rows():
    cls = catalog_lookup("affine-ortho-3d")
    scene = Scene(cls, np.array([[0.4, -0.2, 0.9]]), np.zeros((1, 5)), np.zeros(0))
    J = jacobian(scene)
    assert np.allclose(J[:, :3], np.array([[1.0, 0, 0], [0, 1.0, 0]]), atol=1e-9)


def test_jacobian_step_consistency(monkeypatch):
    for name in ("omni-2d", "perspective-3d"):
        cls = catalog_lookup(name)
        scene = random_scene(cls, 3, 2, seed=61)
        J6 = jacobian(scene)  # FD_STEP = 1e-6
        with monkeypatch.context() as patch:
            patch.setattr(sfm, "FD_STEP", 1e-5)
            J5 = jacobian(scene)
        assert np.allclose(J5, J6, rtol=1e-4, atol=1e-7)
        assert not np.array_equal(J5, J6)  # the patched step was used


def _taylor_scene(n, m, seed):
    """Order-2 Taylor jet of perspective-2d, which has a shared parameter."""
    base = random_scene(catalog_lookup("perspective-2d"), n, m, seed=seed)
    motion = np.random.default_rng(seed).normal(size=(n, 3, 2))
    return JetScene(base.cls, "taylor", motion, 0.5 * np.arange(m), base.params,
                    base.globals_vec)


def _per_column_jacobian(scene):
    """The measurement Jacobian with one evaluation pair per coordinate."""
    return sfm.fd_jacobian(lambda v: evaluate(scene.with_vector(v)).flat(), scene.to_vector(),
                           scene.output_angle_mask, range(scene.dim))


GROUPED_SCENES = (
    [(c.name, n, m) for c in catalog() for n, m in ((10, 8), (1, 4), (6, 1))]
    + [(f"circle {c.name}", 11, 5) for c in catalog() if c.d == 2]
    + [("taylor", 7, 5)]
)


def _grouped_scene(kind, n, m, seed):
    if kind == "taylor":
        return _taylor_scene(n, m, seed)
    if kind.startswith("circle "):
        return random_jet_scene(catalog_lookup(kind.split()[1]), n, m, seed=seed)
    return random_scene(catalog_lookup(kind), n, m, seed=seed)


@pytest.mark.parametrize("kind,n,m", GROUPED_SCENES)
def test_grouped_jacobian_equals_the_per_column_loop(kind, n, m):
    scene = _grouped_scene(kind, n, m, seed=90)
    assert np.array_equal(jacobian(scene), _per_column_jacobian(scene))


def _dense_jacobian(scene):
    raise AssertionError("the dense Jacobian was built")


@pytest.mark.parametrize("kind", [c.name for c in catalog()] + ["circle omni-2d", "taylor"])
def test_jacobian_evaluations_do_not_grow_with_the_scene(kind, monkeypatch):
    """``jacobian`` makes 2*(point_dim + f + h) evaluations, and so do
    ``jacobian_factor`` and ``generic_rank``, without building the dense J."""
    measure = sfm._SceneLayout.measure
    for n, m in ((3, 3), (12, 9)):
        scene = _grouped_scene(kind, n, m, seed=91)
        runs = [lambda: jacobian(scene), lambda: sfm.jacobian_factor(scene)]
        if scene.model == "static":
            runs.append(lambda: generic_rank(scene.cls, n, m, trials=1))
        for k, run in enumerate(runs):
            calls = []
            monkeypatch.setattr(sfm._SceneLayout, "measure",
                                lambda s, v: calls.append(v) or measure(s, v))
            if k:
                monkeypatch.setattr(sfm, "jacobian", _dense_jacobian)
            run()
            monkeypatch.undo()
            assert len(calls) == 2 * (scene.point_dim + scene.cls.f + scene.cls.h)


MEASURED_SCENES = (
    [(c.name, n, m) for c in catalog() for n, m in ((3, 3), (12, 9))]
    + [(f"circle {c.name}", n, m) for c in catalog() if c.d == 2 for n, m in ((3, 3), (12, 9))]
    + [("taylor", 3, 3), ("taylor", 12, 9)]
)


@pytest.mark.parametrize("kind,n,m", MEASURED_SCENES)
def test_measure_equals_evaluate_of_the_rebuilt_scene(kind, n, m):
    scene = _grouped_scene(kind, n, m, seed=92)
    vec = scene.to_vector()
    moved = vec * (1.0 + 1e-3 * np.random.default_rng(93).uniform(-1.0, 1.0, size=vec.size))
    rotation = scene.cls.rotation_slice
    nudged = moved.copy()  # one ulp apart in a rotation coordinate: a stale rotation shows
    k = scene.columns()[1][0, rotation.start if rotation else 0]
    nudged[k] = np.nextafter(moved[k], np.inf)
    inputs = (vec, moved, nudged)
    # references in reverse order, so nudged's is not computed right after moved's
    expected = [evaluate(scene.with_vector(v)).flat() for v in inputs[::-1]][::-1]
    for v, want in zip(inputs, expected):
        assert np.array_equal(scene.measure(v), want)
    bad = {"wrong length": vec[:-1], "NaN": np.where(np.arange(vec.size) == 0, np.nan, vec),
           "inf": np.where(np.arange(vec.size) == vec.size - 1, np.inf, vec)}
    if kind.startswith("circle "):
        bad["zero circle radius"] = np.where(np.isin(np.arange(vec.size), [2, 3]), 0.0, vec)
    for v in bad.values():
        with pytest.raises(ValueError):
            scene.with_vector(v)
        with pytest.raises(ValueError):
            scene.measure(v)


def test_measure_rejects_a_measurement_that_overflows():
    scene = random_scene(catalog_lookup("affine-ortho-2d"), 3, 3, seed=1)
    vec = np.array([1.7e308, -1.7e308] * 3 + [0.7, 0.0] * 3)  # finite, but x cos + y sin is not
    for measure in (lambda v: evaluate(scene.with_vector(v)), scene.measure):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="measurements must be"):
            measure(vec)


def test_numerical_rank_basics():
    assert numerical_rank(np.zeros((4, 6))).rank == 0
    assert numerical_rank(np.eye(5)).rank == 5
    rng = np.random.default_rng(0)
    A = np.outer(rng.normal(size=20), rng.normal(size=15))
    A += np.outer(rng.normal(size=20), rng.normal(size=15))
    rep = numerical_rank(A)
    assert rep.rank == 2
    assert rep.gap > 1e6
    # LinAlgError is a ValueError too, so the messages tell the checks apart
    for bad, message in [(np.zeros((0, 3)), "empty"), (np.array([1.0, 2.0]), "2-D"),
                         (np.array([[np.nan, 1.0]]), "finite")]:
        with pytest.raises(ValueError, match=message):
            numerical_rank(bad)


def test_generic_rank_borderline_examples():
    cases = [("affine-ortho-3d", 3, 3, 18), ("omni-oriented-3d", 2, 2, 8)]
    for name, n, m, expected in cases:
        cls = catalog_lookup(name)
        rep = generic_rank(cls, n, m, trials=3, seed=0)
        assert rep.rank == expected == predicted_rank(cls, n, m)


def test_generic_rank_two_view_ortho_deficit():
    cls = catalog_lookup("affine-ortho-3d")
    rep = generic_rank(cls, 6, 2, trials=3, seed=0)
    assert rep.rank <= 3 * 6 + 10 - 6 - 1


def test_rank_invariant_under_gauge_rerandomization():
    for name in ("omni-oriented-2d", "affine-ortho-3d"):
        cls = catalog_lookup(name)
        scene = random_scene(cls, 3, 3, seed=70)
        gamma = random_element(cls.group, cls.d, 71)
        r1 = numerical_rank(jacobian(scene)).rank
        r2 = numerical_rank(jacobian(act_scene(gamma, scene))).rank
        assert r1 == r2


def test_coplanar_ortho_scene_drops_rank():
    assert numerical_rank(jacobian(_coplanar_ortho_scene())).rank < 18


def _coplanar_ortho_scene():
    """affine-ortho-3d points on z = 0 seen by cameras turned about z only:
    no camera sees z, so every point block of J has rank 2 < point_dim."""
    cls = catalog_lookup("affine-ortho-3d")
    rng = np.random.default_rng(9)
    pts = np.column_stack([rng.uniform(-2, 2, size=(3, 2)), np.zeros(3)])
    params = [np.concatenate([[0.0, 0.0, rng.uniform(-np.pi, np.pi)],
                              rng.uniform(-2, 2, size=2)]) for _ in range(3)]
    return Scene(cls, pts, params, np.zeros(0))


FACTOR_SCENES = (
    [(c.name, n, m) for c in catalog() for n, m in ((10, 8), (4, 3), (6, 1), (1, 4))]
    + [(f"circle {c.name}", n, m) for c in catalog() if c.d == 2 for n, m in ((7, 6), (11, 5))]
    + [("taylor", 7, 5)]
)


def _assert_same_report(factor, dense):
    assert (factor.rank, factor.shape, factor.rel_tol) == (dense.rank, dense.shape, dense.rel_tol)
    assert factor.threshold == pytest.approx(dense.threshold, rel=1e-12)
    assert factor.singular_values.shape == dense.singular_values.shape
    top = dense.singular_values[0]
    assert np.abs(factor.singular_values - dense.singular_values).max() <= 1e-12 * top


@pytest.mark.parametrize("kind,n,m", FACTOR_SCENES + [("coplanar", 3, 3)])
def test_point_block_factor_keeps_the_spectrum_of_the_jacobian(kind, n, m):
    scene = _coplanar_ortho_scene() if kind == "coplanar" else _grouped_scene(kind, n, m, 92)
    J = jacobian(scene)
    _assert_same_report(sfm.jacobian_rank(scene, slice(None), None), numerical_rank(J))
    columns = np.random.default_rng(93).permutation(scene.dim) >= scene.cls.g  # drop g columns
    _assert_same_report(sfm.jacobian_rank(scene, columns, None), numerical_rank(J[:, columns]))
    if kind == "coplanar":
        blocks = J.reshape(n, -1, scene.dim)[:, :, : n * scene.point_dim]
        assert max(np.linalg.matrix_rank(b) for b in blocks) < scene.point_dim


@pytest.mark.parametrize("name", ["perspective-3d", "omni-3d"])
def test_point_block_factor_holds_the_camera_block_once(name):
    """The leftover rows of each Q_i^T B_i are written once, straight into
    their stacked array, and reduced in place, so the traced peak stays
    within 2.3x that array (2.2x measured): no full Q_i^T B_i and no copy of
    the leftover rows is ever made. Reducing them with ``np.linalg.qr``,
    which copies its input, peaks at 2.43x here."""
    cls = catalog_lookup(name)
    n, m = 40, 10
    scene = random_scene(cls, n, m, seed=94)
    k = min(m * cls.s, scene.point_dim)
    leftover_bytes = n * (m * cls.s - k) * (m * cls.f + cls.h) * 8
    tracemalloc.start()
    try:
        sfm.jacobian_factor(scene)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * leftover_bytes


@pytest.mark.parametrize("chunking", ["one point", "partial last chunk"])
@pytest.mark.parametrize("kind,n,m", FACTOR_SCENES + [("coplanar", 3, 3)])
def test_chunked_factor_keeps_the_spectrum_of_the_jacobian(kind, n, m, chunking, monkeypatch):
    """The leftover rows reduced chunk by chunk give J's spectrum too, with
    one point per chunk and with about half the points per chunk, so the last
    chunk is partial. Each budget is the largest that gives that many points,
    and the chunks are counted, so the chunked path is the one checked."""
    scene = _coplanar_ortho_scene() if kind == "coplanar" else _grouped_scene(kind, n, m, 92)
    left = max(m * scene.cls.s - min(m * scene.cls.s, scene.point_dim), 1)  # rows per point
    per = 1 if chunking == "one point" else n // 2 + 1
    monkeypatch.setattr(sfm, "CHUNK_ROWS", (per + 1) * left - 1)
    chunks = []
    rotated = sfm._rotated_blocks
    monkeypatch.setattr(sfm, "_rotated_blocks",
                        lambda owners, *out: chunks.append(len(owners)) or rotated(owners, *out))
    test_point_block_factor_keeps_the_spectrum_of_the_jacobian(kind, n, m)
    sizes = [per] * (n // per) + [n % per] * (n % per > 0)
    assert chunks == 2 * sizes  # one factor for all columns, one for the subset


def test_chunked_factor_peaks_below_the_stacked_leftover_rows():
    """At perspective-3d (120,24) the leftover rows stack to 6.26 MB. Reduced
    chunk by chunk, one factor call peaks below that (4.5 MB measured); with
    the whole stack reduced at once it peaked at 10.0 MB."""
    cls = catalog_lookup("perspective-3d")
    n, m = 120, 24
    scene = random_scene(cls, n, m, seed=94)
    k = min(m * cls.s, scene.point_dim)
    leftover_bytes = n * (m * cls.s - k) * (m * cls.f + cls.h) * 8
    tracemalloc.start()
    try:
        sfm.jacobian_factor(scene)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < leftover_bytes


def _reduce_rows_inputs():
    rng = np.random.default_rng(95)
    deficient = rng.normal(size=(500, 40))
    deficient[:, 7] = 0.0  # a zero column: that reflector has tau = 0
    deficient[:, 39] = deficient[:, 3] + 2.0 * deficient[:, 5]
    zero_block = rng.normal(size=(60, 37))
    zero_block[:, :sfm.PANEL + 3] = 0.0  # a whole panel of zero columns, and more
    return {
        "tall": rng.normal(size=(300, 37)),
        "wide": rng.normal(size=(5, 37)),
        "wide over two panels": rng.normal(size=(20, 41)),
        "no rows": np.zeros((0, 37)),
        "square": rng.normal(size=(37, 37)),
        "one column": rng.normal(size=(33, 1)),
        "dependent and zero columns": deficient,
        "low rank": rng.normal(size=(200, 25)) @ rng.normal(size=(25, 45)),
        "zero columns": zero_block,
    }


@pytest.mark.parametrize("case", list(_reduce_rows_inputs()))
def test_reduce_rows_matches_the_lapack_qr(case):
    """``_reduce_rows`` returns R of ``np.linalg.qr(a, mode="r")``, up to the
    sign of each row, in ``a``'s own memory, zero below the diagonal."""
    a = _reduce_rows_inputs()[case]
    expected = np.linalg.qr(a, mode="r")
    work = a.copy()
    got = sfm._reduce_rows(work)
    assert got.shape == expected.shape
    assert got.size == 0 or np.shares_memory(got, work)
    assert not np.tril(got, -1).any()
    assert np.abs(np.abs(got) - np.abs(expected)).max(initial=0.0) <= 1e-13 * np.linalg.norm(a)


@pytest.mark.parametrize("name,n,m,rank", [("perspective-3d", 120, 24, 498),
                                           ("affine-ortho-3d", 120, 24, 474),
                                           ("omni-3d", 80, 16, 329)])
def test_generic_rank_of_the_large_benchmark_cells(name, n, m, rank):
    """The cells the rank benchmark checks, at its first seed, with the gap it
    requires, so a change to the factor's numerics fails here first."""
    rep = generic_rank(catalog_lookup(name), n, m, trials=1, seed=0)
    assert rep.rank == rank and rep.best.gap >= 1e3


def test_generic_rank_refuses_a_huge_cell_before_drawing(monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("a scene was drawn")

    monkeypatch.setattr(sfm, "random_scene", draw)
    with pytest.raises(ValueError, match="exceeds"):
        generic_rank(catalog_lookup("omni-2d"), 100_000_000, 3, trials=1)


def test_jacobian_refuses_an_oversized_matrix(monkeypatch):
    scene = random_scene(catalog_lookup("omni-2d"), 5, 3, seed=96)
    monkeypatch.setattr(sfm, "MAX_ENTRIES", 15 * 19 - 1)  # 15 values, 19 coordinates
    with pytest.raises(ValueError, match="a 15 x 19 Jacobian exceeds 284 entries"):
        jacobian(scene)


def test_kernel_check_passes_and_detects_bad_directions():
    cls = catalog_lookup("omni-oriented-2d")
    scene = random_scene(cls, 3, 3, seed=81)
    rep = kernel_check(scene)
    assert rep.passed and rep.ratios.shape == (cls.g,)

    J = jacobian(scene)
    G = generators(scene)
    dense = np.linalg.norm(J @ G, axis=0) / (np.linalg.norm(J, 2) * np.linalg.norm(G, axis=0))
    assert np.max(np.abs(rep.ratios - dense)) <= 1e-15  # read from the factor, J = Q M
    rng = np.random.default_rng(82)
    v = G[:, 0] + 0.1 * rng.normal(size=G.shape[0])
    ratio = np.linalg.norm(J @ v) / (np.linalg.norm(J, 2) * np.linalg.norm(v))
    assert ratio > 1e-5  # perturbed generator leaves the kernel


def test_scaling_is_not_a_symmetry_of_fixed_focal_perspective():
    cls = catalog_lookup("perspective-known-3d")
    scene = random_scene(cls, 4, 2, seed=83)
    J = jacobian(scene)
    v = np.zeros(scene.dim)
    v[: 3 * 4] = scene.points.ravel()  # scale points about the origin
    for j, params in enumerate(scene.params):
        base = 3 * 4 + j * cls.f
        v[base : base + 3] = params[:3]  # and camera positions
    ratio = np.linalg.norm(J @ v) / (np.linalg.norm(J, 2) * np.linalg.norm(v))
    assert ratio > 1e-3


def test_jet_kernel_check_accepts_declared_generators():
    cls = catalog_lookup("omni-2d")
    js = random_jet_scene(cls, 5, 5, seed=91)
    rep = kernel_check(js)
    assert rep.passed and rep.ratios.shape == (cls.g,)


def test_generic_rank_is_deterministic():
    cls = catalog_lookup("omni-oriented-2d")
    seq = generic_rank(cls, 3, 3, trials=4, seed=5)
    par = generic_rank(cls, 3, 3, trials=4, seed=5)
    assert seq.trial_ranks == par.trial_ranks and seq.rank == par.rank


def _layout_scene(kind):
    if kind == "circle":
        return random_jet_scene(catalog_lookup("omni-2d"), 4, 3, seed=70)
    if kind == "taylor":  # order 2, with a shared parameter
        base = random_scene(catalog_lookup("perspective-2d"), 4, 3, seed=71)
        motion = np.random.default_rng(72).normal(size=(4, 3, 2))
        return JetScene(base.cls, "taylor", motion, np.array([0.0, 0.5, 1.0]), base.params,
                        base.globals_vec)
    return random_scene(catalog_lookup(kind), 3, 3, seed=73)


@pytest.mark.parametrize("kind", [c.name for c in catalog()] + ["circle", "taylor"])
def test_scene_layout_columns_and_angle_masks(kind):
    scene = _layout_scene(kind)
    cls = scene.cls
    points, cams, shared = scene.columns()
    assert points.shape == (scene.n, scene.point_dim) and cams.shape == (scene.m, cls.f)
    assert np.array_equal(np.concatenate([points.ravel(), cams.ravel(), shared]),
                          np.arange(scene.dim))
    vec = scene.to_vector()
    for i in range(scene.n):
        assert np.array_equal(vec[points[i]], scene.coefficients[i].ravel())
    for j, params in enumerate(scene.params):
        assert np.array_equal(vec[cams[j]], params)
    angles = np.zeros(scene.dim, dtype=bool)
    angles[cams[:, list(cls.angular_param_indices)]] = True
    assert np.array_equal(scene.angle_mask, angles)
    outputs = np.zeros((scene.n, scene.m, cls.s), dtype=bool)
    outputs[:, :, list(cls.angular_output_indices)] = True
    assert np.array_equal(scene.output_angle_mask.reshape(scene.n, scene.m, cls.s), outputs)


def _with_bad_entry(values, k, bad):
    out = np.array(values, dtype=float)
    out.flat[k] = bad
    return out


NON_FINITE_SCENES = {
    "points": lambda s, motion, times, bad: Scene(
        s.cls, _with_bad_entry(s.points, 1, bad), s.params, s.globals_vec),
    "globals": lambda s, motion, times, bad: Scene(
        s.cls, s.points, s.params, _with_bad_entry(s.globals_vec, 0, bad)),
    "motion": lambda s, motion, times, bad: JetScene(
        s.cls, "circle", _with_bad_entry(motion, 2, bad), times, s.params, s.globals_vec, 0.7),
    "times": lambda s, motion, times, bad: JetScene(
        s.cls, "circle", motion, _with_bad_entry(times, 2, bad), s.params, s.globals_vec, 0.7),
    "omega": lambda s, motion, times, bad: JetScene(
        s.cls, "circle", motion, times, s.params, s.globals_vec, bad),
    "jet globals": lambda s, motion, times, bad: JetScene(
        s.cls, "circle", motion, times, s.params, _with_bad_entry(s.globals_vec, 0, bad), 0.7),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", list(NON_FINITE_SCENES))
def test_scenes_reject_non_finite_input(field, bad):
    scene = random_scene(catalog_lookup("perspective-2d"), 3, 3, seed=160)  # h = 1
    motion = np.column_stack([scene.points, np.full((3, 2), 0.5)])
    times = np.array([0.0, 0.35, 0.7])
    NON_FINITE_SCENES[field](scene, motion, times, 1.0)  # the finite version is valid
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_SCENES[field](scene, motion, times, bad)


SAMPLED_SCENES = ([("static", c.name) for c in catalog()]
                  + [("circle", c.name) for c in catalog() if c.d == 2])


@pytest.mark.parametrize("sampler", [random_scene, random_jet_scene], ids=["static", "circle"])
def test_samplers_give_up_after_max_draws(sampler, monkeypatch):
    """A class whose margins refuse every draw ends the sampler after
    ``MAX_DRAWS`` tries with DegenerateConfigurationError."""
    cls = catalog_lookup("omni-2d")
    tries = []
    monkeypatch.setattr(type(cls), "margins_ok", lambda self, P, glob, X: tries.append(1) or False)
    with pytest.raises(DegenerateConfigurationError, match=f"in {sfm.MAX_DRAWS} draws"):
        sampler(cls, 3, 3, seed=0)
    assert len(tries) == sfm.MAX_DRAWS


@pytest.mark.parametrize("model,name", SAMPLED_SCENES)
def test_samplers_keep_their_margins(model, name):
    cls = catalog_lookup(name)
    for k in range(3):
        if model == "static":
            scene = random_scene(cls, 6, 4, seed=(k, 5))
        else:
            scene = random_jet_scene(cls, 6, 5, seed=(k, 3))
        data = evaluate(scene).data
        assert np.ptp(data) > 0, "all measurements are equal"
        for X, p in zip(scene.shot_positions(), scene.params):
            if isinstance(cls, OmniClass):
                delta = X - p[: cls.d]
                dist = np.sqrt(np.sum(delta * delta, axis=1))
                assert dist.min() >= 0.25 * SPREAD
                if cls.d == 3:
                    if cls.rotation_slice is not None:
                        delta = delta @ geometry.rot3(p[cls.rotation_slice]).T
                    phi = np.arccos(delta[:, 2] / dist)
                    assert np.all((phi >= POLE_MARGIN) & (phi <= np.pi - POLE_MARGIN))
            if isinstance(cls, PerspectiveClass):
                if cls.h:
                    focal = scene.globals_vec[0]
                elif cls.focal_index is not None:
                    focal = p[cls.focal_index]
                else:
                    focal = cls.known_focal
                R = geometry.rotation_matrix(cls.d, p[cls.rotation_slice])
                depth = (X - p[: cls.d]) @ R[-1] + focal
                assert depth.min() >= 0.5

"""Acceptance suite: end-to-end checks of the package's headline guarantees.

Each test prints one summary line. Two checks contain sub-cases that are
known to be unattainable for faithful camera models (documented in the README
under "Known deviations"); they are asserted as stated anyway and fail red:

* zero-deficit rank for shared-focal perspective stereo and the four-view
  line camera (check 08; both have exact deformation ambiguities beyond the
  declared symmetry group),
* round-trip recovery at 1e-5 for shared-focal perspective stereo and the
  circle-motion scenarios (check 11; the same ambiguities make the solution
  a family, and alignment only quotients the declared group).

Two quoted point counts disagree with the inequality for the catalog rows of
check 01: zoom stereo (quoted 8, inequality 7; check 02) and the planar zoom
four-view entry (quoted 7, inequality 6; check 03). Each quote must be
flagged in ``REFERENCE_COUNT_NOTES``, and the inequality's count is asserted.
"""

import numpy as np

from sfmlab.cameras import (
    Camera,
    catalog,
    catalog_lookup,
    camera_map,
    project,
    random_camera,
    singular_margin,
)
from sfmlab.counting import (
    CIRCLE_PRESET,
    REFERENCE_COUNT_NOTES,
    anchored_slack,
    feasible,
    jet_min_cameras,
    jet_min_points,
    min_points,
)
from sfmlab.geometry import wrap_angle
from sfmlab.reconstruct import (
    perturb_jet_scene,
    perturb_scene,
    solve,
    solve_jet,
)
from sfmlab.sfm import (
    Scene,
    evaluate,
    evaluate_jet,
    generic_rank,
    jacobian,
    numerical_rank,
    predicted_rank,
    random_jet_scene,
    random_scene,
)
from sfmlab.symmetry import act_camera, act_point, align, align_jet, kernel_check, random_element

CATALOG_ROWS = {
    "affine-ortho-2d": (2, 1, 2, 3, 0),
    "omni-oriented-2d": (2, 1, 2, 3, 0),
    "omni-2d": (2, 1, 3, 4, 0),
    "perspective-2d": (2, 1, 3, 3, 1),
    "perspective-zoom-2d": (2, 1, 4, 4, 0),
    "affine-ortho-3d": (3, 2, 5, 6, 0),
    "omni-oriented-3d": (3, 2, 3, 4, 0),
    "omni-3d": (3, 2, 6, 7, 0),
    "perspective-3d": (3, 2, 6, 6, 1),
    "perspective-zoom-3d": (3, 2, 7, 7, 0),
    "line-3d": (3, 1, 3, 6, 0),
    "perspective-known-2d": (2, 1, 3, 3, 0),
    "perspective-known-3d": (3, 2, 6, 6, 0),
}


def _finish(label: str, failures: list[str]):
    print(f"[{'PASS' if not failures else 'FAIL'}] {label}")
    assert not failures, f"{label}: " + "; ".join(failures)


def test_acceptance_01_catalog_dimensions_exact():
    failures = []
    if len(catalog()) != 13:
        failures.append(f"expected 13 classes, found {len(catalog())}")
    for name, row in CATALOG_ROWS.items():
        cls = catalog_lookup(name)
        got = (cls.d, cls.s, cls.f, cls.g, cls.h)
        if got != row:
            failures.append(f"{name}: {got} != {row}")
    _finish("catalog dimensions exact (13 classes)", failures)


def test_acceptance_02_two_camera_minimums():
    failures = []
    expected = {"affine-ortho-3d": 4, "omni-oriented-3d": 2, "omni-3d": 5,
                "perspective-3d": 7}
    for name, want in expected.items():
        got = min_points(name, 2)
        if got != want:
            failures.append(f"{name}: {got} != {want}")
    zoom = min_points("perspective-zoom-3d", 2)
    if zoom != 7:
        failures.append(f"perspective-zoom-3d: {zoom} != 7")
    if REFERENCE_COUNT_NOTES.get(("perspective-zoom-3d", 2)) != 8:
        failures.append("missing flagged reference value 8 for zoom stereo")
    for name in ("affine-ortho-2d", "omni-oriented-2d", "omni-2d",
                 "perspective-2d", "perspective-zoom-2d"):
        if min_points(name, 2) is not None:
            failures.append(f"{name}: planar stereo should be impossible")
    _finish("two-camera minimal point counts", failures)


def test_acceptance_03_three_and_four_camera_tables():
    failures = []
    planar = ["affine-ortho-2d", "omni-oriented-2d", "omni-2d",
              "perspective-known-2d", "perspective-zoom-2d"]
    spatial = ["affine-ortho-3d", "omni-oriented-3d", "omni-3d",
               "perspective-known-3d", "perspective-zoom-3d"]
    tables = [
        (3, planar, (3, 3, 5, 6, 8)),
        (3, spatial, (3, 2, 4, 4, 5)),
        (4, planar[:-1], (3, 3, 4, 5)),
        (4, spatial, (3, 2, 4, 4, 5)),
    ]
    for m, names, wants in tables:
        for name, want in zip(names, wants):
            got = min_points(name, m)
            if got != want:
                failures.append(f"{name} m={m}: {got} != {want}")
    zoom = min_points("perspective-zoom-2d", 4)
    if zoom != 6:
        failures.append(f"perspective-zoom-2d m=4: {zoom} != 6")
    if REFERENCE_COUNT_NOTES.get(("perspective-zoom-2d", 4)) != 7:
        failures.append("missing flagged reference value 7 for planar zoom m=4")
    _finish("three- and four-camera point-count tables", failures)


def test_acceptance_04_planar_oriented_omni_boundary_identity():
    failures = []
    checked = 0
    for n in range(1, 51):
        for m in range(1, 51):
            rep = feasible("omni-oriented-2d", n, m)
            if rep.feasible != (m * n - 2 * m - 2 * n + 3 >= 0):
                failures.append(f"(n={n}, m={m}) disagrees with the sign condition")
            checked += 1
    if checked != 2500:
        failures.append("expected 2500 cells")
    _finish("planar oriented-omni boundary identity (2500 cells)", failures)


def test_acceptance_05_line_camera_and_circle_preset_counts():
    failures = []
    if min_points("line-3d", 4) != 6:
        failures.append(f"line-3d m=4: {min_points('line-3d', 4)} != 6")
    if jet_min_cameras(**CIRCLE_PRESET) != 5:
        failures.append("circle preset: minimal camera count != 5")
    if jet_min_points(m=5, **CIRCLE_PRESET) != 11:
        failures.append("circle preset m=5: point count != 11")
    if jet_min_points(m=6, **CIRCLE_PRESET) != 7:
        failures.append("circle preset m=6: point count != 7")
    _finish("line-camera and circle-motion minimal counts", failures)


def test_acceptance_06_idempotency_and_invariance_sweeps():
    failures = []
    for cls in catalog():
        worst_idem = 0.0
        worst_inv = 0.0
        done = 0
        k = 0
        rng = np.random.default_rng((5, hash(cls.name) % (1 << 16)))
        while done < 1000:
            k += 1
            cam = random_camera(cls, (6, k))
            glob = np.array([rng.uniform(0.8, 2.0)]) if cls.h else np.zeros(0)
            P = rng.uniform(-4.0, 4.0, size=cls.d)
            if singular_margin(cam, glob, P) < 0.05:
                continue
            q1 = camera_map(cam, glob, P)
            q2 = camera_map(cam, glob, q1)
            worst_idem = max(worst_idem, float(np.max(np.abs(q2 - q1))))

            gamma = random_element(cls.group, cls.d, (7, k))
            before = project(cam, glob, P)
            after = project(act_camera(gamma, cam), glob, act_point(gamma, P))
            diff = after - before
            for idx in cls.angular_output_indices:
                diff[idx] = wrap_angle(diff[idx])
            worst_inv = max(worst_inv, float(np.max(np.abs(diff))))
            done += 1
        if worst_idem >= 1e-9:
            failures.append(f"{cls.name}: idempotency error {worst_idem:.2e}")
        if worst_inv >= 1e-9:
            failures.append(f"{cls.name}: invariance error {worst_inv:.2e}")
    _finish("idempotency and invariance sweeps (1000 trials per class)", failures)


def test_acceptance_07_symmetry_kernel_property():
    failures = []
    for cls in catalog():
        worst = 0.0
        for k in range(20):
            scene = random_scene(cls, 3, 3, seed=(8, k))
            rep = kernel_check(scene)
            worst = max(worst, rep.worst)
            if not rep.passed:
                failures.append(f"{cls.name} seed {k}: worst ratio {rep.worst:.2e}")
                break
    _finish("symmetry generators lie in the Jacobian kernel (20 scenes/class)", failures)


BORDERLINE_RANK_CASES = [
    ("affine-ortho-3d", 3, 3),
    ("affine-ortho-2d", 3, 3),
    ("omni-oriented-3d", 2, 2),
    ("omni-oriented-2d", 3, 3),
    ("perspective-3d", 7, 2),
    ("omni-2d", 5, 3),
    ("line-3d", 6, 4),
]


def test_acceptance_08_borderline_generic_ranks():
    failures = []
    for name, n, m in BORDERLINE_RANK_CASES:
        cls = catalog_lookup(name)
        rep = generic_rank(cls, n, m, trials=5, seed=0)
        want = predicted_rank(cls, n, m)
        if rep.rank != want:
            failures.append(f"{name} ({n},{m}): rank {rep.rank} != {want}")
        elif rep.best.gap < 1e3:
            failures.append(f"{name} ({n},{m}): spectral gap {rep.best.gap:.1e} < 1e3")
    _finish("borderline cases reach the predicted generic rank", failures)


def test_acceptance_09_two_view_orthographic_deficit_persists():
    failures = []
    cls = catalog_lookup("affine-ortho-3d")
    for n in range(4, 11):
        rep = generic_rank(cls, n, 2, trials=5, seed=1)
        quota = 3 * n + 10 - 6
        if not rep.rank < quota:
            failures.append(f"n={n}: rank {rep.rank} not below {quota}")
    _finish("two-view orthographic deficit persists for n in 4..10", failures)


def test_acceptance_10_coplanar_degeneracy():
    failures = []
    cls = catalog_lookup("affine-ortho-3d")
    for k in range(20):
        rng = np.random.default_rng((10, k))
        pts = np.column_stack([rng.uniform(-2, 2, size=(3, 2)), np.zeros(3)])
        cams = tuple(
            Camera(cls, np.concatenate([[0.0, 0.0, rng.uniform(-np.pi, np.pi)],
                                        rng.uniform(-2, 2, size=2)]))
            for _ in range(3)
        )
        coplanar_rank = numerical_rank(jacobian(Scene(cls, pts, cams, np.zeros(0)))).rank
        if coplanar_rank >= 18:
            failures.append(f"coplanar seed {k}: rank {coplanar_rank} not below 18")
        generic = numerical_rank(jacobian(random_scene(cls, 3, 3, seed=(11, k)))).rank
        if generic != 18:
            failures.append(f"generic seed {k}: rank {generic} != 18")
    _finish("coplanar orthographic scenes lose rank; generic ones do not", failures)


ROUND_TRIP_CASES = [
    ("omni-oriented-2d", 3, 3),
    ("affine-ortho-3d", 3, 3),
    ("perspective-3d", 7, 2),
    ("omni-2d", 5, 3),
    ("omni-2d", 4, 4),
]
JET_ROUND_TRIP_CASES = [(7, 6), (11, 5)]


def test_acceptance_11_round_trip_reconstruction():
    failures = []
    for name, n, m in ROUND_TRIP_CASES:
        cls = catalog_lookup(name)
        good = 0
        for k in range(20):
            truth = random_scene(cls, n, m, seed=(100, k))
            meas = evaluate(truth)
            init = perturb_scene(truth, 0.10, seed=(200, k))
            report = solve(cls, meas, init)
            _, rmse = align(report.scene, truth)
            if rmse < 1e-5:
                good += 1
        if good < 18:
            failures.append(f"{name} ({n},{m}): {good}/20 below the 90% bar")
    for n, m in JET_ROUND_TRIP_CASES:
        cls = catalog_lookup("omni-2d")
        good = 0
        for k in range(20):
            truth = random_jet_scene(cls, n, m, seed=(300, k))
            meas = evaluate_jet(truth)
            init = perturb_jet_scene(truth, 0.10, seed=(400, k))
            report = solve_jet(meas, init)
            _, rmse = align_jet(report.scene, truth)
            if rmse < 1e-5:
                good += 1
        if good < 18:
            failures.append(f"circle motion ({n},{m}): {good}/20 below the 90% bar")
    _finish("noise-free round trips succeed in at least 90% of seeded runs", failures)


def test_acceptance_12_anchored_inequality_identity():
    failures = []
    for name in ("affine-ortho-2d", "affine-ortho-3d"):
        for n in range(1, 51):
            for m in range(1, 51):
                if anchored_slack(name, n, m) != feasible(name, n, m).slack:
                    failures.append(f"{name} (n={n}, m={m}): forms disagree")
    _finish("anchored form of the inequality gives identical slack (50x50)", failures)

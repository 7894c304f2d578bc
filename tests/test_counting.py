"""Integer feasibility counting, minimal counts, and the moving-point variant."""

import pytest

from sfmlab.cameras import catalog_lookup
from sfmlab.counting import (
    CIRCLE_PRESET,
    REFERENCE_COUNT_NOTES,
    anchored_slack,
    feasible,
    forbidden_region,
    jet_feasible,
    jet_min_cameras,
    jet_min_points,
    min_cameras,
    min_points,
)
from sfmlab.sfm import generic_rank, random_jet_scene, random_scene

from conftest import ALL_CLASS_NAMES


def brute_min_points(cls, m, cap=200):
    for n in range(1, cap + 1):
        if feasible(cls, n, m).feasible:
            return n
    return None


def brute_min_cameras(cls, n, cap=200):
    for m in range(1, cap + 1):
        if feasible(cls, n, m).feasible:
            return m
    return None


def test_feasible_examples():
    rep = feasible("affine-ortho-3d", 3, 3)
    assert (rep.lhs, rep.rhs, rep.slack) == (24, 24, 0)
    assert rep.feasible and rep.borderline

    rep = feasible("affine-ortho-3d", 4, 2)
    assert rep.slack == 0 and (rep.lhs, rep.rhs) == (22, 22)

    rep = feasible("omni-oriented-2d", 2, 3)
    assert (rep.lhs, rep.rhs) == (10, 9) and not rep.feasible

    assert not feasible("affine-ortho-2d", 1000, 2).feasible


def test_min_points_examples():
    assert min_points("omni-oriented-3d", 2) == 2
    assert min_points("perspective-3d", 2) == 7
    assert min_points("omni-2d", 3) == 5
    assert min_points("perspective-2d", 2) is None
    assert min_points("line-3d", 4) == 6


def test_min_cameras_examples():
    assert min_cameras("omni-oriented-2d", 3) == 3
    assert min_cameras("omni-oriented-2d", 2) is None
    assert min_cameras("affine-ortho-3d", 3) == 3


@pytest.mark.parametrize("name", ALL_CLASS_NAMES)
def test_min_counts_match_brute_force(name):
    cls = catalog_lookup(name)
    for m in range(1, 9):
        assert min_points(cls, m) == brute_min_points(cls, m)
    for n in range(1, 9):
        assert min_cameras(cls, n) == brute_min_cameras(cls, n)


NON_INTEGER_COUNTS = {
    "feasible n=2.5": lambda: feasible("omni-2d", 2.5, 3),
    "min_points m=2.5": lambda: min_points("omni-2d", 2.5),
    "jet_min_points point_dim=2.5": lambda: jet_min_points(2.5, 3, 4, 0, 1, 3),
    "forbidden_region n_max=2.5": lambda: forbidden_region("omni-2d", 2.5, 2),
    "min_cameras n=True": lambda: min_cameras("omni-2d", True),
    "jet_feasible m=3.0": lambda: jet_feasible(4, 3, 4, 0, 1, 7, 3.0),
    "jet_min_cameras s=True": lambda: jet_min_cameras(4, 3, 4, 0, True),
    "anchored_slack m='2'": lambda: anchored_slack("omni-2d", 3, "2"),
    "random_scene n=2.5": lambda: random_scene(catalog_lookup("omni-2d"), 2.5, 3, 0),
    "random_jet_scene m=2.0": lambda: random_jet_scene(catalog_lookup("omni-2d"), 3, 2.0, 0),
    "generic_rank trials=True": lambda: generic_rank(catalog_lookup("omni-2d"), 3, 3, trials=True),
}


@pytest.mark.parametrize("case", list(NON_INTEGER_COUNTS))
def test_counts_and_dimensions_must_be_integers(case):
    with pytest.raises(ValueError, match="must be integers"):
        NON_INTEGER_COUNTS[case]()


def test_two_camera_table():
    # m = 2, spatial classes
    assert min_points("affine-ortho-3d", 2) == 4
    assert min_points("omni-oriented-3d", 2) == 2
    assert min_points("omni-3d", 2) == 5
    assert min_points("perspective-3d", 2) == 7
    assert min_points("perspective-zoom-3d", 2) == 7
    assert REFERENCE_COUNT_NOTES[("perspective-zoom-3d", 2)] == 8
    # no planar camera pair can recover structure
    for name in ("affine-ortho-2d", "omni-oriented-2d", "omni-2d",
                 "perspective-2d", "perspective-zoom-2d"):
        assert min_points(name, 2) is None


def test_three_camera_table():
    planar = ["affine-ortho-2d", "omni-oriented-2d", "omni-2d",
              "perspective-known-2d", "perspective-zoom-2d"]
    spatial = ["affine-ortho-3d", "omni-oriented-3d", "omni-3d",
               "perspective-known-3d", "perspective-zoom-3d"]
    assert [min_points(c, 3) for c in planar] == [3, 3, 5, 6, 8]
    assert [min_points(c, 3) for c in spatial] == [3, 2, 4, 4, 5]


def test_four_camera_table():
    spatial = ["affine-ortho-3d", "omni-oriented-3d", "omni-3d",
               "perspective-known-3d", "perspective-zoom-3d"]
    assert [min_points(c, 4) for c in spatial] == [3, 2, 4, 4, 5]
    planar = ["affine-ortho-2d", "omni-oriented-2d", "omni-2d", "perspective-known-2d"]
    assert [min_points(c, 4) for c in planar] == [3, 3, 4, 5]
    # the inequality yields 6 for planar zoom cameras; the commonly quoted 7
    # is recorded as a reference note
    assert min_points("perspective-zoom-2d", 4) == 6
    assert REFERENCE_COUNT_NOTES[("perspective-zoom-2d", 4)] == 7


def test_forbidden_region_sign_identity():
    grid = forbidden_region("omni-oriented-2d", 50, 50)
    for row in grid:
        for rep in row:
            n, m = rep.n, rep.m
            assert rep.feasible == (m * n - 2 * m - 2 * n + 3 >= 0)


def test_forbidden_region_line_camera_cells():
    grid = forbidden_region("line-3d", 8, 8)
    assert grid[6 - 1][4 - 1].feasible
    assert not grid[5 - 1][4 - 1].feasible


def test_forbidden_region_monotone_in_n():
    for name in ALL_CLASS_NAMES:
        cls = catalog_lookup(name)
        grid = forbidden_region(cls, 12, 8)
        for m in range(2, 9):
            if cls.s * m < cls.d:
                continue
            for n in range(1, 12):
                if grid[n - 1][m - 1].feasible:
                    assert grid[n][m - 1].feasible


def test_grid_shape_and_bounds():
    grid = forbidden_region("omni-2d", 4, 6)
    assert len(grid) == 4 and all(len(row) == 6 for row in grid)
    with pytest.raises(ValueError):
        forbidden_region("omni-2d", 0, 5)


def test_jet_circle_preset():
    kw = CIRCLE_PRESET
    assert jet_feasible(n=11, m=5, **kw).borderline
    rep = jet_feasible(n=7, m=6, **kw)
    assert rep.borderline and rep.lhs == rep.rhs == 46
    # four cameras never suffice
    for n in (1, 5, 20, 1000):
        assert not jet_feasible(n=n, m=4, **kw).feasible
    assert jet_min_cameras(**kw) == 5
    assert jet_min_points(m=5, **kw) == 11
    assert jet_min_points(m=6, **kw) == 7
    assert jet_min_points(m=4, **kw) is None


def test_jet_min_cameras_matches_search_over_large_point_counts():
    # n = 1000 outweighs every constant term on this grid, so feasibility at
    # n = 1000 for m and every larger m up to 20 is what the docstring promises.
    for point_dim in range(9):
        for f in range(9):
            for g in range(10):
                for h in range(3):
                    for s in range(1, 5):
                        ok = [jet_feasible(point_dim, f, g, h, s, 1000, m).feasible
                              for m in range(1, 21)]
                        brute = next(m for m in range(1, 21) if all(ok[m - 1:]))
                        assert jet_min_cameras(point_dim, f, g, h, s) == brute


def test_jet_order_zero_reduces_to_static():
    for name in ("omni-oriented-2d", "affine-ortho-3d", "perspective-3d"):
        cls = catalog_lookup(name)
        for n in range(1, 7):
            for m in range(1, 7):
                a = feasible(cls, n, m)
                b = jet_feasible(cls.d, cls.f, cls.g, cls.h, cls.s, n, m)
                assert (a.lhs, a.rhs, a.slack) == (b.lhs, b.rhs, b.slack)


def test_anchored_form_gives_identical_slack():
    for name in ("affine-ortho-2d", "affine-ortho-3d"):
        cls = catalog_lookup(name)
        for n in range(1, 51):
            for m in range(1, 51):
                assert anchored_slack(cls, n, m) == feasible(cls, n, m).slack


def test_anchored_form_rejects_codimension_two():
    with pytest.raises(ValueError):
        anchored_slack("line-3d", 3, 3)


def test_reports_are_integers():
    rep = feasible("omni-3d", 9, 4)
    assert all(isinstance(v, int) for v in (rep.lhs, rep.rhs, rep.slack))

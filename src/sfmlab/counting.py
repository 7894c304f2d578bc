"""Integer dimension counting for point/camera reconstruction problems.

A configuration of ``n`` points and ``m`` cameras can only be locally unique
modulo the symmetry group when the measurement count plus the group dimension
covers the unknown count:

    d*n + f*m + h  <=  s*n*m + g

Everything here is exact integer arithmetic; no tolerances. The moving-point
variant replaces ``d`` by the per-point motion-model dimension.

This module also owns what a valid input to the inequality is:
``checked_counts`` turns the dimensions ``point_dim, f, g, h, s`` into ints
>= 0 and the counts (points, cameras, grid bounds, rank trials) into ints
>= 1, and every entry point here and in ``sfm`` goes through it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

from .cameras import CameraClass, catalog_lookup

# Reference counts quoted elsewhere that differ from what the inequality
# yields for the implemented catalog entries. Keyed by (class name, m);
# values are the quoted point counts. Reckoning, d*n + f*m + h vs s*n*m + g:
#   zoom-3d (3,2,7,7,0), m=2: n=7 gives 35 <= 35, n=6 gives 32 > 31, so 7.
#   zoom-2d (2,1,4,4,0), m=4: n=6 gives 28 <= 28, n=5 gives 26 > 24, so 6.
REFERENCE_COUNT_NOTES: dict[tuple[str, int], int] = {
    ("perspective-zoom-3d", 2): 8,  # inequality gives 7
    ("perspective-zoom-2d", 4): 7,  # inequality gives 6
}

# Planar circle-motion preset: 4 motion coefficients per point seen by omni-2d
# cameras, whose catalog row gives the other counts.
CIRCLE_PRESET = {"point_dim": 4, **{k: getattr(catalog_lookup("omni-2d"), k) for k in "fghs"}}


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of the dimension inequality at one (n, m) cell."""

    n: int
    m: int
    lhs: int  # unknowns: d*n + f*m + h
    rhs: int  # measurements plus symmetry: s*n*m + g
    slack: int

    @property
    def feasible(self) -> bool:
        return self.slack >= 0

    @property
    def borderline(self) -> bool:
        return self.slack == 0


def _cls(cls: CameraClass | str) -> CameraClass:
    return catalog_lookup(cls) if isinstance(cls, str) else cls


def _is_int(v) -> bool:  # exact arithmetic needs integers; a truth value is not a count
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def checked_counts(*dims, **counts) -> tuple[int, ...]:
    """``dims`` (a prefix of ``point_dim, f, g, h, s``) as ints >= 0, then
    ``counts`` as ints >= 1, in the order given.

    A non-integer is named with its value (``must be integers, got n=2.5``),
    a negative dimension raises ``dimensions must be non-negative``, and each
    count below 1 is named: ``need n >= 1 and m >= 1``.
    """
    named = dict(zip(("point_dim", "f", "g", "h", "s"), dims), **counts)
    bad = [f"{name}={v!r}" for name, v in named.items() if not _is_int(v)]
    if bad:
        raise ValueError(f"counts and dimensions must be integers, got {', '.join(bad)}")
    values = tuple(int(v) for v in named.values())
    if any(v < 0 for v in values[:len(dims)]):
        raise ValueError("dimensions must be non-negative")
    low = [name for name, v in zip(counts, values[len(dims):]) if v < 1]
    if low:
        raise ValueError("need " + " and ".join(f"{name} >= 1" for name in low))
    return values


def feasible(cls: CameraClass | str, n: int, m: int) -> FeasibilityReport:
    c = _cls(cls)
    return jet_feasible(c.d, c.f, c.g, c.h, c.s, n, m)


def _min_count(per_unit: int, constant: int) -> int | None:
    """Smallest k >= 1 with per_unit * k + constant >= 0, or None.

    ``per_unit`` is the slack gained per added unit, ``constant`` the slack at
    k = 0; solved by coefficient comparison, not bounded search.
    """
    if per_unit > 0:
        return max(1, -(constant // per_unit))  # ceil(-constant / per_unit), at least 1
    # slack never grows with k; only k = 1 can work
    return 1 if per_unit + constant >= 0 else None


def min_points(cls: CameraClass | str, m: int) -> int | None:
    """Smallest feasible point count for ``m`` cameras, None if no count works."""
    c = _cls(cls)
    return jet_min_points(c.d, c.f, c.g, c.h, c.s, m)


def min_cameras(cls: CameraClass | str, n: int) -> int | None:
    """Smallest feasible camera count for ``n`` points, None if no count works."""
    c = _cls(cls)
    (n,) = checked_counts(n=n)
    return _min_count(c.s * n - c.f, c.g - c.d * n - c.h)


def forbidden_region(cls: CameraClass | str, n_max: int, m_max: int) -> list[list[FeasibilityReport]]:
    """Reports for the full grid 1..n_max x 1..m_max, indexed [n-1][m-1].

    Infeasible cells form the forbidden region: counts where reconstruction
    cannot be locally unique no matter the data.
    """
    c = _cls(cls)
    n_max, m_max = checked_counts(n_max=n_max, m_max=m_max)
    return [[feasible(c, n, m) for m in range(1, m_max + 1)] for n in range(1, n_max + 1)]


def jet_feasible(point_dim: int, f: int, g: int, h: int, s: int,
                 n: int, m: int) -> FeasibilityReport:
    """Dimension inequality for moving points with ``point_dim`` coefficients
    per point: point_dim*n + f*m + h <= s*n*m + g."""
    point_dim, f, g, h, s, n, m = checked_counts(point_dim, f, g, h, s, n=n, m=m)
    lhs = point_dim * n + f * m + h
    rhs = s * n * m + g
    return FeasibilityReport(n, m, lhs, rhs, rhs - lhs)


def jet_min_points(point_dim: int, f: int, g: int, h: int, s: int, m: int) -> int | None:
    """Smallest feasible point count for the moving-point inequality."""
    point_dim, f, g, h, s, m = checked_counts(point_dim, f, g, h, s, m=m)
    return _min_count(s * m - point_dim, g - f * m - h)


def jet_min_cameras(point_dim: int, f: int, g: int, h: int, s: int) -> int:
    """Smallest camera count from which on every large enough point count is
    feasible.

    Fewer cameras can still fit a few small point counts (``min_cameras``
    finds those). Solved by coefficient comparison: at m = point_dim / s the
    slack is g - f*m - h for every n, and above it the slack grows with n.
    The measured values per picture ``s`` must be >= 1 here.
    """
    point_dim, f, g, h, s = checked_counts(point_dim, f, g, h, s=s)
    q, r = divmod(point_dim, s)
    return q if q >= 1 and r == 0 and g - f * q - h >= 0 else q + 1


def anchored_slack(cls: CameraClass | str, n: int, m: int) -> int:
    """Slack of the inequality rewritten with one point held at the origin.

    Anchoring a point spends ``d`` of the group dimensions and gives every
    retina a chart origin, removing ``s = d - 1`` parameters per camera:

        d*(n-1) + (f - (d-1))*m + h  <=  (d-1)*(n-1)*m + (g - d)

    Valid for hypersurface retinas (s = d - 1); algebraically the same
    inequality, which the tests verify cell by cell.
    """
    c = _cls(cls)
    if c.s != c.d - 1:
        raise ValueError("anchored form needs a hypersurface retina (s = d - 1)")
    n, m = checked_counts(n=n, m=m)
    lhs = c.d * (n - 1) + (c.f - (c.d - 1)) * m + c.h
    rhs = (c.d - 1) * (n - 1) * m + (c.g - c.d)
    return rhs - lhs

"""Gauge fixing and nonlinear least-squares inversion of the measurement map.

The measurement map is invariant along the symmetry orbits, so before
refinement ``g`` scene coordinates are pinned to select one representative
per orbit: the anchor point's coordinates, the first camera's orientation
block where the group rotates, and a scale-setting coordinate where the group
dilates. A damped Gauss-Newton (Levenberg-Marquardt) loop then minimizes the
wrapped reprojection residual over the free coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .cameras import GROUPS, CameraClass, checked_array
from .counting import checked_ints, jet_feasible
from .errors import DegenerateConfigurationError, InfeasibleCountError
# evaluate_jet and jet_generators stay bound here although unused:
# perfbench/tracing.py::_layer_patches wraps this module's binding of each name.
from .sfm import (
    JetScene,
    Measurements,
    RankReport,
    Scene,
    evaluate,
    evaluate_jet,  # noqa: F401
    fd_jacobian,
    jacobian,
    numerical_rank,
    single_columns,
)
from .symmetry import generators, jet_generators  # noqa: F401


@dataclass(frozen=True)
class GaugeChart:
    """Pinned scene coordinates selecting one representative per orbit."""

    indices: tuple[int, ...]  # coordinates held fixed
    values: np.ndarray  # values they are held at
    dim: int  # full coordinate count

    def __post_init__(self):
        vals = checked_array("pinned values", self.values, (len(self.indices),))
        checked_ints("pinned indices and dim", self.dim, *self.indices)
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("pinned indices must be distinct")
        if not all(0 <= i < self.dim for i in self.indices):
            raise ValueError("pinned indices must lie in [0, dim)")
        object.__setattr__(self, "values", vals)

    @property
    def mask(self) -> np.ndarray:
        m = np.zeros(self.dim, dtype=bool)
        m[list(self.indices)] = True
        return m


def _greedy_pins(G: np.ndarray, forced: list[int], pools: list[list[int]], g: int) -> list[int]:
    """Pick ``g`` coordinate rows of the generator matrix with independent
    orbit responses: forced rows first, then greedy largest-residual rows."""
    chosen: list[int] = []
    basis: list[np.ndarray] = []

    def residual(row: int) -> np.ndarray:
        v = G[row].copy()
        for b in basis:
            v -= (v @ b) * b
        return v

    for row in forced:
        v = residual(row)
        norm = np.linalg.norm(v)
        if norm < 1e-9:
            raise DegenerateConfigurationError(
                "template is degenerate: a forced gauge pin does not cut the orbit"
            )
        chosen.append(row)
        basis.append(v / norm)
    for pool in pools:
        if len(chosen) == g:
            break
        candidates = [r for r in pool if r not in chosen]
        while len(chosen) < g and candidates:
            norms = [np.linalg.norm(residual(r)) for r in candidates]
            k = int(np.argmax(norms))
            if norms[k] < 1e-9:
                break
            row = candidates.pop(k)
            v = residual(row)
            chosen.append(row)
            basis.append(v / np.linalg.norm(v))
    if len(chosen) != g:
        raise DegenerateConfigurationError("template is degenerate: gauge pins incomplete")
    return chosen


def gauge_fix(template: Scene | JetScene) -> GaugeChart:
    """Pin ``g`` coordinates at their template values.

    In order: point 0's first ``d`` coordinates (its position or motion
    anchor), the first camera's orientation block for groups containing
    rotations, then rotation- and scale-setting coordinates until the pins
    span the orbit directions, preferring point 0's remaining motion
    coefficients, then point 1's first ``d``.
    """
    cls = template.cls
    G = generators(template)
    points, cams = template.columns()
    forced = points[0, :cls.d].tolist()
    rotates, _ = GROUPS[cls.group]
    if rotates:
        forced += cams[0, cls.rotation_slice].tolist()
    pools = [points[0, cls.d:].tolist(), points[1 % template.n, :cls.d].tolist(),
             list(range(template.dim))]
    idx = _greedy_pins(G, forced, pools, cls.g)
    vec = template.to_vector()
    return GaugeChart(tuple(idx), vec[idx], template.dim)


# Kept because perfbench/tracing.py::_layer_patches binds this name.
gauge_fix_jet = gauge_fix


GRADIENT_TOL = 1e-10  # converged when |J^T r| falls below this
COST_DECREASE_TOL = 1e-14  # converged when a step lowers the cost by a smaller share
MAX_ITERATIONS = 500  # Jacobian evaluations before the solver gives up


@dataclass(frozen=True)
class SolveReport:
    """Result of one refinement run."""

    scene: Scene | JetScene
    rmse: float
    iterations: int
    converged: bool
    gradient_norm: float
    gauge: GaugeChart
    cost_history: tuple[float, ...]  # accepted costs, never increasing


def _lm(residual, x0: np.ndarray, wrap: np.ndarray):
    """Damped Gauss-Newton with identity damping: halve on acceptance,
    quadruple on rejection. Accepted steps never increase the cost."""
    x = x0.copy()
    r = residual(x)
    cost = float(r @ r)
    history = [cost]
    damping = 1e-3
    converged = False
    grad_norm = float("inf")
    iterations = 0
    for iterations in range(1, MAX_ITERATIONS + 1):
        J = fd_jacobian(residual, x, r.size, wrap, single_columns(x.size))
        grad = J.T @ r
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < GRADIENT_TOL:
            converged = True
            break
        JtJ = J.T @ J
        accepted = False
        while damping <= 1e12:
            try:
                delta = np.linalg.solve(JtJ + damping * np.eye(x.size), -grad)
            except np.linalg.LinAlgError:
                damping *= 4.0
                continue
            x_try = x + delta
            r_try = residual(x_try)
            cost_try = float(r_try @ r_try)
            if cost_try < cost:
                rel_drop = (cost - cost_try) / max(cost, 1e-300)
                x, r, cost = x_try, r_try, cost_try
                history.append(cost)
                damping = max(damping * 0.5, 1e-15)
                accepted = True
                if rel_drop < COST_DECREASE_TOL:
                    converged = True
                break
            damping *= 4.0
        if not accepted:
            break
        if converged:
            grad_norm = float(np.linalg.norm(J.T @ r))
            break
    return x, iterations, converged, grad_norm, tuple(history)


def solve(cls: CameraClass, measurements: Measurements, init: Scene | JetScene) -> SolveReport:
    """Invert the measurement map from a nearby initial scene, pinned by
    ``gauge_fix``; moving points are fitted at the init scene's shot times.

    Raises InfeasibleCountError when the dimension inequality already rules
    out a locally unique inverse for these counts.
    """
    if init.cls.name != cls.name:
        raise ValueError("init scene class does not match")
    if measurements.cls.name != cls.name:
        raise ValueError("measurements class does not match")
    if measurements.data.shape != (init.n, init.m, cls.s):
        raise ValueError("measurement grid does not match the init scene")
    rep = jet_feasible(init.point_dim, cls.f, cls.g, cls.h, cls.s, init.n, init.m)
    if not rep.feasible:
        raise InfeasibleCountError(
            f"{cls.name} with n={init.n}, m={init.m}: unknowns {rep.lhs} exceed "
            f"measurements plus symmetry {rep.rhs}"
        )
    gauge = gauge_fix(init)
    target = measurements.data.ravel()
    wrap = init.output_angle_mask
    free = ~gauge.mask
    base = init.to_vector()  # already holds the pinned values

    def residual(x_free):
        vec = base.copy()
        vec[free] = x_free
        r = evaluate(init.with_vector(vec)).flat() - target
        r[wrap] = geometry.wrap_angle(r[wrap])
        return r

    x, iterations, converged, grad_norm, history = _lm(residual, base[free], wrap)
    vec = base.copy()
    vec[free] = x
    rmse = float(np.sqrt(history[-1] / target.size))
    return SolveReport(init.with_vector(vec), rmse, iterations, converged, grad_norm, gauge,
                       history)


def solve_jet(measurements: Measurements, init: JetScene) -> SolveReport:
    """``solve`` with the class taken from the scene."""
    return solve(init.cls, measurements, init)


def reprojection_rmse(scene: Scene | JetScene, measurements: Measurements) -> float:
    """Root-mean-square of the wrapped residuals over all measured values."""
    if measurements.cls.name != scene.cls.name:
        raise ValueError("measurements class does not match")
    pred = evaluate(scene)
    if pred.data.shape != measurements.data.shape:
        raise ValueError(
            f"shape mismatch: scene yields {pred.data.shape}, measurements {measurements.data.shape}"
        )
    r = pred.flat() - measurements.flat()
    wrap = scene.output_angle_mask
    r[wrap] = geometry.wrap_angle(r[wrap])
    return float(np.sqrt(np.mean(r * r)))


@dataclass(frozen=True)
class LocalUniquenessReport:
    passed: bool
    rank: int
    expected_rank: int
    rank_report: RankReport


def local_uniqueness(scene: Scene | JetScene, gauge: GaugeChart) -> LocalUniquenessReport:
    """Check that the gauge-fixed Jacobian has full column rank.

    Full rank means the fiber through the scene is discrete on the gauge
    slice; a deficit signals a continuous deformation family the data cannot
    see."""
    if gauge.dim != scene.dim:
        raise ValueError("gauge does not match the scene")
    J = jacobian(scene)
    free = ~gauge.mask
    report = numerical_rank(J[:, free])
    expected = int(np.count_nonzero(free))
    return LocalUniquenessReport(report.rank == expected, report.rank, expected, report)


def perturb_scene(scene: Scene | JetScene, rel: float, seed) -> Scene | JetScene:
    """Multiply every coordinate by (1 + rel * uniform(-1, 1)); test helper
    for round-trip starts."""
    rng = np.random.default_rng(seed)
    vec = scene.to_vector()
    return scene.with_vector(vec * (1.0 + rel * rng.uniform(-1.0, 1.0, size=vec.size)))


perturb_jet_scene = perturb_scene

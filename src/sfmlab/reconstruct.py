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
from .cameras import GROUPS, CameraClass
from .counting import jet_feasible
from .errors import DegenerateConfigurationError, InfeasibleCountError
# evaluate, evaluate_jet and jet_generators stay bound here although unused:
# perfbench/tracing.py::_layer_patches wraps this module's binding of each name.
from .sfm import (
    JetScene,
    Measurements,
    RankReport,
    Scene,
    check_jacobian,
    evaluate,  # noqa: F401
    evaluate_jet,  # noqa: F401
    fd_jacobian,
    jacobian_rank,
)
from .symmetry import generators, jet_generators  # noqa: F401


def _greedy_pins(G: np.ndarray, forced: list[int], pools: list[list[int]], g: int) -> list[int]:
    """Pick ``g`` coordinate rows of the generator matrix with independent
    orbit responses: forced rows first, then greedy largest-residual rows."""
    chosen: list[int] = []
    rest = G.copy()  # every row's residual against the chosen pins' directions

    def pin(row: int, norm: float) -> None:
        nonlocal rest
        b = rest[row] / norm
        rest -= np.outer(rest @ b, b)
        chosen.append(row)

    for row in forced:
        norm = np.linalg.norm(rest[row])
        if norm < 1e-9:
            raise DegenerateConfigurationError(
                "template is degenerate: a forced gauge pin does not cut the orbit"
            )
        pin(row, norm)
    for pool in pools:
        candidates = [r for r in pool if r not in chosen]
        while len(chosen) < g and candidates:
            norms = np.linalg.norm(rest[candidates], axis=1)
            k = int(np.argmax(norms))
            if norms[k] < 1e-9:
                break
            pin(candidates.pop(k), norms[k])
    if len(chosen) != g:
        raise DegenerateConfigurationError("template is degenerate: gauge pins incomplete")
    return chosen


def gauge_fix(template: Scene | JetScene) -> tuple[int, ...]:
    """The ``g`` coordinate indices pinned at their template values, in the
    order chosen: point 0's first ``d`` coordinates (its position or motion
    anchor), the first camera's orientation block for groups containing
    rotations, then rotation- and scale-setting coordinates until the pins
    span the orbit directions, preferring point 0's remaining motion
    coefficients, then point 1's first ``d``.
    """
    cls = template.cls
    G = generators(template)
    points, cams, _ = template.columns()
    forced = points[0, :cls.d].tolist()
    rotates, _ = GROUPS[cls.group]
    if rotates:
        forced += cams[0, cls.rotation_slice].tolist()
    pools = [points[0, cls.d:].tolist(), points[1 % template.n, :cls.d].tolist(),
             list(range(template.dim))]
    return tuple(_greedy_pins(G, forced, pools, cls.g))


# Kept because perfbench/tracing.py::_layer_patches binds this name.
gauge_fix_jet = gauge_fix


GRADIENT_TOL = 1e-10  # converged when |J^T r| falls below this
COST_DECREASE_TOL = 1e-14  # converged when a step lowers the cost by a smaller share
MAX_ITERATIONS = 500  # Jacobian evaluations (at least 1) before the solver gives up


@dataclass(frozen=True)
class SolveReport:
    """Result of one refinement run."""

    scene: Scene | JetScene
    rmse: float
    iterations: int
    converged: bool
    gradient_norm: float
    gauge: tuple[int, ...]  # pinned coordinate indices, held at the init scene's values
    cost_history: tuple[float, ...]  # accepted costs, never increasing


def _lm(residual, jacobian, x0: np.ndarray):
    """Damped Gauss-Newton with identity damping: halve on acceptance,
    quadruple on rejection. Accepted steps never increase the cost.
    ``jacobian(x)`` is the Jacobian of ``residual`` at ``x``. Each of the
    four stops returns ``(x, iterations, converged, gradient_norm, history)``;
    running out of damping or of iterations is not converged."""
    x = x0.copy()
    r = residual(x)
    cost = float(r @ r)
    history = [cost]
    damping = 1e-3
    for iterations in range(1, MAX_ITERATIONS + 1):
        J = jacobian(x)
        grad = J.T @ r
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < GRADIENT_TOL:
            return x, iterations, True, grad_norm, tuple(history)
        JtJ = J.T @ J
        while True:
            if damping > 1e12:
                return x, iterations, False, grad_norm, tuple(history)
            try:
                delta = np.linalg.solve(JtJ + damping * np.eye(x.size), -grad)
            except np.linalg.LinAlgError:
                damping *= 4.0
                continue
            x_try = x + delta
            r_try = residual(x_try)
            cost_try = float(r_try @ r_try)
            if cost_try < cost:
                break
            damping *= 4.0
        rel_drop = (cost - cost_try) / max(cost, 1e-300)
        x, r, cost = x_try, r_try, cost_try
        history.append(cost)
        damping = max(damping * 0.5, 1e-15)
        if rel_drop < COST_DECREASE_TOL:
            return x, iterations, True, float(np.linalg.norm(J.T @ r)), tuple(history)
    return x, MAX_ITERATIONS, False, grad_norm, tuple(history)


def _residual(measurements: Measurements, scene: Scene | JetScene):
    """The wrapped residual ``scene.measure(vec) - measurements`` as a function
    of the coordinate vector, once the scene and the measurements are found to
    share class and grid."""
    grid = (scene.n, scene.m, scene.cls.s)
    if measurements.cls.name != scene.cls.name:
        raise ValueError("measurements class does not match")
    if measurements.data.shape != grid:
        raise ValueError(f"measurement grid {measurements.data.shape} does not match the "
                         f"scene's {grid}")
    target = measurements.flat()
    wrap = scene.output_angle_mask

    def residual(vec):
        r = scene.measure(vec) - target
        r[wrap] = geometry.wrap_angle(r[wrap])
        return r

    return residual


def solve(cls: CameraClass, measurements: Measurements, init: Scene | JetScene) -> SolveReport:
    """Invert the measurement map from a nearby initial scene, pinned by
    ``gauge_fix``; moving points are fitted at the init scene's shot times.

    Raises InfeasibleCountError when the dimension inequality already rules
    out a locally unique inverse for these counts, and ValueError when LM's
    Jacobian would exceed ``sfm.MAX_ENTRIES`` entries.
    """
    if init.cls.name != cls.name:
        raise ValueError("init scene class does not match")
    residual_at = _residual(measurements, init)
    rep = jet_feasible(init.point_dim, cls.f, cls.g, cls.h, cls.s, init.n, init.m)
    if not rep.feasible:
        raise InfeasibleCountError(
            f"{cls.name} with n={init.n}, m={init.m}: unknowns {rep.lhs} exceed "
            f"measurements plus symmetry {rep.rhs}"
        )
    check_jacobian(cls, init.n, init.m, rep.lhs - cls.g)  # LM's J: one column per free coordinate
    gauge = gauge_fix(init)
    wrap = init.output_angle_mask
    free = np.delete(np.arange(init.dim), gauge)
    base = init.to_vector()  # already holds the pinned values

    def full(x_free):
        vec = base.copy()
        vec[free] = x_free
        return vec

    def residual(x_free):
        return residual_at(full(x_free))

    def jacobian(x_free):  # the residual's Jacobian is the measurement map's
        return fd_jacobian(init.measure, full(x_free), wrap, free)

    x, iterations, converged, grad_norm, history = _lm(residual, jacobian, base[free])
    rmse = float(np.sqrt(history[-1] / measurements.data.size))
    return SolveReport(init.with_vector(full(x)), rmse, iterations, converged, grad_norm, gauge,
                       history)


def solve_jet(measurements: Measurements, init: JetScene) -> SolveReport:
    """``solve`` with the class taken from the scene."""
    return solve(init.cls, measurements, init)


def reprojection_rmse(scene: Scene | JetScene, measurements: Measurements) -> float:
    """Root-mean-square of the wrapped residuals over all measured values."""
    r = _residual(measurements, scene)(scene.to_vector())
    return float(np.sqrt(np.mean(r * r)))


def local_uniqueness(scene: Scene | JetScene) -> RankReport:
    """The rank of the Jacobian fixed in the scene's own gauge: its free columns.

    ``full_column_rank`` means the fiber through the scene is discrete on the
    gauge slice; a deficit signals a continuous deformation family the data
    cannot see."""
    return jacobian_rank(scene, np.delete(np.arange(scene.dim), gauge_fix(scene)), None)


def perturb_scene(scene: Scene | JetScene, rel: float, seed) -> Scene | JetScene:
    """Multiply every coordinate by (1 + rel * uniform(-1, 1)); test helper
    for round-trip starts."""
    rng = np.random.default_rng(seed)
    vec = scene.to_vector()
    return scene.with_vector(vec * (1.0 + rel * rng.uniform(-1.0, 1.0, size=vec.size)))


perturb_jet_scene = perturb_scene

"""Gauge fixing and nonlinear least-squares inversion of the measurement map.

The measurement map is invariant along the symmetry orbits, so before
refinement ``g`` scene coordinates are pinned to select one representative
per orbit: the anchor point's coordinates, the anchor camera's orientation
block where the group rotates, and a scale-setting coordinate where the group
dilates. A damped Gauss-Newton (Levenberg-Marquardt) loop then minimizes the
wrapped reprojection residual over the free coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .cameras import CameraClass
from .counting import jet_feasible
from .errors import DegenerateConfigurationError, InfeasibleCountError
# evaluate_jet and jet_generators stay bound here although unused:
# perfbench/tracing.py wraps this module's binding of each name.
from .sfm import (
    DEFAULT_FD_STEP,
    JetScene,
    Measurements,
    RankReport,
    Scene,
    evaluate,
    evaluate_jet,  # noqa: F401
    fd_jacobian,
    jacobian,
    numerical_rank,
    output_wrap_mask,
)
from .symmetry import generators, jet_generators  # noqa: F401


@dataclass(frozen=True)
class GaugeChart:
    """Pinned scene coordinates selecting one representative per orbit."""

    indices: tuple[int, ...]  # coordinates held fixed
    values: np.ndarray  # values they are held at
    dim: int  # full coordinate count

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        if vals.size != len(self.indices):
            raise ValueError("one pinned value per pinned index required")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("pinned indices must be distinct")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def mask(self) -> np.ndarray:
        m = np.zeros(self.dim, dtype=bool)
        m[list(self.indices)] = True
        return m

    def clamp(self, vec: np.ndarray) -> np.ndarray:
        out = np.asarray(vec, dtype=float).copy()
        out[list(self.indices)] = self.values
        return out


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


def gauge_fix(cls: CameraClass, template: Scene | JetScene, anchor_point: int = 0,
              anchor_camera: int = 0) -> GaugeChart:
    """Pin ``g`` coordinates at their template values.

    In order: the anchor point's first ``d`` coordinates (its position or
    motion anchor), the anchor camera's orientation block for groups
    containing rotations, then rotation- and scale-setting coordinates until
    the pins span the orbit directions, preferring the anchor point's
    remaining motion coefficients, then the next point's first ``d``.
    """
    if template.cls.name != cls.name:
        raise ValueError("template class does not match")
    if not 0 <= anchor_point < template.n or not 0 <= anchor_camera < template.m:
        raise ValueError("anchor out of range")
    G = generators(cls, template)
    pd, d = template.point_dim, cls.d
    base = pd * anchor_point
    forced = list(range(base, base + d))
    if cls.group in ("euclidean", "similarity"):
        rs = cls.rotation_slice
        cam_base = pd * template.n + anchor_camera * cls.f
        forced += list(range(cam_base + rs.start, cam_base + rs.stop))
    next_base = pd * ((anchor_point + 1) % template.n)
    pools = [list(range(base + d, base + pd)),
             list(range(next_base, next_base + d)),
             list(range(template.dim))]
    idx = _greedy_pins(G, forced, pools, cls.g)
    vec = template.to_vector()
    return GaugeChart(tuple(idx), vec[idx], template.dim)


def gauge_fix_jet(js: JetScene, anchor_point: int = 0, anchor_camera: int = 0) -> GaugeChart:
    """``gauge_fix`` with the class taken from the scene."""
    return gauge_fix(js.cls, js, anchor_point, anchor_camera)


@dataclass
class SolveOptions:
    max_iterations: int = 500
    gradient_tol: float = 1e-10
    cost_decrease_tol: float = 1e-14
    fd_step: float = DEFAULT_FD_STEP
    initial_damping: float = 1e-3
    max_damping: float = 1e12


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


def _lm(residual, x0: np.ndarray, wrap: np.ndarray, opts: SolveOptions):
    """Damped Gauss-Newton with identity damping: halve on acceptance,
    quadruple on rejection. Accepted steps never increase the cost."""
    x = x0.copy()
    r = residual(x)
    cost = float(r @ r)
    history = [cost]
    damping = opts.initial_damping
    converged = False
    grad_norm = float("inf")
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        J = fd_jacobian(residual, x, r.size, wrap, opts.fd_step)
        grad = J.T @ r
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < opts.gradient_tol:
            converged = True
            break
        JtJ = J.T @ J
        accepted = False
        while damping <= opts.max_damping:
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
                if rel_drop < opts.cost_decrease_tol:
                    converged = True
                break
            damping *= 4.0
        if not accepted or converged:
            if accepted and converged:
                grad_norm = float(np.linalg.norm(J.T @ r))
            break
    return x, iterations, converged, grad_norm, tuple(history)


def solve(cls: CameraClass, measurements: Measurements, init: Scene | JetScene,
          options: SolveOptions | None = None, gauge: GaugeChart | None = None) -> SolveReport:
    """Invert the measurement map from a nearby initial scene; moving points
    are fitted at the init scene's known shot times.

    Raises InfeasibleCountError when the dimension inequality already rules
    out a locally unique inverse for these counts.
    """
    if init.cls.name != cls.name:
        raise ValueError("init scene class does not match")
    if measurements.data.shape != (init.n, init.m, cls.s):
        raise ValueError("measurement grid does not match the init scene")
    rep = jet_feasible(init.point_dim, cls.f, cls.g, cls.h, cls.s, init.n, init.m)
    if not rep.feasible:
        raise InfeasibleCountError(
            f"{cls.name} with n={init.n}, m={init.m}: unknowns {rep.lhs} exceed "
            f"measurements plus symmetry {rep.rhs}"
        )
    opts = options or SolveOptions()
    gauge = gauge or gauge_fix(cls, init)
    target = measurements.data.ravel()
    wrap = output_wrap_mask(cls, init.n, init.m)
    free = ~gauge.mask
    base = gauge.clamp(init.to_vector())

    def residual(x_free):
        vec = base.copy()
        vec[free] = x_free
        r = evaluate(init.with_vector(vec)).flat() - target
        r[wrap] = geometry.wrap_angle(r[wrap])
        return r

    x, iterations, converged, grad_norm, history = _lm(residual, base[free], wrap, opts)
    vec = base.copy()
    vec[free] = x
    rmse = float(np.sqrt(history[-1] / target.size))
    return SolveReport(init.with_vector(vec), rmse, iterations, converged, grad_norm, gauge,
                       history)


def solve_jet(measurements: Measurements, init: JetScene,
              options: SolveOptions | None = None, gauge: GaugeChart | None = None) -> SolveReport:
    """``solve`` with the class taken from the scene."""
    return solve(init.cls, measurements, init, options, gauge)


def reprojection_rmse(scene: Scene | JetScene, measurements: Measurements) -> float:
    """Root-mean-square of the wrapped residuals over all measured values."""
    pred = evaluate(scene)
    if pred.data.shape != measurements.data.shape:
        raise ValueError(
            f"shape mismatch: scene yields {pred.data.shape}, measurements {measurements.data.shape}"
        )
    r = pred.flat() - measurements.flat()
    wrap = output_wrap_mask(scene.cls, scene.n, scene.m)
    r[wrap] = geometry.wrap_angle(r[wrap])
    return float(np.sqrt(np.mean(r * r)))


@dataclass(frozen=True)
class LocalUniquenessReport:
    passed: bool
    rank: int
    expected_rank: int
    rank_report: RankReport


def local_uniqueness(scene: Scene | JetScene, gauge: GaugeChart,
                     tol: float | None = None) -> LocalUniquenessReport:
    """Check that the gauge-fixed Jacobian has full column rank.

    Full rank means the fiber through the scene is discrete on the gauge
    slice; a deficit signals a continuous deformation family the data cannot
    see."""
    J = jacobian(scene)
    free = ~gauge.mask
    report = numerical_rank(J[:, free], rel_tol=tol)
    expected = int(np.count_nonzero(free))
    return LocalUniquenessReport(report.rank == expected, report.rank, expected, report)


def perturb_scene(scene: Scene | JetScene, rel: float, seed) -> Scene | JetScene:
    """Multiply every coordinate by (1 + rel * uniform(-1, 1)); test helper
    for round-trip starts."""
    rng = np.random.default_rng(seed)
    vec = scene.to_vector()
    return scene.with_vector(vec * (1.0 + rel * rng.uniform(-1.0, 1.0, size=vec.size)))


perturb_jet_scene = perturb_scene

"""Workloads of the sfmlab benchmark: inputs, operations and output checks.

Every workload is a list of rounds, each round a fixed mix of operations, so
that a run made of whole rounds always measures the same mix. Each round
draws its scenes with one scene index ``k``, taken from the seed.

sfmlab must be importable before this module is imported (``run.py`` puts the
checkout's ``src`` first on the path).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from sfmlab import (
    DegenerateConfigurationError,
    JetScene,
    align,
    align_jet,
    catalog_lookup,
    evaluate,
    evaluate_jet,
    generic_rank,
    io,
    perturb_jet_scene,
    perturb_scene,
    random_jet_scene,
    random_scene,
    reprojection_rmse,
    solve,
    solve_jet,
)

# Generic ranks with the default tolerance, measured on seeds 0-5 with gaps
# of 5e8 or more. perspective-3d is predicted at 499; scaling the points
# together with the projection centers (README, known deviations) costs one.
# The others equal the prediction. The (3,3) entry is the README's example
# and serves the smoke test.
EXPECTED_RANK = {
    ("perspective-3d", 120, 24): 498,
    ("affine-ortho-3d", 120, 24): 474,
    ("omni-3d", 80, 16): 329,
    ("affine-ortho-3d", 3, 3): 18,
}
MIN_RANK_GAP = 1e3
FIT_RMSE = 1e-6  # a solve that does not fit the data to this is a failure
RECOVERED_RMSE = 1e-5  # acceptance check 11's bar; reported, never gated

RANK_LARGE = (("perspective-3d", 120, 24), ("affine-ortho-3d", 120, 24), ("omni-3d", 80, 16))
SMALL_STATIC = (("omni-oriented-2d", 3, 3), ("affine-ortho-3d", 3, 3), ("perspective-3d", 7, 2),
                ("omni-2d", 5, 3), ("omni-2d", 4, 4))
SMALL_JET = ((7, 6), (11, 5))  # circle motion seen by omni-2d cameras
LARGE_STATIC = (("omni-3d", 40, 10),)


class InputGenerationError(RuntimeError):
    """An input of the workload could not be generated."""


@dataclass(frozen=True)
class Outcome:
    fitted: bool  # completed and met its fit criterion
    correct: bool  # every output check passed
    recovered: bool | None = None  # solves only: aligned to the truth
    io_bytes: int = 0
    iterations: int = 0
    accepted_steps: int = 0
    detail: str = ""


def fresh_scenes(seed: int, rounds: int) -> list[int]:
    """New scenes for every seed: k = seed * rounds + r."""
    return [seed * rounds + r for r in range(rounds)]


def fixed_scenes(seed: int, rounds: int) -> list[int]:
    """The scenes k < rounds for every seed, in an order drawn from the seed."""
    return [int(k) for k in np.random.default_rng(seed).permutation(rounds)]


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int  # distinct rounds generated per seed; longer runs cycle them
    scene_indices: Callable[[int, int], list[int]]  # (seed, rounds) -> k of each round
    make_round: Callable[[int], list]  # scene index k -> the round's inputs
    op: Callable  # (input, span) -> output
    check: Callable  # (input, output) -> Outcome
    solves: bool

    def inputs(self, seed: int) -> list[list]:
        return [self.make_round(k) for k in self.scene_indices(seed, self.rounds)]


def _generate(label: str, k: int, make):
    try:
        return make()
    except DegenerateConfigurationError as exc:
        raise InputGenerationError(f"{label}, scene index {k}: {exc}") from None


# --- rank queries -----------------------------------------------------------

@dataclass(frozen=True)
class RankQuery:
    cls_name: str
    n: int
    m: int
    seed: int


def rank_workload(name: str, queries, rounds: int) -> Workload:
    def make_round(k):
        for cls_name, n, m in queries:
            # generic_rank draws its first trial's scene with this seed
            _generate(f"{cls_name} ({n},{m})", k,
                      lambda: random_scene(catalog_lookup(cls_name), n, m, seed=(k, 0)))
        return [RankQuery(cls_name, n, m, k) for cls_name, n, m in queries]

    return Workload(name, rounds, fresh_scenes, make_round, rank_op, rank_check, solves=False)


def rank_op(q: RankQuery, span):
    with span("sfm.generic_rank"):
        return generic_rank(catalog_lookup(q.cls_name), q.n, q.m, trials=1, seed=q.seed)


def rank_check(q: RankQuery, report) -> Outcome:
    expected = EXPECTED_RANK[(q.cls_name, q.n, q.m)]
    ok = report.rank == expected and report.best.gap >= MIN_RANK_GAP
    detail = "" if ok else (f"{q.cls_name} ({q.n},{q.m}) seed {q.seed}: rank {report.rank} "
                            f"gap {report.best.gap:.3g}, expected {expected} gap >= {MIN_RANK_GAP:g}")
    return Outcome(fitted=ok, correct=ok, detail=detail)


# --- reconstruct requests ---------------------------------------------------

@dataclass(frozen=True)
class SolveCase:
    label: str
    meas_text: str
    init_text: str
    truth_text: str


@dataclass(frozen=True)
class SolveOutput:
    report: object
    meas: object
    out_text: str
    align_rmse: float


def _case(label, truth, meas, init) -> SolveCase:
    return SolveCase(label, io.dumps(io.measurements_to_doc(meas)),
                     io.dumps(io.scene_to_doc(init)), io.dumps(io.scene_to_doc(truth)))


def solve_workload(name: str, static, jets, rel: float, tag: int, rounds: int,
                   scene_indices=fresh_scenes) -> Workload:
    """Seeds follow acceptance check 11: truth ``(tag, k)``, perturbation
    ``(tag + 100, k)``; circle scenes use ``tag + 200`` and ``tag + 300``."""

    def make_round(k):
        row = []
        for cls_name, n, m in static:
            label = f"{cls_name} ({n},{m})"
            truth = _generate(label, k, lambda: random_scene(
                catalog_lookup(cls_name), n, m, seed=(tag, k)))
            init = perturb_scene(truth, rel, seed=(tag + 100, k))
            row.append(_case(label, truth, evaluate(truth), init))
        for n, m in jets:
            label = f"circle omni-2d ({n},{m})"
            truth = _generate(label, k, lambda: random_jet_scene(
                catalog_lookup("omni-2d"), n, m, seed=(tag + 200, k)))
            init = perturb_jet_scene(truth, rel, seed=(tag + 300, k))
            row.append(_case(label, truth, evaluate_jet(truth), init))
        return row

    return Workload(name, rounds, scene_indices, make_round, reconstruct_op, reconstruct_check,
                    solves=True)


def reconstruct_op(case: SolveCase, span) -> SolveOutput:
    """One ``sfmlab reconstruct --truth`` request, in memory."""
    with span("io.decode"):
        meas = io.doc_to_measurements(json.loads(case.meas_text))
        init = io.doc_to_scene(json.loads(case.init_text))
    with span("reconstruct.solve"):
        if isinstance(init, JetScene):
            report = solve_jet(meas, init)
        else:
            report = solve(init.cls, meas, init)
    with span("io.encode"):
        out_text = io.dumps(io.scene_to_doc(report.scene))
    with span("io.decode"):
        truth = io.doc_to_scene(json.loads(case.truth_text))
    with span("symmetry.align"):
        if isinstance(report.scene, JetScene):
            _, rmse = align_jet(report.scene, truth)
        else:
            _, rmse = align(report.scene, truth)
    return SolveOutput(report, meas, out_text, rmse)


def reconstruct_check(case: SolveCase, out: SolveOutput) -> Outcome:
    report = out.report
    vec = report.scene.to_vector()
    rmse = reprojection_rmse(report.scene, out.meas)
    problems = []
    if not np.all(np.isfinite(vec)):
        problems.append("scene is not finite")
    if not abs(rmse - report.rmse) <= 1e-12 + 1e-6 * report.rmse:
        problems.append(f"recomputed rmse {rmse:.6g} != reported {report.rmse:.6g}")
    if not np.array_equal(io.doc_to_scene(json.loads(out.out_text)).to_vector(), vec):
        problems.append("encoded scene does not decode to the solved scene")
    fitted = rmse <= FIT_RMSE
    failures = problems + ([] if fitted else [f"rmse {rmse:.3g} > {FIT_RMSE:g}"])
    io_bytes = sum(len(t) for t in (case.meas_text, case.init_text, case.truth_text, out.out_text))
    return Outcome(fitted=not failures, correct=not problems,
                   recovered=out.align_rmse < RECOVERED_RMSE, io_bytes=io_bytes,
                   iterations=report.iterations, accepted_steps=len(report.cost_history) - 1,
                   detail="; ".join(f"{case.label}: {p}" for p in failures))


WORKLOADS = {
    "rank-large": rank_workload("rank-large", RANK_LARGE, rounds=4),
    # Exactly acceptance check 11's 140 solves, in a seed-drawn order. On
    # fresh scenes the LM sometimes stops without fitting the data (see
    # README.md), which would count as failed operations.
    "solve-small": solve_workload("solve-small", SMALL_STATIC, SMALL_JET, rel=0.10, tag=100,
                                  rounds=20, scene_indices=fixed_scenes),
    "solve-large": solve_workload("solve-large", LARGE_STATIC, (), rel=0.05, tag=500, rounds=20),
}

"""The benchmark's workloads call sfmlab's public API by name and signature;
a renamed or re-signed entry point breaks them. One rank query and one round
of static and circle-jet reconstruct requests run here as the benchmark runs
them, with their output checks."""

import contextlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _no_span(name):
    return contextlib.nullcontext()


def test_rank_query_runs_and_checks():
    query = workloads.RankQuery("affine-ortho-3d", 3, 3, 0)
    outcome = workloads.rank_check(query, workloads.rank_op(query, _no_span))
    assert outcome.correct and outcome.fitted, outcome.detail


# acceptance check 11's seeds: tag 100 at 10 % perturbation
ROUND = workloads.solve_workload("solve-api", (("omni-oriented-2d", 3, 3),), ((7, 6),),
                                 rel=0.10, tag=100, rounds=1).inputs(seed=0)[0]


@pytest.mark.parametrize("case", ROUND, ids=lambda case: case.label)
def test_reconstruct_request_runs_and_checks(case):
    outcome = workloads.reconstruct_check(case, workloads.reconstruct_op(case, _no_span))
    assert outcome.correct and outcome.fitted, outcome.detail
    assert outcome.iterations >= 1 and outcome.io_bytes > 0

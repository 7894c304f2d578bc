"""Smoke test of the benchmark harness at a tiny size; no timing assertions.

Run from the root of a checkout with ``python3 -m pytest perfbench/test_smoke.py``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing

run.load_sfmlab()
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

TINY = [
    workloads.rank_workload("rank-tiny", (("affine-ortho-3d", 3, 3),), rounds=2),
    workloads.solve_workload("solve-tiny", (("omni-oriented-2d", 3, 3),), ((7, 6),), rel=0.10,
                             tag=100, rounds=2),
]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    record, result = run.measure(workload, seed=0, seconds=0.01, trace=trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    assert record["rounds"] == 1 and record["failures"] == []
    if trace:
        assert record["spans"] > 0 and (run.ROOT / record["spans_file"]).is_file()


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_wrong_rank_is_caught():
    query = workloads.RankQuery("affine-ortho-3d", 3, 3, seed=0)
    report = workloads.rank_op(query, tracing.no_span)
    assert workloads.rank_check(query, report).correct
    assert not workloads.rank_check(query, dataclasses.replace(report, rank=17)).correct


def test_tracing_restores_every_layer():
    from sfmlab import cameras, sfm

    before = (cameras.project_points, sfm.jacobian, sfm.JetScene.with_vector)
    with tracing.instrument(tracing.Tracer()):
        assert cameras.project_points is not before[0]
    assert (cameras.project_points, sfm.jacobian, sfm.JetScene.with_vector) == before


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload", "rank-large",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""


def test_tail_keeps_ten_samples_beyond():
    assert run.tail(list(range(200))) == (189, 95.0, 10)
    assert run.tail(list(range(30))) == (19, 200 / 3, 10)
    assert run.tail(list(range(20))) == (9, 50.0, 10)
    assert run.tail([2.0, 1.0]) == (1.0, 50.0, 1)

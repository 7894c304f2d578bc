"""sfmlab benchmark: one closed-loop client calling the package's public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rank-large --seed 0 --seconds 30 --trace 0

The next operation starts when the previous one returns. All inputs are
generated from ``--seed`` before timing starts, and every output is checked
afterwards. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends
half the time untraced and then replays the same rounds with every layer
wrapped, and prints the per-layer metrics and the tracing overhead. The last
line of standard output is the JSON result; the lines before it give each
metric with its unit and a JSON record of the run and its environment.
Workloads, metrics and their predicted effects are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5  # timed fresh processes, after one untimed one
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "success_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "cameras.project_points.calls": "count/op",
    "cameras.project_points.self_s": "s/op",
    "geometry.rotation_matrix.calls": "count/op",
    "geometry.rotation_matrix.self_s": "s/op",
    "sfm.evaluate.calls": "count/op",
    "sfm.evaluate.self_s": "s/op",
    "sfm.with_vector.calls": "count/op",
    "sfm.with_vector.self_s": "s/op",
    "sfm.jacobian.self_s": "s/op",
    "sfm.jacobian.nonzero_share": "ratio",
    "sfm.jacobian.bytes": "B",
    "sfm.numerical_rank.self_s": "s/op",
    "sfm.random_scene.self_s": "s/op",
    "reconstruct.solve.self_s": "s/op",
    "reconstruct.normal_solve.self_s": "s/op",
    "reconstruct.iterations": "count/solve",
    "reconstruct.evals_per_solve": "count/solve",
    "reconstruct.step_accept_ratio": "ratio",
    "reconstruct.gauge_fix.self_s": "s/op",
    "symmetry.generators.self_s": "s/op",
    "symmetry.align.self_s": "s/op",
    "symmetry.align.recovered_ratio": "ratio",
    "io.decode.self_s": "s/op",
    "io.encode.self_s": "s/op",
    "io.bytes": "B/op",
    "setup.import_s": "s",
    "setup.first_call_s": "s",
    "trace.overhead": "ratio",
}


def load_sfmlab():
    """Import sfmlab from this checkout's sources, never from elsewhere."""
    init = SRC / "sfmlab" / "__init__.py"
    if not init.is_file():
        raise ImportError(f"no sfmlab sources at {init.parent}")
    sys.path.insert(0, str(SRC))
    import sfmlab

    if Path(sfmlab.__file__).resolve() != init.resolve():
        raise ImportError(f"sfmlab was imported from {sfmlab.__file__}, not {init}")
    return sfmlab


def _openblas_threads():
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(sfmlab_threads) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "SFMLAB_THREADS": sfmlab_threads,
        "loadavg_start": list(os.getloadavg()),
    }


def setup_times(n: int = SETUP_PROBES) -> dict[str, list[float]]:
    """Start ``n + 1`` fresh processes that import sfmlab and make a first
    CLI call; the first warms the file cache and is not counted."""
    env = {k: v for k, v in os.environ.items() if k != "SFMLAB_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    out = {"wall": [], "import_s": [], "first_call_s": []}
    for i in range(n + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit {proc.returncode}: {proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(probe["sfmlab"]).resolve() != (SRC / "sfmlab" / "__init__.py").resolve():
            raise RuntimeError(f"setup probe imported {probe['sfmlab']}")
        if i:
            out["wall"].append(wall)
            out["import_s"].append(probe["import_s"])
            out["first_call_s"].append(probe["first_call_s"])
    return out


def host_reference_s(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop that does not use sfmlab. On a
    shared machine whose speed drifts, it shows how fast the host was."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0.0
        for i in range(300_000):
            total += i ** 0.5
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Record:
    inp: object
    out: object
    error: str | None
    seconds: float


def run_rounds(rounds, op, *, seconds=None, n_rounds=None, tracer=None):
    """Closed loop over whole rounds. With ``seconds``, stop before a round
    that would end past it (always run one); with ``n_rounds``, run exactly
    that many. Returns the records and the number of rounds run."""
    span = tracer.span if tracer is not None else tracing.no_span
    records: list[Record] = []
    start = time.perf_counter()
    done = 0
    while True:
        for inp in rounds[done % len(rounds)]:
            if tracer is not None:
                tracer.current_op = len(records)
            t0 = time.perf_counter()
            try:
                out, error = op(inp, span), None
            except Exception:  # a failed operation is counted, not fatal
                out, error = None, traceback.format_exc()
            records.append(Record(inp, out, error, time.perf_counter() - t0))
        done += 1
        if n_rounds is not None:
            if done >= n_rounds:
                break
        elif (time.perf_counter() - start) * (done + 1) / done > seconds:
            break
    return records, done


def tail(values):
    """Highest percentile with TAIL_BEYOND samples above it, by nearest rank,
    but not below the median: with 2 * TAIL_BEYOND samples or fewer no
    higher percentile has that many beyond it. Returns (value, percentile,
    samples beyond)."""
    ordered = sorted(values)
    n = len(ordered)
    idx = max(n - TAIL_BEYOND - 1, (n - 1) // 2)
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def _per_op_metrics(tracer, outcomes, n_ops: int, solves: bool) -> dict[str, float]:
    totals = tracer.totals()

    def calls(name):
        return totals.get(name, (0, 0.0))[0]

    def self_s(name):
        return totals.get(name, (0, 0.0))[1] / n_ops

    n_solves = n_ops if solves else 0
    jac_calls = calls("sfm.jacobian")
    entries = tracer.counters["sfm.jacobian.entries"]
    normal_solves = calls("reconstruct.normal_solve")

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for layer in ("cameras.project_points", "geometry.rotation_matrix", "sfm.evaluate",
                  "sfm.with_vector"):
        metrics[f"{layer}.calls"] = calls(layer) / n_ops
        metrics[f"{layer}.self_s"] = self_s(layer)
    for layer in ("sfm.jacobian", "sfm.numerical_rank", "sfm.random_scene", "reconstruct.solve",
                  "reconstruct.normal_solve", "reconstruct.gauge_fix", "symmetry.generators",
                  "symmetry.align", "io.decode", "io.encode"):
        metrics[f"{layer}.self_s"] = self_s(layer)
    metrics.update({
        "sfm.jacobian.nonzero_share": ratio(tracer.counters["sfm.jacobian.nonzero"], entries),
        "sfm.jacobian.bytes": ratio(tracer.counters["sfm.jacobian.bytes"], jac_calls),
        "reconstruct.iterations": ratio(sum(o.iterations for o in outcomes), n_solves),
        "reconstruct.evals_per_solve": ratio(calls("sfm.evaluate"), n_solves),
        "reconstruct.step_accept_ratio": ratio(sum(o.accepted_steps for o in outcomes),
                                               normal_solves),
        "symmetry.align.recovered_ratio": ratio(sum(bool(o.recovered) for o in outcomes),
                                                n_solves),
        "io.bytes": sum(o.io_bytes for o in outcomes) / n_ops,
    })
    return metrics


def _check(workload, records):
    from workloads import Outcome

    outcomes = []
    for rec in records:
        if rec.error is not None:
            outcomes.append(Outcome(fitted=False, correct=True, detail=rec.error))
        else:
            outcomes.append(workload.check(rec.inp, rec.out))
    return outcomes


def _ops_per_s(records) -> float:
    return len(records) / sum(r.seconds for r in records)


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Generate the inputs, time set-up and the closed loop, check every
    output. Returns the run record and the result object."""
    rounds = workload.inputs(seed)
    setup = setup_times()
    workload.op(rounds[0][-1], tracing.no_span)  # untimed: let lazy set-up and caches settle
    host_before = host_reference_s()
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "ops_per_round": len(rounds[0])}
    if trace:
        untraced, n_rounds = run_rounds(rounds, workload.op, seconds=seconds / 2)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            traced, _ = run_rounds(rounds, workload.op, n_rounds=n_rounds, tracer=tracer)
        records = untraced + traced
        outcomes = _check(workload, records)
        untraced_rate, traced_rate = _ops_per_s(untraced), _ops_per_s(traced)
        metrics = _per_op_metrics(tracer, outcomes[len(untraced):], len(traced), workload.solves)
        metrics["setup.import_s"] = statistics.median(setup["import_s"])
        metrics["setup.first_call_s"] = statistics.median(setup["first_call_s"])
        metrics["trace.overhead"] = untraced_rate / traced_rate - 1.0
        units = PER_LAYER_UNITS
        spans_file = BENCH / "out" / f"trace-{workload.name}.npz"
        spans_file.parent.mkdir(exist_ok=True)
        tracer.save(spans_file)
        record.update(rounds=n_rounds, untraced_ops_per_s=untraced_rate,
                      traced_ops_per_s=traced_rate, spans=len(tracer),
                      spans_file=str(spans_file.relative_to(ROOT)))
    else:
        records, n_rounds = run_rounds(rounds, workload.op, seconds=seconds)
        outcomes = _check(workload, records)
        durations = [r.seconds for r in records]
        tail_s, tail_pct, tail_beyond = tail(durations)
        solves = [o for o in outcomes if o.recovered is not None]
        metrics = {
            "ops_per_s": _ops_per_s(records),
            "op_s_p50": statistics.median(durations),
            "op_s_tail": tail_s,
            "success_ratio": sum(o.fitted for o in outcomes) / len(outcomes),
            "setup_s": statistics.median(setup["wall"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END_UNITS
        record.update(rounds=n_rounds, ops=len(records), op_seconds=durations,
                      op_s_tail_percentile=tail_pct,
                      op_s_tail_samples_beyond=tail_beyond,
                      recovered_ratio=(sum(o.recovered for o in solves) / len(solves)
                                       if solves else None),
                      setup_wall_s=setup["wall"], setup_import_s=setup["import_s"],
                      setup_first_call_s=setup["first_call_s"])
    record["host_reference_s"] = [host_before, host_reference_s()]
    record["failures"] = [o.detail for o in outcomes if o.detail][:10]
    result = {
        "correct": all(o.correct for o in outcomes),
        "attempted": len(records),
        "failed": sum(not o.fitted for o in outcomes),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    sfmlab_threads = os.environ.pop("SFMLAB_THREADS", None)  # the pool stays at 1 worker
    try:
        load_sfmlab()
        import workloads
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(workloads.WORKLOADS)}")
    env = environment(sfmlab_threads)
    try:
        record, result = measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace))
    except workloads.InputGenerationError as exc:
        print(f"error: {args.workload}: input generation failed: {exc}", file=sys.stderr)
        return 1
    record["env"] = env
    print(json.dumps({"record": record}))
    for name, metric in result["metrics"].items():
        print(f"{args.workload:12} {name:34} {metric['value']:14.6g} {metric['unit']}")
    if record.get("recovered_ratio") is not None:
        print(f"{args.workload:12} {'recovered_ratio (not gated)':34} "
              f"{record['recovered_ratio']:14.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

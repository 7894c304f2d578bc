"""Command-line front end.

Commands: ``catalog``, ``region``, ``rank``, ``reconstruct``, ``simulate``.
Exit codes: 0 on success (and met predictions), 1 for findings such as a rank
deficit or a non-converged solve, 2 for usage, validation, or I/O errors, and
141 (128 + SIGPIPE) when the reader of standard output closes it early.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import io
from .cameras import catalog, catalog_lookup
from .counting import forbidden_region
from .errors import SfmlabError
from .reconstruct import solve
from .sfm import evaluate, generic_rank, predicted_rank, random_jet_scene, random_scene
from .symmetry import align

JET_PRESET = "circle-jet"
JET_PRESET_CLASS = "omni-2d"
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE, as a shell reports a pipe writer it killed
COLUMNS = ("name", "d", "s", "f", "g", "h", "group")  # catalog fields, in table and CSV order


def _cmd_catalog(args) -> int:
    rows = [{**{k: getattr(c, k) for k in COLUMNS}, "chart": c.chart_doc} for c in catalog()]
    if args.format == "json":
        print(io.dumps(rows))
        return 0
    sep, width = (",", 0) if args.format == "csv" else ("  ", max(len(r["name"]) for r in rows))
    for name, *rest in [COLUMNS, *([r[k] for k in COLUMNS] for r in rows)]:
        print(sep.join([name.ljust(width), *map(str, rest)]))
    return 0


def _cmd_region(args) -> int:
    if args.n_max > 1000 or args.m_max > 1000:
        print("error: grid bounds must be at most 1000", file=sys.stderr)
        return 2
    cls = catalog_lookup(args.cls)
    grid = forbidden_region(cls, args.n_max, args.m_max)
    Path(args.out_csv).write_text(io.region_csv(grid))
    if args.out_svg:
        Path(args.out_svg).write_text(io.region_svg(grid, cls.name))
    return 0


def _cmd_rank(args) -> int:
    cls = catalog_lookup(args.cls)
    report = generic_rank(cls, args.n, args.m, trials=args.trials, seed=args.seed,
                          rel_tol=args.tol)
    predicted = predicted_rank(cls, args.n, args.m)
    deficit = predicted - report.rank
    doc = {
        "class": cls.name,
        "n": args.n,
        "m": args.m,
        "trials": args.trials,
        "seed": args.seed,
        "trial_ranks": list(report.trial_ranks),
        "rank": report.rank,
        "predicted": predicted,
        "deficit": deficit,
        "gap_at_cut": report.best.gap,
        "threshold": report.best.threshold,
        "singular_values": [float(v) for v in report.best.singular_values],
    }
    print(io.dumps(doc))
    return 0 if deficit == 0 else 1


def _load_scene(path):
    return io.doc_to_scene(io.read_json(path))


def _cmd_reconstruct(args) -> int:
    meas = io.doc_to_measurements(io.read_json(args.measurements))
    init = _load_scene(args.init)
    truth = _load_scene(args.truth) if args.truth else None
    report = solve(init.cls, meas, init)
    align_rmse = None if truth is None else align(report.scene, truth)[1]
    io.write_json(args.out, io.scene_to_doc(report.scene))
    print(f"rmse: {io.format_float(report.rmse)}")
    print(f"iterations: {report.iterations}")
    print(f"converged: {'true' if report.converged else 'false'}")
    if align_rmse is not None:
        print(f"align_rmse: {io.format_float(align_rmse)}")
    return 0 if report.converged else 1


def _cmd_simulate(args) -> int:
    if args.cls == JET_PRESET:
        scene = random_jet_scene(catalog_lookup(JET_PRESET_CLASS), args.n, args.m, seed=args.seed)
    else:
        scene = random_scene(catalog_lookup(args.cls), args.n, args.m, seed=args.seed)
    io.write_json(args.out_scene, io.scene_to_doc(scene))
    io.write_json(args.out_measurements, io.measurements_to_doc(evaluate(scene)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sfmlab",
        description="camera catalogs, feasibility counting, rank experiments, reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list implemented camera classes")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("region", help="feasibility grid as CSV (and optional SVG)")
    p.add_argument("cls", metavar="CLASS")
    p.add_argument("n_max", type=int)
    p.add_argument("m_max", type=int)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-svg")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("rank", help="measure the generic Jacobian rank")
    p.add_argument("cls", metavar="CLASS")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("reconstruct", help="refine a scene against measurements")
    p.add_argument("measurements")
    p.add_argument("init")
    p.add_argument("out")
    p.add_argument("--truth", help="scene file to report an aligned RMSE against")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("simulate", help="write a synthetic scene and its measurements")
    p.add_argument("cls", metavar="CLASS", help=f"camera class name or {JET_PRESET!r}")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-scene", required=True)
    p.add_argument("--out-measurements", required=True)
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone: end quietly, and let the exit flush write nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except (SfmlabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())

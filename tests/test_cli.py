"""Command-line interface: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfmlab import io, sfm
from sfmlab.cameras import catalog_lookup
from sfmlab.cli import main
from sfmlab.errors import FormatError, SfmlabError
from sfmlab.sfm import evaluate, random_jet_scene, random_scene


def test_catalog_table_and_row_count(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 + 13  # header plus one row per class
    assert any("omni-oriented-3d" in line and "dilation" in line for line in out)


def test_catalog_json(capsys):
    assert main(["catalog", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 13
    row = next(r for r in rows if r["name"] == "omni-oriented-3d")
    assert (row["d"], row["s"], row["f"], row["g"], row["h"]) == (3, 2, 3, 4, 0)
    assert all(isinstance(r["chart"], str) and r["chart"] for r in rows)


def test_catalog_csv(capsys):
    assert main(["catalog", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "name,d,s,f,g,h,group"
    assert len(lines) == 14
    assert lines[1:3] == ["affine-ortho-2d,2,1,2,3,0,euclidean",
                          "omni-oriented-2d,2,1,2,3,0,dilation"]


def test_dumps_writes_bools_null_and_empty_objects():
    assert io.dumps({"a": True, "b": None, "c": {}, "d": [False, None]}) == (
        '{\n  "a": true,\n  "b": null,\n  "c": {},\n  "d": [false, null]\n}')


def test_region_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "region.csv"
    svg_path = tmp_path / "region.svg"
    assert main(["region", "omni-oriented-2d", "6", "6",
                 "--out-csv", str(csv_path), "--out-svg", str(svg_path)]) == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,m,lhs,rhs,slack,feasible"
    assert len(lines) == 1 + 36
    for line in lines[1:]:
        n, m, lhs, rhs, slack, feas = line.split(",")
        n, m = int(n), int(m)
        assert (feas == "true") == (m * n - 2 * m - 2 * n + 3 >= 0)
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "n (points)" in svg and "m (cameras)" in svg


def test_region_line_camera_cell(tmp_path):
    csv_path = tmp_path / "line.csv"
    assert main(["region", "line-3d", "8", "6", "--out-csv", str(csv_path)]) == 0
    rows = {(int(r.split(",")[0]), int(r.split(",")[1])): r.split(",")[5]
            for r in csv_path.read_text().strip().splitlines()[1:]}
    assert rows[(6, 4)] == "true" and rows[(5, 4)] == "false"


def test_region_validates_bounds(tmp_path, capsys):
    assert main(["region", "omni-2d", "0", "5", "--out-csv", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: need n_max >= 1\n"
    assert main(["region", "omni-2d", "2000", "5", "--out-csv", str(tmp_path / "x.csv")]) == 2


def test_rank_exit_codes(capsys):
    assert main(["rank", "affine-ortho-3d", "3", "3", "--trials", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 18 and doc["deficit"] == 0

    assert main(["rank", "affine-ortho-3d", "6", "2", "--trials", "3"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["deficit"] >= 1

    assert main(["rank", "no-such-camera", "3", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown camera class 'no-such-camera'; ")


def test_argparse_exits_become_return_values(capsys):
    """In process, ``main`` returns argparse's exits: 0 for --help and 2
    for a missing argument."""
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ")
    assert main(["rank", "omni-3d"]) == 2
    assert "the following arguments are required: n, m" in capsys.readouterr().err


def test_rank_refuses_a_huge_cell(capsys):
    assert main(["rank", "omni-2d", "100000000", "3", "--trials", "1"]) == 2
    assert "exceeds" in capsys.readouterr().err


def test_simulate_refuses_a_huge_scene(tmp_path, capsys):
    sp, mp = tmp_path / "scene.json", tmp_path / "meas.json"
    assert main(["simulate", "omni-3d", "100000", "100000",
                 "--out-scene", str(sp), "--out-measurements", str(mp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "exceeds" in err
    assert not sp.exists() and not mp.exists()


def test_simulate_is_deterministic(tmp_path):
    paths = [(tmp_path / f"s{k}.json", tmp_path / f"m{k}.json") for k in range(2)]
    for sp, mp in paths:
        assert main(["simulate", "omni-oriented-2d", "3", "3", "--seed", "9",
                     "--out-scene", str(sp), "--out-measurements", str(mp)]) == 0
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_simulate_circle_jet_measurement_count(tmp_path):
    sp, mp = tmp_path / "scene.json", tmp_path / "meas.json"
    assert main(["simulate", "circle-jet", "7", "6",
                 "--out-scene", str(sp), "--out-measurements", str(mp)]) == 0
    doc = json.loads(mp.read_text())
    flat = np.asarray(doc["data"], dtype=float)
    assert flat.size == 42
    scene_doc = json.loads(sp.read_text())
    assert scene_doc["model"] == "circle" and len(scene_doc["times"]) == 6


def test_simulate_validates_counts(tmp_path):
    assert main(["simulate", "omni-2d", "0", "3",
                 "--out-scene", str(tmp_path / "a.json"),
                 "--out-measurements", str(tmp_path / "b.json")]) == 2


def test_file_round_trip_is_byte_identical(tmp_path):
    scene = random_scene(catalog_lookup("perspective-3d"), 4, 2, seed=12)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    io.write_json(p1, io.scene_to_doc(scene))
    reread = io.doc_to_scene(io.read_json(p1))
    io.write_json(p2, io.scene_to_doc(reread))
    assert p1.read_bytes() == p2.read_bytes()

    m1, m2 = tmp_path / "c.json", tmp_path / "d.json"
    io.write_json(m1, io.measurements_to_doc(evaluate(scene)))
    io.write_json(m2, io.measurements_to_doc(io.doc_to_measurements(io.read_json(m1))))
    assert m1.read_bytes() == m2.read_bytes()


def test_jet_scene_files_round_trip(tmp_path):
    from sfmlab.sfm import JetScene, random_jet_scene, random_scene

    circle = random_jet_scene(catalog_lookup("omni-2d"), 5, 5, seed=3)
    p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
    io.write_json(p1, io.scene_to_doc(circle))
    io.write_json(p2, io.scene_to_doc(io.doc_to_scene(io.read_json(p1))))
    assert p1.read_bytes() == p2.read_bytes()

    base = random_scene(catalog_lookup("omni-oriented-2d"), 3, 3, seed=4)
    motion = np.stack([base.points, 0.1 * base.points], axis=1)
    taylor = JetScene(base.cls, "taylor", motion, np.array([0.0, 0.5, 1.0]),
                      base.params, base.globals_vec)
    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    io.write_json(t1, io.scene_to_doc(taylor))
    reread = io.doc_to_scene(io.read_json(t1))
    assert reread.model == "taylor" and reread.motion.shape == (3, 2, 2)
    io.write_json(t2, io.scene_to_doc(reread))
    assert t1.read_bytes() == t2.read_bytes()


def test_jet_scene_document_must_state_omega(tmp_path, capsys):
    """Without ``omega`` a circle document would decode as a stationary
    model, and ``reconstruct`` would fit the wrong map."""
    truth = random_jet_scene(catalog_lookup("omni-2d"), 7, 6, seed=1)
    doc = io.scene_to_doc(truth)
    del doc["omega"]
    with pytest.raises(FormatError, match="'omega'"):
        io.doc_to_scene(doc)
    sp, mp, out_p = tmp_path / "s.json", tmp_path / "m.json", tmp_path / "out.json"
    io.write_json(sp, doc)
    io.write_json(mp, io.measurements_to_doc(evaluate(truth)))
    assert main(["reconstruct", str(mp), str(sp), str(out_p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out_p.exists() and "'omega'" in captured.err


def test_reconstruct_round_trip_via_files(tmp_path, capsys):
    truth_p = tmp_path / "truth.json"
    meas_p = tmp_path / "meas.json"
    out_p = tmp_path / "out.json"
    assert main(["simulate", "omni-oriented-2d", "3", "3", "--seed", "4",
                 "--out-scene", str(truth_p), "--out-measurements", str(meas_p)]) == 0
    capsys.readouterr()

    truth = io.doc_to_scene(io.read_json(truth_p))
    from sfmlab.reconstruct import perturb_scene

    init_p = tmp_path / "init.json"
    io.write_json(init_p, io.scene_to_doc(perturb_scene(truth, 0.10, seed=5)))

    code = main(["reconstruct", str(meas_p), str(init_p), str(out_p),
                 "--truth", str(truth_p)])
    out = capsys.readouterr().out
    assert code == 0
    assert "converged: true" in out
    align_rmse = float(out.split("align_rmse: ")[1].split()[0])
    assert align_rmse < 1e-6


def test_reconstruct_checks_the_truth_before_writing(tmp_path, capsys):
    """A truth scene ``align`` refuses stops the command before it writes the
    solved scene or prints a report."""
    cls = catalog_lookup("omni-oriented-2d")
    scene = random_scene(cls, 3, 3, seed=4)
    sp, mp, tp = tmp_path / "s.json", tmp_path / "m.json", tmp_path / "t.json"
    io.write_json(sp, io.scene_to_doc(scene))
    io.write_json(mp, io.measurements_to_doc(evaluate(scene)))
    io.write_json(tp, io.scene_to_doc(random_scene(cls, 4, 3, seed=4)))
    out_p = tmp_path / "out.json"
    assert main(["reconstruct", str(mp), str(sp), str(out_p), "--truth", str(tp)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out_p.exists()
    assert "point count" in captured.err


def test_reconstruct_bad_json_and_infeasible(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    ok = tmp_path / "ok.json"
    assert main(["reconstruct", str(bad), str(bad), str(ok)]) == 2

    # infeasible counts: planar stereo pair
    scene = random_scene(catalog_lookup("affine-ortho-2d"), 5, 2, seed=6)
    sp, mp = tmp_path / "s.json", tmp_path / "m.json"
    io.write_json(sp, io.scene_to_doc(scene))
    io.write_json(mp, io.measurements_to_doc(evaluate(scene)))
    assert main(["reconstruct", str(mp), str(sp), str(tmp_path / "o.json")]) == 2


def test_reconstruct_refuses_an_oversized_jacobian(tmp_path, capsys, monkeypatch):
    scene = random_scene(catalog_lookup("omni-2d"), 5, 3, seed=96)
    sp, mp, out_p = tmp_path / "s.json", tmp_path / "m.json", tmp_path / "out.json"
    io.write_json(sp, io.scene_to_doc(scene))
    io.write_json(mp, io.measurements_to_doc(evaluate(scene)))
    monkeypatch.setattr(sfm, "MAX_ENTRIES", 15 * 15 - 1)  # below LM's 15 x 15 Jacobian
    assert main(["reconstruct", str(mp), str(sp), str(out_p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out_p.exists()
    err = captured.err
    assert err.startswith("error: ") and err.count("\n") == 1 and "exceeds" in err


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "sfmlab", "catalog", "--format", "csv"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "name,d,s,f,g,h,group"
    assert len(proc.stdout.strip().splitlines()) == 14


def test_closed_stdout_ends_quietly():
    """A reader that has closed the pipe ends the command with exit code 141
    and nothing on stderr: not an input error, and no exit-time traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "sfmlab", "rank", "omni-3d", "4", "3", "--trials", "1"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.parametrize("case", ["camera entry not an object", "measurements without m",
                                  "non-finite point", "measurements n a list",
                                  "camera params an object", "scene globals an object",
                                  "measurements of another class", "deeply nested JSON",
                                  "points nested 500 deep"])
def test_reconstruct_malformed_input_exits_2_without_traceback(tmp_path, case):
    scene = random_scene(catalog_lookup("omni-oriented-2d"), 3, 3, seed=4)
    scene_doc = io.scene_to_doc(scene)
    meas_doc = io.measurements_to_doc(evaluate(scene))
    if case == "camera entry not an object":
        scene_doc["cameras"][0] = 5
    elif case == "measurements without m":
        del meas_doc["m"]
    elif case == "non-finite point":
        scene_doc["points"][0][0] = float("nan")  # json writes NaN, which json reads back
    elif case == "measurements n a list":
        meas_doc["n"] = [1]
    elif case == "camera params an object":
        scene_doc["cameras"][0]["params"] = {"a": 1}
    elif case == "measurements of another class":
        meas_doc["class"] = "affine-ortho-2d"  # same s, so the grid shape matches
    elif case == "scene globals an object":
        scene_doc["globals"] = {"a": 1}
    elif case == "points nested 500 deep":  # deeper than numpy's 64 dimensions
        scene_doc["points"] = json.loads("[" * 500 + "]" * 500)
    sp, mp = tmp_path / "s.json", tmp_path / "m.json"
    sp.write_text(json.dumps(scene_doc))
    mp.write_text(json.dumps(meas_doc))
    if case == "deeply nested JSON":  # json recurses once per level
        for path in (sp, mp):
            path.write_text("[" * 200_000 + "]" * 200_000)
    proc = subprocess.run(
        [sys.executable, "-m", "sfmlab", "reconstruct", str(mp), str(sp), str(tmp_path / "o.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("params", [[1.0, 2.0], [1.0, 2.0, float("nan")]],
                         ids=["two of three parameters", "non-finite parameter"])
def test_scene_document_with_a_bad_camera_raises_format_error(params):
    doc = io.scene_to_doc(random_scene(catalog_lookup("omni-2d"), 3, 3, seed=4))
    doc["cameras"][1]["params"] = params
    with pytest.raises(FormatError, match="scene document invalid"):
        io.doc_to_scene(doc)


# the exceptions cli.main reports as "error: ..." with exit code 2
EXIT_2_ERRORS = (FormatError, SfmlabError, OSError, ValueError)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _fuzz_documents():
    static = random_scene(catalog_lookup("perspective-2d"), 3, 3, seed=4)
    jet = random_jet_scene(catalog_lookup("omni-2d"), 4, 4, seed=4)
    docs = [("scene", io.scene_to_doc(static)), ("scene", io.scene_to_doc(jet)),
            ("measurements", io.measurements_to_doc(evaluate(static)))]
    # (document index, path of the field to replace)
    paths = [(k, (key,)) for k, (_, doc) in enumerate(docs) for key in doc]
    paths += [(k, ("cameras", 1)) for k in (0, 1)] + [(k, ("cameras", 1, "params")) for k in (0, 1)]
    paths += [(0, ("points", 2)), (1, ("motion", 0)), (2, ("data", 1, 0))]
    return docs, paths


FUZZ_DOCS, FUZZ_PATHS = _fuzz_documents()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(FUZZ_PATHS), JSON_VALUES)
def test_documents_with_a_random_field_fail_only_with_exit_2_errors(where, value):
    k, path = where
    kind, doc = FUZZ_DOCS[k]
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    read = io.doc_to_scene if kind == "scene" else io.doc_to_measurements
    try:
        read(doc)
    except EXIT_2_ERRORS:
        pass

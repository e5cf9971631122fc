"""Command-line interface: dispatch, schemas, determinism, exit codes."""

import json
import math
import re

import pytest

from pbl import cli
from pbl.cli import run_cli
from pbl.confocal import ConfocalFamily
from pbl.errors import ConstructionFailure, NumericalStall
from pbl.metric import Signature
from pbl.periodicity import cayley_condition
from pbl.relativistic import cusp_edge_lambda


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cayley_true(capsys):
    code, out, err = run(
        capsys, "cayley", "--sig", "1,1", "--axes", "2,1",
        "--caustics", "0.6666666667", "--n", "4",
    )
    assert code == 0
    assert out.strip() == "true"


def test_cayley_false(capsys):
    code, out, _ = run(
        capsys, "cayley", "--sig", "1,1", "--axes", "2,1",
        "--caustics", "0.5", "--n", "4",
    )
    assert code == 0
    assert out.strip() == "false"


def test_cayley_exact_fraction(capsys):
    code, out, _ = run(
        capsys, "cayley", "--sig", "1,1", "--axes", "2,1",
        "--caustics", "2/3", "--n", "4", "--exact",
    )
    assert code == 0
    assert out.strip() == "true"


def test_caustics_schema(capsys):
    code, out, _ = run(
        capsys, "caustics", "--sig", "2,1", "--axes", "5,3,2",
        "--start", "0.1,0.1,0.1", "--dir", "1,0.2,0.3",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"caustics", "lineType", "interlacingPassed"}
    assert data["lineType"] == "space-like"
    assert data["interlacingPassed"] is True
    assert data["caustics"] == pytest.approx([-2.6489572230170335, 3.068536170385456])


def test_classify_point(capsys):
    code, out, _ = run(
        capsys, "classify-point", "--sig", "2,1", "--axes", "5,3,2",
        "--point", "0,0,0", "--lambda0", "-2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["coordinates"] == pytest.approx([-2.0, 3.0, 5.0])
    assert data["complexPair"] is None
    assert data["type"] == "E"


def test_decorate(capsys):
    code, out, _ = run(
        capsys, "decorate", "--sig", "2,1", "--axes", "5,3,2", "--point", "0,0,0",
    )
    assert code == 0
    data = json.loads(out)
    assert [c["type"] for c in data["coordinates"]] == ["E", "H^1", "H^2"]
    assert [c["lambda"] for c in data["coordinates"]] == pytest.approx([-2.0, 3.0, 5.0])


def test_search_periodic(capsys):
    code, out, _ = run(
        capsys, "search-periodic", "--sig", "1,1", "--axes", "2,1", "--n", "4",
    )
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4
    assert data["caustics"] == pytest.approx([-2.0, -2.0 / 3.0, 2.0 / 3.0], abs=1e-9)
    # each root's simulated closure, as pbl poncelet reports it
    assert [c["closed"] for c in data["closure"]] == [20, 20, 20]
    assert all(c["samples"] == 20 and c["worstPositionError"] <= 1e-6 for c in data["closure"])
    code, out, _ = run(
        capsys, "search-periodic", "--sig", "1,1", "--axes", "2,1", "--n", "5",
    )
    assert code == 0
    assert json.loads(out) == {"n": 5, "caustics": [], "closure": []}


def test_search_periodic_prints_null_for_a_root_it_cannot_verify(capsys, monkeypatch):
    # a root whose simulation fails keeps its place, and the others are still verified
    verify = cli.poncelet_verify

    def fails_below_minus_one(fam, params, n):
        if params[0] < -1.0:
            raise ConstructionFailure("no start constructed")
        return verify(fam, params, n)

    monkeypatch.setattr(cli, "poncelet_verify", fails_below_minus_one)
    code, out, _ = run(
        capsys, "search-periodic", "--sig", "1,1", "--axes", "2,1", "--n", "4",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["caustics"]) == 3
    assert data["closure"][0] is None
    assert [c["closed"] for c in data["closure"][1:]] == [20, 20]


SPATIAL = ("search-periodic", "--sig", "2,1", "--axes", "5,3,2")

#: The period-8 sets that the former experiment script found, to the
#: digits it printed.
SCRIPT_SETS8 = [
    (-8.257987535, 2.456528530), (-5.929714779, 4.290159171), (-2.177842391, 1.225673282),
    (-2.019527520, 2.766086933), (-2.017597731, 3.331304726), (-1.982924927, 3.332015311),
    (-1.981105315, 2.765646213),
]


def test_search_periodic_spatial_pair(capsys):
    # the period-6 pair of the former script, to 1e-12, closing 20 of 20
    code, out, _ = run(capsys, *SPATIAL, "--n", "6")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 6
    hits = [i for i, cs in enumerate(data["caustics"])
            if cs == pytest.approx([-2.320953597016259, 2.154286930349592], abs=1e-12)]
    assert len(hits) == 1
    assert data["closure"][hits[0]]["closed"] == data["closure"][hits[0]]["samples"] == 20


def test_search_periodic_spatial_two_column_matrix(capsys):
    # at n = 8 the closure matrix is 3 x 2: every set the script found is
    # there, and every reported set passes the Cayley test and closes
    code, out, _ = run(capsys, *SPATIAL, "--n", "8")
    assert code == 0
    data = json.loads(out)
    for want in SCRIPT_SETS8:
        assert any(cs == pytest.approx(want, abs=1e-6) for cs in data["caustics"]), want
    fam = ConfocalFamily(Signature(2, 1), (5.0, 3.0, 2.0))
    assert all(cayley_condition(fam, tuple(cs), 8) for cs in data["caustics"])
    assert all(c["closed"] == c["samples"] == 20 for c in data["closure"])


@pytest.mark.parametrize("n", ["7", "4"])
def test_search_periodic_rejects_a_spatial_period(capsys, n):
    code, out, err = run(capsys, *SPATIAL, "--n", n)
    assert code == 2
    assert out == "" and "period" in err


def test_search_periodic_spatial_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        assert run(capsys, *SPATIAL, "--n", "6", "--out", str(path))[0] == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_search_periodic_far_classical_root(capsys):
    # ab/(b - a) = -402 lies past the evenly scanned interval, in a tail of the scan
    code, out, _ = run(
        capsys, "search-periodic", "--sig", "1,1", "--axes", "2.01,2", "--n", "4",
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["caustics"]) == 3
    assert data["caustics"][0] == pytest.approx(-402.0, rel=1e-12)
    assert [c["closed"] for c in data["closure"]] == [20, 20, 20]


@pytest.mark.parametrize("option", [["--window=-1,1"], ["--samples", "4001"]],
                         ids=["window", "samples"])
@pytest.mark.parametrize("table", [
    ["--sig", "1,1", "--axes", "2,1", "--n", "4"], ["--sig", "2,1", "--axes", "5,3,2", "--n", "6"],
], ids=["plane", "space"])
def test_search_periodic_has_no_scan_options(capsys, table, option):
    with pytest.raises(SystemExit) as exc:
        run_cli(["search-periodic", *table, *option])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == "" and "unrecognized arguments" in err


def test_lightlike(capsys):
    code, out, _ = run(capsys, "lightlike", "--axes", "3,1")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 6 and data["k"] == 2
    assert data["rectangleRatio"] == pytest.approx(0.5)


def test_trace_verify_round_trip(tmp_path, capsys):
    out_file = tmp_path / "traj.json"
    code, _, _ = run(
        capsys, "trace", "--sig", "2,1", "--axes", "5,3,2",
        "--start", "0.1,0.2,0.1", "--dir", "1,0.4,-0.3",
        "--bounces", "40", "--out", str(out_file),
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert len(data["bounces"]) == 40
    code, out, _ = run(capsys, "verify", str(out_file))
    assert code == 0
    report = json.loads(out)
    assert report["driftMatches"] is True
    assert report["driftRecorded"] == report["driftRecomputed"]


def test_verify_detects_tampering(tmp_path, capsys):
    out_file = tmp_path / "traj.json"
    run(
        capsys, "trace", "--sig", "1,1", "--axes", "2,1",
        "--start", "0.1,0.2", "--dir", "1,0.3",
        "--bounces", "10", "--out", str(out_file),
    )
    data = json.loads(out_file.read_text())
    data["bounces"][4]["p"][0] += 1e-3
    out_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(out_file))
    assert code == 2


def _planar_trace(tmp_path, capsys):
    out_file = tmp_path / "traj.json"
    code, _, _ = run(
        capsys, "trace", "--sig", "1,1", "--axes", "2,1",
        "--start", "0.1,0.2", "--dir", "1,0.3",
        "--bounces", "10", "--out", str(out_file),
    )
    assert code == 0
    return out_file, json.loads(out_file.read_text())


def _verify_edited(tmp_path, capsys, edit):
    out_file, data = _planar_trace(tmp_path, capsys)
    edit(data)
    out_file.write_text(json.dumps(data))
    return run(capsys, "verify", str(out_file))


def test_verify_rejects_vin_that_is_not_previous_vout(tmp_path, capsys):
    def edit(data):
        data["bounces"][4]["vin"][0] += 1e-3

    code, _, err = _verify_edited(tmp_path, capsys, edit)
    assert code == 2
    assert "vin" in err


def test_verify_rejects_flipped_double(tmp_path, capsys):
    def edit(data):
        assert data["bounces"][4]["double"] is False
        data["bounces"][4]["double"] = True

    code, _, err = _verify_edited(tmp_path, capsys, edit)
    assert code == 2
    assert "double" in err


def test_verify_rejects_cleared_double_flags(tmp_path, capsys):
    # the circle's diameter through (0.5, 0.5) meets Q_0 only at points
    # with light-like normal, so every bounce is double (period 4)
    out_file = tmp_path / "traj.json"
    code, _, _ = run(
        capsys, "trace", "--sig", "1,1", "--axes", "1,1",
        "--start", "0.5,0.5", "--dir=-1,-1", "--bounces", "6", "--out", str(out_file),
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert [raw["double"] for raw in data["bounces"]] == [True, True, True]
    for raw in data["bounces"]:
        raw["double"] = False
    out_file.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", str(out_file))
    assert code == 2
    assert "double" in err


def test_verify_rejects_missing_key(tmp_path, capsys):
    code, _, err = _verify_edited(tmp_path, capsys, lambda data: data.pop("axes"))
    assert code == 2
    assert "axes" in err


def test_verify_rejects_wrong_length_point(tmp_path, capsys):
    code, _, err = _verify_edited(tmp_path, capsys, lambda data: data["bounces"][4]["p"].append(0.0))
    assert code == 2
    assert "error:" in err


def test_verify_rejects_non_object_top_level(tmp_path, capsys):
    out_file = tmp_path / "traj.json"
    out_file.write_text("[]")
    code, _, err = run(capsys, "verify", str(out_file))
    assert code == 2
    assert "malformed trajectory" in err


@pytest.mark.parametrize("key, value", [("bounces", [1]), ("bounces", 5), ("drift", None),
                                        ("signature", [1])])
def test_verify_rejects_wrong_json_type(tmp_path, capsys, key, value):
    code, _, err = _verify_edited(tmp_path, capsys, lambda data: data.update({key: value}))
    assert code == 2
    assert "malformed trajectory" in err


def test_verify_rejects_string_axes(tmp_path, capsys):
    # float() read them, and verify exited 0
    code, out, err = _verify_edited(
        tmp_path, capsys, lambda data: data.update(axes=[str(a) for a in data["axes"]]))
    assert code == 2
    assert out == "" and "axis parameters must be finite and positive" in err


def test_verify_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 2
    assert "error:" in err


def test_unwritable_out(tmp_path, capsys):
    code, _, err = run(capsys, "lightlike", "--axes", "3,1",
                       "--out", str(tmp_path / "missing" / "out.json"))
    assert code == 2
    assert "error:" in err


def test_trace_deterministic(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "trace", "--sig", "2,1", "--axes", "5,3,2",
        "--start", "0.1,0.2,0.1", "--dir", "1,0.4,-0.3", "--bounces", "25",
    ]
    assert run(capsys, *args, "--out", str(f1))[0] == 0
    assert run(capsys, *args, "--out", str(f2))[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_tropic_csv(capsys):
    # 7 x 3 puts the grid points (lambda, t) = (4.5, pi / 3) and (4.5, 5 pi / 3)
    # on the cusp edge
    code, out, err = run(capsys, "tropic", "--axes", "5,3,2", "--grid", "7x3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,sheet,lambda,t,x,y,z"
    rows = [row.split(",") for row in lines[1:]]
    kinds = [row[0] for row in rows]
    assert kinds == ["surface"] * 2 * (7 * 3 - 2) + ["cusp"] * 2 * 3 + ["V1", "V2", "V3", "V4"]
    assert {row[1] for row in rows} == {"1", "-1"}
    fam = ConfocalFamily(Signature(2, 1), (5.0, 3.0, 2.0))
    for kind, _, lam, t, x, y, z in rows:
        lam, t, x, y, z = (float(v) for v in (lam, t, x, y, z))
        assert t in [(j + 0.5) * 2.0 * math.pi / 3 for j in range(3)] or kind.startswith("V")
        if kind == "surface":
            # every row satisfies the pencil equation of its lambda
            q = x * x / (5.0 - lam) + y * y / (3.0 - lam) + z * z / (2.0 + lam)
            assert q == pytest.approx(1.0, abs=1e-10)
        elif kind == "cusp":
            assert lam == cusp_edge_lambda(fam, t)
    residual = re.fullmatch(r"worst light-like residual over 38 surface samples: (\S+)\n", err)
    assert residual and float(residual.group(1)) <= 1e-12


def test_poncelet_cli(capsys):
    code, out, _ = run(
        capsys, "poncelet", "--sig", "1,1", "--axes", "2,1",
        "--caustics", "0.6666666666666666", "--n", "4", "--samples", "5",
    )
    assert code == 0
    data = json.loads(out)
    assert data["condition"] is True and data["closed"] == 5
    assert data["worstPositionError"] <= 1e-6


def test_poncelet_cli_rejects_negative_samples(capsys):
    code, out, err = run(
        capsys, "poncelet", "--sig", "1,1", "--axes", "2,1",
        "--caustics", "0.6666666666666666", "--n", "4", "--samples", "-3",
    )
    assert code == 2
    assert out == "" and "samples" in err


def test_exit_code_validation_error(capsys):
    # poncelet on a non-periodic caustic violates its precondition
    code, out, err = run(
        capsys, "poncelet", "--sig", "1,1", "--axes", "2,1",
        "--caustics", "0.5", "--n", "4", "--samples", "3",
    )
    assert code == 2
    assert "error:" in err


def test_exit_code_bad_input(capsys):
    code, _, err = run(
        capsys, "caustics", "--sig", "2,1", "--axes", "5,3,2",
        "--start", "10,10,0", "--dir", "0,0,1",
    )
    assert code == 2
    assert "error:" in err


def test_exit_code_numerical(monkeypatch, capsys):
    import pbl.cli as cli

    def boom(args):
        raise NumericalStall("forced")

    monkeypatch.setattr(cli, "_cmd_cayley", boom)
    # rebuild the parser so the monkeypatched handler is picked up
    code = cli.run_cli(
        ["cayley", "--sig", "1,1", "--axes", "2,1", "--caustics", "0.5", "--n", "4"]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure:" in err


def test_trace_rejects_non_finite_direction(capsys):
    # a nan trajectory would print NaN tokens, which are not valid JSON
    code, out, err = run(
        capsys, "trace", "--sig", "2,1", "--axes", "5,3,2",
        "--start", "0.1,0.2,0.1", "--dir", "inf,1,0", "--bounces", "3",
    )
    assert code == 2
    assert out == "" and "finite" in err


def test_classify_point_rejects_wrong_length_point(capsys):
    code, out, err = run(
        capsys, "classify-point", "--sig", "2,1", "--axes", "5,3,2", "--point", "1",
    )
    assert code == 2
    assert out == "" and "3-vector" in err


@pytest.mark.parametrize("command", ["classify-point", "decorate"])
@pytest.mark.parametrize("point, answered", [("1e16,1,1", True), ("1e160,1,1", False)],
                         ids=["1e16,1,1", "1e160,1,1"])
def test_far_point_is_a_numerical_failure(capsys, command, point, answered):
    # at x_1 = 1e16 the coordinates are -1e32, -2 and 3, the float
    # polynomial's roots rounded (an eigenvalue solve lost the two small
    # ones, and this was a numerical failure); at 1e160 the polynomial
    # overflows
    code, out, err = run(capsys, command, "--sig", "2,1", "--axes", "5,3,2", "--point", point)
    if not answered:
        assert code == 3
        assert out == "" and "numerical failure" in err
        return
    assert code == 0 and err == ""
    doc = json.loads(out)
    if command == "classify-point":
        assert doc == {"complexPair": None, "coordinates": [-1e32, -2.0, 3.0]}
    else:
        assert [(c["type"], c["lambda"]) for c in doc["coordinates"]] == [
            ("E", -1e32), ("H^1", -2.0), ("H^2", 3.0)]


@pytest.mark.parametrize("max_n", ["-1", "-128"])
def test_lightlike_rejects_a_negative_max_n(capsys, max_n):
    code, out, err = run(capsys, "lightlike", "--axes", "3,1", "--max-n", max_n)
    assert code == 2
    assert out == "" and "max_n" in err


@pytest.mark.parametrize("axes", ["nan,1", "inf,1", "1,nan"])
def test_lightlike_rejects_non_finite_axes(capsys, axes):
    # a nan ratio would print a NaN token, which is not valid JSON
    code, out, err = run(capsys, "lightlike", "--axes", axes)
    assert code == 2
    assert out == "" and "finite and positive" in err


@pytest.mark.parametrize("axes", ["1,0", "0,1", "-1,1", "1,-2"])
def test_lightlike_rejects_a_zero_or_negative_axis(capsys, axes):
    # a usage error (2), not a traceback from the square root or division
    code, out, err = run(capsys, "lightlike", f"--axes={axes}")
    assert code == 2
    assert out == "" and "finite and positive" in err


@pytest.mark.parametrize("axes", ["inf,3,2", "5,3,nan"])
def test_trace_rejects_non_finite_axes(capsys, axes):
    code, out, err = run(
        capsys, "trace", "--sig", "2,1", "--axes", axes,
        "--start", "0.1,0.2,0.1", "--dir", "1,0.4,-0.3", "--bounces", "4",
    )
    assert code == 2
    assert out == "" and "finite and positive" in err


@pytest.mark.parametrize("edit", [
    lambda data: data["bounces"][2]["p"].__setitem__(0, float("nan")),
    lambda data: data["bounces"][2]["p"].__setitem__(0, float("inf")),
    lambda data: data["bounces"][3]["vout"].__setitem__(1, float("nan")),
    lambda data: data.update(drift=float("nan")),
    lambda data: data["axes"].__setitem__(0, float("inf")),
], ids=["nan-point", "inf-point", "nan-vout", "nan-drift", "inf-axis"])
def test_verify_rejects_non_finite_values(tmp_path, capsys, edit):
    # json reads NaN and Infinity tokens; a report on them would print
    # NaN tokens of its own
    code, out, err = _verify_edited(tmp_path, capsys, edit)
    assert code == 2
    assert out == "" and "error:" in err and "finite" in err


def test_cayley_rejects_a_second_infinite_caustic(capsys):
    # (inf, inf) used to answer "false", as if it were a caustic set
    code, out, err = run(
        capsys, "cayley", "--sig", "2,1", "--axes", "5,3,2", "--caustics", "inf,inf", "--n", "6",
    )
    assert code == 2
    assert out == "" and "second +inf" in err


def _readme_chord_trace(tmp_path, capsys):
    out_file = tmp_path / "orbit.json"
    code, _, _ = run(
        capsys, "trace", "--sig", "2,1", "--axes", "5,3,2",
        "--start", "0.1,0.2,0.1", "--dir", "1,0.4,-0.3", "--bounces", "20", "--out", str(out_file),
    )
    assert code == 0
    return out_file, json.loads(out_file.read_text())


@pytest.mark.parametrize("caustics, message", [
    ([float("nan"), "inf"], "second \\+inf"),
    ([1.0], "expected 2 caustic parameters"),
    ([-3.0, -1.0, 1.0, 4.0], "expected 2 caustic parameters"),
    (["inf", "inf"], "second \\+inf"),
    ([float("-inf"), 1.0], "second \\+inf"),
], ids=["nan-inf", "one", "four", "inf-inf", "minus-inf"])
def test_verify_rejects_malformed_caustics(tmp_path, capsys, caustics, message):
    out_file, data = _readme_chord_trace(tmp_path, capsys)
    data["caustics"] = caustics
    out_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(out_file))
    assert code == 2
    assert out == "" and err.startswith("error:")
    assert re.search(message, err)


def test_verify_rejects_nan_among_planar_caustics(tmp_path, capsys):
    code, out, err = _verify_edited(
        tmp_path, capsys, lambda data: data.update(caustics=[float("nan"), 1.0, "inf"]))
    assert code == 2
    assert out == "" and "second +inf" in err


@pytest.mark.parametrize("edit, message", [
    (lambda data: data.update(lineType="time-like"), "lineType time-like"),
    (lambda data: data.update(lineType="light-like"), "lineType light-like"),
    (lambda data: data.update(caustics=[data["caustics"][0], "inf"]), "space-like line"),
], ids=["time-like", "light-like", "space-like-with-inf"])
def test_verify_decides_the_line_type_again(tmp_path, capsys, edit, message):
    # trace fixes the line type from the start direction, the first vin
    out_file, data = _readme_chord_trace(tmp_path, capsys)
    assert data["lineType"] == "space-like"
    edit(data)
    out_file.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(out_file))
    assert code == 2
    assert out == "" and message in err


def test_poncelet_rejects_a_nan_tolerance(capsys):
    # every comparison with nan is false, so nothing closed
    code, out, err = run(
        capsys, "poncelet", "--sig", "1,1", "--axes", "2,1",
        "--caustics", "0.6666666666666666", "--n", "4", "--samples", "2", "--tol", "nan",
    )
    assert code == 2
    assert out == "" and "tolerance" in err


@pytest.mark.parametrize("tol", ["nan", "-1e-6", "inf"])
def test_verify_rejects_a_malformed_tolerance(tmp_path, capsys, tol):
    out_file, _ = _planar_trace(tmp_path, capsys)
    code, out, err = run(capsys, "verify", str(out_file), f"--tol={tol}")
    assert code == 2
    assert out == "" and "tolerance" in err

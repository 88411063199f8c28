import csv
import json
import math
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from symcap import capacity, girth, symmetry, verify
from symcap.capacity import CapacityResult, ellipsoid_ehz_exact
from symcap.cli import main
from symcap.errors import InvalidParameter, SpecParseError
from symcap.verify import CSV_COLUMNS

from helpers import JSON_VALUES, edited_specs

BALL2 = {"id": "ball-d2", "kind": "ellipsoid", "dim": 2, "params": {"radii": [1.0, 1.0]}}
BALL4 = {
    "id": "ball-d4",
    "kind": "ellipsoid",
    "dim": 4,
    "params": {"radii": [1.0, 1.0, 1.0, 1.0]},
}
CUBE4 = {
    "id": "cube-d4",
    "kind": "lp",
    "dim": 4,
    "params": {"p": "inf", "weights": [1.0, 1.0, 1.0, 1.0]},
}
TRIANGLE = {"dim": 2, "vertices": [[1.0, 0.0], [0.0, 1.0], [-0.7, -0.4]]}
TINY_PROFILE = {"tiny": {"points": 48, "restarts": 2, "girth_samples": 512}}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cj_prints_the_value(tmp_path, capsys):
    body = write_json(tmp_path, "ball4.json", BALL4)
    code, out, _ = run_cli(capsys, ["cj", body])
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-9)


def test_cj_json_document(tmp_path, capsys):
    body = write_json(tmp_path, "ball4.json", BALL4)
    code, out, _ = run_cli(capsys, ["cj", body, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"value", "method", "witness", "diagnostics"}
    assert payload["value"] == pytest.approx(1.0, abs=1e-9)


def test_cj_polytope_body_file(tmp_path, capsys):
    body = write_json(tmp_path, "cube4.json", CUBE4)
    code, out, _ = run_cli(capsys, ["cj", body])
    assert code == 0
    assert float(out.strip()) == pytest.approx(1.0, abs=1e-9)


def test_capacity_planar_ball(tmp_path, capsys):
    body = write_json(tmp_path, "ball2.json", BALL2)
    argv = ["capacity", body, "--points", "64", "--restarts", "2"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    value = float(out.strip())
    assert value == pytest.approx(64.0 * math.tan(math.pi / 64.0), rel=1e-6)
    assert value == pytest.approx(math.pi, abs=1e-2)
    # byte-identical on a repeated run with the same seed
    code2, out2, _ = run_cli(capsys, argv)
    assert code2 == 0
    assert out2 == out


def test_symmetrize_writes_outcome(tmp_path, capsys):
    loop = write_json(tmp_path, "loop.json", TRIANGLE)
    body = write_json(tmp_path, "ball2.json", BALL2)
    out_path = tmp_path / "outcome.json"
    code, out, _ = run_cli(
        capsys, ["symmetrize", loop, "--body", body, "--out", str(out_path)]
    )
    assert code == 0
    assert out.startswith("action ")
    outcome = json.loads(out_path.read_text())
    assert set(outcome) >= {"output", "post_action", "post_length", "residuals"}
    assert outcome["output"]["dim"] == 2
    # higher symmetry orders run through the same entry point
    code, out, _ = run_cli(capsys, ["symmetrize", loop, "--body", body, "--m", "3"])
    assert code == 0
    assert out.startswith("action ")


def test_girth_reports_length_and_margin(tmp_path, capsys):
    body = write_json(tmp_path, "ball2.json", BALL2)
    code, out, _ = run_cli(capsys, ["girth", body, "--samples", "512"])
    assert code == 0
    tokens = out.split()
    assert tokens[0] == "length" and tokens[2] == "bound" and tokens[4] == "margin"
    assert float(tokens[1]) == pytest.approx(2.0 * math.pi, abs=5e-2)
    assert float(tokens[3]) == pytest.approx(6.0)
    code, out, _ = run_cli(capsys, ["girth", body, "--samples", "512", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["violation"] is False
    assert payload["margin"] > 0.0
    # the exit code follows --tol: a margin of 2 pi - 6 falls short of +10
    code, _, _ = run_cli(capsys, ["girth", body, "--samples", "512", "--tol", "-10"])
    assert code == 1
    # so few samples that the kNN graph reaches each sample's antipode
    code, _, err = run_cli(capsys, ["girth", body, "--samples", "8"])
    assert code == 0, err


def test_flow_exports_trajectory(tmp_path, capsys):
    body = write_json(tmp_path, "ball2.json", BALL2)
    csv_path = tmp_path / "orbit.csv"
    code, out, _ = run_cli(
        capsys,
        [
            "flow", body,
            "--start", "1,0",
            "--tmax", "7",
            "--out", str(csv_path),
            "--json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["period"] == pytest.approx(2.0 * math.pi, abs=1e-4)
    assert payload["steps"] == 7000
    assert payload["boundary_residual"] <= 1e-9
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x0,x1,gauge_residual"
    assert len(lines) == 7002


def test_verify_tiny_suite_is_reproducible(tmp_path, capsys):
    suite = write_json(
        tmp_path, "suite.json", {"bodies": [BALL2], "profiles": TINY_PROFILE}
    )
    outs = []
    for name in ("r1", "r2"):
        out_dir = tmp_path / name
        code, out, _ = run_cli(
            capsys,
            ["verify", suite, "--out", str(out_dir), "--profile", "tiny", "--seed", "7"],
        )
        assert code == 0
        assert "ball-d2: ok worst_margin" in out
        outs.append(
            (
                (out_dir / "report.csv").read_bytes(),
                (out_dir / "report.json").read_bytes(),
            )
        )
    assert outs[0] == outs[1]

    header, row = outs[0][0].decode().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    fields = dict(zip(CSV_COLUMNS, row.split(",")))
    assert fields["body_id"] == "ball-d2"
    assert fields["status"] == "ok"
    assert float(fields["c_j"]) == pytest.approx(1.0, abs=1e-9)
    assert fields["wall_time_s"] == ""  # timings stay out of reports by default

    report = json.loads(outs[0][1])
    assert report["all_pass"] is True
    assert report["seed"] == 7
    assert all(r["status"] == "ok" for r in report["records"])


def test_verify_timings_flag_adds_wall_times(tmp_path, capsys):
    suite = write_json(
        tmp_path, "suite.json", {"bodies": [BALL2], "profiles": TINY_PROFILE}
    )
    out_dir = tmp_path / "timed"
    code, _, _ = run_cli(
        capsys,
        [
            "verify", suite,
            "--out", str(out_dir),
            "--profile", "tiny",
            "--timings",
        ],
    )
    assert code == 0
    _, row = (out_dir / "report.csv").read_text().splitlines()
    fields = dict(zip(CSV_COLUMNS, row.split(",")))
    assert float(fields["wall_time_s"]) > 0.0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["records"][0]["wall_time_s"] > 0.0


def test_verify_records_per_body_failures(tmp_path, capsys):
    suite = write_json(
        tmp_path,
        "suite.json",
        {
            "bodies": [
                {"id": "bad-torus", "kind": "torus", "dim": 4, "params": {}},
                BALL2,
            ],
            "profiles": TINY_PROFILE,
        },
    )
    out_dir = tmp_path / "reports"
    code, out, _ = run_cli(
        capsys, ["verify", suite, "--out", str(out_dir), "--profile", "tiny"]
    )
    assert code == 1
    assert "bad-torus: error" in out
    assert "ball-d2: ok" in out
    report = json.loads((out_dir / "report.json").read_text())
    assert report["all_pass"] is False
    assert report["records"][0]["status"].startswith("error:")
    assert report["records"][1]["status"] == "ok"
    lines = (out_dir / "report.csv").read_text().splitlines()
    assert len(lines) == 3  # header plus one row per body, failures included


@pytest.mark.parametrize(
    "factor, code",
    [
        (1 - 1e-6, 1),  # no discrete value undercuts the capacity
        (1.01, 1),  # the admissible regular 48-gon does better
        (48 * math.tan(math.pi / 48) / math.pi, 0),  # the 48-gon's own value
    ],
    ids=["below-exact", "above-polygon", "at-polygon"],
)
def test_verify_gates_ellipsoid_clarke_on_both_sides(
    tmp_path, capsys, monkeypatch, factor, code
):
    def clarke_at(body, config):
        return CapacityResult(ellipsoid_ehz_exact(body).value * factor, "stub")

    monkeypatch.setattr(verify, "clarke_minimize", clarke_at)
    suite = write_json(
        tmp_path, "suite.json", {"bodies": [BALL2], "profiles": TINY_PROFILE}
    )
    out_dir = tmp_path / "reports"
    assert run_cli(
        capsys, ["verify", suite, "--out", str(out_dir), "--profile", "tiny"]
    )[0] == code
    status = json.loads((out_dir / "report.json").read_text())["records"][0]["status"]
    if code:
        assert status.startswith("error: CalibrationError: clarke ")
    else:
        assert status == "ok"


def test_verify_csv_quotes_fields_with_commas(tmp_path, capsys, monkeypatch):
    # an id with a comma and a quote, and the ellipsoid gate's
    # "outside [a, b]" status, each stay one field
    def clarke_at(body, config):
        return CapacityResult(ellipsoid_ehz_exact(body).value * 1.01, "stub")

    monkeypatch.setattr(verify, "clarke_minimize", clarke_at)
    odd = dict(BALL2, id='odd,"id"')
    suite = write_json(
        tmp_path, "suite.json", {"bodies": [odd, BALL2], "profiles": TINY_PROFILE}
    )
    out_dir = tmp_path / "reports"
    assert run_cli(
        capsys, ["verify", suite, "--out", str(out_dir), "--profile", "tiny"]
    )[0] == 1
    with (out_dir / "report.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [len(CSV_COLUMNS)] * 3
    assert rows[0] == CSV_COLUMNS
    records = json.loads((out_dir / "report.json").read_text())["records"]
    for row, record in zip(rows[1:], records):
        fields = dict(zip(CSV_COLUMNS, row))
        assert fields["body_id"] == record["body_id"]
        assert fields["status"] == record["status"]
        assert ", " in fields["status"]
    assert rows[1][0] == 'odd,"id"'


def test_verify_empty_suite_writes_header_only(tmp_path, capsys):
    suite = write_json(tmp_path, "suite.json", {"bodies": []})
    out_dir = tmp_path / "reports"
    code, out, _ = run_cli(capsys, ["verify", suite, "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "report.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"


def test_verify_bad_suite_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bodies": [\n  {"kind": ]\n}')
    code, _, err = run_cli(capsys, ["verify", str(bad), "--out", str(tmp_path / "r")])
    assert code == 2
    assert "parse error at line 2" in err
    code, _, err = run_cli(
        capsys, ["verify", str(tmp_path / "missing.json"), "--out", str(tmp_path / "r")]
    )
    assert code == 2
    assert "cannot read" in err


def test_verify_non_object_body_entry_exits_2(tmp_path, capsys):
    suite = write_json(tmp_path, "suite.json", {"bodies": [5, BALL2]})
    code, _, err = run_cli(capsys, ["verify", suite, "--out", str(tmp_path / "r")])
    assert code == 2
    assert err == 'error: "bodies" must be a list of objects\n'
    with pytest.raises(SpecParseError, match="list of objects"):
        verify.run_verify({"bodies": [5, BALL2]}, tmp_path / "r")


@pytest.mark.parametrize("tol", ["inf", "nan", "-inf"])
def test_verify_non_finite_tolerance_exits_2(tmp_path, capsys, tol):
    # an infinite tolerance passes every margin, a NaN one fails every
    # record marked ok, and neither is a JSON number
    suite = write_json(tmp_path, "suite.json", {"bodies": [BALL2]})
    out = tmp_path / "r"
    code, _, err = run_cli(capsys, ["verify", suite, "--out", str(out), f"--tol={tol}"])
    assert code == 2
    assert err == f"error: --tol must be finite, got {tol}\n"
    assert not out.exists()
    with pytest.raises(InvalidParameter, match="tolerance must be finite"):
        verify.run_verify({"bodies": [BALL2]}, out, tol=float(tol))
    assert not out.exists()


def test_verify_unknown_profile_exits_2(tmp_path, capsys):
    suite = write_json(tmp_path, "suite.json", {"bodies": []})
    code, _, err = run_cli(
        capsys,
        ["verify", suite, "--out", str(tmp_path / "r"), "--profile", "bogus"],
    )
    assert code == 2
    assert "unknown profile" in err


@pytest.mark.parametrize(
    "profiles,message",
    [
        ({"tiny": {"points": 48, "restarts": 2}}, "profile 'tiny' lacks girth_samples"),
        ({"tiny": 5}, "profile 'tiny' lacks points, restarts, girth_samples"),
        (["tiny"], '"profiles" must be an object'),
    ],
    ids=["missing-key", "not-an-object", "block-not-an-object"],
)
def test_verify_incomplete_profile_exits_2(tmp_path, capsys, profiles, message):
    suite = write_json(tmp_path, "suite.json", {"bodies": [BALL2], "profiles": profiles})
    code, _, err = run_cli(
        capsys, ["verify", suite, "--out", str(tmp_path / "r"), "--profile", "tiny"]
    )
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "key,raw,message",
    [
        ("points", "16.7", "points must be an integer, got 16.7"),
        ("restarts", "true", "restarts must be an integer, got True"),
        ("points", '"abc"', "points must be an integer, got 'abc'"),
        ("points", "1e400", "points must be an integer, got inf"),
        ("points", "2", "need at least 3 loop points"),
        ("restarts", "-1", "need at least 1 restart"),
        ("restarts", "65537", "at most 65536 restarts, got 65537"),
        (
            "girth_samples",
            "63",
            "n_samples must be an even number in [4, 65536] (antipodal pairing)",
        ),
    ],
    ids=["fraction", "bool", "string", "overflow", "too-few-points",
         "negative-restarts", "too-many-restarts", "odd-samples"],
)
def test_verify_bad_profile_value_exits_2_before_any_body(
    tmp_path, capsys, monkeypatch, key, raw, message
):
    def no_body(*args):
        raise AssertionError("a body ran")

    monkeypatch.setattr(verify, "verify_body", no_body)
    profile = json.dumps({**TINY_PROFILE["tiny"], key: None}).replace("null", raw)
    suite = tmp_path / "suite.json"
    suite.write_text(f'{{"bodies": [{json.dumps(BALL2)}], "profiles": {{"tiny": {profile}}}}}')
    out = tmp_path / "r"
    code, _, err = run_cli(
        capsys, ["verify", str(suite), "--out", str(out), "--profile", "tiny"]
    )
    assert code == 2
    assert err == f"error: profile 'tiny': {message}\n"
    assert not out.exists()


def command_argv(tmp_path, command):
    """A small run of a command that takes --out, before its --out."""
    body = write_json(tmp_path, "ball2.json", BALL2)
    return {
        "flow": ["flow", body, "--tmax", "0.01", "--start", "1,0"],
        "symmetrize": [
            "symmetrize", write_json(tmp_path, "loop.json", TRIANGLE), "--body", body
        ],
        "verify": [
            "verify",
            write_json(
                tmp_path, "suite.json", {"bodies": [BALL2], "profiles": FUZZ_PROFILES}
            ),
            "--profile", "tiny",
        ],
    }[command]


@pytest.mark.parametrize(
    "command,out",
    [
        ("flow", "DIR"),
        ("flow", "FILE/sub"),
        ("flow", "missing/dir/x"),
        ("symmetrize", "DIR"),
        ("symmetrize", "FILE/sub"),
        ("symmetrize", "missing/dir/x"),
        ("verify", "FILE"),
        ("verify", "FILE/sub"),
    ],
)
def test_out_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch, command, out):
    # verify makes its report directory before any body runs
    ran = []
    monkeypatch.setattr(verify, "verify_body", lambda *a: ran.append(1))
    (tmp_path / "DIR").mkdir()
    (tmp_path / "FILE").write_text("")
    argv = command_argv(tmp_path, command) + ["--out", str(tmp_path / out)]
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith(f"error: cannot write {tmp_path / out}: "), err
    assert err.count("\n") == 1
    assert not ran


# the string options, each with the commands that read it
STRING_CASES = [
    ("flow", "--start", v)
    for v in ["", "a,b,c,d", "1,0", "0,0", "nan,0", "1e400,0", "inf,0", "1,,0",
              " 1 , 0 ", "1_0,0", "0x1,0", "1,0,0", "5e-324,0", "1e308,1e308", ",",
              "\udc80"]
] + [
    ("verify", "--profile", v)
    for v in ["", "tiny", "fast", "nope", "FAST", " tiny", "profiles", "\udc80",
              "x" * 300]
] + [
    (command, "--out", v)
    for command in ["flow", "symmetrize", "verify"]
    for v in ["", ".", "DIR", "DIR/", "FILE", "FILE/sub", "missing/dir/x", "x" * 300,
              "\udc80"]
]


@pytest.mark.parametrize(
    "command,option,value",
    STRING_CASES,
    ids=[f"{c}{o}={v[:12]!r}" for c, o, v in STRING_CASES],
)
def test_string_options_exit_0_1_or_2(tmp_path, capsys, monkeypatch, command, option, value):
    monkeypatch.chdir(tmp_path)  # relative --out values land here
    (tmp_path / "DIR").mkdir()
    (tmp_path / "FILE").write_text("")
    try:
        code = main(command_argv(tmp_path, command) + [f"{option}={value}"])
    except SystemExit as exc:  # argparse
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "BODY", "--symmetric"],
        ["cj", "BODY", "--tol", "1"],
        ["capacity", "BODY", "--tol", "1"],
        ["symmetrize", "BODY", "--body", "BODY", "--tol", "1"],
        ["symmetrize", "BODY", "--body", "BODY", "--seed", "1"],
        ["flow", "BODY", "--start", "1,0", "--tmax", "1", "--tol", "1"],
        ["flow", "BODY", "--start", "1,0", "--tmax", "1", "--seed", "1"],
        ["verify", "--json"],
    ],
    ids=[
        "capacity-symmetric",
        "cj-tol",
        "capacity-tol",
        "symmetrize-tol",
        "symmetrize-seed",
        "flow-tol",
        "flow-seed",
        "verify-json",
    ],
)
def test_flags_a_subcommand_does_not_read_exit_2(tmp_path, capsys, argv):
    body = write_json(tmp_path, "ball2.json", BALL2)
    with pytest.raises(SystemExit) as exc:
        main([body if arg == "BODY" else arg for arg in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_capacity_odd_points_solves_without_symmetry(tmp_path, capsys):
    # the ball's orders 4 and 2 do not divide 9, so the solve is at m = 1
    body = write_json(tmp_path, "ball4.json", BALL4)
    code, out, _ = run_cli(capsys, ["capacity", body, "--points", "9", "--json"])
    assert code == 0
    assert json.loads(out)["diagnostics"]["symmetry_order"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "--points", "2"],
        ["capacity", "--restarts", "0"],
        ["girth", "--samples", "3"],
        ["girth", "--samples", "0"],
        ["girth", "--samples", "2"],
        ["girth", "--neighbors", "0"],
        ["flow", "--start", "1,0", "--tmax", "0.5", "--step", "1"],
        ["flow", "--start", "2,0", "--tmax", "7"],
        ["flow", "--start", "a,b", "--tmax", "1"],
        ["flow", "--start", "1,0,0", "--tmax", "1"],
        ["capacity", "--seed", "-1"],
        ["girth", "--samples", "8", "--seed", "-3"],
        ["flow", "--start", "nan,0", "--tmax", "1"],
        ["flow", "--start", "inf,0", "--tmax", "1"],
        ["capacity", "--points", "1000000000", "--restarts", "1"],
        ["capacity", "--restarts", "1000000000"],
        ["girth", "--samples", "1000000000"],
        ["flow", "--start", "1,0", "--tmax", "nan"],
        ["flow", "--start", "1,0", "--tmax", "inf"],
        ["flow", "--start", "1,0", "--tmax", "1", "--step", "nan"],
        ["flow", "--start", "1,0", "--tmax", "1e300", "--step", "1e-300"],
        ["flow", "--start", "1,0", "--tmax", "1e9"],
        ["girth", "--samples", "8", "--tol", "nan"],
        ["girth", "--samples", "8", "--tol", "inf"],
    ],
    ids=[
        "too-few-points",
        "no-restarts",
        "odd-samples",
        "no-samples",
        "one-antipodal-pair",
        "no-neighbors",
        "step-beyond-tmax",
        "start-off-boundary",
        "start-not-numbers",
        "start-wrong-length",
        "capacity-negative-seed",
        "girth-negative-seed",
        "start-nan",
        "start-inf",
        "too-many-points",
        "too-many-restarts",
        "too-many-samples",
        "tmax-nan",
        "tmax-inf",
        "step-nan",
        "steps-overflow",
        "too-many-steps",
        "girth-tol-nan",
        "girth-tol-inf",
    ],
)
def test_out_of_range_options_exit_2(tmp_path, capsys, argv):
    body = write_json(tmp_path, "ball2.json", BALL2)
    code, _, err = run_cli(capsys, [argv[0], body, *argv[1:]])
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_negative_seed_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["verify", "--seed", "-1", "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_girth_below_dimension_two_exits_2(tmp_path, capsys):
    segment = {"kind": "ellipsoid", "dim": 1, "params": {"radii": [1.0]}}
    body = write_json(tmp_path, "segment.json", segment)
    code, _, err = run_cli(capsys, ["girth", body, "--samples", "8"])
    assert code == 2
    assert err == "error: girth needs dimension at least 2, got 1\n"


@pytest.mark.parametrize("m", ["1", "0", "-2"])
def test_symmetrize_order_below_two_exits_2(tmp_path, capsys, m):
    loop = write_json(tmp_path, "loop.json", TRIANGLE)
    body = write_json(tmp_path, "ball2.json", BALL2)
    code, _, err = run_cli(capsys, ["symmetrize", loop, "--body", body, "--m", m])
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_symmetrize_order_above_the_cap_exits_2(tmp_path, capsys):
    loop = write_json(tmp_path, "loop.json", TRIANGLE)
    body = write_json(tmp_path, "ball2.json", BALL2)
    m = str(symmetry.MAX_ORDER + 1)
    code, _, err = run_cli(capsys, ["symmetrize", loop, "--body", body, "--m", m])
    assert code == 2
    assert err == f"error: symmetry order m must be in [2, 512], got {m}\n"


def test_flow_on_an_odd_dimensional_body_is_a_dimension_error(tmp_path, capsys):
    ball3 = {"kind": "ellipsoid", "dim": 3, "params": {"radii": [1.0, 1.0, 1.0]}}
    body = write_json(tmp_path, "ball3.json", ball3)
    code, _, err = run_cli(capsys, ["flow", body, "--start", "1,0,0", "--tmax", "1"])
    assert code == 1
    assert err == (
        "error: DimensionMismatch: characteristic flow needs an even-dimensional body\n"
    )


def test_symmetrize_dimension_mismatch_exits_2(tmp_path, capsys):
    loop = write_json(tmp_path, "loop.json", TRIANGLE)
    body = write_json(tmp_path, "ball4.json", BALL4)
    code, _, err = run_cli(capsys, ["symmetrize", loop, "--body", body])
    assert code == 2
    assert err == "error: loop has dimension 2, norm body has dimension 4\n"


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"]
)
def test_symmetrize_non_finite_vertex_exits_2(tmp_path, capsys, bad):
    t = 2.0 * math.pi * np.arange(16) / 16
    vertices = np.stack([np.cos(t), 0 * t, np.sin(t), 0 * t], axis=1)
    vertices[5, 2] = bad
    loop = write_json(tmp_path, "loop.json", {"dim": 4, "vertices": vertices.tolist()})
    body = write_json(tmp_path, "ball4.json", BALL4)
    code, _, err = run_cli(capsys, ["symmetrize", loop, "--body", body])
    assert code == 2
    assert err == "error: loop vertices must be finite\n"


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": 0, "vertices": []}',
        '{"dim": -2, "vertices": [[1, 0], [0, 1], [-1, 0]]}',
        '{"dim": 2, "vertices": [[1, 0]]}',
        '{"dim": 4, "vertices": [[1, 0], [0, 1], [-1, 0]]}',
        '{"dim": 2, "vertices": [1, 0, 0, 1, -1, 0]}',
        # numbers that overflow on conversion
        '{"dim": 1e400, "vertices": [[1, 0], [0, 1], [-1, 0]]}',
        '{"dim": 2, "vertices": [[1' + "0" * 400 + ', 0], [0, 1], [-1, 0]]}',
    ],
    ids=[
        "dim-zero",
        "dim-negative",
        "one-vertex",
        "columns-below-dim",
        "flat-vertex-list",
        "dim-overflows",
        "vertex-overflows",
    ],
)
def test_malformed_loop_file_exits_2(tmp_path, capsys, text):
    loop = tmp_path / "loop.json"
    loop.write_text(text)
    body = write_json(tmp_path, "ball2.json", BALL2)
    code, _, err = run_cli(capsys, ["symmetrize", str(loop), "--body", body])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "ellipsoid", "dim": 2, "params": {"radii": "abc"}},
        {"kind": "lp", "dim": 2, "params": {"p": "x", "weights": [1.0, 1.0]}},
        {"kind": "lp", "dim": 2, "params": [1, 2]},
        {"kind": "ellipsoid", "dim": 2, "params": {"radii": [-1, 1]}},
        {"kind": "lp", "dim": 2, "params": {"p": 0.5, "weights": [1.0, 1.0]}},
        {"kind": "ellipsoid", "dim": 2, "params": {"radii": [1, 1], "center": [5, 0]}},
        {"kind": "ellipsoid", "dim": 1e400, "params": {"radii": [1, 1]}},
        {"kind": "ellipsoid", "dim": 2, "params": {"radii": [1, 1], "center": 5}},
        {
            "kind": "ellipsoid",
            "dim": 4,
            "params": {"radii": [1, 1, 1, 1], "center": [0, 0, 0]},
        },
        # non-finite numbers, which JSON files may spell NaN and Infinity
        {
            "kind": "ellipsoid",
            "dim": 2,
            "params": {"radii": [1, 1], "center": [math.nan, 0]},
        },
        {"kind": "ellipsoid", "dim": 2, "params": {"matrix": [[math.inf, 0], [0, 1]]}},
        {"kind": "lp", "dim": 2, "params": {"p": 4, "weights": [math.inf, 1]}},
        {
            "kind": "polytope_v",
            "dim": 2,
            "params": {"vertices": [[1, 0], [0, math.nan], [-1, -1]]},
        },
        # Qhull's error carries its whole report; only the first line is kept
        {
            "kind": "polytope_v",
            "dim": 2,
            "params": {"vertices": [[1e300, 0], [0, 1], [-1, -1]]},
        },
        # finite and positive, but the polar's weight 1 / 5e-324 is not finite
        {"kind": "lp", "dim": 2, "params": {"p": 4, "weights": [5e-324, 1]}},
    ],
    ids=[
        "radii-not-numbers",
        "p-not-a-number",
        "params-not-an-object",
        "negative-radius",
        "p-below-one",
        "origin-outside",
        "dim-overflows",
        "center-not-a-list",
        "center-wrong-length",
        "center-nan",
        "matrix-infinite",
        "weight-infinite",
        "vertex-nan",
        "qhull-report",
        "weight-subnormal",
    ],
)
def test_malformed_body_params_exit_2(tmp_path, capsys, spec):
    body = write_json(tmp_path, "body.json", spec)
    code, _, err = run_cli(capsys, ["cj", body])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_numerical_errors_exit_1(tmp_path, capsys):
    odd = write_json(
        tmp_path,
        "odd.json",
        {"kind": "ellipsoid", "dim": 3, "params": {"radii": [1.0, 1.0, 1.0]}},
    )
    code, _, err = run_cli(capsys, ["cj", odd])
    assert code == 1
    assert "error: DimensionMismatch" in err


def test_missing_body_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, ["cj", str(tmp_path / "nope.json")])
    assert code == 2
    assert "cannot read" in err


@pytest.mark.parametrize(
    "value", ["nan", "inf", "-inf", "0.0", "-0.0", "5e-324", "1e308"]
)
@pytest.mark.parametrize(
    "option", ["girth-tol", "verify-tol", "flow-tmax", "flow-step"]
)
def test_float_options_exit_0_1_or_2(tmp_path, capsys, option, value):
    body = write_json(tmp_path, "ball2.json", BALL2)
    suite = write_json(
        tmp_path, "suite.json", {"bodies": [BALL2], "profiles": TINY_PROFILE}
    )
    argv = {
        "girth-tol": ["girth", body, "--samples", "64", f"--tol={value}"],
        "verify-tol": [
            "verify", suite, "--out", str(tmp_path / "r"), "--profile", "tiny",
            f"--tol={value}",
        ],
        "flow-tmax": ["flow", body, "--start", "1,0", f"--tmax={value}"],
        "flow-step": ["flow", body, "--start", "1,0", "--tmax", "1", f"--step={value}"],
    }[option]
    code, _, err = run_cli(capsys, argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# Integer options at the edges of their ranges, each paired with small values
# of the other options: (argv up to the option, option, least valid value,
# cap).  BODY, LOOP, SUITE and OUT stand for files written by the test.
L4_PLANE = {"kind": "lp", "dim": 2, "params": {"p": 4, "weights": [1.0, 1.0]}}
FUZZ_PROFILE = {"points": 8, "restarts": 1, "girth_samples": 16}
FUZZ_PROFILES = {"tiny": FUZZ_PROFILE}
INT_OPTIONS = [
    (["capacity", "BODY", "--restarts", "1"], "--points", 3, capacity.MAX_POINTS),
    (["capacity", "BODY", "--points", "8"], "--restarts", 1, capacity.MAX_RESTARTS),
    (["capacity", "BODY", "--points", "8", "--restarts", "1"], "--seed", 0, None),
    (["cj", "BODY"], "--seed", 0, None),
    (["girth", "BODY"], "--samples", 4, girth.MAX_SAMPLES),
    (["girth", "BODY", "--samples", "16"], "--neighbors", 1, None),
    (["girth", "BODY", "--samples", "16"], "--seed", 0, None),
    (["symmetrize", "LOOP", "--body", "BODY"], "--m", 2, symmetry.MAX_ORDER),
    (["verify", "SUITE", "--profile", "tiny", "--out", "OUT"], "--seed", 0, None),
]
# the steps that do the work, each after its command's range checks
WORK = [
    (capacity, "minimize"),
    (capacity, "_c_j_ascent"),
    (girth, "_neighbor_graph"),
    (symmetry, "split_closed_at_fractions"),
    (verify, "verify_body"),
]


INT_CASES = [
    (prefix, option, low, cap, value)
    for prefix, option, low, cap in INT_OPTIONS
    for value in ["-1", "0", "1", "2", str(2**64), "1.5"]
    + ([str(cap + 1)] if cap is not None else [])
]


@pytest.mark.parametrize(
    "prefix,option,low,cap,value",
    INT_CASES,
    ids=[f"{prefix[0]}{option}={value}" for prefix, option, _, _, value in INT_CASES],
)
def test_integer_options_exit_0_1_or_2(
    tmp_path, capsys, monkeypatch, prefix, option, low, cap, value
):
    files = {
        "BODY": write_json(tmp_path, "l4.json", L4_PLANE),
        "LOOP": write_json(tmp_path, "loop.json", TRIANGLE),
        "SUITE": write_json(
            tmp_path, "suite.json",
            {"bodies": [L4_PLANE], "profiles": FUZZ_PROFILES},
        ),
        "OUT": str(tmp_path / "reports"),
    }
    calls = []
    for module, name in WORK:
        work = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, work=work, **k: calls.append(1) or work(*a, **k)
        )
    try:
        code = main([files.get(a, a) for a in prefix] + [option, value])
    except SystemExit as exc:  # argparse: not an integer
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if not value.lstrip("-").isdigit():
        assert code == 2
        return
    v = int(value)
    if v < low or (cap is not None and v > cap) or (option == "--samples" and v % 2):
        assert code == 2, err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not calls, "the range check came after the work"
    else:
        assert code in (0, 1), err


PROFILE_VALUES = st.sampled_from([-1, 0, 1, 2, 2**16 + 1, 2**64]) | JSON_VALUES.filter(
    lambda v: type(v) is not int  # any other integer could ask for a long solve
)
IDS = st.text(max_size=4) | JSON_VALUES


@st.composite
def fuzzed_suites(draw):
    """Up to two body descriptions with any id and the tiny profile, one of its
    fields now and then set to any value; now and then an entry, a field or
    the whole suite is any JSON value instead."""
    profile = dict(FUZZ_PROFILE)
    if draw(st.booleans()):
        profile[draw(st.sampled_from(sorted(FUZZ_PROFILE)))] = draw(PROFILE_VALUES)
    bodies = draw(st.lists(edited_specs(), max_size=2))
    for entry in bodies:
        entry["id"] = draw(IDS)
    suite = {"bodies": bodies, "profiles": {"tiny": profile}}
    edit = draw(st.sampled_from([None] * 4 + ["entry", "bodies", "profiles", "suite"]))
    if edit == "entry":
        bodies.append(draw(JSON_VALUES))
    elif edit == "suite":
        suite = draw(JSON_VALUES)
    elif edit:
        suite[edit] = draw(JSON_VALUES)
    return suite


@settings(deadline=None, max_examples=100)
@given(suite=fuzzed_suites())
@example(suite={"bodies": [dict(BALL2, id="\ud800")], "profiles": FUZZ_PROFILES})
@example(suite={"bodies": [L4_PLANE, BALL4], "profiles": FUZZ_PROFILES})
def test_verify_reads_any_suite_or_raises_a_usage_error(suite):
    # through a file, as the CLI reads it: any JSON value may stand at the top
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/suite.json"
        with open(path, "w") as fh:
            json.dump(suite, fh)
        try:
            code, records = verify.run_verify(path, f"{tmp}/out", profile="tiny")
        except (SpecParseError, InvalidParameter):
            return
    assert code in (0, 1)
    for rec in records:
        assert rec.status == "ok" or rec.status.startswith("error: "), rec.status

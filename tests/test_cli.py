import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from tbsl.cli import main
from tbsl.schema import REPORT_SCHEMA


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, "--json", *argv)
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


class TestClassify:
    def test_whitehead(self, capsys):
        code, out, _ = run(capsys, "classify", "b(8,5)")
        assert code == 0
        assert "Ln(1)" in out and "t2 t1 t3^-1" in out

    def test_hopf_is_torus(self, capsys):
        code, report = run_json(capsys, "classify", "L(2)")
        assert code == 0
        assert report["classification"]["family"] == "torus"

    def test_family2(self, capsys):
        code, report = run_json(capsys, "classify", "b(30,-11)")
        assert code == 0
        assert report["classification"]["family"] == "family2-interior"

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "classify", "b(8;5)")
        assert code == 1
        assert "error" in err

    def test_knot_error(self, capsys):
        code, report = run_json(capsys, "classify", "b(7,3)")
        assert code == 1 and not report["ok"]
        assert "knot, not a link" in report["error"]


class TestExpand:
    def test_fraction(self, capsys):
        code, report = run_json(capsys, "expand", "8/5")
        assert code == 0
        assert report["expansion"]["coefficients"] == [2, -2, -2]
        assert report["expansion"]["all_plus_minus_two"]

    def test_link_spec(self, capsys):
        code, report = run_json(capsys, "expand", "b(30,19)")
        assert code == 0
        assert report["expansion"]["coefficients"] == [2, -2, -2, -2, 2]


class TestEqual:
    def test_inverse_pair(self, capsys):
        code, report = run_json(capsys, "equal", "b(8,5)", "b(8,-3)")
        assert code == 0
        assert report["equal"] == {"oriented": "isotopic", "unoriented": True}

    def test_distinct(self, capsys):
        code, report = run_json(capsys, "equal", "b(8,5)", "b(8,3)")
        assert code == 0
        assert report["equal"] == {"oriented": "distinct", "unoriented": False}


class TestRegion:
    def test_whitehead(self, capsys):
        code, report = run_json(capsys, "region", "b(8,5)")
        assert code == 0
        rects = report["regions"]["canonical"]["lspace"]["rects"]
        assert rects == [["[1,inf)", "[1,inf)"]]

    def test_l3_both_framings(self, capsys):
        code, report = run_json(capsys, "region", "b(20,-3)")
        assert code == 0
        regions = report["regions"]
        assert regions["canonical"]["lspace"]["rects"] == [["[3,inf)", "[3,inf)"]]
        # linking number 2 shifts the Seifert-framing quadrant
        assert regions["seifert"]["lspace"]["rects"] == [["[5,inf)", "[5,inf)"]]

    def test_seifert_text_output(self, capsys):
        code, out, _ = run(capsys, "region", "b(20,-3)", "--framing", "seifert")
        assert code == 0
        assert "[5,inf) x [5,inf)" in out

    def test_schema_requires_finite_regions(self, capsys):
        _, report = run_json(capsys, "region", "b(20,-3)")
        report["regions"]["canonical"]["lspace"]["restrict_to_finite"] = False
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(report, REPORT_SCHEMA)

    def test_torus_rejected(self, capsys):
        code, report = run_json(capsys, "region", "L(2)")
        assert code == 1
        assert "torus" in report["error"]

    def test_svg_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "region", "b(8,5)", "--svg", str(a))
        run(capsys, "region", "b(8,5)", "--svg", str(b))
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().startswith(b"<svg")


class TestVerdict:
    @pytest.mark.parametrize(
        "r1, r2, expected",
        [
            ("1", "1", "LSpace"),
            ("0", "7", "NotQHS_TautByBetti"),
            ("1/2", "1/2", "NLSWithTautFoliation"),
            ("inf", "3", "InfinityFilling"),
        ],
    )
    def test_whitehead_table(self, capsys, r1, r2, expected):
        code, report = run_json(capsys, "verdict", "b(8,5)", r1, r2)
        assert code == 0
        assert report["verdicts"][0]["verdict"] == expected

    def test_seifert_input(self, capsys):
        # Seifert (5,5) on b(20,-3) is canonical (3,3): the quadrant corner
        code, report = run_json(capsys, "verdict", "b(20,-3)", "5", "5", "--framing", "seifert")
        assert code == 0
        assert report["verdicts"][0]["verdict"] == "LSpace"


class TestSweep:
    def test_grid(self, capsys):
        code, report = run_json(capsys, "sweep", "b(8,5)", "--window", "2")
        assert code == 0
        verdicts = {tuple(v["slope"]): v["verdict"] for v in report["verdicts"]}
        assert len(verdicts) == 25
        assert verdicts[("1", "1")] == "LSpace"
        assert verdicts[("0", "2")] == "NotQHS_TautByBetti"
        assert verdicts[("-1", "-1")] == "NLSWithTautFoliation"

    def test_fractional_step(self, capsys):
        code, report = run_json(capsys, "sweep", "b(8,5)", "--window", "1", "--step", "1/2")
        assert code == 0
        assert len(report["verdicts"]) == 25

    def test_agrees_with_pointwise_verdicts(self, capsys):
        from fractions import Fraction

        from tbsl import parse_link, verdict

        code, report = run_json(capsys, "sweep", "b(14,-3)", "--window", "3")
        assert code == 0
        link = parse_link("b(14,-3)")
        for entry in report["verdicts"]:
            s1, s2 = (Fraction(s) for s in entry["slope"])
            assert verdict(link, (s1, s2)).value == entry["verdict"]


class TestHomology:
    def test_poincare_corner(self, capsys):
        code, report = run_json(capsys, "homology", "b(8,5)", "1", "1")
        assert code == 0
        assert report["homology"]["order"] == 1 and report["homology"]["qhs"]

    def test_zero_surgery(self, capsys):
        code, report = run_json(capsys, "homology", "b(8,5)", "0", "7")
        assert code == 0
        assert report["homology"]["order"] == "infinite"
        assert not report["homology"]["qhs"]


class TestFraming:
    def test_convert(self, capsys):
        code, report = run_json(capsys, "framing", "b(20,-3)", "5", "5", "--to", "canonical")
        assert code == 0
        assert report["framing"]["slopes"] == ["3", "3"]

    def test_roundtrip(self, capsys):
        code, report = run_json(
            capsys, "framing", "b(20,-3)", "3", "3",
            "--framing", "canonical", "--to", "seifert",
        )
        assert code == 0
        assert report["framing"]["slopes"] == ["5", "5"]


class TestVerifyCommands:
    def test_verify_ln(self, capsys):
        code, report = run_json(capsys, "verify-ln", "--max", "5")
        assert code == 0
        assert all(c["ok"] for c in report["checks"])
        assert len(report["checks"]) == 5

    def test_verify_covers(self, capsys):
        code, report = run_json(capsys, "verify-covers", "--max", "4")
        assert code == 0
        assert all(c["ok"] for c in report["checks"])

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "verify-ln", "--max", "3")
        assert code == 0
        assert out.count("ok") == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verdict", "b(8,5)", "1/0", "1"], "zero denominator"),
        (["homology", "b(8,5)", "1/0", "1"], "zero denominator"),
        (["framing", "b(8,5)", "1", "1/0"], "zero denominator"),
        (["expand", "1/0"], "zero denominator"),
        (["sweep", "b(8,5)", "--step", "1/0"], "zero denominator"),
        (["classify", "1/0"], "zero denominator"),
        (["sweep", "b(8,5)", "--window", "0"], "--window"),
        (["sweep", "b(8,5)", "--window", "100", "--step", "1/1000000000"], "exceeds the limit"),
        (["sweep", "b(8,5)", "--window", "250"], "251001 points"),
        (["region", "b(8,5)", "--svg", os.devnull, "--window", "-2"], "--window"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_bad_input_is_reported(capsys, argv, message):
    code, report = run_json(capsys, *argv)
    assert code == 1 and not report["ok"]
    assert message in report["error"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verdict", "b(8,5)", "-23/2", "1"], "required: r2"),
        (["sweep", "b(8,5)", "--window", "abc"], "invalid int value: 'abc'"),
        (["classify"], "required: link"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_usage_error_is_reported(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.startswith("error: ") and message in err
    code, report = run_json(capsys, *argv)
    assert code == 1 and not report["ok"]
    assert report["command"] == argv[0] and message in report["error"]


def test_unknown_subcommand_is_reported_on_stderr_only(capsys):
    for argv in (["bogus"], ["--json", "bogus"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "invalid choice: 'bogus'" in err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--help"])
    assert exc.value.code == 0
    assert "--window" in capsys.readouterr().out


@pytest.mark.parametrize(
    "json_flag, window", [(["--json"], "30"), ([], "80")], ids=["json", "text"]
)
def test_closed_pipe_is_quiet(json_flag, window):
    # both reports are larger than a pipe buffer, so writing them outlives the reader
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "tbsl", *json_flag, "sweep", "b(20,-3)", "--window", window]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1)
    assert b"Traceback" not in err and b"BrokenPipeError" not in err

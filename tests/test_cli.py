import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import given, settings

from test_golden import PARSER_GOLDEN, SVG_PATH, _run, corpus, parser_surface
from tbsl import cli, foliation, ln_link, lspace, svgplot
from tbsl.cli import main
from tbsl.exactq import CircleInterval, Slope
from tbsl.regions import Framing, Region2
from tbsl.schema import REPORT_SCHEMA
from tbsl.svgplot import region_svg


#: Unwritable ``--svg`` paths: one in a directory that does not exist, one a directory.
MISSING_DIR_SVG = os.path.join("no-such-dir", "x.svg")
DIRECTORY_SVG = os.curdir


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def handler_body(*argv) -> dict:
    """The body a subcommand's handler returns, ``verdicts`` as ``(xs, ys, rows)``."""
    args = cli.build_parser().parse_args(argv)
    return args.handler(args)


def run_json(capsys, *argv):
    code, out, _ = run(capsys, "--json", *argv)
    report = json.loads(out)
    jsonschema.validate(report, REPORT_SCHEMA)
    return code, report


def has_json_dump_layout(out: str) -> bool:
    return json.dumps(json.loads(out), indent=2) + "\n" == out


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

    def test_svg_grid_is_bounded(self, capsys, tmp_path):
        path = tmp_path / "wide.svg"
        t0 = time.perf_counter()
        code, _, _ = run(capsys, "region", "b(8,5)", "--svg", str(path), "--window", "1000000")
        assert code == 0 and time.perf_counter() - t0 < 1.0
        assert path.stat().st_size < 100_000

    @pytest.mark.parametrize("window, ticks", [(2, 5), (50, 101), (51, 53), (1000, 101)])
    def test_svg_tick_stride(self, window, ticks):
        # every integer up to 50, then the multiples of ceil(w / 50) and the frame at ±w
        region = Region2.empty(Framing.CANONICAL)
        assert region_svg(region, region, window).count("<line") == 2 * ticks


class TestSvgPlot:
    @pytest.mark.parametrize(
        "x, text",
        [
            (Fraction(1, 200), "0.01"),  # half a hundredth rounds up
            (Fraction(1, 3), "0.33"),
            (Fraction(2, 3), "0.67"),
            (Fraction(0), "0.00"),
            (Fraction(5), "5.00"),
        ],
    )
    def test_fixed_point(self, x, text):
        assert svgplot._fixed(x) == text

    def test_box_outside_the_window_is_not_drawn(self):
        inside, beyond = CircleInterval.closed(0, 1), CircleInterval.closed(10, 20)
        box = Region2(Framing.CANONICAL, ((inside, beyond),))
        empty = Region2.empty(Framing.CANONICAL)
        assert "fill-opacity" not in region_svg(box, empty, 5)
        assert region_svg(box, empty, 20).count("fill-opacity") == 1

    def test_window_one_is_labelled(self):
        empty = Region2.empty(Framing.CANONICAL)
        assert "[-1, 1]^2" in region_svg(empty, empty, 1)


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

    def test_grid_slopes_are_no_slope_objects(self, capsys, monkeypatch):
        # the axis is integers from the handler to the verdict engine and the writer, so a
        # W = 100 sweep makes as many Slopes as a W = 10 one: none per grid slope
        argv = ["--json", "sweep", "b(62,-3)", "--window"]
        assert run(capsys, *argv, "10")[0] == 0  # builds the Ln(10) row and its kept grid
        made = []
        init = Slope.__init__
        monkeypatch.setattr(Slope, "__init__", lambda self, *a: made.append(1) or init(self, *a))
        counts = []
        for window in ("10", "100"):
            made.clear()
            assert run(capsys, *argv, window)[0] == 0
            counts.append(len(made))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("step", ["1", "1/2", "1/3", "2/3", "3/2", "5/7", "1/4", "5/6"])
    def test_axis_is_the_fraction_grid(self, step):
        window = 4
        body = handler_body("sweep", "b(14,-3)", "--window", str(window), "--step", step)
        xs, ys, _ = body["verdicts"]
        n = 2 * window // Fraction(step) + 1
        assert xs == ys == [str(-window + k * Fraction(step)) for k in range(n)]


class TestSweepDefaultWindow:
    """Without ``--window``, ``sweep`` narrows the link's default window to the
    widest grid within the point limit, lowered here to keep the grids small."""

    LIMIT = 441  # 21 slopes a side; b(62,59) is Ln(10), default window 12

    @pytest.mark.parametrize("step", ["1", "2", "1/2", "3/2", "2/3"])
    def test_widest_window_within_the_limit(self, capsys, monkeypatch, step):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", self.LIMIT)
        code, report = run_json(capsys, "sweep", "b(62,59)", "--step", step)
        assert code == 0
        window = report["input"]["window"]

        def points(w):
            return (2 * w // Fraction(step) + 1) ** 2

        assert len(report["verdicts"]) == points(window) <= self.LIMIT
        assert window == 12 or points(window + 1) > self.LIMIT

    def test_clamped_at_step_one_not_at_step_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", self.LIMIT)
        windows = [
            run_json(capsys, "sweep", "b(62,59)", "--step", step)[1]["input"]["window"]
            for step in ("1", "2")
        ]
        assert windows == [10, 12]

    def test_explicit_window_is_not_narrowed(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", self.LIMIT)
        code, report = run_json(capsys, "sweep", "b(62,59)", "--window", "12")
        assert code == 1
        assert "sweep of 625 points exceeds the limit of 441" in report["error"]


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

    def test_max_at_the_limit_is_accepted(self):
        assert cli._positive(1000, "--max", 1000) == 1000

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "verify-ln", "--max", "3")
        assert code == 0
        assert out.count("ok") == 3

    def test_verify_ln_reports_a_broken_step(self, capsys, monkeypatch):
        monkeypatch.setattr(lspace, "drilled_longitude", lambda d, i: Slope(3))
        code, out, _ = run(capsys, "verify-ln", "--max", "3")
        assert code == 1
        assert "FAIL  ln-chain n=1" in out

    @pytest.mark.parametrize("fault", ["gap", "overlap"])
    def test_strip_check_catches_a_gap_and_an_overlap(self, capsys, monkeypatch, fault,
                                                       fresh_witness_table):
        # (0, 0) is off Ln(2)'s quadrant [2, inf)^2 and (2, 2) is its corner; the fault enters
        # the one route of the strips, at n = 2, and the translate carries it to n = 3
        route = foliation._route

        def faulty(linking, fills, boxes, filled=None):
            region = route(linking, fills, boxes, filled)
            if fills != (Fraction(-1, 2),):
                return region
            at = 0 if fault == "gap" else 2
            point = Region2.box(CircleInterval.point(at), CircleInterval.point(at), Framing.CANONICAL)
            return region.difference(point) if fault == "gap" else region.union(point)

        monkeypatch.setattr(foliation, "_route", faulty)
        code, out, _ = run(capsys, "verify-covers", "--max", "3")
        assert code == 1
        assert "FAIL  ln-strips n=2" in out and "FAIL  ln-strips n=3" in out
        code, report = run_json(capsys, "verify-covers", "--max", "3")
        assert code == 1 and not report["ok"]

    @pytest.mark.parametrize("dropped", range(4))
    def test_strips_cached_before_a_broken_builder_do_not_hide_it(self, capsys, monkeypatch,
                                                                 request, dropped):
        # the fixture's clearing is what this checks: strips cached before it must be rebuilt
        foliation.ln_taut_witness_strips(2), foliation.ln_taut_witness_strips(3)
        request.getfixturevalue("fresh_witness_table")
        boxes = foliation._LN_SURFACE_BOXES
        monkeypatch.setattr(foliation, "_LN_SURFACE_BOXES", boxes[:dropped] + boxes[dropped + 1:])
        code, out, _ = run(capsys, "verify-covers", "--max", "3")
        assert code == 1
        assert "FAIL  ln-strips n=2" in out and "FAIL  ln-strips n=3" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verdict", "b(8,5)", "1/0", "1"], "zero denominator"),
        (["homology", "b(8,5)", "1/0", "1"], "zero denominator"),
        (["framing", "b(8,5)", "1", "1/0"], "zero denominator"),
        (["expand", "1/0"], "zero denominator"),
        (["sweep", "b(8,5)", "--step", "1/0"], "zero denominator"),
        (["classify", "1/0"], "zero denominator"),
        (["classify", "L(2,1,-1)"], "evaluates to inf, not a link"),
        (["sweep", "b(8,5)", "--step", "0"], "--step must be positive"),
        (["sweep", "b(8,5)", "--window", "0"], "--window"),
        (["sweep", "b(8,5)", "--window", "100", "--step", "1/1000000000"], "exceeds the limit"),
        (["sweep", "b(8,5)", "--window", "250"], "251001 points"),
        # so fine a step fits no window: the default is narrowed to 1, never below
        (["sweep", "b(8,5)", "--step", "1/1000"], "4004001 points exceeds the limit of 250000"),
        (["region", "b(8,5)", "--svg", os.devnull, "--window", "-2"], "--window"),
        (["region", "b(8,5)", "--window", "-2"], "--window must be a positive integer"),
        (["region", "b(8,5)", "--window", "0", "--framing", "seifert"], "--window"),
        (["region", "b(8,5)", "--svg", MISSING_DIR_SVG], "cannot write"),
        (["region", "b(8,5)", "--svg", DIRECTORY_SVG], "cannot write"),
        (["region", "b(8,5)", "--svg", ""], "cannot write"),
        (["verify-ln", "--max", "0"], "--max must be a positive integer, got 0"),
        (["verify-covers", "--max", "-5"], "--max must be a positive integer, got -5"),
        (["verify-ln", "--max", "1001"], "--max must be at most 1000, got 1001"),
        (["verify-covers", "--max", "1001"], "--max must be at most 1000, got 1001"),
        # b(p,-3) has the candidate p - 3, whose expansion has about p/3 entries ±2
        (["classify", f"b({10**30},-3)"], "more than 1000000 entries"),
        (["expand", "2000002/2000001"], "more than 1000000 entries"),
        # rationals are [-]digits[/digits]: Fraction reads these, and computes
        # 1e10000000 in full, for seconds, before the digit limit refuses it
        (["classify", "1e3"], "link spec '1e3' (unexpected input at position 1)"),
        (["expand", "0.5"], "fraction '0.5' is not of the form [-]digits[/digits]"),
        (["sweep", "b(8,5)", "--step", "1e0"], "--step '1e0' is not of the form"),
        (["verdict", "b(8,5)", "1e10000000", "1"], "slope '1e10000000' is not of the form"),
        # digits are ASCII 0-9: \d and str.isdecimal also read these Arabic-Indic ones
        (["classify", "b(٨,٥)"], "link spec 'b(٨,٥)' (unexpected input at position 2)"),
        (["classify", "L(٢,-٢,-٢)"], "link spec 'L(٢,-٢,-٢)' (unexpected input at position 2)"),
        (["verdict", "b(8,5)", "١", "1"], "slope '١' is not of the form"),
        (["expand", "٣٠/١١"], "fraction '٣٠/١١' is not of the form"),
        (["sweep", "b(8,5)", "--window", "٣"], "argument --window: invalid int value: '٣'"),
        (["verify-ln", "--max", "٣"], "argument --max: invalid int value: '٣'"),
        (["sweep", "b(8,5)", "--step", "١"], "--step '١' is not of the form"),
        # argparse hands a positional after a second "--" over as an empty list
        (["verdict", "b(8,5)", "--", "0", "--"], "argument r2: expected one argument"),
        (["homology", "b(8,5)", "1", "--", "--"], "argument r2: expected one argument"),
        (["equal", "b(8,5)", "--", "--"], "argument link2: expected one argument"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_bad_input_is_reported(capsys, argv, message):
    code, report = run_json(capsys, *argv)
    assert code == 1 and not report["ok"]
    assert message in report["error"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["sweep", "b(8,5)", "--window", "1_0", "--step", "5"], "--window"),
        (["sweep", "b(8,5)", "--window", "+5"], "--window"),
        (["region", "b(8,5)", "--window", "1_0"], "--window"),
        (["verify-ln", "--max", "1_0"], "--max"),
        (["verify-covers", "--max", "+3"], "--max"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_integer_options_are_digits(capsys, argv, flag):
    # int() also reads 1_0 and +5; the options take [-]digits, as the rationals do
    code, report = run_json(capsys, *argv)
    assert code == 1 and not report["ok"]
    assert report["error"].startswith(f"argument {flag}: invalid int value: ")


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


def test_parser_surface_is_pinned():
    # help texts, defaults and choices of every argument, and one command per report kind
    surface = parser_surface(cli.build_parser())
    assert surface == json.loads(PARSER_GOLDEN.read_text())
    assert [p["name"] for p in surface[1:]] == REPORT_SCHEMA["properties"]["command"]["enum"]


def test_report_schema_is_pinned():
    # the published contract, byte for byte as json.dumps(indent=2) writes it
    golden = PARSER_GOLDEN.with_name("report_schema.json")
    assert json.dumps(REPORT_SCHEMA, indent=2) + "\n" == golden.read_text()


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


@pytest.mark.parametrize("level", [None, "debug", "verbose", "basic_format", "_styles"])
def test_tbsl_log_records_a_failed_command_with_its_traceback(level):
    # off unless TBSL_LOG is set; a name that is no level of logging, such as "verbose"
    # or "basic_format", means DEBUG
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "TBSL_LOG"}
    env["PYTHONPATH"] = str(src)
    if level is not None:
        env["TBSL_LOG"] = level
    argv = [sys.executable, "-m", "tbsl", "classify", "b(7,3)"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "error: b(7,3) is a knot, not a link" in proc.stderr
    logged = "DEBUG:tbsl:command failed\nTraceback" in proc.stderr
    assert logged == (level is not None) and ("KnotNotLink" in proc.stderr) == logged


def test_failure_reaches_the_tbsl_logger_without_tbsl_log(monkeypatch, caplog, capsys):
    # where logging is loaded (here by pytest), a failure is still logged with its traceback
    monkeypatch.delenv("TBSL_LOG", raising=False)
    caplog.set_level("DEBUG", logger="tbsl")
    assert main(["classify", "b(7,3)"]) == 1
    assert "is a knot, not a link" in capsys.readouterr().err
    [record] = [r for r in caplog.records if r.name == "tbsl"]
    assert record.levelname == "DEBUG" and record.getMessage() == "command failed"
    assert record.exc_info[0].__name__ == "KnotNotLink"


def test_import_loads_no_dataclasses_inspect_logging_or_typing():
    # -S: no site .pth file preloads modules; the set is what importing the CLI adds
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys; before = set(sys.modules); import tbsl.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "tbsl.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "logging", "typing"}


# ---------------------------------------------------------------------------
# the JSON writer keeps json.dump's layout, checked without the golden file


@pytest.mark.parametrize("argv", corpus(), ids=" ".join)
def test_json_report_has_the_json_dump_layout(argv, tmp_path):
    argv = [str(tmp_path / "plot.svg") if a == SVG_PATH else a for a in argv]
    assert has_json_dump_layout(_run(["--json", *argv])["stdout"])


class WriteRecorder:
    """A stream that keeps each ``write`` apart."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


def json_dump_form(report: dict) -> dict:
    """``report`` with its ``(xs, ys, rows)`` grid spelled out as the list of entries."""
    xs, ys, rows = report["verdicts"]
    witness = {"LSpace": "lspace", "NLSWithTautFoliation": "foliation"}
    entries = [
        {"slope": [x, y], "verdict": v.value, "witness_region": witness.get(v.value)}
        for x, row in zip(xs, rows) for y, v in zip(ys, row)
    ]
    return {**report, "verdicts": entries}


def writes_of(report: dict) -> list[str]:
    out = WriteRecorder()
    cli._write_json(report, out)
    return out.writes


V = foliation.Verdict


@pytest.mark.parametrize(
    "xs, ys, rows",
    [
        (["0"], ["1/2"], [[V.L_SPACE]]),
        (["-1", "0", "1"], ["inf", "2"], [[V.INFINITY_FILLING, V.L_SPACE],
                                           [V.NOT_QHS_TAUT_BY_BETTI, V.NLS_WITH_TAUT_FOLIATION],
                                           [V.INFINITY_FILLING, V.INFINITY_FILLING]]),
        (['"a\u00e9"', "-7/3"], ["1", "2", "3", "4"], [list(V), list(V)[::-1]]),
    ],
    ids=["1x1", "3x2", "2x4-every-verdict"],
)
def test_json_writer_matches_json_dump(xs, ys, rows):
    report = {"command": "sweep", "ok": True, "input": {"link": "b(8,5)"},
              "verdicts": (xs, ys, rows), "timing_ms": 3}
    assert "".join(writes_of(report)) == json.dumps(json_dump_form(report), indent=2) + "\n"


#: Slope texts for the writer's axes: ``inf``, integers, fractions and a non-ASCII text.
_AXIS_TEXTS = ("inf", "0", "12", "-7/3", "1/2", '"a\u00e9"')


@st.composite
def repeated_rows_grid_st(draw):
    """A grid whose rows come from a small pool: one shared row object at several x, equal
    rows that are distinct lists and tuples, and rows that differ in one Betti position."""
    ys = draw(st.lists(st.sampled_from(_AXIS_TEXTS), min_size=1, max_size=6))
    pool = []
    for _ in range(2):  # two base rows, as two L-space masks give
        base = draw(st.lists(st.sampled_from(list(V)), min_size=len(ys), max_size=len(ys)))
        patched = base.copy()
        patched[draw(st.integers(0, len(ys) - 1))] = V.NOT_QHS_TAUT_BY_BETTI
        pool += [tuple(base), tuple(base), base, list(base), tuple(patched), patched]
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    xs = draw(st.lists(st.sampled_from(_AXIS_TEXTS), min_size=len(rows), max_size=len(rows)))
    return xs, ys, rows


@settings(max_examples=200)
@given(repeated_rows_grid_st())
def test_json_writer_matches_json_dump_on_repeated_rows(grid):
    report = {"command": "sweep", "ok": True, "input": {"link": "b(8,5)"},
              "verdicts": grid, "timing_ms": 3}
    writes = writes_of(report)
    assert "".join(writes) == json.dumps(json_dump_form(report), indent=2) + "\n"
    assert len(writes) == len(grid[0]) + 2


def test_json_writer_streams_one_grid_row_per_write():
    # a W = 100 report is megabytes: it is written a row at a time, never joined whole
    body = handler_body("sweep", "b(62,-3)", "--window", "100")
    report = {"command": "sweep", "ok": True, **body, "timing_ms": 0}
    xs, ys, _ = report["verdicts"]
    assert len(xs) == len(ys) == 201
    writes = writes_of(report)
    same = "".join(writes) == json.dumps(json_dump_form(report), indent=2) + "\n"
    assert same  # a bool: pytest would diff two 5.7 MB strings for minutes
    # the head, then exactly one row of entries per write, then the tail
    assert len(writes) == len(xs) + 2
    assert [w.count('"slope": [') for w in writes] == [0, *[len(ys)] * len(xs), 0]


_SWEEP_LINKS = ("b(8,5)", "b(20,-3)", "b(20,3)", "L(-2,-2,-2)", "b(30,-11)", "b(14,-3)", "b(62,-3)")


@settings(max_examples=40)
@given(
    st.sampled_from(_SWEEP_LINKS),
    st.integers(1, 5),
    st.sampled_from(["1", "1/2", "1/3", "2/3", "3/2", "2"]),
)
def test_sweep_report_has_the_json_dump_layout(link, window, step):
    run = _run(["--json", "sweep", link, "--window", str(window), "--step", step])
    assert run["code"] == 0 and has_json_dump_layout(run["stdout"])


_GLYPH = {"LSpace": "L", "NLSWithTautFoliation": "f", "NotQHS_TautByBetti": "b", "InfinityFilling": "i"}
_TORUS = "L(2)"
_TABLE_LINKS = st.one_of(
    st.integers(1, 7).map(lambda n: str(ln_link(n))),
    st.integers(1, 7).map(lambda n: str(ln_link(n).mirror())),
    st.sampled_from(["L(2,-2,-2,2,-2)", "b(18,-11)", "L(-2,-2,-2)", "b(30,-11)", _TORUS]),
)


def sweep_table_cells(out: str) -> tuple[list[str], list[str], dict]:
    """The x axis, the y labels top to bottom and ``{(x, y): glyph}`` of a text table."""
    lines = out.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.lstrip().startswith("+-"))
    rows = [line.split(" | ") for line in lines[:rule] if " | " in line]
    xs = lines[rule + 1].split()
    ys = [y.strip() for y, _ in rows]
    cells = {(x, y): g for y, (_, glyphs) in zip(ys, rows) for x, g in zip(xs, glyphs.split())}
    return xs, ys, cells


@settings(max_examples=40)
@given(_TABLE_LINKS, st.integers(1, 6), st.sampled_from(["1", "1/2", "2/3", "3/2"]))
def test_sweep_table_is_the_json_glyph_grid(link, window, step):
    argv = ["sweep", link, "--window", str(window), "--step", step]
    text, report = _run(argv), _run(["--json", *argv])
    if link == _TORUS:
        assert text["code"] == report["code"] == 1 and text["stdout"] == ""
        assert "torus" in json.loads(report["stdout"])["error"]
        return
    assert text["code"] == report["code"] == 0
    xs, ys, cells = sweep_table_cells(text["stdout"])
    entries = json.loads(report["stdout"])["verdicts"]
    assert cells == {tuple(e["slope"]): _GLYPH[e["verdict"]] for e in entries}
    assert len(entries) == len(xs) * len(ys)
    assert xs == sorted(xs, key=Fraction) and ys == xs[::-1]


@settings(max_examples=60)
@given(st.sampled_from(["classify", "sweep", "verdict", "expand"]), st.text(min_size=1, max_size=12))
def test_error_report_has_the_json_dump_layout(command, text):
    # "--" keeps text such as "-h" positional; most texts are not links
    argv = ["--json", command, "--", text] + (["1", "1"] if command == "verdict" else [])
    run = _run(argv)
    assert run["code"] in (0, 1) and has_json_dump_layout(run["stdout"])


def test_non_ascii_input_is_escaped_as_json_dump_does():
    run = _run(["--json", "classify", "b(8,5)\u00e9\u2603"])
    assert run["code"] == 1 and has_json_dump_layout(run["stdout"])
    assert "\\u00e9\\u2603" in run["stdout"] and run["stdout"].isascii()


# ---------------------------------------------------------------------------
# argument fuzz: every command line ends with exit code 0 or 1, no traceback

# "--" is a branch of its own: argparse hands a positional after a second "--" over as []
_SPECS = st.one_of(
    st.just("--"),
    st.sampled_from([
        "b(8,5)", "b(20,-3)", "L(-2,-2,-2)", "b(30,-11)", "b(62,-59)", "L(2)", "b(10,3)",
        "b(7,3)", "b(8;5)", "L()", "b(", "8/5", "b(0,1)", "1/0", "\u00fc", "b(" + "8" * 5000 + ",1)",
    ]),
    st.builds("b({},{})".format, st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30)),
)
_SLOPES = st.one_of(
    st.just("--"),
    st.sampled_from(["inf", "1/0", "0", "-23/2", "1/2", "3", "1e3", "abc", "\u00bd", ""]),
    st.integers(-(10**40), 10**40).map(str),
)
_FRAMINGS = st.sampled_from(["seifert", "canonical", "bogus"])
_WINDOWS = st.one_of(st.integers(-2, 20).map(str), st.just("abc"))
_STEPS = st.sampled_from(["1", "1/2", "1/3", "3/2", "0", "-1", "1/0", "x", "1/1000000000"])
_COMMANDS = [p["name"] for p in parser_surface(cli.build_parser())[1:]]


@st.composite
def argv_st(draw):
    command = draw(st.sampled_from(_COMMANDS + ["bogus"]))
    flags, args = [], []
    if command in ("classify", "region", "sweep", "bogus"):
        args = [draw(_SPECS)]
    elif command == "expand":
        args = [draw(st.one_of(_SPECS, _SLOPES))]
    elif command == "equal":
        args = [draw(_SPECS), draw(_SPECS)]
    elif command in ("verdict", "homology", "framing"):
        # a slope such as -23/2 reads as a flag unless "--" comes first
        dashes = ["--"] if draw(st.booleans()) else []
        args = [draw(_SPECS), *dashes, draw(_SLOPES), draw(_SLOPES)]
        if draw(st.booleans()):
            flags += ["--framing", draw(_FRAMINGS)]
        if command == "framing" and draw(st.booleans()):
            flags += ["--to", draw(_FRAMINGS)]
    else:
        flags = ["--max", draw(st.sampled_from(["-1", "0", "1", "3", "x"]))]
    if command in ("region", "sweep"):
        flags += ["--window", draw(_WINDOWS)]
    if command == "region":
        if draw(st.booleans()):
            flags += ["--framing", draw(_FRAMINGS)]
        if draw(st.booleans()):
            svg = draw(st.sampled_from([os.devnull, MISSING_DIR_SVG, DIRECTORY_SVG, ""]))
            flags += ["--svg", svg]
    if command == "sweep" and draw(st.booleans()):
        flags += ["--step", draw(_STEPS)]
    json_flag = ["--json"] if draw(st.booleans()) else []
    return [*json_flag, command, *flags, *args]


@settings(max_examples=250)
@given(argv_st())
def test_any_command_line_ends_in_exit_code_0_or_1(argv):
    run = _run(argv)
    assert run["code"] in (0, 1)
    assert "Traceback" not in run["stderr"]
    if argv[0] == "--json" and argv[1] in _COMMANDS:
        jsonschema.validate(json.loads(run["stdout"]), REPORT_SCHEMA)

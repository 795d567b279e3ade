"""Behaviour gate: the CLI output for a pinned corpus stays byte-identical.

Each corpus entry runs one command twice, as text and with ``--json``, and
records the exit code, stdout and stderr of both runs; ``region --svg``
entries also record the SVG file.  The JSON report's ``timing_ms`` field is
dropped and SVG output paths are replaced by a placeholder, so every other
byte is compared.  After an intended change of output, re-record with

    PYTHONPATH=src python tests/test_golden.py --update
"""

import contextlib
import io
import json
import pathlib
import re
import sys
import tempfile

import pytest

from tbsl.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli_corpus.json"
SVG_PATH = "<svg-path>"

LINKS = (
    "b(8,5)",
    "b(20,-3)",
    "b(20,3)",
    "L(-2,-2,-2)",
    "b(30,-11)",
    "b(18,13)",
    "L(2)",
    "b(10,3)",
    "b(7,3)",
    "b(8;5)",
)

_TIMING = re.compile(r',\n  "timing_ms": \d+')


def corpus() -> list[list[str]]:
    out = []
    for link in LINKS:
        out.append(["classify", link])
        for framing in ("canonical", "seifert"):
            out.append(["region", link, "--framing", framing])
            out.append(["region", link, "--framing", framing, "--svg", SVG_PATH])
        out.append(["region", link, "--svg", SVG_PATH, "--window", "2"])
        for r1, r2 in (("1", "1"), ("0", "7"), ("inf", "3"), ("1/2", "-3"), ("3", "3")):
            out.append(["verdict", link, r1, r2])
        out.append(["verdict", link, "5", "5", "--framing", "seifert"])
        out.append(["verdict", link, "--", "-23/2", "-4"])
        for window in ("1", "2", "3"):
            out.append(["sweep", link, "--window", window])
        out.append(["sweep", link])
        out.append(["sweep", link, "--window", "1", "--step", "1/2"])
        out.append(["homology", link, "1", "1"])
        out.append(["homology", link, "0", "7"])
        out.append(["homology", link, "5", "5", "--framing", "seifert"])
        out.append(["framing", link, "5", "5", "--to", "canonical"])
        out.append(["framing", link, "3", "3", "--framing", "canonical", "--to", "seifert"])
        out.append(["expand", link])
        out.append(["equal", link, "b(8,-3)"])
    out.append(["expand", "8/5"])
    out.append(["verify-ln", "--max", "3"])
    out.append(["verify-covers", "--max", "3"])
    return out


def _run(argv: list[str]) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def record(argv: list[str]) -> dict:
    """Run one corpus command as text and as JSON; the entry to compare."""
    with tempfile.TemporaryDirectory() as tmp:
        svg = pathlib.Path(tmp) / "plot.svg"
        real = [str(svg) if a == SVG_PATH else a for a in argv]
        text, report = _run(real), _run(["--json", *real])
        entry = {"argv": argv, "text": text, "json": report, "svg": None}
        for run in (text, report):
            for key in ("stdout", "stderr"):
                run[key] = run[key].replace(str(svg), SVG_PATH)
        report["stdout"] = _TIMING.sub("", report["stdout"])
        if svg.exists():
            entry["svg"] = svg.read_text()
    return entry


@pytest.fixture(scope="module")
def golden() -> dict:
    return {tuple(e["argv"]): e for e in json.loads(GOLDEN.read_text())}


def test_corpus_matches_golden_file(golden):
    assert list(golden) == [tuple(a) for a in corpus()]


@pytest.mark.parametrize("argv", corpus(), ids=" ".join)
def test_golden(argv, golden):
    assert record(argv) == golden[tuple(argv)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([record(a) for a in corpus()], indent=1) + "\n")
    print(f"wrote {GOLDEN}")

import pathlib
import runpy
import subprocess
import sys
import textwrap
import time

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def test_fibered_census(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "fibered_census.py", "--max-p", "20")
    assert "unoriented two-bridge classes with p <= 20" in out
    assert "Ln(1)" in out and "partition verified" in out


def test_region_gallery(monkeypatch, capsys, tmp_path):
    out = run_script(
        monkeypatch, capsys, "region_gallery.py", "--out", str(tmp_path), "b(8,5)"
    )
    assert "Ln(1)" in out
    svgs = list(tmp_path.glob("*.svg"))
    assert len(svgs) == 1 and svgs[0].read_text().startswith("<svg")


def test_fibered_census_output_is_pinned(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "fibered_census.py", "--max-p", "300")
    golden = pathlib.Path(__file__).resolve().parent / "golden" / "fibered_census_300.txt"
    assert out == golden.read_text()


def test_mutation_probe_reports_the_one_survivor(tmp_path):
    # four mutants: + -> -, or -> and, and each operand of the or dropped; the tests
    # never pass a truthy first argument, so only dropping `a` survives
    (tmp_path / "mod.py").write_text(textwrap.dedent("""\
        def double(x):
            return x + x


        def either(a, b):
            return a or b
    """))
    (tmp_path / "test_mod.py").write_text(textwrap.dedent("""\
        from mod import double, either


        def test_double():
            assert double(3) == 6


        def test_either():
            assert either(0, 2) == 2
    """))
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "mutation_probe.py"), "mod.py", "test_mod.py", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, check=True,
    ).stdout
    assert time.perf_counter() - start < 5
    assert out.splitlines() == [
        "mod.py:6  delete  drop `a` from or  survived",
        "flip: 2/2 killed",
        "delete: 1/2 killed",
    ]
    assert (tmp_path / "mod.py").read_text().endswith("return a or b\n")  # probed in a copy

import pathlib
import runpy
import sys

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

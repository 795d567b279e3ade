import pathlib
import resource
import runpy
import subprocess
import sys
import textwrap

import pytest

from tbsl import Region2

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(monkeypatch, capsys, name, *argv):
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out


def _children_cpu_s() -> float:
    """User and system CPU seconds of every finished child process so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def test_fibered_census(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "fibered_census.py", "--max-p", "20")
    assert "unoriented two-bridge classes with p <= 20" in out
    assert "Ln(1)" in out and "partition verified" in out


def test_unoriented_classes_lists_each_class_once_by_its_smaller_negative_lift():
    # the congruence q <= 1/q (mod p) checked against the oracle's class keys, apart from
    # the golden bytes
    from oracles import all_links, unoriented_key

    classes = list(runpy.run_path(str(SCRIPTS / "fibered_census.py"))["unoriented_classes"](200))
    keys = [unoriented_key(link) for link in classes]
    assert len(keys) == len(set(keys))
    assert set(keys) == {unoriented_key(link) for link in all_links(200)}
    for link in classes:
        qm = link.q % link.p
        assert link.q == min(qm, pow(qm, -1, link.p)) - link.p, link


def _drop_family2_box(monkeypatch, foliation):
    monkeypatch.setattr(foliation, "_FAMILY2_BOXES", foliation._FAMILY2_BOXES[:1])
    return "FAIL  cover family2"


def _drop_a_strip_at_3(monkeypatch, foliation):
    # the rows of n = 3 lose a strip of their witness, and their gap is recomputed
    row = foliation._ln_row

    def broken(family, n):
        quadrant, witness, gap, region = row(family, n)
        if n != 3:
            return quadrant, witness, gap, region
        witness = Region2(witness.framing, witness.rects[1:])
        gap = quadrant.union(witness).complement()
        return quadrant, witness, gap, witness.union(gap)

    monkeypatch.setattr(foliation, "_ln_row", broken)
    return "FAIL  ln-strips n=3"


@pytest.mark.parametrize("fault", [_drop_family2_box, _drop_a_strip_at_3])
def test_a_broken_row_fails_verify_covers_and_the_census(monkeypatch, capsys, fault,
                                                          fresh_witness_table):
    # each row is checked once, by verify-covers and by the census script's row check
    from tbsl import cli, foliation

    failure = fault(monkeypatch, foliation)
    assert cli.main(["verify-covers", "--max", "3"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [failure]
    with pytest.raises(AssertionError, match="fails its checks"):
        run_script(monkeypatch, capsys, "fibered_census.py", "--max-p", "30")


def test_the_census_checks_the_row_of_every_schubert_representative(monkeypatch, capsys):
    # b(30,11) reads (family 2, mirrored, (T,T,F,T)), a key no other link with p <= 30 reaches;
    # the census walks its class as b(30,-19), so only its second lift, b(30,11), finds the row
    # missing
    from tbsl import foliation
    from tbsl.twobridge import LinkFamily

    key = (LinkFamily.FAMILY2_INTERIOR, True, (True, True, False, True))
    table = foliation._table
    assert key in table()
    monkeypatch.setattr(foliation, "_table", lambda: {k: w for k, w in table().items() if k != key})
    with pytest.raises(AssertionError, match="fails its checks"):
        run_script(monkeypatch, capsys, "fibered_census.py", "--max-p", "30")


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
    # the budget is CPU time, which a busy machine does not stretch as it does wall time
    start = _children_cpu_s()
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "mutation_probe.py"), "mod.py", "test_mod.py", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, check=True,
    ).stdout
    assert _children_cpu_s() - start < 5
    assert out.splitlines() == [
        "mod.py:6:11  #2  delete  drop `a` from or  survived",
        "flip: 2/2 killed",
        "delete: 1/2 killed",
    ]
    assert (tmp_path / "mod.py").read_text().endswith("return a or b\n")  # probed in a copy


def test_mutation_probe_tells_same_line_mutants_apart(tmp_path):
    # both < of the chain -> <= survive, since no test passes an end point; one line,
    # one column and one label, so only the index in sites() tells them apart
    (tmp_path / "mod.py").write_text("def between(a, q, b):\n    return a < q < b\n")
    (tmp_path / "test_mod.py").write_text(
        "from mod import between\n\n\ndef test_between():\n"
        "    assert between(0, 1, 2) and not between(0, 3, 2)\n"
    )
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "mutation_probe.py"), "mod.py", "test_mod.py"],
        cwd=tmp_path, capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == [
        "mod.py:2:11  #0  flip  < -> <=  survived",
        "mod.py:2:11  #1  flip  < -> <=  survived",
        "flip: 0/2 killed",
        "delete: 0/0 killed",
    ]


def test_mutation_probe_names_the_test_that_fails_unmutated(tmp_path):
    (tmp_path / "mod.py").write_text("def one():\n    return 2\n")
    (tmp_path / "test_mod.py").write_text(
        "from mod import one\n\n\ndef test_one():\n    assert one() == 1\n"
    )
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "mutation_probe.py"), "mod.py", "test_mod.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "the tests fail on the unmutated module: test_mod.py::test_one\n"


_COUNTED_MODULE = '''\
"""A module docstring
over two lines."""

# a comment
import os


def f(x):
    """A function docstring."""
    return (x +
            1)  # a trailing comment
'''


def test_line_count_table_against_a_base(tmp_path):
    # mod.py: 8 non-blank lines, 4 of them code (the import, the def and the two-line
    # return); the head adds a class of 3 non-blank lines, 2 of them code, drops gone.py
    # and adds new.py, which holds a comment only
    src = tmp_path / "src" / "tbsl"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(_COUNTED_MODULE)
    (src / "gone.py").write_text("x = 1\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "base"]):
        subprocess.run([*git, *args], cwd=tmp_path, check=True)
    (src / "mod.py").write_text(_COUNTED_MODULE + "\n\nclass C:\n    '''Doc.'''\n\n    y = os.sep\n")
    (src / "gone.py").unlink()
    (src / "new.py").write_text("\n# only a comment\n")

    def table(*argv):
        return subprocess.run(
            [sys.executable, str(SCRIPTS / "line_count.py"), *argv],
            cwd=tmp_path, capture_output=True, text=True, check=True,
        ).stdout.splitlines()

    head = ["| module | base | head | delta | code base | code head | code delta |",
            "| --- | ---: | ---: | ---: | ---: | ---: | ---: |"]
    assert table("HEAD") == head + [
        "| `src/tbsl/gone.py` | 1 | 0 | -1 | 1 | 0 | -1 |",
        "| `src/tbsl/mod.py` | 8 | 11 | +3 | 4 | 6 | +2 |",
        "| `src/tbsl/new.py` | 0 | 1 | +1 | 0 | 0 | +0 |",
        "| **total** | 9 | 12 | +3 | 5 | 6 | +1 |",
    ]
    assert table() == table("n/a") == head + [
        "| `src/tbsl/mod.py` | n/a | 11 | n/a | n/a | 6 | n/a |",
        "| `src/tbsl/new.py` | n/a | 1 | n/a | n/a | 0 | n/a |",
        "| **total** | n/a | 12 | n/a | n/a | 6 | n/a |",
    ]

#!/usr/bin/env python3
"""Mutation probe: how many one-token faults in a module its tests catch.

    python scripts/mutation_probe.py MODULE TEST... [--seed N]

MODULE and the TESTs are paths under the current directory; a temporary copy of it
has its MODULE rewritten once per mutant.  ``flip`` swaps one comparison (``<``/``<=``,
``==``/``!=``, ...), ``and``/``or`` or ``+``/``-``, or adds 1 to an integer; ``delete``
deletes one ``if`` with no ``else`` ending in ``raise`` or ``return``, or drops one
operand of an ``and``/``or``.  Each mutant runs ``pytest -x`` with hypothesis seed N
in a forked child, killed by a failure or by outliving 5x the unmutated run + 10 s.
Prints each survivor as ``path:line:col  #k  family  label  survived``, k its index in
``sites()``, then each family's killed/total; when the unmutated module fails its tests,
it names the failing test instead.  CI skips it: it takes minutes.
"""

import argparse
import ast
import os
import shutil
import signal
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

import hypothesis  # noqa: F401  (imported once, before the children fork)
import pytest

_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
           ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
           ast.And: "and", ast.Or: "or", ast.Add: "+", ast.Sub: "-"}
_FLIP = {a: b for pair in zip(*[iter(_SYMBOL)] * 2) for a, b in (pair, pair[::-1])}
_EXITS = (ast.Raise, ast.Return)


def sites(tree: ast.Module) -> list[tuple[int, int, str, str, partial]]:
    """Every mutation site of ``tree`` in source order: (line, col, family, label, apply)."""
    found = []
    for node in ast.walk(tree):
        ops = [(type(o), partial(node.ops.__setitem__, i)) for i, o in enumerate(getattr(node, "ops", ()))]
        if isinstance(node, (ast.BoolOp, ast.BinOp, ast.AugAssign)):
            ops.append((type(node.op), partial(setattr, node, "op")))
        for old, put in ops:
            if new := _FLIP.get(old):
                found.append((node, "flip", f"{_SYMBOL[old]} -> {_SYMBOL[new]}", partial(put, new())))
        if isinstance(node, ast.Constant) and type(node.value) is int:
            up = partial(setattr, node, "value", node.value + 1)
            found.append((node, "flip", f"{node.value} -> {node.value + 1}", up))
        if isinstance(node, ast.If) and not node.orelse and type(node.body[-1]) in _EXITS:
            off = partial(setattr, node, "test", ast.Constant(False))
            found.append((node, "delete", f"delete `if {ast.unparse(node.test)}`", off))
        for v in node.values if isinstance(node, ast.BoolOp) else ():
            label = f"drop `{ast.unparse(v)}` from {_SYMBOL[type(node.op)]}"
            found.append((node, "delete", label, partial(node.values.remove, v)))
    found.sort(key=lambda site: (site[0].lineno, site[0].col_offset))  # stable: ties keep walk order
    return [(node.lineno, node.col_offset, *site) for node, *site in found]


class _Failures:
    """Pytest plugin: writes the id of each failing test or collector to ``fd``, a line each."""

    def __init__(self, fd: int):
        self.fd = fd

    def pytest_runtest_logreport(self, report):
        if report.failed:
            os.write(self.fd, f"{report.nodeid}\n".encode())

    pytest_collectreport = pytest_runtest_logreport


def failures(copy: Path, tests: list[str], seed: int, timeout: int) -> list[str] | None:
    """``None`` if the tests pass on the copy as it stands within ``timeout`` seconds, else
    the ids of the failing tests: empty when none failed (a timeout or an internal error)."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1), os.dup2(1, 2)
        os.chdir(copy)
        sys.path[:0] = [str(copy / "src"), str(copy)]
        signal.alarm(timeout)  # its default action ends the child
        flags = ["-x", "-q", "-p", "no:cacheprovider", f"--hypothesis-seed={seed}"]
        os._exit(pytest.main([*flags, *tests], plugins=[_Failures(write)]))
    os.close(write)
    with os.fdopen(read) as pipe:
        failed = pipe.read().split()
    return None if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0 else failed


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("module")
    ap.add_argument("tests", nargs="+")
    ap.add_argument("--seed", type=int, default=0, help="hypothesis seed of every test run")
    args = ap.parse_args()
    sys.dont_write_bytecode = True  # a mutant of one size and second would reuse a stale .pyc
    source = Path(args.module).read_text()
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        skip = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".*cache")
        copy = Path(shutil.copytree(".", Path(tmp) / "repo", ignore=skip))
        target = copy / args.module
        target.write_text(ast.unparse(ast.parse(source)))
        start = time.monotonic()
        if (failed := failures(copy, args.tests, args.seed, 3600)) is not None:
            why = " ".join(failed) or "no test failed, so a timeout or an internal error"
            sys.exit(f"the tests fail on the unmutated module: {why}")
        timeout = int(5 * (time.monotonic() - start)) + 10
        for k, (line, col, family, label, _) in enumerate(sites(ast.parse(source))):
            tree = ast.parse(source)
            sites(tree)[k][-1]()
            target.write_text(ast.unparse(tree))
            outcomes.append((family, failures(copy, args.tests, args.seed, timeout) is not None))
            if not outcomes[-1][1]:
                print(f"{args.module}:{line}:{col}  #{k}  {family}  {label}  survived", flush=True)
    for family in ("flip", "delete"):
        kills = [killed for f, killed in outcomes if f == family]
        print(f"{family}: {sum(kills)}/{len(kills)} killed")


if __name__ == "__main__":
    main()

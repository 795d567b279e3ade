#!/usr/bin/env python3
"""Non-blank and code-only line counts of ``src/tbsl``, module by module, base against head.

Run from the repository root::

    python3 scripts/line_count.py [BASE]

``BASE`` is a git revision; without one, or with ``n/a``, the base columns read
``n/a``.  The head is the working tree.  A module absent on one side counts 0.
Prints one markdown table, a row per module and a total row.

A non-blank line holds a character other than whitespace.  A code-only line
holds a token other than a comment, a docstring (the first string statement of
a module, class or function), NEWLINE, NL, INDENT or DEDENT.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

SRC = "src/tbsl"
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER}


def nonblank(src: str) -> int:
    return sum(1 for line in src.split("\n") if line.strip(" \t\n\r\f\v"))


def code_only(src: str) -> int:
    doc = set()
    for n in ast.walk(ast.parse(src)):
        if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(n, clean=False) is not None:
            doc.update(range(n.body[0].lineno, n.body[0].end_lineno + 1))
    code = {i for t in tokenize.generate_tokens(io.StringIO(src).readline)
            if t.type not in _SKIP for i in range(t.start[0], t.end[0] + 1)}
    return len(code - doc)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout


def _counts(src: str | None) -> tuple[int, int]:
    return (0, 0) if src is None else (nonblank(src), code_only(src))


def _delta(base, head) -> str:
    return "n/a" if base == "n/a" else f"{head - base:+d}"


def _row(label, base, head) -> str:
    (b, cb), (h, ch) = base, head
    return f"| {label} | {b} | {h} | {_delta(b, h)} | {cb} | {ch} | {_delta(cb, ch)} |"


def table(base: str | None = None) -> list[str]:
    files = {str(p) for p in Path(SRC).glob("*.py")}
    base_files = set()
    if base is not None:
        base_files = {f for f in _git("ls-tree", "--name-only", base, f"{SRC}/").split()
                      if f.endswith(".py")}
    lines = ["| module | base | head | delta | code base | code head | code delta |",
             "| --- | ---: | ---: | ---: | ---: | ---: | ---: |"]
    totals = [0, 0, 0, 0]
    for f in sorted(files | base_files):
        head = _counts(Path(f).read_text() if f in files else None)
        old = ("n/a", "n/a")
        if base is not None:
            old = _counts(_git("show", f"{base}:{f}") if f in base_files else None)
            totals[0] += old[0]
            totals[2] += old[1]
        totals[1] += head[0]
        totals[3] += head[1]
        lines.append(_row(f"`{f}`", old, head))
    b, h, cb, ch = totals
    lines.append(_row("**total**", ("n/a", "n/a") if base is None else (b, cb), (h, ch)))
    return lines


def main(argv: list[str]) -> None:
    base = argv[0] if argv and argv[0] != "n/a" else None
    print("\n".join(table(base)))


if __name__ == "__main__":
    main(sys.argv[1:])

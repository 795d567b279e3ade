"""Command-line front end.

All mathematics is delegated to the library modules; this module parses
arguments, assembles reports (a ``verdicts`` grid is ``(xs, ys, rows)``: slope texts
and one row of ``Verdict`` per x) and renders them as text or exactly as
``json.dump(report, indent=2)`` would (see :mod:`tbsl.schema`), writing the JSON
grid one row at a time; Python work there is per distinct row, not per point, as each
distinct row's entry texts are built once.  A sweep's axis is integer numerators over the
step's denominator, each printed with one ``gcd``: no grid slope is a ``Slope``.  ``TBSL_LOG``
names a logging level; only then is :mod:`logging` imported, and a failure is logged to the
``tbsl`` logger only where it is loaded, since a process that never imported it configured no
handler.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import time
from json.encoder import encode_basestring_ascii

from . import foliation, lspace, surgery, twobridge
from .exactq import DIGITS, Slope, cf_eval, even_expand, read_rational
from .monodromy import twist_word
from .regions import Framing, point_axes
from .svgplot import region_svg


def _classification_dict(a: foliation.LinkAnalysis) -> dict:
    link, cls = a.link, a.cls
    d = {
        "link": str(link),
        "p": link.p,
        "q": link.q,
        "family": cls.family.value,
        "tag": cls.tag(),
        "n": cls.n,
        "mirrored": cls.mirrored,
        "fibered_expansion": None,
        "linking_number": None,
        "monodromy": None,
        "sign_census": None,
    }
    if cls.chain is not None:
        d["fibered_expansion"] = list(cls.chain)
        d["linking_number"] = a.linking
        d["monodromy"] = str(twist_word(cls.chain))
        c = foliation.chain_census(cls.chain)
        d["sign_census"] = {name: getattr(c, name) for name in c._fields}
    return d


def _surgery(args, target: Framing) -> tuple[foliation.LinkAnalysis, surgery.SurgeryDiagram]:
    """``args.link`` analysed, and its surgery at slopes ``args.r1``, ``args.r2`` in
    ``args.framing`` converted to ``target``; a bad link is reported before a bad slope."""
    a = foliation.analyse(twobridge.parse_link(args.link))
    s1, s2 = Slope.of(args.r1), Slope.of(args.r2)
    return a, surgery.framing_convert(a.diagram(s1, s2, Framing(args.framing)), target)


def _integer(text: str) -> int:
    """An integer option, written ``[-]digits`` as the rationals are."""
    if not re.fullmatch(f"-?{DIGITS}", text.strip()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _positive(value: int, flag: str, limit: int | None = None) -> int:
    if value < 1:
        raise ValueError(f"{flag} must be a positive integer, got {value}")
    if limit is not None and value > limit:
        raise ValueError(f"{flag} must be at most {limit}, got {value}")
    return value


def _window(args, a: foliation.LinkAnalysis) -> int:
    return a.window if args.window is None else _positive(args.window, "--window")


#: Most grid points one ``sweep`` may report on.
MAX_SWEEP_POINTS = 250_000

#: Largest ``--max`` of ``verify-ln`` and ``verify-covers``; their work grows linearly with it.
MAX_VERIFY_INDEX = 1000

_WITNESS = {
    foliation.Verdict.L_SPACE: "lspace",
    foliation.Verdict.NLS_WITH_TAUT_FOLIATION: "foliation",
}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns the report body


def _cmd_classify(args) -> dict:
    a = foliation.analyse(twobridge.parse_link(args.link))
    return {
        "input": {"link": args.link},
        "classification": _classification_dict(a),
    }


def _cmd_expand(args) -> dict:
    text = args.fraction.strip()
    if text.startswith(("b(", "L(")):
        frac = twobridge.parse_link(text).fraction()
    else:
        frac = read_rational(text, "fraction")
    e = even_expand(frac)
    assert cf_eval(e.coeffs) == Slope(frac)
    return {
        "input": {"fraction": text},
        "expansion": {
            "value": str(frac),
            "coefficients": list(e.coeffs),
            "all_plus_minus_two": e.all_plus_minus_two,
        },
    }


def _cmd_equal(args) -> dict:
    a = twobridge.parse_link(args.link1)
    b = twobridge.parse_link(args.link2)
    return {
        "input": {"link1": args.link1, "link2": args.link2},
        "equal": {
            "oriented": twobridge.schubert_oriented_equal(a, b).value,
            "unoriented": twobridge.schubert_unoriented_equal(a, b),
        },
    }


def _cmd_region(args) -> dict:
    a = foliation.analyse(twobridge.parse_link(args.link))
    framing = Framing(args.framing)
    pairs = {f: a.regions(f) for f in (Framing.CANONICAL, Framing.SEIFERT)}
    window = _window(args, a)
    body = {
        "input": {"link": args.link, "framing": framing.value},
        "classification": _classification_dict(a),
        "regions": {
            f.value: {"lspace": ls.to_json_dict(), "foliation": fol.to_json_dict()}
            for f, (ls, fol) in pairs.items()
        },
    }
    if args.svg is not None:
        svg = region_svg(*pairs[framing], window, title=f"{a.link} [{framing.value}]")
        try:
            with open(args.svg, "w") as fh:
                fh.write(svg)
        except OSError as exc:
            raise ValueError(f"cannot write {args.svg!r}: {exc.strerror}") from exc
        body["svg_path"] = args.svg
    return body


def _cmd_verdict(args) -> dict:
    a, d = _surgery(args, Framing.CANONICAL)
    s1, s2 = d.slopes
    return {
        "input": {"link": args.link, "slope": [args.r1, args.r2], "framing": args.framing},
        "classification": _classification_dict(a),
        "verdicts": ([str(s1)], [str(s2)], list(a.verdict_rows(*point_axes(d.slopes)))),
    }


def _cmd_sweep(args) -> dict:
    a = foliation.analyse(twobridge.parse_link(args.link))
    window = _window(args, a)
    step = read_rational(args.step, "--step")
    if step <= 0:
        raise ValueError("--step must be positive")
    if args.window is None:
        # the widest window whose grid, floor(2 * window / step) + 1 slopes a side, fits
        window = max(1, min(window, math.ceil(math.isqrt(MAX_SWEEP_POINTS) * step / 2) - 1))
    n = 2 * window // step + 1
    if n * n > MAX_SWEEP_POINTS:
        raise ValueError(
            f"sweep of {n * n} points exceeds the limit of {MAX_SWEEP_POINTS}: "
            "narrow --window or widen --step"
        )
    num, den = step.numerator, step.denominator
    axis = [k * num - window * den for k in range(n)]  # numerators over den
    # each text as str(Fraction(v, den)) writes it: reduced by g, and alone over 1
    texts = [f"{v // g}/{den // g}" if (g := math.gcd(v, den)) < den else str(v // g) for v in axis]
    return {
        "input": {"link": args.link, "window": window, "step": str(step)},
        "classification": _classification_dict(a),
        "verdicts": (texts, texts, list(a.verdict_rows(axis, axis, den))),
    }


def _cmd_homology(args) -> dict:
    report = surgery.presentation_matrix(_surgery(args, Framing.CANONICAL)[1])
    body = report.to_json_dict()
    body["qhs"] = report.order is not None
    return {
        "input": {"link": args.link, "slope": [args.r1, args.r2], "framing": args.framing},
        "homology": body,
    }


def _cmd_framing(args) -> dict:
    _, out = _surgery(args, Framing(args.to))
    return {
        "input": {"link": args.link, "slope": [args.r1, args.r2]},
        "framing": {
            "from": args.framing,
            "to": args.to,
            "slopes": [str(s) for s in out.slopes],
        },
    }


def _cmd_verify_ln(args) -> dict:
    top = _positive(args.max, "--max", MAX_VERIFY_INDEX)
    checks = [{"name": f"ln-chain n={n}", "ok": lspace.verify_ln_chain(n)}
              for n in range(1, top + 1)]
    return {"input": {"max": args.max}, "checks": checks}


def _cmd_verify_covers(args) -> dict:
    checks = [{"name": f"cover {w.name}", "ok": w.region.equals(w.target)}
              for w in foliation.cover_witnesses()]
    for n in range(2, _positive(args.max, "--max", MAX_VERIFY_INDEX) + 1):
        link = twobridge.ln_link(n)  # the rows of Ln(n) and its mirror
        ok = all(foliation.row_holds(foliation.analyse(x)) for x in (link, link.mirror()))
        checks.append({"name": f"ln-strips n={n}", "ok": ok})
    return {"input": {"max": args.max}, "checks": checks}


# ---------------------------------------------------------------------------
# rendering

_VERDICT_GLYPH = {
    foliation.Verdict.L_SPACE: "L",
    foliation.Verdict.NLS_WITH_TAUT_FOLIATION: "f",
    foliation.Verdict.NOT_QHS_TAUT_BY_BETTI: "b",
    foliation.Verdict.INFINITY_FILLING: "i",
}


def _print_sweep_table(xs: list[str], ys: list[str], rows: list[tuple]) -> None:
    """The grid with y rising up the page; both axes come ascending."""
    width = max(map(len, xs))
    label = max(map(len, ys))
    glyph = {v: g.rjust(width) for v, g in _VERDICT_GLYPH.items()}
    for y, line in reversed(list(zip(ys, zip(*rows)))):
        print(f"{y:>{label}} | {' '.join([glyph[v] for v in line])}")
    print(f"{'':>{label}} +-{'-' * (len(xs) * (width + 1) - 1)}")
    print(f"{'':>{label}}   {' '.join(x.rjust(width) for x in xs)}")
    print("L = L-space, f = taut foliation (not L-space), b = b1 > 0 (taut by homology)")


def _print_text(body: dict) -> None:
    cls = body.get("classification")
    if cls:
        print(f"{cls['link']}  ->  {cls['tag']}")
        if cls["fibered_expansion"] is not None:
            print(f"  expansion   L({','.join(str(a) for a in cls['fibered_expansion'])})")
            print(f"  linking     {cls['linking_number']}")
            print(f"  monodromy   {cls['monodromy']}")
            c = cls["sign_census"]
            print(
                "  census      rivers +{pos_rivers}/-{neg_rivers}, "
                "bridges +{pos_bridges}/-{neg_bridges}".format(**c)
            )
    if "expansion" in body:
        e = body["expansion"]
        print(f"{e['value']} = L({','.join(str(a) for a in e['coefficients'])})")
        print(f"  all entries ±2: {'yes' if e['all_plus_minus_two'] else 'no'}")
    if "equal" in body:
        print(f"oriented:   {body['equal']['oriented']}")
        print(f"unoriented: {'equal' if body['equal']['unoriented'] else 'distinct'}")
    if "regions" in body:
        framing = body["input"].get("framing", "canonical")
        r = body["regions"][framing]
        for key, label in (("lspace", "L-space region  "), ("foliation", "foliation region")):
            print(f"{label} [{framing}]:")
            for ix, iy in r[key]["rects"] or [["(empty)", ""]]:
                print(f"    {ix} x {iy}")
    if "svg_path" in body:
        print(f"svg written to {body['svg_path']}")
    if "verdicts" in body:
        xs, ys, rows = body["verdicts"]
        if body["command"] == "sweep":
            _print_sweep_table(xs, ys, rows)
        else:
            for x, row in zip(xs, rows):
                for y, v in zip(ys, row):
                    print(f"({x}, {y})  ->  {v.value}")
    if "homology" in body:
        h = body["homology"]
        for row in h["presentation"]:
            print("  [" + "  ".join(f"{x:>4}" for x in row) + "]")
        print(f"  det = {h['determinant']}, |H_1| = {h['order']}, QHS: {h['qhs']}")
    if "framing" in body:
        f = body["framing"]
        print(f"{f['from']} -> {f['to']}: ({', '.join(f['slopes'])})")
    for c in body.get("checks", []):
        print(f"{'ok  ' if c['ok'] else 'FAIL'}  {c['name']}")


def _write_json(report: dict, out) -> None:
    """``json.dump(report, out, indent=2)`` and a newline, byte for byte; ``json`` encodes
    in pure Python under ``indent``, so each grid row is one ``str.join`` and one write.  The
    entry texts of a row are built once per call for each distinct row, keyed by its verdicts,
    so a row that repeats (a shared ``verdict_rows`` tuple, or an equal list) costs one join."""
    verdicts = report.get("verdicts")
    if not verdicts:
        out.write(json.dumps(report, indent=2) + "\n")
        return
    head, _, tail = json.dumps({**report, "verdicts": []}, indent=2).partition('\n  "verdicts": []')
    enc = encode_basestring_ascii
    xs, ys, rows = verdicts
    eys = [enc(y) for y in ys]
    after = {}  # an entry after its x slope, by verdict and y
    for v in foliation.Verdict:
        rest = (f'\n      ],\n      "verdict": "{v.value}",\n'
                f'      "witness_region": {json.dumps(_WITNESS.get(v))}\n    }}')
        after[v] = [',\n        ' + ey + rest for ey in eys]
    # by a row's verdicts, its entries' texts after their x slope; the leading "" makes the
    # join put an entry's head before the first entry too
    entries = {}
    out.write(head + '\n  "verdicts": [')
    for i, (x, row) in enumerate(zip(xs, rows)):
        key = tuple(row)
        if key not in entries:
            entries[key] = ["", *[after[v][j] for j, v in enumerate(row)]]
        sep = ',\n    {\n      "slope": [\n        ' + enc(x)  # an entry up to its x slope
        # the first entry has no comma before it
        out.write(sep.join(entries[key])[i == 0:])
    out.write("\n  ]" + tail + "\n")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as an error with exit code 1, not argparse's 2."""

    def error(self, message):
        raise ValueError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command table: each subparser sets ``handler``, which returns the report body."""
    parser = _Parser(
        prog="tbsl",
        description="Exact L-space / taut-foliation surgery calculus for "
        "fibered two-bridge links.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, handler, *positionals):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        for arg in positionals:
            p.add_argument(arg)
        return p

    def framing_option(p, flag="--framing", default="canonical", help_=None):
        p.add_argument(flag, choices=[f.value for f in Framing], default=default, help=help_)

    surgery_args = ("link", "r1", "r2")  # what _surgery reads, with --framing

    p = add("classify", "classify a two-bridge link", _cmd_classify)
    p.add_argument("link", help='link spec: "b(p,q)", "L(a1,...,an)" or "p/q"')

    p = add("expand", "all-even continued-fraction expansion of a fraction", _cmd_expand)
    p.add_argument("fraction", help='fraction "p/q" or a link spec')

    add("equal", "compare two links in Schubert normal form", _cmd_equal, "link1", "link2")

    p = add("region", "L-space and foliation regions of a link", _cmd_region, "link")
    framing_option(p)
    p.add_argument("--svg", metavar="PATH", help="write an SVG plot")
    p.add_argument("--window", type=_integer, default=None, metavar="W")

    p = add("verdict", "verdict for one surgery multislope", _cmd_verdict, *surgery_args)
    framing_option(p)

    p = add("sweep", "verdicts over a grid of multislopes", _cmd_sweep, "link")
    p.add_argument("--window", type=_integer, default=None, metavar="W")
    p.add_argument("--step", default="1", metavar="S")

    p = add("homology", "homology of a surgery, from its presentation matrix", _cmd_homology,
            *surgery_args)
    framing_option(p)

    p = add("framing", "convert a multislope between framings", _cmd_framing, *surgery_args)
    framing_option(p, default="seifert", help_="framing of the input slopes")
    framing_option(p, "--to")

    p = add("verify-ln", "replay the quadrant derivation for the exceptional links", _cmd_verify_ln)
    p.add_argument("--max", type=_integer, default=25)

    p = add("verify-covers", "check the constructive region covers", _cmd_verify_covers)
    p.add_argument("--max", type=_integer, default=10)

    return parser


def main(argv=None) -> int:
    name = os.environ.get("TBSL_LOG")
    if name:
        import logging

        level = getattr(logging, name.upper(), None)  # BASIC_FORMAT is no level
        logging.basicConfig(level=level if isinstance(level, int) else logging.DEBUG)
    # parse into our own namespace: after a usage error it still says which
    # subcommand was chosen and whether --json came before it
    args = argparse.Namespace(json=False, command=None)
    t0 = time.perf_counter()
    report = {"command": None, "ok": True}
    code = 0
    try:
        build_parser().parse_args(argv, args)
        # argparse hands a positional that follows a second "--" over as an empty list
        if empty := [name for name, value in vars(args).items() if value == []]:
            raise ValueError(f"argument {empty[0]}: expected one argument")
        report.update(args.handler(args))
        if any(not c["ok"] for c in report.get("checks", [])):
            report["ok"] = False
            code = 1
    except (ValueError, ZeroDivisionError) as exc:
        if logging := sys.modules.get("logging"):
            logging.getLogger("tbsl").debug("command failed", exc_info=True)
        report["ok"] = False
        report["error"] = str(exc)
        code = 1
    report["command"] = args.command
    report["timing_ms"] = int((time.perf_counter() - t0) * 1000)
    try:
        # an unknown subcommand is refused before ``command`` is set
        if args.json and args.command is not None:
            _write_json(report, sys.stdout)
        elif "error" not in report:
            _print_text(report)
        else:
            print(f"error: {report['error']}", file=sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # reader gone: discard the rest, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

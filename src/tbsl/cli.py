"""Command-line front end.

All mathematics is delegated to the library modules; this module only
parses arguments, assembles report dictionaries and renders them as text
or JSON (see :mod:`tbsl.schema` for the published schema).  Set the
``TBSL_LOG`` environment variable to a logging level name for diagnostics.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from fractions import Fraction

from . import foliation, lspace, surgery, twobridge
from .errors import KnotNotLink, OutOfScope, UnsupportedSlope
from .exactq import Slope, cf_eval, even_expand
from .regions import Framing, Region2
from .svgplot import region_svg

log = logging.getLogger("tbsl")


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
    if cls.fibered_expansion is not None:
        d["fibered_expansion"] = list(cls.fibered_expansion.coeffs)
        d["linking_number"] = a.linking
        d["monodromy"] = str(a.word)
        d["sign_census"] = {
            "pos_rivers": a.census.pos_rivers,
            "neg_rivers": a.census.neg_rivers,
            "pos_bridges": a.census.pos_bridges,
            "neg_bridges": a.census.neg_bridges,
        }
    return d


def _exact(parse, text: str, what: str):
    """Command-line text read by ``parse`` (``Fraction`` or ``Slope.parse``).

    Every slope and fraction the commands take passes through here, so a
    zero denominator ends as a reported error rather than a traceback.
    """
    try:
        return parse(text)
    except ZeroDivisionError:
        raise ValueError(f"{what} {text!r} has a zero denominator") from None


def _slopes(args) -> tuple[Slope, Slope]:
    return _exact(Slope.parse, args.r1, "slope"), _exact(Slope.parse, args.r2, "slope")


def _window(args, a: foliation.LinkAnalysis) -> int:
    if args.window is None:
        return a.window
    if args.window < 1:
        raise ValueError(f"--window must be a positive integer, got {args.window}")
    return args.window


#: Most grid points one ``sweep`` may report on.
MAX_SWEEP_POINTS = 250_000

_WITNESS = {
    foliation.Verdict.L_SPACE: "lspace",
    foliation.Verdict.NLS_WITH_TAUT_FOLIATION: "foliation",
}


def _verdict_entry(v: foliation.Verdict, x: str, y: str) -> dict:
    return {"slope": [x, y], "verdict": v.value, "witness_region": _WITNESS.get(v)}


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
        frac = _exact(Fraction, text, "fraction")
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
    regions = {}
    for f in (Framing.CANONICAL, Framing.SEIFERT):
        ls, fol = a.regions(f)
        regions[f.value] = {"lspace": ls.to_json_dict(), "foliation": fol.to_json_dict()}
    body = {
        "input": {"link": args.link, "framing": framing.value},
        "classification": _classification_dict(a),
        "regions": regions,
    }
    if args.svg:
        ls, fol = a.regions(framing)
        svg = region_svg(ls, fol, _window(args, a), title=f"{a.link} [{framing.value}]")
        with open(args.svg, "w") as fh:
            fh.write(svg)
        body["svg_path"] = args.svg
    return body


def _cmd_verdict(args) -> dict:
    a = foliation.analyse(twobridge.parse_link(args.link))
    framing = Framing(args.framing)
    s1, s2 = _slopes(args)
    s1, s2 = surgery.framing_convert(a.diagram(s1, s2, framing), Framing.CANONICAL).slopes
    return {
        "input": {"link": args.link, "slope": [args.r1, args.r2], "framing": framing.value},
        "classification": _classification_dict(a),
        "verdicts": [_verdict_entry(a.verdict(s1, s2), str(s1), str(s2))],
    }


def _cmd_sweep(args) -> dict:
    a = foliation.analyse(twobridge.parse_link(args.link))
    window = _window(args, a)
    step = _exact(Fraction, args.step, "--step")
    if step <= 0:
        raise ValueError("--step must be positive")
    n = 2 * window // step + 1
    if n * n > MAX_SWEEP_POINTS:
        raise ValueError(
            f"sweep of {n * n} points exceeds the limit of {MAX_SWEEP_POINTS}: "
            "narrow --window or widen --step"
        )
    axis = [(s, str(s)) for s in (Slope(-window + k * step) for k in range(n))]
    # the regions are computed once; every grid point is a membership test
    verdicts = [_verdict_entry(a.verdict(x, y), sx, sy) for x, sx in axis for y, sy in axis]
    return {
        "input": {"link": args.link, "window": window, "step": str(step)},
        "classification": _classification_dict(a),
        "verdicts": verdicts,
    }


def _cmd_homology(args) -> dict:
    a = foliation.analyse(twobridge.parse_link(args.link))
    framing = Framing(args.framing)
    s1, s2 = _slopes(args)
    d = surgery.framing_convert(a.diagram(s1, s2, framing), Framing.CANONICAL)
    report = surgery.presentation_matrix(d)
    body = report.to_json_dict()
    body["qhs"] = surgery.is_qhs(d)
    return {
        "input": {"link": args.link, "slope": [args.r1, args.r2], "framing": framing.value},
        "homology": body,
    }


def _cmd_framing(args) -> dict:
    a = foliation.analyse(twobridge.parse_link(args.link))
    src = Framing(args.framing)
    dst = Framing(args.to)
    s1, s2 = _slopes(args)
    out = surgery.framing_convert(a.diagram(s1, s2, src), dst)
    return {
        "input": {"link": args.link, "slope": [args.r1, args.r2]},
        "framing": {
            "from": src.value,
            "to": dst.value,
            "slopes": [str(s) for s in out.slopes],
        },
    }


def _cmd_verify_ln(args) -> dict:
    checks = []
    for n in range(1, args.max + 1):
        ok = lspace.verify_ln_chain(n)
        checks.append({"name": f"ln-chain n={n}", "ok": ok})
    return {"input": {"max": args.max}, "checks": checks}


def _cmd_verify_covers(args) -> dict:
    checks = []
    for witness in foliation.cover_witnesses():
        ok = witness.region.equals(witness.target)
        checks.append({"name": f"cover {witness.name}", "ok": ok})
    for n in range(2, args.max + 1):
        strips = foliation.ln_taut_witness_strips(n)
        a = foliation.analyse(twobridge.ln_link(n))
        quadrant, fol = a.lspace, a.foliation
        ok = (
            strips.union(quadrant).equals(Region2.finite_plane(Framing.CANONICAL))
            and strips.intersect(quadrant).is_empty()
            and fol.covers(strips)
        )
        checks.append({"name": f"ln-strips n={n}", "ok": ok})
    return {"input": {"max": args.max}, "checks": checks}


# ---------------------------------------------------------------------------
# rendering

_VERDICT_GLYPH = {
    "LSpace": "L",
    "NLSWithTautFoliation": "f",
    "NotQHS_TautByBetti": "b",
    "InfinityFilling": "i",
}


def _print_sweep_table(verdicts: list[dict]) -> None:
    cells = {
        (Fraction(v["slope"][0]), Fraction(v["slope"][1])): _VERDICT_GLYPH[v["verdict"]]
        for v in verdicts
    }
    xs = sorted({x for x, _ in cells})
    ys = sorted({y for _, y in cells}, reverse=True)
    width = max(len(str(x)) for x in xs)
    label = max(len(str(y)) for y in ys)
    for y in ys:
        row = " ".join(cells[(x, y)].rjust(width) for x in xs)
        print(f"{str(y):>{label}} | {row}")
    print(f"{'':>{label}} +-{'-' * (len(xs) * (width + 1) - 1)}")
    print(f"{'':>{label}}   {' '.join(str(x).rjust(width) for x in xs)}")
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
        print(f"L-space region   [{framing}]:")
        for ix, iy in r["lspace"]["rects"] or [["(empty)", ""]]:
            print(f"    {ix} x {iy}")
        print(f"foliation region [{framing}]:")
        for ix, iy in r["foliation"]["rects"] or [["(empty)", ""]]:
            print(f"    {ix} x {iy}")
    if "svg_path" in body:
        print(f"svg written to {body['svg_path']}")
    verdicts = body.get("verdicts", [])
    if body.get("command") == "sweep" and verdicts:
        _print_sweep_table(verdicts)
    else:
        for v in verdicts:
            print(f"({v['slope'][0]}, {v['slope'][1]})  ->  {v['verdict']}")
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


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as an error with exit code 1, not argparse's 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tbsl",
        description="Exact L-space / taut-foliation surgery calculus for "
        "fibered two-bridge links.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_):
        return sub.add_parser(name, help=help_)

    p = add("classify", "classify a two-bridge link")
    p.add_argument("link", help='link spec: "b(p,q)", "L(a1,...,an)" or "p/q"')

    p = add("expand", "all-even continued-fraction expansion of a fraction")
    p.add_argument("fraction", help='fraction "p/q" or a link spec')

    p = add("equal", "compare two links in Schubert normal form")
    p.add_argument("link1")
    p.add_argument("link2")

    p = add("region", "L-space and foliation regions of a link")
    p.add_argument("link")
    p.add_argument("--framing", choices=["seifert", "canonical"], default="canonical")
    p.add_argument("--svg", metavar="PATH", help="write an SVG plot")
    p.add_argument("--window", type=int, default=None, metavar="W")

    p = add("verdict", "verdict for one surgery multislope")
    p.add_argument("link")
    p.add_argument("r1")
    p.add_argument("r2")
    p.add_argument("--framing", choices=["seifert", "canonical"], default="canonical")

    p = add("sweep", "verdicts over a grid of multislopes")
    p.add_argument("link")
    p.add_argument("--window", type=int, default=None, metavar="W")
    p.add_argument("--step", default="1", metavar="S")

    p = add("homology", "homology of a surgery, from its presentation matrix")
    p.add_argument("link")
    p.add_argument("r1")
    p.add_argument("r2")
    p.add_argument("--framing", choices=["seifert", "canonical"], default="canonical")

    p = add("framing", "convert a multislope between framings")
    p.add_argument("link")
    p.add_argument("r1")
    p.add_argument("r2")
    p.add_argument("--framing", choices=["seifert", "canonical"], default="seifert",
                   help="framing of the input slopes")
    p.add_argument("--to", choices=["seifert", "canonical"], default="canonical")

    p = add("verify-ln", "replay the quadrant derivation for the exceptional links")
    p.add_argument("--max", type=int, default=25)

    p = add("verify-covers", "check the constructive region covers")
    p.add_argument("--max", type=int, default=10)

    return parser


_HANDLERS = {
    "classify": _cmd_classify,
    "expand": _cmd_expand,
    "equal": _cmd_equal,
    "region": _cmd_region,
    "verdict": _cmd_verdict,
    "sweep": _cmd_sweep,
    "homology": _cmd_homology,
    "framing": _cmd_framing,
    "verify-ln": _cmd_verify_ln,
    "verify-covers": _cmd_verify_covers,
}


def main(argv=None) -> int:
    level = os.environ.get("TBSL_LOG")
    if level:
        logging.basicConfig(level=getattr(logging, level.upper(), logging.DEBUG))
    # parse into our own namespace: after a usage error it still says which
    # subcommand was chosen and whether --json came before it
    args = argparse.Namespace(json=False, command=None)
    t0 = time.perf_counter()
    report = {"command": None, "ok": True}
    code = 0
    try:
        build_parser().parse_args(argv, args)
        report.update(_HANDLERS[args.command](args))
        if any(not c["ok"] for c in report.get("checks", [])):
            report["ok"] = False
            code = 1
    except (ValueError, KnotNotLink, OutOfScope, UnsupportedSlope) as exc:
        log.debug("command failed", exc_info=True)
        report["ok"] = False
        report["error"] = str(exc)
        code = 1
    report["command"] = args.command
    report["timing_ms"] = int((time.perf_counter() - t0) * 1000)
    try:
        if args.json and args.command in _HANDLERS:
            json.dump(report, sys.stdout, indent=2)
            sys.stdout.write("\n")
        elif report["ok"]:
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

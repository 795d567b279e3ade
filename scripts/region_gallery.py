#!/usr/bin/env python3
"""Render SVG slope-plane plots for a list of links."""

import argparse
import pathlib

from tbsl import analyse, parse_link
from tbsl.svgplot import region_svg


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "links",
        nargs="*",
        default=["b(8,5)", "b(14,-3)", "b(20,-3)", "b(30,-11)", "L(-2,-2,-2)"],
        help='link specs, e.g. "b(8,5)" or "L(2,-2,-2)"',
    )
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args()

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for spec in args.links:
        a = analyse(parse_link(spec))
        title = f"{a.link} [{a.cls.tag()}]"
        svg = region_svg(a.lspace, a.foliation, a.window, title=title)
        path = outdir / f"{str(a.link).replace('(', '_').strip(')').replace(',', '_')}.svg"
        path.write_text(svg)
        print(f"{title} -> {path}")


if __name__ == "__main__":
    main()

"""Deterministic SVG rendering of slope-plane regions.

Regions are drawn from their ``canonical()`` rectangles, whose arcs never
wrap through ``inf``, clipped to the window [-w, w]².  Grid lines sit at
±w and at the multiples of ceil(w / 50), so every integer up to w = 50.
All pixel coordinates are computed with exact rationals and formatted as
fixed-point decimals by integer arithmetic, so the same input always
produces byte-identical output.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .exactq import CircleInterval
from .regions import Region2

_SIZE = 420
_MARGIN = 30
_PLOT = _SIZE - 2 * _MARGIN


def _fixed(x: Fraction) -> str:
    """Two-place fixed-point decimal string of a rational, computed without floats."""
    x = Fraction(x)
    sign = "-" if x < 0 else ""
    scaled = abs(x.numerator) * 100
    q, r = divmod(scaled, x.denominator)
    # round half away from zero, deterministically
    if 2 * r >= x.denominator:
        q += 1
    digits = str(q).rjust(3, "0")
    return f"{sign}{digits[:-2]}.{digits[-2:]}"


def _interval_segment(iv: CircleInterval, w: int) -> tuple[Fraction, Fraction] | None:
    """Real segment of a canonical arc clipped to the window [-w, w], or ``None``.

    Canonical arcs never wrap through ``inf``: an ``inf`` endpoint is
    -infinity on the left and +infinity on the right, and an arc with two
    equal finite endpoints is a single point, which has no area.
    """
    win = Fraction(w)
    a = -win if iv.lo.is_infinity else max(iv.lo.value, -win)
    b = win if iv.hi.is_infinity else min(iv.hi.value, win)
    return (a, b) if a < b else None


def _px(x: Fraction, w: int) -> Fraction:
    return _MARGIN + (Fraction(x) + w) * _PLOT / (2 * w)


def _py(y: Fraction, w: int) -> Fraction:
    return _SIZE - _MARGIN - (Fraction(y) + w) * _PLOT / (2 * w)


def _shade(region: Region2, w: int, colour: str, opacity: str) -> list[str]:
    parts = []
    for ix, iy in region.canonical().rects:
        xseg, yseg = _interval_segment(ix, w), _interval_segment(iy, w)
        if xseg and yseg:
            (x0, x1), (y0, y1) = xseg, yseg
            px, py = _px(x0, w), _py(y1, w)
            pw, ph = _px(x1, w) - px, _py(y0, w) - py
            parts.append(
                f'<rect x="{_fixed(px)}" y="{_fixed(py)}" '
                f'width="{_fixed(pw)}" height="{_fixed(ph)}" '
                f'fill="{colour}" fill-opacity="{opacity}"/>'
            )
    return parts


def region_svg(
    lspace: Region2, foliation: Region2, window: int, title: str = ""
) -> str:
    """Plot the L-space region (orange) and foliation region (blue)."""
    w = max(1, operator.index(window))
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect x="0" y="0" width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    out.extend(_shade(foliation, w, "#4477cc", "0.45"))
    out.extend(_shade(lspace, w, "#ee8833", "0.75"))
    step = -(-w // 50)  # at most 101 ticks, plus the frame at ±w
    for t in sorted({-w, w, *range(-(w // step) * step, w + 1, step)}):
        x, y = _fixed(_px(Fraction(t), w)), _fixed(_py(Fraction(t), w))
        major = t in (-w, 0, w)
        stroke = "#333333" if major else "#bbbbbb"
        out.append(
            f'<line x1="{x}" y1="{_MARGIN}" x2="{x}" y2="{_SIZE - _MARGIN}" '
            f'stroke="{stroke}" stroke-width="1"/>'
        )
        out.append(
            f'<line x1="{_MARGIN}" y1="{y}" x2="{_SIZE - _MARGIN}" y2="{y}" '
            f'stroke="{stroke}" stroke-width="1"/>'
        )
    out.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{_PLOT}" height="{_PLOT}" '
        f'fill="none" stroke="black" stroke-width="1.5"/>'
    )
    # window labels; the boundary of the frame stands in for slope inf
    out.append(
        f'<text x="{_MARGIN}" y="{_SIZE - 8}" font-size="12" font-family="monospace">'
        f"[-{w}, {w}]^2  (frame boundary = slope inf)</text>"
    )
    if title:
        out.append(
            f'<text x="{_MARGIN}" y="20" font-size="13" font-family="monospace">'
            f"{title}</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"

"""L-space slope sets: interval propagation and the closed-form regions.

Two propagation devices drive everything:

* on a rational homology solid torus, two known L-space filling slopes
  spread to the whole closed arc between them that avoids the homological
  longitude (``rr_propagate``);

* on a two-component link with unknotted components and a known L-space
  multislope (r1, r2) with r1·r2 > lk² and equal signs, the full quadrant
  beyond the seed is L-space (``rect_propagate``).

For the exceptional family b(6n+2, -3) the quadrant [n, inf) × [n, inf) is
the exact finite L-space set; its mirror gets the negated quadrant; every
other fibered hyperbolic two-bridge link has a witness of foliations on the
whole plane, so no finite L-space surgery.  ``lspace_region`` reads that closed
form, ``LinkAnalysis.lspace``; ``verify_ln_chain`` replays the derivation of
the quadrant from the propagation devices instead of trusting it.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from fractions import Fraction

from .exactq import INFINITY, CircleInterval, Slope, as_rat
from .foliation import analyse
from .regions import Framing, Region2
from .surgery import SurgeryDiagram, drilled_longitude, rolfsen_fill
from .twobridge import TwoBridgeLink, ln_link


def rr_propagate(known: Iterable, longitude) -> tuple[CircleInterval, ...]:
    """Closure of known L-space slopes under pairwise arc filling.

    Adds, for each pair of known slopes, the closed arc between them that
    avoids the longitude; the result is the minimal union of closed arcs,
    which for a nonempty finite set is the one arc from the first to the last
    known slope met walking up the circle from the longitude (a single point
    when only one slope is known).
    """
    longitude = Slope.of(longitude)
    points = {Slope.of(s) for s in known}
    if not points:
        raise ValueError("need at least one known slope")
    if longitude in points:
        raise ValueError("longitude cannot be a known L-space slope")
    ordered = sorted(points, key=lambda s: (s < longitude, s))
    return (CircleInterval.closed(ordered[0], ordered[-1]),)


def rect_propagate(seed: tuple, lk: int) -> Region2:
    """Quadrant of L-space multislopes spread from one seed.

    Positive seeds give [r1, inf] × [r2, inf]; a negative seed the negated
    quadrant of (-r1, -r2).  Requires r1·r2 > lk², so the signs are equal.
    The arcs reach ``inf``; the region holds the finite multislopes on them.
    """
    r1, r2 = as_rat(seed[0]), as_rat(seed[1])
    if r1 * r2 <= lk * lk:
        raise ValueError(f"seed ({r1},{r2}) does not satisfy r1*r2 > lk^2 = {lk * lk}")
    if r1 < 0:
        return rect_propagate((-r1, -r2), lk).negated()
    # sound since each arc avoids the longitude lk²/r of the torus left by filling
    # the other coordinate at r: r1·r2 > lk² puts lk²/r1 below r2 and lk²/r2 below r1
    rect = (CircleInterval.closed(r1, INFINITY), CircleInterval.closed(r2, INFINITY))
    return Region2(Framing.CANONICAL, (rect,))


def lspace_region(link: TwoBridgeLink) -> Region2:
    """Exact set of finite L-space multislopes, canonical framing."""
    return analyse(link).lspace


#: Three-component seed link: two unknots with linking 0, a third axial
#: component linking each of them once; canonical-framing slopes (1, 1) and
#: the third component drilled.
_LN_SEED = SurgeryDiagram(((0, 0, 1), (0, 0, 1), (1, 1, 0)), (1, 1, None), Framing.CANONICAL)


def verify_ln_chain(n: int) -> bool:
    """Mechanically replay the derivation of the L-space quadrant for index n.

    Steps: the drilled third component of the seed diagram has homological
    longitude 2; the inf and 1 fillings are L-spaces (lens space and the
    three-sphere), so arc propagation gives the closed arc [inf, 1]; the
    slope -1/(n-1) lies in it (inf itself for n = 1); filling there lands on
    the (n, n) multislope of the n-th exceptional link with linking n - 1;
    quadrant propagation from that seed reproduces ``lspace_region``.
    """
    if (n := operator.index(n)) < 1:
        raise ValueError("n must be a positive integer")
    longitude = drilled_longitude(_LN_SEED, 2)
    if longitude != Slope(2):
        return False
    arcs = rr_propagate({INFINITY, Slope(1)}, longitude)
    t = INFINITY if n == 1 else Slope(Fraction(-1, n - 1))
    if not any(arc.contains(t) for arc in arcs):
        return False
    seed = _LN_SEED.with_slope(2, t)
    filled = rolfsen_fill(seed, 2)
    if filled.slopes != (Slope(n), Slope(n)):
        return False
    lk = filled.linking[0][1]
    if abs(lk) != n - 1:
        return False
    # the coefficient map must be the same affine shift at any other seed
    a, b = 5, -3
    other = seed.with_slope(0, Slope(a)).with_slope(1, Slope(b))
    if rolfsen_fill(other, 2).slopes != (Slope(a + n - 1), Slope(b + n - 1)):
        return False
    region = rect_propagate((Fraction(n), Fraction(n)), abs(lk))
    return region.equals(lspace_region(ln_link(n)))

"""Taut-foliation regions and the surgery verdict engine.

The branched-surface constructions give, per sign pattern of the monodromy twists, regions
carrying coorientable taut foliations (``lemma_regions``), and ``_route`` carries a companion
link's realised boxes to the canonical framing.  One witness table, keyed off the ±2 chain
(``witness_key``), says which witness decides each fibered hyperbolic link: ``Ln(n)``'s strips
(one route at n = 2, translated) or one of the five ``cover_witnesses``, each the whole plane.  A
link's regions are one row, cached per ``Ln`` key: the L-space region, the witness, the gap and the
foliation region; every other link reads one shared row and computes no key.

``analyse`` builds one :class:`LinkAnalysis` per link; its ``verdict_rows``
is the package's one verdict engine, and the free function ``verdict`` is
its 1×1 case.  It reads a grid on integers, each axis numerators over one shared positive
denominator (``None`` for ``inf``).  Its Python work is per distinct row, not per point: the
L-space region is read one row at a time as a bitmask (``Region2.row_masks``), each mask's
row of verdicts is built once and shared, and the fillings that are not rational homology
spheres are found per row, by one exact division, and patched into a fresh copy.
"""

from __future__ import annotations

import functools
import operator
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import OutOfScope
from .exactq import INFINITY, CircleInterval, Frozen
from .monodromy import SignCensus
from .regions import BUILTIN_WEIGHT_FAMILIES, Framing, Region2, family_image, point_axes
from .surgery import SurgeryDiagram, framing_convert, rolfsen_fill
from .twobridge import LinkClass, LinkFamily, TwoBridgeLink, classify, linking_number


#: Realised slope intervals, keyed by their text: the weight-family images, and
#: ``Q``, the rational line, the one that is not a weight-family image.
_REALISED = {key: family_image(f) for key, f in BUILTIN_WEIGHT_FAMILIES.items()}
_REALISED["Q"] = CircleInterval.punctured(INFINITY)


def _realised(*keys: str) -> tuple[CircleInterval, ...]:
    return tuple(_REALISED[k] for k in keys)


def chain_census(chain: tuple[int, ...]) -> SignCensus:
    """The sign census of a ±2 chain's twist word: river -2s and bridge 2s twist positively."""
    rivers, bridges = chain[1::2], chain[0::2]
    return SignCensus(rivers.count(-2), rivers.count(2), bridges.count(2), bridges.count(-2))


def _pattern(c: SignCensus) -> tuple[bool, bool, bool, bool]:
    """The four clauses of :func:`lemma_regions`, in its order."""
    return (c.pos_rivers >= 1 or c.pos_bridges >= 2, c.neg_rivers >= 1 or c.neg_bridges >= 2,
            c.pos_rivers >= 1 and c.neg_rivers >= 1, c.pos_bridges >= 1 and c.neg_bridges >= 1)


def lemma_regions(census: SignCensus) -> Region2:
    """Seifert-framing multislopes carrying foliations, from the sign census.

    One positive river twist or two positive bridge twists give the open
    quadrant below slope one on both components, the negative versions its
    mirror, and mixed signs give the corresponding split quadrants.
    """
    below, above, pos, neg = _realised("(inf,1)", "(-1,inf)", "(0,inf)", "(inf,0)")
    clauses = ([(below, below)], [(above, above)], [(below, above), (above, below)],
               [(pos, neg), (neg, pos)])
    return Region2(Framing.SEIFERT, tuple(
        rect for fires, rects in zip(_pattern(census), clauses) if fires for rect in rects))


#: The row shared by every fibered hyperbolic link outside ``Ln``: the empty L-space region, the
#: plane that is its witness, and the same two regions again as its gap and foliation region.
_SHARED_ROW = (Region2.empty(Framing.CANONICAL), Region2.finite_plane(Framing.CANONICAL)) * 2


class Verdict(Enum):
    NOT_QHS_TAUT_BY_BETTI = "NotQHS_TautByBetti"
    L_SPACE = "LSpace"
    NLS_WITH_TAUT_FOLIATION = "NLSWithTautFoliation"
    INFINITY_FILLING = "InfinityFilling"

    __hash__ = object.__hash__  # identity, as Enum equality is; Enum.__hash__ runs in Python


class LinkAnalysis(Frozen):
    """A classified link and the facts the verdict engine reads about it.

    :func:`analyse` classifies the link once; every other fact (the signed
    linking number, the row) is computed on first use and kept.  The four
    regions are views of the row, which the link shares with every link of its
    key.  The twist word and its sign census are left to the code that reports
    them.  Reading the regions, or asking for a verdict, rejects torus and
    non-fibered links.
    """

    _fields = ("link", "cls")

    def __init__(self, link: TwoBridgeLink, cls: LinkClass):
        self.__dict__.update(link=link, cls=cls)

    @cached_property
    def linking(self) -> int | None:
        """Signed linking number, read off the kept ±2 chain; ``None`` without one."""
        chain = self.cls.chain
        return None if chain is None else linking_number(chain)

    @cached_property
    def row(self) -> tuple[Region2, Region2, Region2, Region2]:
        """The L-space region, witness, gap and foliation region, canonical framing: ``Ln(n)``'s
        row or its mirror's, else the shared row, with no key computed.  This is the scope gate
        of the package: torus and non-fibered links are rejected."""
        family = self.cls.family
        if family is LinkFamily.TORUS:
            raise OutOfScope(f"{self.link} is a torus link: out of scope "
                             "(surgeries are graph manifolds)")
        if family is LinkFamily.NON_FIBERED:
            raise OutOfScope(f"{self.link} is not fibered")
        return _SHARED_ROW if self.cls.n is None else _ln_row(family, self.cls.n)

    @property
    def lspace(self) -> Region2:
        """Finite L-space multislopes: ``Ln(n)``'s quadrant [n, inf)², negated for the mirror;
        empty for every other link, which its witness, the whole plane, proves."""
        return self.row[0]

    @property
    def witness(self) -> Region2:
        """The table's witness: ``Ln(n)``'s strips, negated for the mirror, else the plane."""
        return self.row[1]

    @property
    def gap(self) -> Region2:
        """The complement of the L-space region and the witness: empty but on ``Ln(1)``'s row."""
        return self.row[2]

    @property
    def foliation(self) -> Region2:
        """Finite multislopes with coorientable taut foliations: the witness and the gap."""
        return self.row[3]

    @property
    def window(self) -> int:
        """Default half-width of a plotted or swept grid: shows the quadrant corner."""
        return max(5, (self.cls.n or 0) + 2)

    def regions(self, framing: Framing) -> tuple[Region2, Region2]:
        """The L-space and foliation regions in the given framing."""
        if framing is Framing.CANONICAL:
            return self.lspace, self.foliation
        lk = self.linking
        return tuple(r.shifted(lk, lk).with_framing(framing) for r in (self.lspace, self.foliation))

    def diagram(self, s1, s2, framing: Framing) -> SurgeryDiagram:
        """The link as a two-component surgery diagram filled at (s1, s2)."""
        if self.linking is None:
            raise OutOfScope(f"{self.link} is not fibered")
        lk = self.linking
        return SurgeryDiagram(((0, lk), (lk, 0)), (s1, s2), framing)

    def verdict_rows(self, xs, ys, den: int):
        """Verdicts over the canonical-framing grid ``xs`` × ``ys``, one tuple per x: each axis
        holds integer numerators over the one ``den`` > 0, unreduced or not, ``None`` for ``inf``.

        Infinite fillings are reported as such (the three-sphere, lens spaces
        or S²×S¹); fillings with b1 > 0 carry taut foliations for homological
        reasons; the rest split into L-spaces and non-L-spaces with taut
        foliations.  A finite filling has b1 > 0 exactly when x·y = lk²
        (:func:`~tbsl.surgery.is_qhs`), on the numerators x·y = lk²·den²: in row x ≠ 0
        only at y = lk²·den²/x, when x divides lk²·den².
        Equal rows may be one object: every row without such a point is its
        L-space mask's one base tuple, and a row with one is a fresh tuple.
        """
        lspace = self.lspace  # rejects out-of-scope links before any slope is read
        betti_product = (self.linking * den) ** 2  # x·y = lk² on the numerators
        positions: dict[int | None, list[int]] = {}
        for j, y in enumerate(ys):
            positions.setdefault(y, []).append(j)
        infinite = positions.pop(None, [])
        by_membership = (Verdict.NLS_WITH_TAUT_FOLIATION, Verdict.L_SPACE)
        bases: dict[int, tuple[Verdict, ...]] = {}
        for x, mask in zip(xs, lspace.row_masks(xs, ys, den)):
            if x is None:
                yield (Verdict.INFINITY_FILLING,) * len(ys)
                continue
            if mask not in bases:
                base = [by_membership[mask >> j & 1] for j in range(len(ys))]
                for j in infinite:
                    base[j] = Verdict.INFINITY_FILLING
                bases[mask] = tuple(base)
            if x:
                betti = () if betti_product % x else positions.get(betti_product // x, ())
            else:
                betti = [j for js in positions.values() for j in js] if not betti_product else ()
            row = bases[mask]
            if betti:  # a fresh row; the others share their mask's base row
                row = list(row)
                for j in betti:
                    row[j] = Verdict.NOT_QHS_TAUT_BY_BETTI
                row = tuple(row)
            yield row


def analyse(link: TwoBridgeLink) -> LinkAnalysis:
    """Classify a link once; its other facts are read off the classification on demand."""
    return LinkAnalysis(link, classify(link))


def foliation_region(link: TwoBridgeLink) -> Region2:
    """Finite multislopes with coorientable taut foliations, canonical framing."""
    return analyse(link).foliation


def verdict(link: TwoBridgeLink, slope: tuple) -> Verdict:
    """Verdict for the canonical-framing multislope ``slope`` of ``link``."""
    return next(analyse(link).verdict_rows(*point_axes(slope)))[0]


# ---------------------------------------------------------------------------
# constructive cover witnesses


def _route(linking, fills, boxes, filled: Region2 | None = None) -> Region2:
    """Canonical-framing region of a companion's realised boxes, as one list of rectangles.

    The companion has linking matrix ``linking`` and is Seifert-framed with
    slope 0 on its first two components and ``fills`` on the others; each
    box lists one realised interval per component.  Every filling slope
    must lie in its interval.  Converting the framing and twisting the
    further components away, highest first, shifts the first two
    coordinates; the same probe gives the filled link's linking number lk.
    The list holds the moved boxes, each of them swapped, then the Seifert-framing
    rectangles of ``filled`` moved by (-lk, -lk); no set operation runs.
    """
    companion = SurgeryDiagram(linking, (0, 0, *fills), Framing.SEIFERT)
    for box in boxes:
        for s, iv in zip(companion.slopes[2:], box[2:]):
            if not iv.contains(s):
                raise ValueError(f"filling slope {s} leaves the realised interval {iv}")
    probe = framing_convert(companion, Framing.CANONICAL)
    for component in range(companion.n_components - 1, 1, -1):
        probe = rolfsen_fill(probe, component)
    c1, c2 = probe.slopes[0].value, probe.slopes[1].value
    rects = [(b[0].shifted(c1), b[1].shifted(c2)) for b in boxes]
    rects += [(iy, ix) for ix, iy in rects]
    if filled is not None:
        lk = probe.linking[0][1]
        rects += [(ix.shifted(-lk), iy.shifted(-lk)) for ix, iy in filled.rects]
    return Region2(Framing.CANONICAL, tuple(rects))


#: Three-component companion of the smallest all-negative link; its third
#: component is filled at Seifert slope -1.
_FAMILY1_LINKING = ((0, -1, 1), (-1, 0, -1), (1, -1, 0))

#: Seifert-framing boxes of the two auxiliary branched surfaces on the
#: family-1 companion, each with its realised third factor.
_FAMILY1_BOXES = (
    _realised("(inf,1)", "(0,inf)", "(inf,0)"),
    _realised("(inf,1)", "(inf,1)", "(inf,1)"),
)

#: Four-component companion of the rewritten interior links, filled at
#: Seifert slopes -1/k and -1/h.  Linking data transcribed so that the
#: framing change is (-1, -1, 0, 0) and the two twists land on the published
#: coefficients; see the tests for the consistency checks pinning it down.
_FAMILY2_LINKING = (
    (0, 1, 1, -1),
    (1, 0, -1, 1),
    (1, -1, 0, 0),
    (-1, 1, 0, 0),
)

#: Seifert-framing boxes (0, inf) × Q and (inf, 1)² of the family-2
#: companion, with the realised third and fourth factors; any filling at
#: -1/k and -1/h with k, h >= 1 lies inside them.
_FAMILY2_BOXES = (
    _realised("(0,inf)", "Q", "(inf,0)", "(inf,0)"),
    _realised("(inf,1)", "(inf,1)", "(inf,1)", "(inf,1)"),
)

#: Three-component companion of the exceptional links; its third component
#: is filled at Seifert slope -1/n.
_LN_LINKING = ((0, 1, 1), (1, 0, -1), (1, -1, 0))

#: Seifert-framing boxes realised by the four branched surfaces on the
#: exceptional links' companion; first two coordinates, with the realised
#: interval for the filled third coordinate alongside.
_LN_SURFACE_BOXES = (
    _realised("(inf,1)", "Q", "(-1,0)"),
    _realised("(0,2)", "(0,inf)", "(inf,0)"),
    _realised("(0,2)", "(inf,0)", "(-1,0)"),
    _realised("(inf,2)", "(-1,1)", "(-1,0)"),
)


def ln_taut_witness_strips(n: int) -> Region2:
    """Canonical-framing strips witnessing foliations off the quadrant: they cover min(r1, r2) < n
    and miss [n, inf)², n >= 2.  One route at n = 2, translated: the ``Ln(n)`` row's witness."""
    if (n := operator.index(n)) < 2:  # before the cache: no float or Fraction key
        raise ValueError("the strip cover needs n >= 2")
    return _ln_row(LinkFamily.LN, n)[1]


class CoverWitness(Frozen):
    _fields = ("name", "region")

    def __init__(self, name: str, region: Region2):
        self.__dict__.update(name=name, region=region)

    @property
    def target(self) -> Region2:
        """The finite plane ``(inf,inf) × (inf,inf)`` of the witness's framing."""
        return Region2.finite_plane(self.region.framing)


# ---------------------------------------------------------------------------
# the witness table


def witness_key(a: LinkAnalysis) -> tuple:
    """The table key of an analysed link: (family, n) for ``Ln`` and its mirror, (family,
    mirrored, length 3) for family 1, else (family, mirrored, the census's clauses)."""
    a.row  # the scope gate: a torus or non-fibered link has no key
    cls = a.cls
    if cls.n is not None:
        return cls.family, cls.n
    if cls.family is LinkFamily.FAMILY1:
        return cls.family, cls.mirrored, len(cls.chain) == 3
    return cls.family, cls.mirrored, _pattern(chain_census(cls.chain))


@functools.cache
def _table() -> dict[tuple, CoverWitness]:
    """The rows but ``Ln``'s, built on first use.  Each witness is the whole plane, which the
    shift by a linking number (the key has none) and a mirror's negation leave unchanged."""
    g, f1, f2 = LinkFamily.GENERIC_FIBERED, LinkFamily.FAMILY1, LinkFamily.FAMILY2_INTERIOR
    t, f = True, False
    rivers = CoverWitness("mixed-rivers", lemma_regions(SignCensus(1, 1, 1, 0)))
    bridges = CoverWitness("positive-river-mixed-bridges", lemma_regions(SignCensus(1, 0, 1, 2)))
    census = lemma_regions(SignCensus(1, 0, 0, 2))
    split = _realised("(inf,1)", "(0,inf)")
    family1 = CoverWitness("family1-generic",
                           Region2(Framing.SEIFERT, (*census.rects, split, split[::-1])))
    small = CoverWitness("family1-small", _route(_FAMILY1_LINKING, (-1,), _FAMILY1_BOXES, census))
    family2 = CoverWitness("family2", _route(_FAMILY2_LINKING, (-1, -1), _FAMILY2_BOXES))
    return {
        (g, f, (t, t, t, f)): rivers, (g, f, (t, t, t, t)): rivers,
        (g, f, (t, t, f, t)): bridges, (g, t, (t, t, f, t)): bridges,
        (f2, f, (t, t, f, t)): bridges, (f2, t, (t, t, f, t)): bridges,
        (f1, f, f): family1, (f1, t, f): family1, (f1, f, t): small, (f1, t, t): small,
        (f2, f, (t, f, f, t)): family2, (f2, t, (f, t, f, t)): family2,
    }


@functools.cache
def _ln_row(family: LinkFamily, n: int) -> tuple[Region2, Region2, Region2, Region2]:
    """The row of the key (family, n): the quadrant [n, inf)², the witness, both negated for the
    mirror, the gap (empty but on ``Ln(1)``'s rows), and the foliation region: witness and gap.
    ``Ln(1)`` = L(2,-2,-2)'s witness is its census region and the box holding the slope -1;
    ``Ln(2)``'s is the one route of the strips.  Both entries of ``_LN_LINKING``'s third column are
    ±1 and -1/n lies in the realised third factors (-1,0) and (inf,0) for n >= 2, so the twist
    at -1/n adds n·lk(i,3)² = n to both slopes (Rolfsen): the strips at n are those at 2 moved
    by ±(n-2, n-2)."""
    mirror = family is LinkFamily.LN_MIRROR
    arc = CircleInterval.closed(n, INFINITY)
    quadrant = Region2(Framing.CANONICAL, ((arc, arc),))
    if n > 2:
        d = 2 - n if mirror else n - 2
        witness = _ln_row(family, 2)[1].shifted(d, d)
    elif mirror:  # the normal form: the route list's inner endpoints would refine every set op
        witness = _ln_row(LinkFamily.LN, n)[1].canonical().negated()
    else:
        witness = _route(_LN_LINKING, (Fraction(-1, 2),), _LN_SURFACE_BOXES) if n == 2 else _route(
            _LN_LINKING, (-1,), _LN_SURFACE_BOXES[1:2], lemma_regions(SignCensus(1, 0, 1, 1)))
    quadrant = quadrant.negated() if mirror else quadrant
    gap = quadrant.union(witness).complement()
    return quadrant, witness, gap, witness if gap.is_empty() else witness.union(gap)


def row_holds(a: LinkAnalysis) -> bool:
    """Whether ``a``'s row passes its checks: a row but ``Ln``'s exists and is the whole plane;
    an ``Ln`` witness misses the quadrant and leaves no gap, but on ``Ln(1)``."""
    if a.cls.n is None:
        row = _table().get(witness_key(a))
        return row is not None and row.region.equals(row.target)
    return a.witness.intersect(a.lspace).is_empty() and (a.cls.n == 1 or a.gap.is_empty())


def cover_witnesses() -> tuple[CoverWitness, ...]:
    """The witnesses of the table's rows but ``Ln``'s, each once, each the plane of its framing."""
    return tuple({id(w): w for w in _table().values()}.values())

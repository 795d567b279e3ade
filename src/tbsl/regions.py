"""Exact region algebra on the multislope plane and weight-family images.

A :class:`Region2` is a finite union of rectangles I × J of circle
intervals, tagged with a framing, and denotes the *finite* multislopes in
that union: every region is a subset of Q × Q, and ``inf`` fillings are
decided elsewhere.  All set operations are decided exactly by refining both
operands over the grid of all finite interval endpoints: the grid cuts each
axis into a linear list of point atoms and open arcs, from the arc below
the first endpoint to the arc above the last, and every interval involved
is a union of atoms.  Atoms are index positions, never evaluated: an axis is
only its endpoints as sorted integers over the lcm of their denominators; an
interval's atoms are one or two runs of indices found by ``bisect`` on them,
and no ``Fraction`` is kept in a grid or compared.  A region on the grid is
one ``int`` mask of y-atoms per x-atom, so set operations are bitwise, and
the normal form reads rectangles off runs of equal adjacent columns, each end
read as ``key / den``.  Each region keeps its grid, built once from its
rectangles or handed on by the operation that made it.  An operation merges
the two operands' integer keys and remaps each operand's columns onto the
joint grid on integers, so no operand is rebuilt from its rectangles, and its
result keeps only its grid: the rectangles are read off it on first use and
kept, so a chain of operations and identity checks builds none.
``row_masks`` reads the kept grid at one integer ``bisect`` per grid slope,
and a point (``contains``) is its 1×1 case.

Weight families are linear forms over open boxes; :func:`family_image`
gives the open arc of slopes each one realises.
"""

from __future__ import annotations

import itertools
import math
import operator
from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import FramingMismatch
from .exactq import INFINITY, CircleInterval, Frozen, Slope, as_rat


class Framing(Enum):
    SEIFERT = "seifert"
    CANONICAL = "canonical"


# ---------------------------------------------------------------------------
# atoms of one axis


class _Axis:
    """Only the sorted endpoints, as integer ``keys`` over ``den``, their denominators' lcm."""

    __slots__ = ("keys", "den")

    def __init__(self, keys: list[int], den: int):
        self.keys, self.den = keys, den


def _atom_runs(iv: CircleInterval, axis: _Axis) -> tuple[tuple[int, int], ...]:
    """The finite part of ``iv`` as at most two (first, last) runs of atoms.

    Atom ``2k + 1`` is endpoint ``k`` and atom ``2k`` is the open arc below it,
    so atom ``2 * len(keys)`` is the arc above the last endpoint.  The ends of
    ``iv`` are on the grid; an open end starts one atom inside.  A run that
    would pass ``inf`` (a wrapping arc or a punctured point) splits in two.
    """
    lo, hi, top = iv.lo.value, iv.hi.value, 2 * len(axis.keys)
    if lo is None and hi is None and iv.lo_closed:
        return ()  # [inf,inf], the point at infinity
    first = 0 if lo is None else _atom_of(axis, lo) + (0 if iv.lo_closed else 1)
    last = top if hi is None else _atom_of(axis, hi) - (0 if iv.hi_closed else 1)
    return ((first, last),) if first <= last else ((first, top), (0, last))


def _atom_of(axis: _Axis, v: Fraction) -> int:
    """The atom holding the finite value ``v = n/d``, on the grid or not: ``bisect`` finds
    the first key at or above the ceiling of ``n * den / d``, and ``v`` is that endpoint
    exactly when ``key * d == n * den``."""
    n, d = v.as_integer_ratio()
    k = bisect_left(axis.keys, -(-n * axis.den // d))
    return 2 * k + 1 if k < len(axis.keys) and axis.keys[k] * d == n * axis.den else 2 * k


def _bit_runs(mask: int):
    """Maximal runs of set bits as (first, last) index pairs, lowest first."""
    i = 0
    while mask:
        skip = (mask & -mask).bit_length() - 1
        mask >>= skip
        i += skip
        ones = (mask ^ (mask + 1)).bit_length() - 1
        yield i, i + ones - 1
        mask >>= ones
        i += ones


def _merged(a: _Axis, b: _Axis) -> _Axis:
    """The axis of the endpoints of both, over the lcm of their denominators."""
    den = math.lcm(a.den, b.den)
    return _Axis(sorted({k * (den // axis.den) for axis in (a, b) for k in axis.keys}), den)


def _atom_starts(axis: _Axis, joint: _Axis) -> list[int]:
    """Per atom of ``axis``, the first atom of the finer ``joint`` inside it, then the end."""
    scale, starts = joint.den // axis.den, [0]
    for k in axis.keys:
        j = 2 * bisect_left(joint.keys, k * scale) + 1
        starts += (j, j + 1)
    starts.append(2 * len(joint.keys) + 1)
    return starts


def _run_to_interval(axis: _Axis, first: int, last: int) -> CircleInterval:
    """The interval made of the atoms ``first`` to ``last``, with exact endpoints."""
    lo = Slope(Fraction(axis.keys[(first - 1) // 2], axis.den)) if first else INFINITY
    hi = Slope(Fraction(axis.keys[last // 2], axis.den)) if last < 2 * len(axis.keys) else INFINITY
    return CircleInterval(lo, hi, first % 2 == 1, last % 2 == 1)


# ---------------------------------------------------------------------------
# rectangle unions


class Region2(Frozen):
    """Finite union of interval rectangles, intersected with Q × Q."""

    _fields = ("framing", "rects")  # see _grid_rects for the rects of results

    #: Every region is a set of finite multislopes; the JSON form keeps the
    #: field, always ``true``.
    restrict_to_finite = True

    def __init__(self, framing: Framing, rects: tuple[tuple[CircleInterval, CircleInterval], ...]):
        self.__dict__.update(framing=framing, rects=tuple((ix, iy) for ix, iy in rects))

    @classmethod
    def empty(cls, framing: Framing) -> "Region2":
        return cls(framing, ())

    @classmethod
    def finite_plane(cls, framing: Framing) -> "Region2":
        """All of Q × Q: ``(inf,inf)`` holds every rational."""
        whole = CircleInterval.punctured(INFINITY)
        return cls(framing, ((whole, whole),))

    @classmethod
    def box(cls, ix: CircleInterval, iy: CircleInterval, framing: Framing) -> "Region2":
        return cls(framing, ((ix, iy),))

    def contains(self, point) -> bool:
        """Membership of one multislope: the 1×1 grid of :meth:`row_masks`."""
        return bool(next(self.row_masks((Slope.of(point[0]),), (Slope.of(point[1]),))))

    def row_masks(self, xs, ys):
        """Yield, per slope x of the sequence ``xs``, an ``int`` whose bit ``j`` says whether
        ``(x, ys[j])`` lies in the region (0 for an ``inf`` x)."""
        xaxis, yaxis, cols = self._grid
        atom_bits = [0] * (2 * len(yaxis.keys) + 1)
        for j, y in enumerate(ys):
            if not y.is_infinity:
                atom_bits[_atom_of(yaxis, y.value)] |= 1 << j
        # one row per distinct column; the atoms' bitsets are disjoint, so their sum is their union
        rows = {c: sum(bits for k, bits in enumerate(atom_bits) if c >> k & 1) for c in set(cols)}
        for x in xs:
            yield 0 if x.is_infinity else rows[cols[_atom_of(xaxis, x.value)]]

    # -- grid machinery ----------------------------------------------------

    @cached_property
    def _grid(self) -> tuple[_Axis, _Axis, list[int]]:
        """Axes holding every endpoint of the region, and one mask of its y-atoms per x-atom.
        Not a field: a region made by an operation is handed the grid it was computed on."""
        xaxis, yaxis = _own_axis(self, 0), _own_axis(self, 1)
        cols = [0] * (2 * len(xaxis.keys) + 1)
        for ix, iy in self.rects:
            ymask = 0
            for a, b in _atom_runs(iy, yaxis):
                ymask |= (1 << (b + 1)) - (1 << a)
            if ymask:
                for a, b in _atom_runs(ix, xaxis):
                    cols[a : b + 1] = [c | ymask for c in cols[a : b + 1]]
        return xaxis, yaxis, cols

    def is_empty(self) -> bool:
        return not any(self._grid[2])

    # -- set operations ----------------------------------------------------

    def union(self, other: "Region2") -> "Region2":
        return _combine(self, other, operator.or_)

    def intersect(self, other: "Region2") -> "Region2":
        return _combine(self, other, operator.and_)

    def difference(self, other: "Region2") -> "Region2":
        return _combine(self, other, lambda a, b: a & ~b)

    def complement(self) -> "Region2":
        """Complement within Q × Q."""
        return Region2.finite_plane(self.framing).difference(self)

    def covers(self, target: "Region2") -> bool:
        _, _, ca, cb = _aligned_columns(self, target)
        return not any(b & ~a for a, b in zip(ca, cb))

    def equals(self, other: "Region2") -> bool:
        """Equality of the denoted point sets (shapes may differ)."""
        _, _, ca, cb = _aligned_columns(self, other)
        return ca == cb

    # -- plane symmetries ---------------------------------------------------

    def negated(self) -> "Region2":
        return Region2(self.framing, tuple((ix.negated(), iy.negated()) for ix, iy in self.rects))

    def swapped(self) -> "Region2":
        return Region2(self.framing, tuple((iy, ix) for ix, iy in self.rects))

    def shifted(self, dx, dy) -> "Region2":
        return Region2(
            self.framing,
            tuple((ix.shifted(dx), iy.shifted(dy)) for ix, iy in self.rects),
        )

    def with_framing(self, framing: Framing) -> "Region2":
        return Region2(framing, self.rects)

    def canonical(self) -> "Region2":
        """Normal form: rectangles reassembled on the region's grid."""
        return _reassemble_region(*self._grid, self.framing)

    def to_json_dict(self) -> dict:
        return {
            "framing": self.framing.value,
            "restrict_to_finite": self.restrict_to_finite,
            "rects": [[str(ix), str(iy)] for ix, iy in self.canonical().rects],
        }


def _own_axis(region: Region2, k: int) -> _Axis:
    """The finite endpoints of every rectangle side ``k`` (0 for x, 1 for y), as integer keys."""
    vals = [v for rect in region.rects for s in (rect[k].lo, rect[k].hi)
            if (v := s.value) is not None]
    den = math.lcm(*[v.denominator for v in vals])
    return _Axis(sorted({v.numerator * (den // v.denominator) for v in vals}), den)


def _remapped(grid, xaxis: _Axis, yaxis: _Axis) -> list[int]:
    """The columns of ``grid`` on the joint axes, which hold its endpoints: each y-run of a
    distinct column and each x-atom spread over the joint atoms inside it.  An axis with as
    many endpoints as the joint one has the same atoms."""
    gx, gy, cols = grid
    if len(gy.keys) < len(yaxis.keys):
        ys = _atom_starts(gy, yaxis)
        masks = {c: sum((1 << ys[b + 1]) - (1 << ys[a]) for a, b in _bit_runs(c))
                 for c in set(cols)}
        cols = [masks[c] for c in cols]
    if len(gx.keys) < len(xaxis.keys):
        xs = _atom_starts(gx, xaxis)
        cols = [c for c, lo, hi in zip(cols, xs, xs[1:]) for _ in range(hi - lo)]
    return cols


def _aligned_columns(a: Region2, b: Region2):
    if a.framing != b.framing:
        raise FramingMismatch(
            f"cannot combine regions framed {a.framing.value} and {b.framing.value}"
        )
    ga, gb = a._grid, b._grid
    xaxis, yaxis = _merged(ga[0], gb[0]), _merged(ga[1], gb[1])
    return xaxis, yaxis, _remapped(ga, xaxis, yaxis), _remapped(gb, xaxis, yaxis)


def _combine(a: Region2, b: Region2, op) -> Region2:
    xaxis, yaxis, ca, cb = _aligned_columns(a, b)
    return _reassemble_region(xaxis, yaxis, list(map(op, ca, cb)), a.framing)


def _reassemble_region(xaxis: _Axis, yaxis: _Axis, cols: list[int], framing: Framing) -> Region2:
    """The region of a grid, holding only the grid until its rectangles are read."""
    region = object.__new__(Region2)
    region.__dict__.update(framing=framing, _grid=(xaxis, yaxis, cols))
    return region


def _grid_rects(region: Region2) -> tuple[tuple[CircleInterval, CircleInterval], ...]:
    """Rectangles over each run of equal adjacent nonempty columns of the region's grid."""
    xaxis, yaxis, cols = region._grid
    rects = []
    x = 0
    for col, run in itertools.groupby(cols):
        width = sum(1 for _ in run)
        if col:
            xiv = _run_to_interval(xaxis, x, x + width - 1)
            rects.extend((xiv, _run_to_interval(yaxis, lo, hi)) for lo, hi in _bit_runs(col))
        x += width
    return tuple(rects)


# A region built from rectangles holds them as the field ``rects``; one made by an operation
# does not, and this non-data descriptor reads them off its grid on first use and keeps them.
# No ``__getattr__`` is involved, so an ``AttributeError`` inside ``_grid`` is never hidden.
Region2.rects = cached_property(_grid_rects)
Region2.rects.__set_name__(Region2, "rects")


# ---------------------------------------------------------------------------
# weight families: linear slope functions over open boxes


class SlopeFamily(Frozen):
    """The realised slopes ``constant + sum(coeffs[i] * x_i)`` over an open box.

    Each domain interval is an open arc read as a real interval, where an
    ``inf`` endpoint on the left means -infinity and on the right means
    +infinity; ``(inf, inf)`` is the whole real line.
    """

    _fields = ("constant", "coeffs", "domain")

    def __init__(self, constant: Fraction, coeffs: tuple[Fraction, ...],
                 domain: tuple[CircleInterval, ...]):
        constant, coeffs = as_rat(constant), tuple(as_rat(c) for c in coeffs)
        if len(coeffs) != len(domain):
            raise ValueError("one coefficient per domain interval")
        for iv in domain:
            if iv.lo_closed or iv.hi_closed:
                raise ValueError("domain intervals must be open arcs")
            if None not in (iv.lo.value, iv.hi.value) and iv.lo.value >= iv.hi.value:
                raise ValueError(f"domain interval {iv} wraps through inf")
        self.__dict__.update(constant=constant, coeffs=coeffs, domain=domain)


def family_image(f: SlopeFamily) -> CircleInterval:
    """Exact image of the family over its open box.

    A linear form is monotone in each coordinate, so its infimum takes each
    coordinate to the box end on the side of the coefficient's sign, and its
    supremum to the other end; over the open box neither is attained, so the
    image is an open arc, or the point ``[c,c]`` when every coefficient is 0.
    """
    if not any(f.coeffs):
        return CircleInterval.point(f.constant)
    lo = hi = f.constant  # None is -infinity in lo and +infinity in hi
    for c, iv in zip(f.coeffs, f.domain):
        if c:
            down, up = (iv.lo.value, iv.hi.value) if c > 0 else (iv.hi.value, iv.lo.value)
            lo = None if lo is None or down is None else lo + c * down
            hi = None if hi is None or up is None else hi + c * up
    return CircleInterval(Slope(lo), Slope(hi), False, False)


def _box(*specs) -> tuple[CircleInterval, ...]:
    return tuple(CircleInterval.open(lo, hi) for lo, hi in specs)


#: Weight families shipped with the package, keyed by their realised image.
#: The first two are the boundary-train-track weight systems of the river
#: twist construction (slope y - x with x in (0, inf), y in (0, 1)) and its
#: mirror; the rest are the simplest linear systems realising the interval
#: each branched-surface family needs.
BUILTIN_WEIGHT_FAMILIES: dict[str, SlopeFamily] = {
    "(inf,1)": SlopeFamily(0, (-1, 1), _box(("0", "inf"), ("0", "1"))),
    "(-1,inf)": SlopeFamily(0, (1, -1), _box(("0", "inf"), ("0", "1"))),
    "(0,inf)": SlopeFamily(0, (1,), _box(("0", "inf"))),
    "(inf,0)": SlopeFamily(0, (-1,), _box(("0", "inf"))),
    "(-1,1)": SlopeFamily(0, (-1, 1), _box(("0", "1"), ("0", "1"))),
    "(0,2)": SlopeFamily(0, (1, 1), _box(("0", "1"), ("0", "1"))),
    "(inf,2)": SlopeFamily(0, (-1, 1), _box(("0", "inf"), ("0", "2"))),
    "(-1,0)": SlopeFamily(0, (-1,), _box(("0", "1"))),
}

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
joint grid on integers, so no operand is rebuilt from its rectangles.  A remap
walks only the operand's keys (one ``bisect`` each) and the runs of set bits of
its distinct columns, and fills the joint atoms by list repeats and bit masks in
C, never a Python step per joint atom.  The result keeps only its grid: the
rectangles are read off it on first use and kept, so a chain of operations and
identity checks builds none.  An operation that adds no endpoint stays on its
grid: a merge with an axis of no or the same endpoints, a complement (columns
flipped) and a translation (keys moved).
``row_masks`` reads a grid of integer numerators over one denominator (``None``
for ``inf``) at one integer ``bisect`` per grid slope; a point (``contains``) is
its 1×1 case.

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
    first = 0 if lo is None else _atom_of(axis, *lo.as_integer_ratio()) + (not iv.lo_closed)
    last = top if hi is None else _atom_of(axis, *hi.as_integer_ratio()) - (not iv.hi_closed)
    return ((first, last),) if first <= last else ((first, top), (0, last))


def _atom_of(axis: _Axis, n: int, d: int) -> int:
    """The atom holding the value ``n/d``, ``d > 0`` and the ratio not necessarily reduced, on
    the grid or not: ``bisect`` finds the first key at or above the ceiling of ``n * den / d``,
    and ``n/d`` is that endpoint exactly when ``key * d == n * den``."""
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
    """The axis of both's endpoints over the lcm of their denominators: either, if it holds all."""
    if not b.keys or (a.keys == b.keys and a.den == b.den):
        return a
    if not a.keys:
        return b
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

    _fields = ("framing", "rects")

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
        return bool(next(self.row_masks(*point_axes(point))))

    def row_masks(self, xs, ys, den: int):
        """Yield, per x of ``xs``, an ``int`` whose bit ``j`` says whether ``(x, ys[j])`` lies in
        the region: each axis holds integer numerators over ``den`` > 0, ``None`` (never in) for
        ``inf``."""
        xaxis, yaxis, cols = self._grid
        atom_bits = [0] * (2 * len(yaxis.keys) + 1)
        for j, y in enumerate(ys):
            if y is not None:
                atom_bits[_atom_of(yaxis, y, den)] |= 1 << j
        # one row per distinct column; the atoms' bitsets are disjoint, so their sum is their union
        rows = {c: sum(bits for k, bits in enumerate(atom_bits) if c >> k & 1) for c in set(cols)}
        for x in xs:
            yield 0 if x is None else rows[cols[_atom_of(xaxis, x, den)]]

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

    @cached_property
    def rects(self) -> tuple[tuple[CircleInterval, CircleInterval], ...]:
        """Rectangles over each run of equal adjacent nonempty columns of the grid, read on first
        use and kept.  A region built from rectangles holds them in its ``__dict__``, which this
        non-data descriptor never overrides; no ``__getattr__`` hides an error from ``_grid``."""
        xaxis, yaxis, cols = self._grid
        rects = []
        x = 0
        for col, run in itertools.groupby(cols):
            width = sum(1 for _ in run)
            if col:
                xiv = _run_to_interval(xaxis, x, x + width - 1)
                rects.extend((xiv, _run_to_interval(yaxis, lo, hi)) for lo, hi in _bit_runs(col))
            x += width
        return tuple(rects)

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
        """Complement within Q × Q, on the region's own grid: every finite point lies in
        one x-atom and one y-atom, so flipping each column's mask of y-atoms suffices."""
        xaxis, yaxis, cols = self._grid
        full = (1 << (2 * len(yaxis.keys) + 1)) - 1
        return _reassemble_region(xaxis, yaxis, [full ^ c for c in cols], self.framing)

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

    def shifted(self, dx, dy) -> "Region2":
        """Translation by (dx, dy) on the region's own grid: the keys move, the columns stay."""
        xaxis, yaxis, cols = self._grid
        return _reassemble_region(_shift(xaxis, dx), _shift(yaxis, dy), cols, self.framing)

    def with_framing(self, framing: Framing) -> "Region2":
        return _reassemble_region(*self._grid, framing)

    def canonical(self) -> "Region2":
        """Normal form: rectangles reassembled on the region's grid."""
        return _reassemble_region(*self._grid, self.framing)

    def to_json_dict(self) -> dict:
        return {
            "framing": self.framing.value,
            "restrict_to_finite": self.restrict_to_finite,
            "rects": [[str(ix), str(iy)] for ix, iy in self.canonical().rects],
        }


def point_axes(point) -> tuple[tuple[int | None], tuple[int | None], int]:
    """The multislope ``point`` as a 1×1 grid of :meth:`Region2.row_masks`: each finite
    coordinate a numerator over the lcm of their denominators, ``inf`` as ``None``."""
    x, y = (Slope.of(s).value for s in point)
    den = math.lcm(*[v.denominator for v in (x, y) if v is not None])
    return *((None if v is None else v.numerator * (den // v.denominator),) for v in (x, y)), den


def _own_axis(region: Region2, k: int) -> _Axis:
    """The finite endpoints of every rectangle side ``k`` (0 for x, 1 for y), as integer keys."""
    vals = [v for rect in region.rects for s in (rect[k].lo, rect[k].hi)
            if (v := s.value) is not None]
    den = math.lcm(*[v.denominator for v in vals])
    return _Axis(sorted({v.numerator * (den // v.denominator) for v in vals}), den)


def _shift(axis: _Axis, d) -> _Axis:
    """The endpoints of ``axis`` moved by ``d = n/m``, over the lcm of their denominators."""
    n, m = as_rat(d).as_integer_ratio()
    keys = [k * m + n * axis.den for k in axis.keys]
    g = math.gcd(axis.den * m, *keys)
    return _Axis([k // g for k in keys], axis.den * m // g)


def _remapped(grid, xaxis: _Axis, yaxis: _Axis) -> list[int]:
    """The columns of ``grid`` on the joint axes, which hold its endpoints: each bit run of a
    distinct column and each x-atom spread over the joint atoms inside it, a run or an atom
    per step.  An axis with as many endpoints as the joint one has the same atoms."""
    gx, gy, cols = grid
    if len(gy.keys) < len(yaxis.keys):
        ys, masks = _atom_starts(gy, yaxis), {}
        for c in set(cols):
            mask, rest = 0, c
            # walked inline: through _bit_runs, as a generator or a shared list, measured slower
            while rest:  # the lowest run of set bits, a to b, is joint atoms ys[a] to ys[b + 1] - 1
                low = rest & -rest
                above = rest + low  # the run cleared and bit b + 1 set
                a, b1 = low.bit_length() - 1, (above & -above).bit_length() - 1
                mask |= (1 << ys[b1]) - (1 << ys[a])
                rest &= above
            masks[c] = mask
        cols = [masks[c] for c in cols]
    if len(gx.keys) < len(xaxis.keys):
        xs, spread = _atom_starts(gx, xaxis), []
        for c, lo, hi in zip(cols, xs, xs[1:]):
            spread += [c] * (hi - lo)
        cols = spread
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

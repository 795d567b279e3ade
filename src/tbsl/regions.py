"""Exact region algebra on the multislope plane and weight-family images.

A :class:`Region2` is a finite union of rectangles I × J of circle
intervals, tagged with a framing.  All set operations are decided exactly
by refining both operands over the grid of all interval endpoints (with
``inf`` always a grid point): the grid cuts each axis into point atoms and
open arcs, every interval involved is a union of atoms, and membership of
an atom is decided by evaluating one exact rational representative.

``restrict_to_finite`` intersects the denoted set with Q × Q, i.e. drops
every point with an ``inf`` coordinate; complements are taken inside that
universe when the flag is set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import FramingMismatch
from .exactq import INFINITY, CircleInterval, Slope, as_rat, parse_interval


class Framing(Enum):
    SEIFERT = "seifert"
    CANONICAL = "canonical"


# ---------------------------------------------------------------------------
# atom decomposition of one axis


@dataclass(frozen=True)
class _Atom:
    rep: Slope
    point: bool
    lo: Slope | None = None  # bounding grid points for arc atoms
    hi: Slope | None = None


def _axis_atoms(endpoints: tuple[Fraction, ...]) -> tuple[_Atom, ...]:
    """Cyclic atom list for a sorted tuple of finite endpoints.

    Atom 0 is always the point at infinity; arcs between consecutive grid
    points follow, interleaved with the endpoint atoms, in circular order.
    """
    atoms = [_Atom(INFINITY, True)]
    if not endpoints:
        atoms.append(_Atom(Slope(Fraction(0)), False, INFINITY, INFINITY))
        return tuple(atoms)
    pts = [Slope(v) for v in endpoints]
    atoms.append(_Atom(Slope(endpoints[0] - 1), False, INFINITY, pts[0]))
    for i, s in enumerate(pts):
        atoms.append(_Atom(s, True))
        if i + 1 < len(pts):
            mid = Slope((endpoints[i] + endpoints[i + 1]) / 2)
            atoms.append(_Atom(mid, False, s, pts[i + 1]))
        else:
            atoms.append(_Atom(Slope(endpoints[i] + 1), False, s, INFINITY))
    return tuple(atoms)


def _cyclic_runs(included: list[bool]) -> list[list[int]]:
    """Maximal cyclic runs of True indices, in order of their start."""
    n = len(included)
    if not any(included):
        return []
    if all(included):
        return [list(range(n))]
    starts = [i for i in range(n) if included[i] and not included[(i - 1) % n]]
    runs = []
    for s in starts:
        run = [s]
        j = (s + 1) % n
        while included[j]:
            run.append(j)
            j = (j + 1) % n
        runs.append(run)
    return runs


def _run_to_interval(atoms: tuple[_Atom, ...], run: list[int]) -> CircleInterval:
    first, last = atoms[run[0]], atoms[run[-1]]
    if first.point:
        lo, lo_closed = first.rep, True
    else:
        lo, lo_closed = first.lo, False
    if last.point:
        hi, hi_closed = last.rep, True
    else:
        hi, hi_closed = last.hi, False
    return CircleInterval(lo, hi, lo_closed, hi_closed)


def _reassemble_axis(atoms: tuple[_Atom, ...], included: list[bool]) -> tuple[CircleInterval, ...]:
    if all(included):
        return (CircleInterval.full(),)
    return tuple(_run_to_interval(atoms, run) for run in _cyclic_runs(included))


# ---------------------------------------------------------------------------
# rectangle unions


@dataclass(frozen=True)
class Region2:
    """Finite union of interval rectangles on the slope plane."""

    framing: Framing
    rects: tuple[tuple[CircleInterval, CircleInterval], ...]
    restrict_to_finite: bool = True

    def __post_init__(self):
        object.__setattr__(self, "rects", tuple((ix, iy) for ix, iy in self.rects))

    @classmethod
    def empty(cls, framing: Framing, restrict_to_finite: bool = True) -> "Region2":
        return cls(framing, (), restrict_to_finite)

    @classmethod
    def finite_plane(cls, framing: Framing) -> "Region2":
        """All of Q × Q."""
        return cls(framing, ((CircleInterval.full(), CircleInterval.full()),), True)

    @classmethod
    def box(
        cls,
        ix: CircleInterval,
        iy: CircleInterval,
        framing: Framing,
        restrict_to_finite: bool = True,
    ) -> "Region2":
        return cls(framing, ((ix, iy),), restrict_to_finite)

    def contains(self, point) -> bool:
        s1, s2 = (Slope.of(point[0]), Slope.of(point[1]))
        if self.restrict_to_finite and (s1.is_infinity or s2.is_infinity):
            return False
        return any(ix.contains(s1) and iy.contains(s2) for ix, iy in self.rects)

    __contains__ = contains

    # -- grid machinery ----------------------------------------------------

    def _endpoint_grid(self) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        xs, ys = set(), set()
        for ix, iy in self.rects:
            for s in (ix.lo, ix.hi):
                if not s.is_infinity and not ix.full_circle:
                    xs.add(s.value)
            for s in (iy.lo, iy.hi):
                if not s.is_infinity and not iy.full_circle:
                    ys.add(s.value)
        return tuple(sorted(xs)), tuple(sorted(ys))

    def _cells(
        self, xatoms: tuple[_Atom, ...], yatoms: tuple[_Atom, ...]
    ) -> frozenset[tuple[int, int]]:
        cells: set[tuple[int, int]] = set()
        for ix, iy in self.rects:
            xs = [i for i, a in enumerate(xatoms) if ix.contains(a.rep)]
            ys = [j for j, a in enumerate(yatoms) if iy.contains(a.rep)]
            cells.update(itertools.product(xs, ys))
        if self.restrict_to_finite:
            cells = {(i, j) for i, j in cells if i != 0 and j != 0}
        return frozenset(cells)

    def is_empty(self) -> bool:
        xatoms, yatoms = _joint_atoms(self)
        return not self._cells(xatoms, yatoms)

    # -- set operations ----------------------------------------------------

    def union(self, other: "Region2") -> "Region2":
        xa, ya, ca, cb = _aligned_cells(self, other)
        restrict = self.restrict_to_finite and other.restrict_to_finite
        return _reassemble_region(xa, ya, ca | cb, self.framing, restrict)

    def intersect(self, other: "Region2") -> "Region2":
        xa, ya, ca, cb = _aligned_cells(self, other)
        restrict = self.restrict_to_finite or other.restrict_to_finite
        return _reassemble_region(xa, ya, ca & cb, self.framing, restrict)

    def difference(self, other: "Region2") -> "Region2":
        xa, ya, ca, cb = _aligned_cells(self, other)
        return _reassemble_region(xa, ya, ca - cb, self.framing, self.restrict_to_finite)

    def complement(self) -> "Region2":
        """Complement within Q² when restricted, within the full torus otherwise."""
        xatoms, yatoms = _joint_atoms(self)
        cells = self._cells(xatoms, yatoms)
        universe = set(itertools.product(range(len(xatoms)), range(len(yatoms))))
        if self.restrict_to_finite:
            universe = {(i, j) for i, j in universe if i != 0 and j != 0}
        return _reassemble_region(
            xatoms, yatoms, frozenset(universe) - cells, self.framing, self.restrict_to_finite
        )

    def covers(self, target: "Region2") -> bool:
        xa, ya, ca, cb = _aligned_cells(self, target)
        return cb <= ca

    def equals(self, other: "Region2") -> bool:
        """Equality of the denoted point sets (flags and shapes may differ)."""
        xa, ya, ca, cb = _aligned_cells(self, other)
        return ca == cb

    # -- plane symmetries ---------------------------------------------------

    def negated(self) -> "Region2":
        return Region2(
            self.framing,
            tuple((ix.negated(), iy.negated()) for ix, iy in self.rects),
            self.restrict_to_finite,
        )

    def swapped(self) -> "Region2":
        return Region2(
            self.framing,
            tuple((iy, ix) for ix, iy in self.rects),
            self.restrict_to_finite,
        )

    def shifted(self, dx, dy) -> "Region2":
        return Region2(
            self.framing,
            tuple((ix.shifted(dx), iy.shifted(dy)) for ix, iy in self.rects),
            self.restrict_to_finite,
        )

    def with_framing(self, framing: Framing) -> "Region2":
        return Region2(framing, self.rects, self.restrict_to_finite)

    def restricted(self) -> "Region2":
        return Region2(self.framing, self.rects, True)

    def canonical(self) -> "Region2":
        """Normal form: rectangles reassembled on the region's own grid."""
        xatoms, yatoms = _joint_atoms(self)
        return _reassemble_region(
            xatoms, yatoms, self._cells(xatoms, yatoms), self.framing, self.restrict_to_finite
        )

    def to_json_dict(self) -> dict:
        canon = self.canonical()
        return {
            "framing": self.framing.value,
            "restrict_to_finite": canon.restrict_to_finite,
            "rects": [[str(ix), str(iy)] for ix, iy in canon.rects],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Region2":
        return cls(
            Framing(d["framing"]),
            tuple(
                (parse_interval(ix), parse_interval(iy)) for ix, iy in d["rects"]
            ),
            bool(d["restrict_to_finite"]),
        )


def _joint_atoms(*regions: Region2) -> tuple[tuple[_Atom, ...], tuple[_Atom, ...]]:
    xs, ys = set(), set()
    for r in regions:
        gx, gy = r._endpoint_grid()
        xs.update(gx)
        ys.update(gy)
    return _axis_atoms(tuple(sorted(xs))), _axis_atoms(tuple(sorted(ys)))


def _aligned_cells(a: Region2, b: Region2):
    if a.framing != b.framing:
        raise FramingMismatch(
            f"cannot combine regions framed {a.framing.value} and {b.framing.value}"
        )
    xatoms, yatoms = _joint_atoms(a, b)
    return xatoms, yatoms, a._cells(xatoms, yatoms), b._cells(xatoms, yatoms)


def _reassemble_region(
    xatoms: tuple[_Atom, ...],
    yatoms: tuple[_Atom, ...],
    cells: frozenset[tuple[int, int]],
    framing: Framing,
    restrict: bool,
) -> Region2:
    if not cells:
        return Region2.empty(framing, restrict)
    columns: dict[int, set[int]] = {}
    for i, j in cells:
        columns.setdefault(i, set()).add(j)
    nx = len(xatoms)
    patterns = [frozenset(columns.get(i, ())) for i in range(nx)]
    rects: list[tuple[CircleInterval, CircleInterval]] = []
    if all(p == patterns[0] for p in patterns):
        ymask = [j in patterns[0] for j in range(len(yatoms))]
        for yiv in _reassemble_axis(yatoms, ymask):
            rects.append((CircleInterval.full(), yiv))
        return Region2(framing, tuple(rects), restrict)
    starts = [
        i
        for i in range(nx)
        if patterns[i] and patterns[i] != patterns[(i - 1) % nx]
    ]
    for s in starts:
        run = [s]
        j = (s + 1) % nx
        while patterns[j] == patterns[s] and j != s:
            run.append(j)
            j = (j + 1) % nx
        xiv = _run_to_interval(xatoms, run)
        ymask = [k in patterns[s] for k in range(len(yatoms))]
        for yiv in _reassemble_axis(yatoms, ymask):
            rects.append((xiv, yiv))
    return Region2(framing, tuple(rects), restrict)


# ---------------------------------------------------------------------------
# weight families: affine / linear-fractional slope functions over open boxes


@dataclass(frozen=True)
class AffineForm:
    """constant + sum(coeffs[i] * x_i), with exact rational coefficients."""

    constant: Fraction
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "constant", as_rat(self.constant))
        object.__setattr__(self, "coeffs", tuple(as_rat(c) for c in self.coeffs))

    def __call__(self, point) -> Fraction:
        return self.constant + sum(c * x for c, x in zip(self.coeffs, point))

    @property
    def is_constant(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def vector(self) -> tuple[Fraction, ...]:
        return (self.constant, *self.coeffs)


@dataclass(frozen=True)
class SlopeFamily:
    """A family of realised slopes numerator/denominator over an open box.

    Each domain interval is an open arc read as a real interval, where an
    ``inf`` endpoint on the left means -infinity and on the right means
    +infinity; ``(inf, inf)`` is the whole real line.
    """

    numerator: AffineForm
    denominator: AffineForm
    domain: tuple[CircleInterval, ...]

    def __post_init__(self):
        k = len(self.domain)
        if len(self.numerator.coeffs) != k or len(self.denominator.coeffs) != k:
            raise ValueError("numerator/denominator arity must match the domain")
        for iv in self.domain:
            if iv.full_circle or iv.lo_closed or iv.hi_closed:
                raise ValueError("domain intervals must be open arcs")

    @property
    def arity(self) -> int:
        return len(self.domain)

    @classmethod
    def linear(cls, constant, coeffs, domain) -> "SlopeFamily":
        coeffs = tuple(coeffs)
        return cls(
            AffineForm(as_rat(constant), coeffs),
            AffineForm(Fraction(1), tuple(Fraction(0) for _ in coeffs)),
            tuple(domain),
        )


_NEG_INF = object()
_POS_INF = object()


def _real_bounds(iv: CircleInterval):
    lo = _NEG_INF if iv.lo.is_infinity else iv.lo.value
    hi = _POS_INF if iv.hi.is_infinity else iv.hi.value
    if lo is not _NEG_INF and hi is not _POS_INF and lo >= hi:
        raise ValueError(f"domain interval {iv} wraps through inf")
    return lo, hi


def _ext_add(a, b):
    if a is _NEG_INF or b is _NEG_INF:
        return _NEG_INF
    if a is _POS_INF or b is _POS_INF:
        return _POS_INF
    return a + b


def _ext_scale(c: Fraction, a):
    if a is _NEG_INF:
        return _NEG_INF if c > 0 else _POS_INF
    if a is _POS_INF:
        return _POS_INF if c > 0 else _NEG_INF
    return c * a


def _open_interval(lo, hi) -> CircleInterval:
    lo_s = INFINITY if lo is _NEG_INF else Slope(lo)
    hi_s = INFINITY if hi is _POS_INF else Slope(hi)
    return CircleInterval(lo_s, hi_s, False, False)


def family_image(f: SlopeFamily) -> CircleInterval:
    """Exact image of the realised-slope function over the open box.

    The function is a ratio of affine forms, hence monotone along every
    coordinate line; extrema over the closed box sit at corners, and over
    the open box they are approached but not attained, so the image is an
    open arc (or a single point for constant families).
    """
    bounds = [_real_bounds(iv) for iv in f.domain]
    nvec, dvec = f.numerator.vector(), f.denominator.vector()
    if all(c == 0 for c in dvec):
        raise ValueError("denominator is identically zero")
    proportional = all(
        nvec[i] * dvec[j] == nvec[j] * dvec[i]
        for i in range(len(nvec))
        for j in range(i + 1, len(nvec))
    )
    if proportional:
        i = next(i for i, c in enumerate(dvec) if c != 0)
        return CircleInterval.point(Slope(nvec[i] / dvec[i]))
    if f.denominator.is_constant:
        c = f.denominator.constant
        lo = hi = f.numerator.constant / c
        for coeff, (blo, bhi) in zip(f.numerator.coeffs, bounds):
            k = coeff / c
            if k == 0:
                continue
            lo = _ext_add(lo, _ext_scale(k, blo if k > 0 else bhi))
            hi = _ext_add(hi, _ext_scale(k, bhi if k > 0 else blo))
        return _open_interval(lo, hi)
    if any(blo is _NEG_INF or bhi is _POS_INF for blo, bhi in bounds):
        raise ValueError("fractional families need a bounded domain box")
    corners = list(itertools.product(*bounds))
    dvals = [f.denominator(c) for c in corners]
    if any(v == 0 for v in dvals):
        raise ValueError("denominator vanishes on the domain closure")
    if min(dvals) < 0 < max(dvals):
        raise ValueError("denominator vanishes inside the domain")
    values = [f.numerator(c) / f.denominator(c) for c in corners]
    return _open_interval(min(values), max(values))


def _box(*specs) -> tuple[CircleInterval, ...]:
    return tuple(CircleInterval.open(lo, hi) for lo, hi in specs)


#: Weight families shipped with the package, keyed by their realised image.
#: The first two are the boundary-train-track weight systems of the river
#: twist construction (slope y - x with x in (0, inf), y in (0, 1)) and its
#: mirror; the rest are the simplest linear systems realising the interval
#: each branched-surface family needs.
BUILTIN_WEIGHT_FAMILIES: dict[str, SlopeFamily] = {
    "(inf,1)": SlopeFamily.linear(0, (-1, 1), _box(("0", "inf"), ("0", "1"))),
    "(-1,inf)": SlopeFamily.linear(0, (1, -1), _box(("0", "inf"), ("0", "1"))),
    "(0,inf)": SlopeFamily.linear(0, (1,), _box(("0", "inf"))),
    "(inf,0)": SlopeFamily.linear(0, (-1,), _box(("0", "inf"))),
    "(-1,1)": SlopeFamily.linear(0, (-1, 1), _box(("0", "1"), ("0", "1"))),
    "(0,2)": SlopeFamily.linear(0, (1, 1), _box(("0", "1"), ("0", "1"))),
    "(inf,2)": SlopeFamily.linear(0, (-1, 1), _box(("0", "inf"), ("0", "2"))),
    "(-1,0)": SlopeFamily.linear(0, (-1,), _box(("0", "1"))),
}

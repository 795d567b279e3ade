import itertools
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from tbsl import (
    INFINITY,
    CircleInterval,
    Framing,
    Region2,
    Slope,
    SlopeFamily,
    family_image,
    parse_interval,
)
from oracles import grid_probes, member
from tbsl.errors import FramingMismatch
from tbsl.regions import BUILTIN_WEIGHT_FAMILIES


def box(ix, iy):
    return Region2.box(parse_interval(ix), parse_interval(iy), Framing.SEIFERT)


PLANE = Region2.finite_plane(Framing.SEIFERT)


class TestRegionBasics:
    def test_membership(self):
        r = box("(inf,1)", "(-1,inf)")
        assert r.contains((0, 0))
        assert r.contains((Fraction(-100), Fraction(100)))
        assert not r.contains((1, 0))
        assert not r.contains((0, -1))

    def test_restrict_drops_infinity(self):
        r = box("[1,inf]", "[1,inf]")
        assert not r.contains((INFINITY, 2))

    def test_empty_and_plane(self):
        assert Region2.empty(Framing.SEIFERT).is_empty()
        assert not PLANE.is_empty()
        assert PLANE.contains((Fraction(10**6), Fraction(-1, 10**6)))
        assert not PLANE.contains((INFINITY, 0))

    def test_framing_mismatch(self):
        with pytest.raises(FramingMismatch):
            PLANE.union(Region2.finite_plane(Framing.CANONICAL))


class TestCoverIdentities:
    def test_mixed_river_union_is_plane(self):
        union = box("(inf,1)", "(inf,1)")
        union = union.union(box("(-1,inf)", "(-1,inf)"))
        union = union.union(box("(inf,1)", "(-1,inf)"))
        union = union.union(box("(-1,inf)", "(inf,1)"))
        assert union.equals(PLANE)

    def test_mixed_bridge_union_is_plane(self):
        union = box("(inf,1)", "(inf,1)")
        union = union.union(box("(-1,inf)", "(-1,inf)"))
        union = union.union(box("(0,inf)", "(inf,0)"))
        union = union.union(box("(inf,0)", "(0,inf)"))
        assert union.equals(PLANE)

    def test_complement_of_empty(self):
        assert Region2.empty(Framing.SEIFERT).complement().equals(PLANE)

    def test_quadrant_complement(self):
        quadrant = box("[3,inf]", "[3,inf]")
        rest = quadrant.complement()
        assert quadrant.union(rest).equals(PLANE)
        assert quadrant.intersect(rest).is_empty()
        assert rest.contains((Fraction(5, 2), 100))
        assert not rest.contains((3, 3))


class TestCovers:
    def test_anything_covers_empty(self):
        assert box("(0,1)", "(0,1)").covers(Region2.empty(Framing.SEIFERT))

    def test_quadrant_does_not_cover_plane(self):
        assert not box("[2,inf]", "[2,inf]").covers(PLANE)

    def test_strict_containment(self):
        small = box("(0,1)", "(0,1)")
        large = box("(inf,1)", "(inf,1)")
        assert large.covers(small)
        assert not small.covers(large)


class TestSymmetries:
    def test_negate(self):
        r = box("[2,inf]", "(0,1)")
        assert r.negated().equals(box("[inf,-2]", "(-1,0)"))

    def test_swap(self):
        r = box("(0,1)", "(2,3)")
        assert r.swapped().equals(box("(2,3)", "(0,1)"))

    def test_shift(self):
        r = box("(inf,1)", "(0,inf)")
        assert r.shifted(2, -1).equals(box("(inf,3)", "(-1,inf)"))

    def test_json_roundtrip(self):
        r = box("(inf,1)", "(0,2)").union(box("[3,4]", "(inf,inf)"))
        d = r.to_json_dict()
        rects = tuple((parse_interval(ix), parse_interval(iy)) for ix, iy in d["rects"])
        assert Region2(Framing(d["framing"]), rects).equals(r)
        assert d["restrict_to_finite"] is True


_ENDPOINTS = [Slope(Fraction(v, 2)) for v in range(-4, 5)] + [INFINITY]
_FINITE = [e for e in _ENDPOINTS if not e.is_infinity]
_SHAPES = ("full", "point", "punctured", "arc", "wrap", "ray_from_inf", "ray_to_inf")


@st.composite
def interval_st(draw):
    """Every interval over ``_ENDPOINTS``, by shape: points and punctures
    (at ``inf`` too), increasing arcs, arcs that wrap through ``inf``, and
    rays with one end at ``inf``, each end open or closed."""
    shape = draw(st.sampled_from(_SHAPES))
    if shape == "full":
        return CircleInterval.full()
    if shape in ("point", "punctured"):
        a = draw(st.sampled_from(_ENDPOINTS))
        return CircleInterval(a, a, shape == "point", shape == "point")
    a, b = sorted(draw(st.lists(st.sampled_from(_FINITE), min_size=2, max_size=2, unique=True)))
    lo, hi = {
        "arc": (a, b),
        "wrap": (b, a),
        "ray_from_inf": (INFINITY, a),
        "ray_to_inf": (a, INFINITY),
    }[shape]
    return CircleInterval(lo, hi, draw(st.booleans()), draw(st.booleans()))


@st.composite
def region_st(draw):
    n = draw(st.integers(0, 3))
    rects = tuple((draw(interval_st()), draw(interval_st())) for _ in range(n))
    return Region2(Framing.SEIFERT, rects)


def _probe_points():
    vals = [Slope(Fraction(v, 4)) for v in range(-9, 10)] + [INFINITY]
    return list(itertools.product(vals, vals))


_PROBES = _probe_points()


@settings(max_examples=60)
@given(region_st(), region_st())
def test_union_and_intersection_membership(a, b):
    u, i = a.union(b), a.intersect(b)
    for pt in _PROBES[:: 7]:
        assert u.contains(pt) == (a.contains(pt) or b.contains(pt))
        assert i.contains(pt) == (a.contains(pt) and b.contains(pt))


@settings(max_examples=100)
@given(region_st(), region_st())
def test_kernel_matches_membership_oracle(a, b):
    results = {
        "union": (a.union(b), lambda p: ina[p] or inb[p]),
        "intersect": (a.intersect(b), lambda p: ina[p] and inb[p]),
        "difference": (a.difference(b), lambda p: ina[p] and not inb[p]),
        "complement": (a.complement(), lambda p: not ina[p]),
        "canonical": (a.canonical(), lambda p: ina[p]),
    }
    # a result's own endpoints join the grid, so a stray one cannot hide a wrong cell
    probes = grid_probes(a, b, *(region for region, _ in results.values()))
    ina = {p: member(a, p) for p in probes}
    inb = {p: member(b, p) for p in probes}
    for name, (region, expected) in results.items():
        for p in probes:
            assert member(region, p) == expected(p), (name, p)
    assert a.covers(b) == all(ina[p] for p in probes if inb[p])
    assert a.equals(b) == (ina == inb)
    assert a.is_empty() == (not any(ina.values()))


_OFF_GRID = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)).map(Slope)


@settings(max_examples=100)
@given(region_st(), region_st(), st.lists(st.tuples(_OFF_GRID, _OFF_GRID), max_size=20))
def test_contains_matches_membership_oracle(a, b, extra):
    # contains reads each region's own grid; the oracle tests every rectangle
    regions = (a, b, a.union(b), a.difference(b), a.complement(), b.complement().intersect(a))
    for region in regions:
        for p in grid_probes(region) + extra:
            assert region.contains(p) == member(region, p), p
        for x in (Slope(0), Slope(Fraction(-7, 2)), INFINITY):
            assert not region.contains((x, INFINITY))
            assert not region.contains((INFINITY, x))


@settings(max_examples=100)
@given(region_st(), st.data())
def test_row_masks_match_membership_oracle(a, data):
    # each axis: every probe coordinate, inf and a repeated value, in any order
    probes = grid_probes(a)
    xs, ys = (
        data.draw(st.permutations([*dict.fromkeys(p[k] for p in probes), INFINITY, probes[-1][k]]))
        for k in (0, 1)
    )
    rows = list(a.row_masks(xs, ys))
    assert len(rows) == len(xs)
    for x, mask in zip(xs, rows):
        assert mask >> len(ys) == 0
        for j, y in enumerate(ys):
            finite = not (x.is_infinity or y.is_infinity)
            assert bool(mask >> j & 1) == (finite and member(a, (x, y))), (x, y)


@settings(max_examples=60)
@given(region_st(), region_st())
def test_de_morgan(a, b):
    lhs = a.union(b).complement()
    rhs = a.complement().intersect(b.complement())
    assert lhs.equals(rhs)


@settings(max_examples=60)
@given(region_st())
def test_double_complement(a):
    twice = a.complement().complement()
    assert twice.equals(a)
    assert twice.canonical().rects == a.canonical().rects


@settings(max_examples=60)
@given(region_st())
def test_canonical_preserves_membership(a):
    canon = a.canonical()
    for pt in _PROBES[:: 5]:
        assert canon.contains(pt) == a.contains(pt)
    for side in itertools.chain.from_iterable(canon.rects):
        assert not side.full_circle
        assert not (side.lo.is_infinity and side.lo_closed)
        assert not (side.hi.is_infinity and side.hi_closed)
        if not (side.lo.is_infinity or side.hi.is_infinity):
            # no wrap through inf: increasing arc or a single point
            assert side.lo < side.hi or (side.lo == side.hi and side.lo_closed)


@settings(max_examples=40)
@given(region_st(), region_st())
def test_covers_iff_union_is_identity(a, b):
    assert a.covers(b) == a.union(b).equals(a)


class TestFamilyImage:
    def test_river_weight_system(self):
        fam = BUILTIN_WEIGHT_FAMILIES["(inf,1)"]
        assert family_image(fam) == parse_interval("(inf,1)")

    def test_mirror_weight_system(self):
        fam = BUILTIN_WEIGHT_FAMILIES["(-1,inf)"]
        assert family_image(fam) == parse_interval("(-1,inf)")

    def test_all_builtins_hit_their_targets(self):
        for target, fam in BUILTIN_WEIGHT_FAMILIES.items():
            assert str(family_image(fam)) == target

    def test_constant_family(self):
        fam = SlopeFamily(Fraction(5, 3), (0, 0), BUILTIN_WEIGHT_FAMILIES["(inf,1)"].domain)
        assert family_image(fam) == CircleInterval.point(Fraction(5, 3))

    def test_whole_line_domain(self):
        fam = SlopeFamily(0, (1,), (CircleInterval.punctured(INFINITY),))
        assert family_image(fam) == CircleInterval.punctured(INFINITY)

    @pytest.mark.parametrize(
        "domain", ["[0,1]", "[0,1)", "(0,1]", "[inf,1)", "full", "(2,-2)", "(2,inf]", "(3,3)"]
    )
    def test_domain_must_be_open_arcs_not_through_inf(self, domain):
        with pytest.raises(ValueError):
            SlopeFamily(0, (1,), (parse_interval(domain),))

    @pytest.mark.parametrize("coeffs", [(), (1,), (1, 2, 3)])
    def test_one_coefficient_per_domain_interval(self, coeffs):
        with pytest.raises(ValueError, match="one coefficient per domain interval"):
            SlopeFamily(0, coeffs, (CircleInterval.open(0, 1), CircleInterval.open(0, 1)))


@st.composite
def linear_family_st(draw):
    k = draw(st.integers(1, 3))
    coeffs = tuple(Fraction(draw(st.integers(-3, 3))) for _ in range(k))
    const = Fraction(draw(st.integers(-3, 3)))
    dom = []
    for _ in range(k):
        lo = draw(st.integers(-3, 2))
        hi = draw(st.integers(lo + 1, 4))
        dom.append(CircleInterval.open(lo, hi))
    return SlopeFamily(const, coeffs, tuple(dom))


@given(linear_family_st())
def test_linear_image_matches_corner_enumeration(fam):
    img = family_image(fam)
    corners = itertools.product(*((iv.lo.value, iv.hi.value) for iv in fam.domain))
    values = [fam.constant + sum(k * x for k, x in zip(fam.coeffs, c)) for c in corners]
    if not any(fam.coeffs):
        assert img == CircleInterval.point(fam.constant)
    else:
        assert img == CircleInterval.open(min(values), max(values))


@given(linear_family_st(), st.integers(1, 3), st.integers(-2, 2), st.booleans())
def test_image_invariant_under_box_reparametrisation(fam, scale, offset, flip):
    # substitute x_0 = a*u + b, reparametrising the first box factor
    a = Fraction(-scale if flip else scale)
    b = Fraction(offset)
    lo, hi = fam.domain[0].lo.value, fam.domain[0].hi.value
    u_lo, u_hi = sorted(((lo - b) / a, (hi - b) / a))
    new_dom = (CircleInterval.open(u_lo, u_hi),) + fam.domain[1:]
    c0 = fam.coeffs[0]
    new_coeffs = (c0 * a,) + fam.coeffs[1:]
    new_const = fam.constant + c0 * b
    reparam = SlopeFamily(new_const, new_coeffs, new_dom)
    assert family_image(reparam) == family_image(fam)

import functools
import itertools
import math
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from tbsl import (
    INFINITY,
    CircleInterval,
    Framing,
    Region2,
    Slope,
    SlopeFamily,
    analyse,
    family_image,
    ln_link,
    parse_interval,
)
from oracles import grid_probes, integer_axes, member, remapped_by_atoms, shifted_by_rectangles
from tbsl.errors import FramingMismatch
from tbsl import regions
from tbsl.regions import BUILTIN_WEIGHT_FAMILIES, _atom_starts, _own_axis


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
_SHAPES = ("point", "punctured", "arc", "wrap", "ray_from_inf", "ray_to_inf")


@st.composite
def interval_st(draw):
    """Every interval over ``_ENDPOINTS``, by shape: points and punctures
    (at ``inf`` too), increasing arcs, arcs that wrap through ``inf``, and
    rays with one end at ``inf``, each end open or closed."""
    shape = draw(st.sampled_from(_SHAPES))
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


def _check_kernel_against_oracle(a, b):
    """Every set operation, ``covers``, ``equals`` and ``is_empty`` against the brute-force
    membership oracle on the joint grid's probes; returns the results and the probes."""
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
    return results, probes


@settings(max_examples=100)
@given(region_st(), region_st())
def test_kernel_matches_membership_oracle(a, b):
    _check_kernel_against_oracle(a, b)


def _check_row_masks_against_oracle(region, xs, ys, scale=1):
    rows = list(region.row_masks(*integer_axes(xs, ys, scale)))
    assert len(rows) == len(xs)
    for x, mask in zip(xs, rows):
        assert mask >> len(ys) == 0
        for j, y in enumerate(ys):
            finite = not (x.is_infinity or y.is_infinity)
            assert bool(mask >> j & 1) == (finite and member(region, (x, y))), (x, y)


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
    # each axis: every probe coordinate, off-grid values of mixed denominators, inf and
    # repeated values, in any order, over the lcm of the denominators times a scale, so a
    # numerator may be unreduced and lands on an endpoint only by an exact product
    probes = grid_probes(a)
    axes = []
    for k in (0, 1):
        values = [*dict.fromkeys(p[k] for p in probes), *data.draw(st.lists(_OFF_GRID, max_size=4))]
        repeats = data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=3))
        axes.append(data.draw(st.permutations([*values, INFINITY, *repeats])))
    _check_row_masks_against_oracle(a, *axes, scale=data.draw(st.integers(1, 12)))


def test_row_masks_read_unreduced_numerators():
    # over 2, the numerator 4 is the endpoint 2 itself; 3 and 5 lie on either side of it
    assert list(box("[2,3)", "(inf,inf)").row_masks([4, 3, 5, 6, None], [0], 2)) == [1, 0, 1, 0, 0]
    assert list(box("(inf,inf)", "(1,2]").row_masks([0], [4, 2, 3, None, 4], 2)) == [0b10101]


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
        assert not (side.lo.is_infinity and side.lo_closed)
        assert not (side.hi.is_infinity and side.hi_closed)
        if not (side.lo.is_infinity or side.hi.is_infinity):
            # no wrap through inf: increasing arc or a single point
            assert side.lo < side.hi or (side.lo == side.hi and side.lo_closed)


@settings(max_examples=40)
@given(region_st(), region_st())
def test_covers_iff_union_is_identity(a, b):
    assert a.covers(b) == a.union(b).equals(a)


# Each axis of the kernel scales its endpoints by the lcm of their denominators.  The
# strategies above use halves only; these mix coprime denominators, one of them the
# Mersenne prime 2^89 - 1 > 10^20, and probe with denominators that divide no such lcm.
_BIG_PRIME = 2**89 - 1
_MIXED_DENS = (1, 2, 3, 7, _BIG_PRIME)
_PROBE_DENS = (11, 13, 2**61 - 1)
_HAIR = Fraction(1, 13 * (2**61 - 1))


def _rationals_st(dens, bound=6):
    """Rationals in [-bound, bound] over the denominators ``dens``, negatives included."""
    return st.sampled_from(dens).flatmap(
        lambda d: st.integers(-bound * d, bound * d).map(lambda n: Fraction(n, d))
    )


@st.composite
def mixed_interval_st(draw, ends):
    """Any interval over ``ends`` (``inf`` among them): points and punctures,
    arcs, arcs through ``inf`` and rays, each end open or closed."""
    lo, hi = draw(st.sampled_from(ends)), draw(st.sampled_from(ends))
    lo_closed = draw(st.booleans())
    return CircleInterval(lo, hi, lo_closed, lo_closed if lo == hi else draw(st.booleans()))


@st.composite
def mixed_pair_st(draw):
    """Two regions of up to three rectangles over one pool of mixed-denominator endpoints."""
    pool = draw(st.lists(_rationals_st(_MIXED_DENS), min_size=2, max_size=6, unique=True))
    ends = [Slope(v) for v in pool] + [INFINITY]

    def region():
        count = draw(st.integers(0, 3))
        side = mixed_interval_st(ends)
        return Region2(Framing.SEIFERT, tuple((draw(side), draw(side)) for _ in range(count)))

    return pool, region(), region()


@settings(max_examples=80)
@given(mixed_pair_st(), st.lists(_rationals_st(_PROBE_DENS), max_size=6))
def test_mixed_denominators_match_membership_oracle(pair, off_grid):
    pool, a, b = pair
    results, probes = _check_kernel_against_oracle(a, b)
    # row_masks places off-grid slopes by a ceiling division: values just off each
    # endpoint and values whose denominators do not divide the axis's lcm
    extra = [Slope(v) for v in off_grid + [v + s * _HAIR for v in pool for s in (-1, 1)]]
    for region in (a, results["difference"][0]):
        xs, ys = ([*dict.fromkeys(p[k] for p in probes), *extra, INFINITY] for k in (0, 1))
        _check_row_masks_against_oracle(region, xs, ys)


_BINARY_OPS = ("union", "intersect", "difference")


@st.composite
def op_chain_st(draw):
    """Two regions, then two to four set operations: each step's first operand is the last
    result and its second any earlier region, so most operands carry a grid they were handed.
    Each result's rectangles are first read after a random later step, or right away."""
    pairs = st.one_of(st.tuples(region_st(), region_st()), mixed_pair_st().map(lambda t: t[1:]))
    start = draw(pairs)
    count = draw(st.integers(2, 4))
    steps = []
    for n in range(count):
        name = draw(st.sampled_from(_BINARY_OPS + ("complement", "canonical")))
        steps.append((name, draw(st.integers(0, n + 1)), draw(st.integers(n, count))))
    return start, steps


def _run_chain(start, steps, operand):
    pool = list(start)
    for n, (name, j, _) in enumerate(steps):
        a = operand(pool[-1])
        op = getattr(a, name)
        pool.append(op(operand(pool[j])) if name in _BINARY_OPS else op())
        assert "rects" not in vars(pool[-1])  # a result holds only its grid
        for k, step in enumerate(steps):
            if step[2] == n:
                assert pool[k + 2].rects is pool[k + 2].rects  # read once, then kept
    return pool


def _without_grid(region):
    return Region2(region.framing, region.rects)


@settings(max_examples=80)
@given(op_chain_st())
def test_kept_grids_agree_with_regions_built_from_rectangles(chain):
    assert "_grid" not in Region2._fields
    kept = _run_chain(*chain, operand=lambda r: r)
    built = _run_chain(*chain, operand=_without_grid)
    assert all("_grid" in vars(r) for r in kept[2:])  # every result was handed its grid
    probes = grid_probes(*kept)
    xs, ys = ([*dict.fromkeys(p[k] for p in probes), INFINITY] for k in (0, 1))
    grid = integer_axes(xs, ys)
    for i, (r, b) in enumerate(zip(kept, map(_without_grid, built))):
        bare = _without_grid(r)
        assert (r == bare, hash(r), repr(r)) == (True, hash(bare), repr(bare))
        if i >= 2:  # a result's rectangles, read off its grid, are its normal form
            assert bare.equals(r) and r.rects == bare.canonical().rects
        assert r.rects == b.rects
        assert r.canonical().rects == b.canonical().rects
        assert r.to_json_dict() == b.to_json_dict()
        assert r.is_empty() == b.is_empty()
        assert list(r.row_masks(*grid)) == list(b.row_masks(*grid))
        for r2, b2 in zip(kept, built):
            assert r.covers(r2) == b.covers(_without_grid(b2))
            assert r.equals(r2) == b.equals(_without_grid(b2))


def _grid_values(region):
    """Every value reachable from the kept grid: each axis's slots and the column list,
    walked through any container they hold."""
    xaxis, yaxis, cols = region._grid
    assert not any(hasattr(axis, "__dict__") for axis in (xaxis, yaxis))  # so its slots are all it holds
    todo = [getattr(axis, s) for axis in (xaxis, yaxis) for s in type(axis).__slots__]
    todo.append(cols)
    while todo:
        v = todo.pop()
        if isinstance(v, dict):
            todo += [*v, *v.values()]
        elif isinstance(v, (list, tuple, set, frozenset)):
            todo += v
        else:
            yield v


@settings(max_examples=40)
@given(op_chain_st())
def test_grids_hold_only_integers(chain):
    # an axis is its integer keys over one denominator: no Fraction or Slope is kept, in
    # regions built from rectangles or in the results of set operations
    for region in _run_chain(*chain, operand=lambda r: r):
        values = list(_grid_values(region))
        assert values and all(type(v) is int for v in values)


@given(st.one_of(region_st(), mixed_pair_st().map(lambda t: t[1])))
def test_an_axis_remaps_onto_itself_atom_for_atom(region):
    # why _remapped may skip an axis as long as the joint one: the joint axis then holds
    # the same endpoints, and each atom of an axis starts at the same atom of itself
    for axis in region._grid[:2]:
        assert _atom_starts(axis, axis) == list(range(2 * len(axis.keys) + 2))


def _axis_of(values) -> regions._Axis:
    """The axis of the finite ``values``: sorted integer keys over the lcm of their denominators."""
    den = math.lcm(*[v.denominator for v in values])
    return regions._Axis(sorted(v.numerator * (den // v.denominator) for v in values), den)


_ENDS = st.frozensets(st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7])),
                      max_size=6)
_F = Fraction


@settings(max_examples=200)
@given(_ENDS, _ENDS, _ENDS, _ENDS, st.randoms(use_true_random=False))
@example({_F(1, 2), _F(3, 2)}, {_F(1)}, {_F(5, 2)}, {_F(0), _F(2)}, random.Random(1))
@example({_F(1, 3)}, {_F(1, 7)}, {_F(1, 2)}, {_F(-1, 3)}, random.Random(2))
@example(frozenset(), frozenset(), {_F(1), _F(2)}, {_F(-1, 3)}, random.Random(3))
@example({_F(1), _F(2)}, {_F(1, 3)}, frozenset(), {_F(1, 3)}, random.Random(4))
def test_remap_matches_the_per_atom_oracle(xs, ys, more_xs, more_ys, rng):
    # the examples: equal denominators, differing ones, a grid with no endpoints, and joint
    # axes that add none; the joint axes are merged by the kernel and built here from values
    gx, gy = _axis_of(xs), _axis_of(ys)
    jx, jy = _axis_of(xs | more_xs), _axis_of(ys | more_ys)
    for axis, more, joint in ((gx, more_xs, jx), (gy, more_ys, jy)):
        merged = regions._merged(axis, _axis_of(more))
        assert (merged.keys, merged.den) == (joint.keys, joint.den)
    full = (1 << (2 * len(gy.keys) + 1)) - 1
    cols = [rng.choice((0, full, rng.getrandbits(full.bit_length())))
            for _ in range(2 * len(gx.keys) + 1)]
    grid = (gx, gy, cols)
    assert regions._remapped(grid, jx, jy) == remapped_by_atoms(grid, jx, jy)


def _mixed_boxes(count):
    """``count`` boxes of arcs, arcs through ``inf``, rays, points and punctures over the
    endpoints ``k + 1/d``, with ``d`` among 1, 3, 7 and 2^89 - 1, from a fixed seed."""
    rng = random.Random(count)
    dens = itertools.cycle((1, 3, 7, _BIG_PRIME))
    ends = [Slope(k + Fraction(1, d)) for k, d in zip(range(-8, 8), dens)] + [INFINITY]

    def interval():
        lo, hi, lo_closed = rng.choice(ends), rng.choice(ends), rng.random() < 0.5
        return CircleInterval(lo, hi, lo_closed, lo_closed if lo == hi else rng.random() < 0.5)

    return [(interval(), interval()) for _ in range(count)]


@pytest.mark.parametrize("count", [2, 5, 12, 24])
def test_set_operations_build_no_rectangle_until_one_is_read(monkeypatch, count):
    built = []
    rebuild = regions._run_to_interval
    monkeypatch.setattr(regions, "_run_to_interval", lambda *a: built.append(a) or rebuild(*a))
    boxes = [Region2(Framing.SEIFERT, (rect,)) for rect in _mixed_boxes(count)]
    u = functools.reduce(Region2.union, boxes)
    uc = u.complement()
    checks = (
        u.union(uc).equals(PLANE),
        u.intersect(uc).is_empty(),
        all(map(u.covers, boxes)),
        uc.complement().equals(u),
        u.difference(boxes[0]).union(boxes[0]).equals(u),
    )
    assert checks == (True,) * 5
    assert not built and not any("rects" in vars(r) for r in (u, uc))
    probes = grid_probes(PLANE, *boxes)  # reads the boxes' own rectangles only
    for r in (u, uc):
        rects = r.rects
        assert r.rects is rects  # read once, then kept
        bare = Region2(r.framing, rects)
        assert bare.equals(r) and rects == bare.canonical().rects
        assert [member(bare, p) for p in probes] == [r.contains(p) for p in probes]
    assert built


def test_an_attribute_error_inside_the_grid_or_the_rectangle_reader_is_not_hidden(monkeypatch):
    u = box("[0,1]", "(0,2)").union(box("[1,3)", "[1,inf)"))

    def broken(*args):
        raise AttributeError("raised inside")

    monkeypatch.setattr(regions, "_run_to_interval", broken)
    with pytest.raises(AttributeError, match="raised inside"):
        u.rects
    monkeypatch.setattr(regions, "_own_axis", broken)
    with pytest.raises(AttributeError, match="raised inside"):
        box("[0,1]", "[0,1]").is_empty()


# Operations that add no endpoint stay on the grid they have.  Deleting one of these fast
# paths changes no output, so the tests below pin each by the axis objects a result holds
# and by the remapping it does not do.

_ANY_REGION = st.one_of(region_st(), mixed_pair_st().map(lambda t: t[1]))


def _refuse(*args):
    raise AssertionError("called on a path that adds no endpoint")


@settings(max_examples=60)
@given(_ANY_REGION)
def test_complement_flips_the_columns_of_its_own_grid(a):
    via_plane = Region2.finite_plane(a.framing).difference(a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regions, "_merged", _refuse)
        mp.setattr(regions, "_remapped", _refuse)
        c = a.complement()
    assert c._grid[0] is a._grid[0] and c._grid[1] is a._grid[1]
    assert c.equals(via_plane) and c._grid[2] == via_plane._grid[2]
    assert c.rects == via_plane.rects and c.to_json_dict() == via_plane.to_json_dict()


@settings(max_examples=60)
@given(_ANY_REGION)
def test_an_operand_that_adds_no_endpoint_lends_its_axes(a):
    # against the empty region, the finite plane (no endpoints) or a region with the same
    # endpoints, the joint axes are the operands' own and no column is remapped
    f = a.framing
    same = Region2(f, a.rects[::-1])
    for other in (Region2.empty(f), Region2.finite_plane(f), same):
        for x, y in ((a, other), (other, a)):
            # _merged returns its first axis unless the second alone has endpoints
            pairs = zip(x._grid[:2], y._grid[:2])
            expect = [gy if gy.keys and other is not same else gx for gx, gy in pairs]
            spread = []  # only an axis without endpoints is spread over the joint one
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(regions, "_atom_starts", lambda axis, joint: spread.append(axis.keys)
                           or _atom_starts(axis, joint))
                union, meet, diff = x.union(y), x.intersect(y), x.difference(y)
                joint = regions._aligned_columns(x, y)[:2]
                checks = (x.equals(y), x.covers(y))
            assert not any(spread) and (other is not same or not spread)
            assert all(r._grid[k] is expect[k] for r in (union, meet, diff) for k in (0, 1))
            assert joint[0] is expect[0] and joint[1] is expect[1]
            inside = y.difference(x).is_empty()
            assert checks == (diff.is_empty() and inside, inside)


def test_axes_with_equal_keys_over_different_denominators_merge():
    # [1/2, 1] and [1/3, 2/3] are both the keys (1, 2), over 2 and over 3
    a, b = box("[1/2,1]", "[0,1]"), box("[1/3,2/3]", "[0,1]")
    assert a._grid[0].keys == b._grid[0].keys and a._grid[0].den != b._grid[0].den
    u = a.union(b)
    assert [u.contains((Fraction(v), 0)) for v in ("1/3", "1/2", "2/3", "3/4", "1")] == [True] * 5
    assert not u.contains((Fraction(1, 4), 0)) and not a.covers(b) and not a.equals(b)


_SHIFT = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@settings(max_examples=80)
@given(op_chain_st(), _SHIFT, _SHIFT, st.sampled_from([Fraction, str]))
def test_shift_moves_the_keys_of_the_grid_and_builds_no_rectangle(chain, dx, dy, form):
    for i, r in enumerate(_run_chain(*chain, operand=lambda r: r)):
        expect = shifted_by_rectangles(r, dx, dy)
        built = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(regions, "_run_to_interval", lambda *a: built.append(a))
            moved = r.shifted(form(dx), form(dy))
            reframed = moved.with_framing(Framing.CANONICAL)
        assert not built and not any("rects" in vars(m) for m in (moved, reframed))
        assert moved._grid[2] is r._grid[2] and reframed._grid == moved._grid
        assert moved.equals(expect) and moved.canonical().rects == expect.canonical().rects
        assert moved.to_json_dict() == expect.to_json_dict()
        assert reframed.to_json_dict() == Region2(Framing.CANONICAL, expect.rects).to_json_dict()
        for k, d in ((0, dx), (1, dy)):
            if i < 2:  # built from rectangles: its grid holds their endpoints only
                own = _own_axis(expect, k)
            else:  # the axis _own_axis builds from points at every moved endpoint of the grid
                axis = r._grid[k]
                ends = [CircleInterval.point(Fraction(v, axis.den) + d) for v in axis.keys]
                own = _own_axis(Region2(r.framing, tuple(zip(ends, ends))), 0)
            assert (moved._grid[k].keys, moved._grid[k].den) == (own.keys, own.den)


def test_shift_refuses_floats_even_without_endpoints():
    for r in (box("[0,1]", "(1,2)"), PLANE, Region2.empty(Framing.SEIFERT)):
        for d in ((0.5, 0), (0, 0.5)):
            with pytest.raises(TypeError, match="floats are not exact"):
                r.shifted(*d)


def test_seifert_regions_of_a_link_build_no_rectangle(monkeypatch, fresh_witness_table):
    # a mirror's witness row negates the strips' rectangles when it is built, so the rows are
    # built first, on a table this test builds whatever ran before it; all else runs patched
    links = [link for n in (2, 5) for link in (ln_link(n), ln_link(n).mirror())]
    for link in links:
        analyse(link).witness
    built, found = [], []
    monkeypatch.setattr(regions, "_run_to_interval", lambda *a: built.append(a))
    for link in links:
        analysis = analyse(link)
        found.append((analysis, analysis.regions(Framing.SEIFERT)))
    assert not built
    monkeypatch.undo()
    for analysis, seifert in found:
        lk = analysis.linking
        for r, c in zip(seifert, analysis.regions(Framing.CANONICAL)):
            expect = Region2(Framing.SEIFERT, shifted_by_rectangles(c, lk, lk).rects)
            assert r.to_json_dict() == expect.to_json_dict()


def _kernel_outputs(boxes, xs, ys):
    region = Region2(Framing.SEIFERT, tuple(boxes))
    half = len(boxes) // 2
    a = Region2(Framing.SEIFERT, tuple(boxes[:half]))
    b = Region2(Framing.SEIFERT, tuple(boxes[half:]))
    return {
        "union": a.union(b).rects,
        "intersect": a.intersect(b).rects,
        "difference": a.difference(b).rects,
        "complement": region.complement().rects,
        "covers": (region.covers(a), a.covers(region), a.covers(a.intersect(b))),
        "equals": (region.equals(a.union(b)), a.equals(b)),
        "canonical": region.canonical().rects,
        "to_json_dict": region.to_json_dict(),
        "row_masks": list(region.row_masks(*integer_axes(xs, ys))),
    }


def test_kernel_makes_no_fraction_order_comparison_or_hash(monkeypatch):
    # the kernel compares integer keys; only a rebuilt rectangle reads a Fraction
    boxes = _mixed_boxes(24)
    grid = [Slope(Fraction(n, d)) for n in range(-30, 31, 7) for d in (1, 5, 11)]
    near = [Slope(iv.lo.value + _HAIR) for rect in boxes for iv in rect if not iv.lo.is_infinity]
    xs, ys = [*grid, *near, INFINITY], [*reversed(grid), *near]
    expected = _kernel_outputs(boxes, xs, ys)

    def refuse(*args):
        raise AssertionError("Fraction compared or hashed in the region kernel")

    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__hash__"):
        monkeypatch.setattr(Fraction, name, refuse)
    got = _kernel_outputs(boxes, xs, ys)
    monkeypatch.undo()
    assert got == expected


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
        "domain", ["[0,1]", "[0,1)", "(0,1]", "[inf,1)", "(2,-2)", "(2,inf]", "(3,3)"]
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

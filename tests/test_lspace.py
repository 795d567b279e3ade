from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tbsl import (
    INFINITY,
    CircleInterval,
    Framing,
    Region2,
    Slope,
    SurgeryDiagram,
    lspace,
    lspace_region,
    ln_link,
    rect_propagate,
    rr_propagate,
    verify_ln_chain,
)
from tbsl.errors import OutOfScope
from tbsl.twobridge import TwoBridgeLink, parse_link


class TestRrPropagate:
    def test_arc_between_infinity_and_one(self):
        (arc,) = rr_propagate({INFINITY, Slope(1)}, Slope(2))
        assert arc == CircleInterval.closed(INFINITY, 1)

    def test_contains_the_filling_slopes(self):
        (arc,) = rr_propagate({INFINITY, Slope(1)}, Slope(2))
        for n in range(2, 60):
            assert arc.contains(Fraction(-1, n - 1))

    def test_singleton(self):
        (arc,) = rr_propagate({Slope(5)}, Slope(0))
        assert arc == CircleInterval.point(5)

    def test_no_known_slope_rejected(self):
        with pytest.raises(ValueError, match="need at least one known slope"):
            rr_propagate(set(), 2)

    def test_longitude_in_known_rejected(self):
        with pytest.raises(ValueError):
            rr_propagate({Slope(2), Slope(3)}, Slope(2))

    def test_output_avoids_longitude_and_contains_input(self):
        pts = {Slope(-3), Slope(Fraction(1, 2)), INFINITY, Slope(4)}
        longitude = Slope(1)
        (arc,) = rr_propagate(pts, longitude)
        assert not arc.contains(longitude)
        assert all(arc.contains(p) for p in pts)

    def test_idempotent(self):
        pts = {Slope(-3), Slope(Fraction(1, 2)), INFINITY}
        (arc,) = rr_propagate(pts, Slope(1))
        again = rr_propagate({arc.lo, arc.hi}, Slope(1))
        assert again == (arc,)


_SLOPE_POOL = [Slope(Fraction(n, d)) for n in range(-5, 6) for d in (1, 2, 3)] + [INFINITY]


@given(
    st.sets(st.sampled_from(_SLOPE_POOL), min_size=2, max_size=6),
    st.sampled_from(_SLOPE_POOL),
)
def test_rr_propagate_minimal_closed_arc(known, longitude):
    if longitude in known:
        return
    (arc,) = rr_propagate(known, longitude)
    assert not arc.contains(longitude)
    assert all(arc.contains(p) for p in known)
    # minimality: the arc is pinned by members of the known set
    assert arc.lo in known and arc.hi in known
    assert arc.lo_closed and arc.hi_closed
    again = rr_propagate({arc.lo, arc.hi}, longitude)
    assert again == (arc,)


class TestRectPropagate:
    def test_positive_seed(self):
        region = rect_propagate((Fraction(1), Fraction(1)), 0)
        assert region.contains((1, 1))
        ((ix, iy),) = region.rects
        assert ix.contains(INFINITY) and iy.contains(INFINITY)
        assert region.contains((Fraction(3, 2), 10**6))
        assert not region.contains((Fraction(1, 2), 2))

    def test_negative_seed(self):
        region = rect_propagate((Fraction(-1), Fraction(-1)), 0)
        assert region.contains((-1, -1))
        assert region.contains((-10, -(10**6)))
        ((ix, iy),) = region.rects
        assert ix.contains(INFINITY) and iy.contains(INFINITY)
        assert not region.contains((0, -2))

    def test_ln_seed(self):
        for n in range(1, 20):
            region = rect_propagate((Fraction(n), Fraction(n)), n - 1)
            assert region.contains((n, n))

    def test_precondition_violations(self):
        with pytest.raises(ValueError):
            rect_propagate((Fraction(1), Fraction(-1)), 0)  # mixed signs
        with pytest.raises(ValueError):
            rect_propagate((Fraction(1), Fraction(1)), 2)  # r1 r2 <= lk^2


class TestLspaceRegion:
    def test_whitehead_quadrant(self):
        region = lspace_region(ln_link(1))
        expected = Region2.box(
            CircleInterval.closed(1, INFINITY),
            CircleInterval.closed(1, INFINITY),
            Framing.CANONICAL,
        )
        assert region.equals(expected)
        assert not region.contains((INFINITY, 5))

    def test_mirror_quadrant(self):
        region = lspace_region(ln_link(3).mirror())
        assert region.contains((-3, -3))
        assert region.contains((-7, Fraction(-7, 2)))
        assert not region.contains((-3, -2))

    def test_generic_fibered_empty(self):
        region = lspace_region(parse_link("L(2,2,-2,-2,2)"))
        assert region.is_empty()

    def test_family_regions_empty(self):
        for spec in ["b(30,-11)", "L(-2,-2,-2)", "L(-2,-2,-2,-2,-2)"]:
            assert lspace_region(parse_link(spec)).is_empty()

    def test_out_of_scope(self):
        with pytest.raises(OutOfScope):
            lspace_region(parse_link("L(2)"))
        with pytest.raises(OutOfScope):
            lspace_region(TwoBridgeLink(10, 3))

    def test_mirror_negates_region(self):
        for n in range(1, 51):
            L = ln_link(n)
            assert lspace_region(L.mirror()).equals(lspace_region(L).negated())


def test_regions_disjoint_for_all_small_links(links_200):
    from oracles import unoriented_key
    from tbsl import classify, foliation_region

    seen = set()
    for L in links_200:
        key = unoriented_key(L)
        if key in seen or not classify(L).is_hyperbolic_fibered:
            continue
        seen.add(key)
        assert lspace_region(L).intersect(foliation_region(L)).is_empty()


class TestVerifyLnChain:
    def test_small_indices(self):
        assert verify_ln_chain(1)
        assert verify_ln_chain(2)

    def test_medium_index(self):
        assert verify_ln_chain(50)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            verify_ln_chain(0)


def _moved(d):
    """``d`` with its first slope moved up by one."""
    return d.with_slope(0, d.slopes[0].shifted(1))


def _relinked(d):
    """``d`` with its slopes kept and its linking number one higher."""
    lk = d.linking[0][1] + 1
    return SurgeryDiagram(((0, lk), (lk, 0)), d.slopes, d.framing)


#: One broken step of the replay each: (the name ``tbsl.lspace`` imports, the faulty
#: version built from the real one).  Every fault must make the replay fail.
BROKEN_STEPS = {
    "longitude": ("drilled_longitude", lambda real: lambda d, i: Slope(3)),
    # [1, 2] holds neither -1/(n-1) nor inf
    "arc": ("rr_propagate", lambda real: lambda known, longitude: (CircleInterval.closed(1, 2),)),
    "fill-slope": ("rolfsen_fill", lambda real: lambda d, i: _moved(real(d, i))),
    "fill-linking": ("rolfsen_fill", lambda real: lambda d, i: _relinked(real(d, i))),
    # right at the seed, whose first slope is 1, and wrong at the second seed
    "fill-affine": (
        "rolfsen_fill",
        lambda real: lambda d, i: real(d, i) if d.slopes[0] == Slope(1) else _moved(real(d, i)),
    ),
    "quadrant": ("lspace_region", lambda real: lambda link: real(link).negated()),
}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("step", sorted(BROKEN_STEPS))
def test_verify_ln_chain_fails_on_a_broken_step(monkeypatch, step, n):
    name, broken = BROKEN_STEPS[step]
    monkeypatch.setattr(lspace, name, broken(getattr(lspace, name)))
    assert verify_ln_chain(n) is False

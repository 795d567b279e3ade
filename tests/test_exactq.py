from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given

from oracles import even_expansion_search
from tbsl import (
    INFINITY,
    CircleInterval,
    EvenExpansion,
    Framing,
    MonodromyWord,
    Region2,
    Slope,
    SurgeryDiagram,
    cf_eval,
    even_expand,
    homological_longitude,
    parse_interval,
    rr_propagate,
)
from tbsl.exactq import MAX_EVEN_ENTRIES
from tbsl.svgplot import region_svg


class TestSlope:
    def test_order_puts_inf_on_top(self):
        assert Slope(1) < Slope(2) < INFINITY
        assert not INFINITY < Slope(10**9)

    def test_parse_render_roundtrip(self):
        for text in ["inf", "8/5", "-30/11", "2", "0", "-1/3"]:
            assert str(Slope.parse(text)) == text

    @pytest.mark.parametrize("text", ["1e3", "1E3", "0.5", "+3", "1_000"])
    def test_parse_reads_only_digits_over_digits(self, text):
        # Fraction reads each of these, and computes 1e10000000 in full
        with pytest.raises(ValueError, match=r"not of the form \[-\]digits\[/digits\]"):
            Slope.parse(text)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Slope("1e3"),
            lambda: Slope(" +1_0 "),
            lambda: Slope("0.5"),
            lambda: CircleInterval.open(0, 1).shifted("1e2"),
        ],
        ids=["exponent", "plus-underscore", "decimal", "shifted-exponent"],
    )
    def test_text_values_read_only_digits_over_digits(self, build):
        # as_rat reads text by the rule Slope.parse keeps, not by Fraction's
        with pytest.raises(ValueError, match=r"not of the form \[-\]digits\[/digits\]"):
            build()

    def test_text_values_still_read(self):
        assert Slope("1/2") == Slope(Fraction(1, 2))
        assert Slope("-3") == Slope(-3)
        assert CircleInterval.open(0, 1).shifted("-1/2") == CircleInterval.open("-1/2", "1/2")

    def test_zero_denominator_is_named(self):
        # the text is reported as given, padding included
        with pytest.raises(ZeroDivisionError, match=r"^slope ' 1/0 ' has a zero denominator$"):
            Slope.parse(" 1/0 ")

    def test_negation_and_shift(self):
        assert -Slope(Fraction(8, 5)) == Slope(Fraction(-8, 5))
        assert -INFINITY == INFINITY
        assert INFINITY.shifted(7) == INFINITY
        assert Slope(1).shifted(Fraction(1, 2)) == Slope(Fraction(3, 2))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Slope.of(0.5)
        with pytest.raises(TypeError):
            Slope(1).shifted(0.25)
        with pytest.raises(TypeError):
            even_expand(1.6)


_EMPTY = Region2.empty(Framing.CANONICAL)


@pytest.mark.parametrize(
    "build",
    [
        lambda: EvenExpansion((2.5, -2, -2)),
        lambda: cf_eval([2.9, -2.1, -2]),
        lambda: SurgeryDiagram(((0, 1.7), (1.2, 0)), (None, None), Framing.CANONICAL),
        lambda: MonodromyWord(((2, -1.0), (1.5, 1))),
        lambda: region_svg(_EMPTY, _EMPTY, 10.5),
        lambda: homological_longitude(0.1, 2),
    ],
    ids=[
        "EvenExpansion",
        "cf_eval",
        "SurgeryDiagram",
        "MonodromyWord",
        "region_svg",
        "homological_longitude",
    ],
)
def test_floats_rejected_where_integers_are_read(build):
    # int() would truncate each of these without a word
    with pytest.raises(TypeError):
        build()


class TestCfEval:
    def test_whitehead_fraction(self):
        assert cf_eval([2, -2, -2]) == Slope(Fraction(8, 5))

    def test_single_term(self):
        assert cf_eval([2]) == Slope(2)

    def test_rewritten_family2_fraction(self):
        assert cf_eval([-2, -2, 2, -2, -2]) == Slope(Fraction(-30, 11))

    def test_vanishing_tail_gives_inf(self):
        # 1 + 1/(-1 + 1/1) has tail -1 + 1 = 0, so the value is 1 + inf = inf
        assert cf_eval([1, -1, 1]) == INFINITY

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cf_eval([])

    def test_zero_entry_rejected(self):
        with pytest.raises(ValueError):
            cf_eval([2, 0, 2])


class TestEvenExpand:
    @pytest.mark.parametrize(
        "value, expansion",
        [
            (Fraction(8, 5), (2, -2, -2)),
            (Fraction(2), (2,)),
            (Fraction(-30, 11), (-2, -2, 2, -2, -2)),
            (Fraction(30, 19), (2, -2, -2, -2, 2)),
            (Fraction(12, 5), (2, 2, 2)),
        ],
    )
    def test_known_expansions(self, value, expansion):
        assert even_expand(value).coeffs == expansion

    def test_matches_exhaustive_search(self):
        for value in [Fraction(8, 5), Fraction(-30, 11), Fraction(70, 29), Fraction(4)]:
            found = even_expansion_search(value, 9)
            assert found == [even_expand(value).coeffs]

    @pytest.mark.parametrize("bad", [Fraction(3, 5), Fraction(5), Fraction(0)])
    def test_parity_violations_rejected(self, bad):
        with pytest.raises(ValueError):
            even_expand(bad)

    def test_small_values_rejected(self):
        # |x| <= 1 admits no expansion with nonzero even entries
        with pytest.raises(ValueError):
            even_expand(Fraction(2, 5))
        assert even_expansion_search(Fraction(2, 5), 9) == []

    def test_length_is_bounded(self):
        # p/(p-1) expands as p - 1 entries ±2: every denominator up to the bound fits
        p = MAX_EVEN_ENTRIES
        assert len(even_expand(Fraction(p, p - 1)).coeffs) == p - 1
        with pytest.raises(ValueError, match="more than 1000000 entries"):
            even_expand(Fraction(2 * p + 2, 2 * p + 1))


@st.composite
def even_over_odd(draw):
    p = draw(st.integers(min_value=1, max_value=5000)) * 2
    q = draw(st.integers(min_value=0, max_value=(p - 2) // 2)) * 2 + 1
    if gcd(p, q) != 1:
        q = 1
    sign = draw(st.sampled_from([1, -1]))
    return Fraction(sign * p, q)


@given(even_over_odd())
def test_roundtrip_cf_eval_even_expand(x):
    e = even_expand(x)
    assert len(e) % 2 == 1
    assert cf_eval(e.coeffs) == Slope(x)


@given(even_over_odd(), st.integers(min_value=-6, max_value=6))
def test_even_expansion_is_unique_in_search_window(x, _seed):
    found = even_expansion_search(x, 7)
    e = even_expand(x)
    if len(e) <= 7:
        assert found == [e.coeffs]
    else:
        assert found == []


class TestEvenExpansionType:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvenExpansion((2, -2))  # even length
        with pytest.raises(ValueError):
            EvenExpansion((2, 3, 2))  # odd entry
        with pytest.raises(ValueError):
            EvenExpansion((2, 0, 2))  # zero entry

    def test_helpers(self):
        e = EvenExpansion((2, -2, -2))
        assert e.halves() == (1, -1, -1)
        assert e.all_plus_minus_two
        assert e.negated().coeffs == (-2, 2, 2)


class TestCircleInterval:
    def test_arc_through_infinity(self):
        arc = CircleInterval.open(INFINITY, 1)
        assert arc.contains(Fraction(-1000))
        assert arc.contains(0)
        assert not arc.contains(1)
        assert not arc.contains(2)
        assert not arc.contains(INFINITY)

    def test_wrapping_arc(self):
        arc = CircleInterval.open(2, -2)
        assert arc.contains(3)
        assert arc.contains(INFINITY)
        assert arc.contains(-3)
        assert not arc.contains(0)

    def test_point_and_punctured(self):
        assert CircleInterval.point(5).contains(5)
        assert not CircleInterval.point(5).contains(6)
        punctured = CircleInterval.punctured(INFINITY)
        assert punctured.contains(123)
        assert not punctured.contains(INFINITY)

    def test_mixed_degenerate_rejected(self):
        with pytest.raises(ValueError):
            CircleInterval(Slope(1), Slope(1), True, False)

    def test_render_parse_roundtrip(self):
        for iv in [
            CircleInterval.open(INFINITY, 1),
            CircleInterval.closed(0, 1),
            CircleInterval(Slope(1), INFINITY, False, True),
            CircleInterval.point(Fraction(-1, 3)),
            CircleInterval.punctured(INFINITY),
        ]:
            assert parse_interval(str(iv)) == iv

    def test_parse_refuses_a_non_interval(self):
        with pytest.raises(ValueError, match=r"not an interval: '\[1;2\]'"):
            parse_interval("[1;2]")

    def test_negated(self):
        assert CircleInterval.open(INFINITY, 1).negated() == CircleInterval.open(-1, INFINITY)
        assert CircleInterval.closed(2, INFINITY).negated() == CircleInterval.closed(
            INFINITY, -2
        )


class TestIntervalBetween:
    """The closed arc between two slopes that avoids a third, as ``rr_propagate`` fills it."""

    def test_arc_avoiding_two(self):
        arc = rr_propagate({INFINITY, 1}, 2)[0]
        assert arc == CircleInterval.closed(INFINITY, 1)
        assert arc.contains(INFINITY) and arc.contains(1) and arc.contains(-7)
        assert not arc.contains(2)

    def test_finite_arc(self):
        assert rr_propagate({0, 1}, INFINITY)[0] == CircleInterval.closed(0, 1)

    def test_complementary_arc(self):
        arc = rr_propagate({INFINITY, 1}, -5)[0]
        assert arc == CircleInterval.closed(1, INFINITY)
        assert arc.contains(2) and arc.contains(3)
        assert not arc.contains(-5)

    def test_degenerate_arguments_rejected(self):
        with pytest.raises(ValueError):
            rr_propagate({0, 1}, 1)


_POINTS = [Slope(Fraction(n, d)) for n in range(-4, 5) for d in (1, 2, 3)] + [INFINITY]


@given(
    st.sampled_from(_POINTS),
    st.sampled_from(_POINTS),
    st.sampled_from(_POINTS),
    st.sampled_from(_POINTS),
)
def test_complementary_arcs_partition_circle(a, b, avoid, probe):
    if a == b or avoid in (a, b):
        return
    first = rr_propagate({a, b}, avoid)[0]
    second = rr_propagate({a, b}, _interior_point(first))[0]
    assert first.contains(probe) or second.contains(probe)
    if first.contains(probe) and second.contains(probe):
        assert probe in (a, b)


def _interior_point(arc):
    # midpoint of a closed arc between distinct endpoints, wrapping at inf
    lo, hi = arc.lo, arc.hi
    if lo.is_infinity:
        return Slope(hi.value - 1)
    if hi.is_infinity:
        return Slope(lo.value + 1)
    if lo < hi:
        return Slope((lo.value + hi.value) / 2)
    return INFINITY


@given(st.sampled_from(_POINTS), st.sampled_from(_POINTS), st.sampled_from(_POINTS))
def test_membership_matches_linear_order_off_infinity(lo, hi, probe):
    if lo == hi or lo.is_infinity or hi.is_infinity or hi < lo:
        return
    arc = CircleInterval.closed(lo, hi)
    # no inf in the interior: membership is the plain order condition
    if not probe.is_infinity:
        assert arc.contains(probe) == (lo <= probe <= hi)
    else:
        assert not arc.contains(probe)

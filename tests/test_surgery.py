import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from tbsl import (
    INFINITY,
    Framing,
    Slope,
    SurgeryDiagram,
    drilled_longitude,
    framing_convert,
    is_qhs,
    presentation_matrix,
    rolfsen_fill,
)
from oracles import laplace_det
from tbsl.errors import FramingMismatch, UnsupportedSlope
from tbsl.surgery import _det

# the three auxiliary links whose surgery chains are replayed in the tests:
# the seed of the exceptional family, the all-negative companion, and the
# strip-cover companion
LN_SEED_LK = ((0, 0, 1), (0, 0, 1), (1, 1, 0))
FAMILY1_LK = ((0, -1, 1), (-1, 0, -1), (1, -1, 0))
LN_STRIP_LK = ((0, 1, 1), (1, 0, -1), (1, -1, 0))


def diagram(lk, slopes, framing=Framing.CANONICAL):
    return SurgeryDiagram(lk, tuple(None if s is None else Slope.of(s) for s in slopes), framing)


class TestDiagram:
    def test_validation(self):
        with pytest.raises(ValueError):
            diagram(((1, 0), (0, 0)), (1, 1))  # nonzero diagonal
        with pytest.raises(ValueError):
            diagram(((0, 1), (2, 0)), (1, 1))  # asymmetric
        with pytest.raises(ValueError):
            diagram(((0, 1), (1, 0)), (1, 1, 1))  # slope count mismatch
        with pytest.raises(ValueError, match="square and nonempty"):
            SurgeryDiagram((), (), Framing.CANONICAL)  # no component
        with pytest.raises(ValueError, match="square and nonempty"):
            diagram(((0, 1), (1, 0, 0)), (1, 1))  # a row too long


class TestFramingConvert:
    def test_family1_diagram_shift(self):
        d = diagram(FAMILY1_LK, ("5", "7", "-1"), Framing.SEIFERT)
        out = framing_convert(d, Framing.CANONICAL)
        assert out.slopes == (Slope(5), Slope(9), Slope(-1))

    def test_zero_linking_is_identity(self):
        d = diagram(((0, 0), (0, 0)), ("1/2", -3), Framing.SEIFERT)
        assert framing_convert(d, Framing.CANONICAL).slopes == d.slopes

    def test_ln_strip_diagram_shift(self):
        d = diagram(LN_STRIP_LK, (7, -2, Fraction(-1, 4)), Framing.SEIFERT)
        out = framing_convert(d, Framing.CANONICAL)
        assert out.slopes == (Slope(5), Slope(-2), Slope(Fraction(-1, 4)))

    def test_infinity_fixed(self):
        d = diagram(FAMILY1_LK, ("inf", 0, 1), Framing.SEIFERT)
        assert framing_convert(d, Framing.CANONICAL).slopes[0] == INFINITY

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    def test_bijection(self, lk12, lk13, lk23, a):
        lk = ((0, lk12, lk13), (lk12, 0, lk23), (lk13, lk23, 0))
        d = diagram(lk, (a, Fraction(1, 3), "inf"), Framing.SEIFERT)
        there = framing_convert(d, Framing.CANONICAL)
        back = framing_convert(there, Framing.SEIFERT)
        assert back == d


class TestRolfsenFill:
    def test_ln_seed_coefficients(self):
        # (1, 1, -1/m) fills to (1+m, 1+m) with the linking updated to m
        for m in range(1, 31):
            d = diagram(LN_SEED_LK, (1, 1, Fraction(-1, m)))
            out = rolfsen_fill(d, 2)
            assert out.slopes == (Slope(1 + m), Slope(1 + m))
            assert out.linking[0][1] == m

    def test_infinity_fill_is_plain_deletion(self):
        d = diagram(LN_SEED_LK, (1, 1, "inf"))
        out = rolfsen_fill(d, 2)
        assert out.slopes == (Slope(1), Slope(1))
        assert out.linking == ((0, 0), (0, 0))

    def test_family1_coefficients(self):
        d = diagram(FAMILY1_LK, ("5", "9", -1))
        out = rolfsen_fill(d, 2)
        assert out.slopes == (Slope(6), Slope(10))
        assert out.linking[0][1] == -2

    def test_strip_diagram_coefficients(self):
        for n in range(2, 12):
            seifert = diagram(LN_STRIP_LK, (0, 0, Fraction(-1, n)), Framing.SEIFERT)
            out = rolfsen_fill(framing_convert(seifert, Framing.CANONICAL), 2)
            assert out.slopes == (Slope(n - 2), Slope(n))
            assert abs(out.linking[0][1]) == n - 1

    def test_bad_slopes_rejected(self):
        with pytest.raises(UnsupportedSlope):
            rolfsen_fill(diagram(LN_SEED_LK, (1, 1, Fraction(2, 3))), 2)
        with pytest.raises(FramingMismatch):
            rolfsen_fill(diagram(LN_SEED_LK, (1, 1, -1), Framing.SEIFERT), 2)
        with pytest.raises(ValueError, match="must carry a slope"):
            rolfsen_fill(diagram(LN_SEED_LK, (1, 1, None)), 2)

    @pytest.mark.parametrize("lk", [LN_SEED_LK, FAMILY1_LK, LN_STRIP_LK])
    def test_fill_preserves_homology(self, lk):
        rng = random.Random(7)
        for m in range(1, 31):
            a = Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
            b = Fraction(rng.randrange(-9, 10) * 2 + 1, 1)
            d = diagram(lk, (a, b, Fraction(-1, m)))
            full = presentation_matrix(d)
            filled = presentation_matrix(rolfsen_fill(d, 2))
            assert filled.order == full.order


class TestPresentation:
    def test_ln_seed_determinant(self):
        d = diagram(LN_SEED_LK, (1, 1, Fraction(7, 3)))
        assert abs(presentation_matrix(d).determinant) == abs(7 - 2 * 3)

    def test_all_infinity_is_trivial(self):
        d = diagram(LN_SEED_LK, ("inf", "inf", "inf"))
        report = presentation_matrix(d)
        assert report.presentation == () and report.order == 1

    def test_two_component_formula(self):
        d = diagram(((0, 3), (3, 0)), (Fraction(5, 2), Fraction(7, 4)))
        assert presentation_matrix(d).determinant in (5 * 7 - 2 * 4 * 9, -(5 * 7 - 2 * 4 * 9))

    def test_refusals(self):
        with pytest.raises(FramingMismatch):
            presentation_matrix(diagram(LN_SEED_LK, (1, 1, 1), Framing.SEIFERT))
        with pytest.raises(ValueError, match="fully filled"):
            presentation_matrix(diagram(LN_SEED_LK, (1, 1, None)))

    def test_report_json(self):
        d = diagram(((0, 0), (0, 0)), (0, 5))
        out = presentation_matrix(d).to_json_dict()
        assert out["order"] == "infinite" and out["determinant"] == 0

    @given(
        st.integers(0, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n
            )
        )
    )
    def test_det_matches_laplace(self, rows):
        # small entries give zero pivots and singular matrices often
        m = tuple(tuple(row) for row in rows)
        assert _det(m) == laplace_det(m)

    def test_det_12x12(self):
        # six blocks ((0, a), (b, c)) on the diagonal, det -a*b each; every
        # block starts with a zero pivot, so each needs a row swap
        blocks = [(a, a + 2, a * a - 7) for a in range(1, 7)]
        m = [[0] * 12 for _ in range(12)]
        for k, (a, b, c) in enumerate(blocks):
            m[2 * k][2 * k + 1], m[2 * k + 1][2 * k], m[2 * k + 1][2 * k + 1] = a, b, c
        # a multiple of the block rows above added to the last row keeps det
        for j in range(12):
            m[11][j] += 5 * m[0][j] - 3 * m[4][j]
        expected = 1
        for a, b, _ in blocks:
            expected *= -a * b
        assert _det(tuple(map(tuple, m))) == expected


class TestQhs:
    def test_whitehead_zero_slope(self):
        assert not is_qhs(diagram(((0, 0), (0, 0)), (0, 5)))

    def test_all_infinity_is_sphere(self):
        assert is_qhs(diagram(((0, 0), (0, 0)), ("inf", "inf")))

    def test_ln_corner(self):
        for n in range(1, 20):
            lk = n - 1
            assert is_qhs(diagram(((0, lk), (lk, 0)), (n, n)))

    def test_three_components_rejected(self):
        with pytest.raises(ValueError, match="two-component"):
            is_qhs(diagram(LN_SEED_LK, (1, 1, 1)))

    def test_drilled_component_rejected(self):
        with pytest.raises(ValueError, match="fully filled"):
            is_qhs(diagram(((0, 1), (1, 0)), (1, None)))

    def test_seifert_framing_refused(self):
        # Seifert (1, 1) with lk = 1 is canonical (0, 0): det -1, a rational homology sphere
        d = diagram(((0, 1), (1, 0)), (1, 1), Framing.SEIFERT)
        assert presentation_matrix(framing_convert(d, Framing.CANONICAL)).determinant == -1
        with pytest.raises(FramingMismatch, match="canonical"):
            is_qhs(d)

    def test_zero_infinity_pair(self):
        assert not is_qhs(diagram(((0, 2), (2, 0)), (0, "inf")))
        assert is_qhs(diagram(((0, 2), (2, 0)), (1, "inf")))

    @given(
        st.integers(-30, 30),
        st.integers(1, 9),
        st.integers(-30, 30),
        st.integers(1, 9),
        st.integers(-6, 6),
    )
    def test_matches_determinant(self, p1, q1, p2, q2, lk):
        d = diagram(((0, lk), (lk, 0)), (Fraction(p1, q1), Fraction(p2, q2)))
        det = presentation_matrix(d).determinant
        assert is_qhs(d) == (det != 0)

    _SLOPE = st.one_of(
        st.just(INFINITY),
        st.just(Slope(0)),
        st.builds(lambda p, q: Slope(Fraction(p, q)), st.integers(-30, 30), st.integers(1, 9)),
    )

    @given(_SLOPE, _SLOPE, st.integers(-6, 6))
    @example(INFINITY, INFINITY, 1)
    @example(INFINITY, Slope(0), 2)
    @example(Slope(0), INFINITY, 0)
    @example(Slope(2), INFINITY, 3)
    @example(Slope(0), Slope(5), 0)
    @example(Slope(Fraction(9, 2)), Slope(2), 3)
    def test_filling_helper_matches_diagram(self, r1, r2, lk):
        d = diagram(((0, lk), (lk, 0)), (r1, r2))
        assert is_qhs(d) == (presentation_matrix(d).determinant != 0)


class TestLongitudes:
    def test_drilled_ln_seed(self):
        d = diagram(LN_SEED_LK, (1, 1, None))
        assert drilled_longitude(d, 2) == Slope(2)

    def test_drilled_refusals(self):
        with pytest.raises(ValueError, match="must be unfilled"):
            drilled_longitude(diagram(LN_SEED_LK, (1, 1, 1)), 2)
        with pytest.raises(ValueError, match="must be filled"):
            drilled_longitude(diagram(LN_SEED_LK, (1, None, None)), 2)
        with pytest.raises(ValueError, match="not a rational homology solid torus"):
            drilled_longitude(diagram(((0, 0), (0, 0)), (0, None)), 1)

    def test_drilled_longitude_at_zero(self):
        # unlinked: the inf filling has determinant 3 and the 0 filling 0
        assert drilled_longitude(diagram(((0, 0), (0, 0)), (3, None)), 1) == Slope(0)

    def test_drilled_longitude_at_infinity(self):
        # lk = 1 and the other slope 0: the inf filling has determinant 0
        assert drilled_longitude(diagram(((0, 1), (1, 0)), (0, None)), 1) == INFINITY

    def test_drilled_matches_det_zero(self):
        d = diagram(LN_SEED_LK, (1, 1, None))
        for p in range(-8, 9):
            for q in range(1, 6):
                filled = presentation_matrix(d.with_slope(2, Slope(Fraction(p, q))))
                assert (filled.determinant == 0) == (Fraction(p, q) == 2)

from dataclasses import astuple

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tbsl import EvenExpansion, MonodromyWord, SignCensus, sign_census, twist_word


def census_of(coeffs):
    return astuple(sign_census(twist_word(EvenExpansion(coeffs))))


class TestTwistWord:
    def test_whitehead(self):
        w = twist_word(EvenExpansion((2, -2, -2)))
        assert w.letters == ((2, 1), (1, 1), (3, -1))
        assert str(w) == "t2 t1 t3^-1"

    def test_all_negative(self):
        w = twist_word(EvenExpansion((-2, -2, -2)))
        assert w.letters == ((2, 1), (1, -1), (3, -1))

    def test_alternating(self):
        w = twist_word(EvenExpansion((2, -2, 2)))
        assert w.letters == ((2, 1), (1, 1), (3, 1))

    def test_rejects_non_pm2(self):
        with pytest.raises(ValueError, match="requires a ±2 expansion"):
            twist_word(EvenExpansion((4, -2, 2)))

    def test_word_shape_validation(self):
        with pytest.raises(ValueError):
            MonodromyWord(((1, 1), (3, -1), (2, 1)))  # bridges before a river
        with pytest.raises(ValueError):
            MonodromyWord(((2, 1), (1, 2), (3, 1)))  # exponent not ±1
        with pytest.raises(ValueError, match="each index 1..n exactly once"):
            MonodromyWord(((2, 1), (1, 1), (4, 1)))  # index 3 missing
        with pytest.raises(ValueError, match="each block ascending"):
            MonodromyWord(((4, 1), (2, 1), (1, 1), (3, 1)))  # rivers out of order
        with pytest.raises(ValueError, match="each block ascending"):
            MonodromyWord(((2, 1), (4, 1), (3, 1), (1, 1)))  # bridges out of order


class TestSignCensus:
    def test_whitehead(self):
        assert census_of((2, -2, -2)) == (1, 0, 1, 1)

    def test_all_negative(self):
        assert census_of((-2, -2, -2)) == (1, 0, 0, 2)

    def test_ln_family(self):
        for n in range(1, 8):
            coeffs = [2, -2] * n + [-2]
            assert census_of(tuple(coeffs)) == (n, 0, n, 1)


@st.composite
def pm2_expansion(draw):
    n = draw(st.integers(min_value=0, max_value=5)) * 2 + 1
    return EvenExpansion(tuple(draw(st.sampled_from([2, -2])) for _ in range(n)))


@given(pm2_expansion())
def test_census_counts_every_curve(e):
    c = sign_census(twist_word(e))
    n = len(e)
    assert c.pos_rivers + c.neg_rivers == (n - 1) // 2
    assert c.pos_bridges + c.neg_bridges == (n + 1) // 2
    assert sum(astuple(c)) == n


@given(pm2_expansion())
def test_mirror_swaps_census_signs(e):
    c = sign_census(twist_word(e))
    cm = sign_census(twist_word(e.negated()))
    assert (cm.pos_rivers, cm.neg_rivers) == (c.neg_rivers, c.pos_rivers)
    assert (cm.pos_bridges, cm.neg_bridges) == (c.neg_bridges, c.pos_bridges)


@given(pm2_expansion())
def test_torus_expansions_are_the_all_positive_censuses(e):
    h = e.halves()
    alternating = all(h[i] == h[0] * (-1) ** i for i in range(len(h)))
    c = sign_census(twist_word(e))
    one_sided = (c.neg_rivers == 0 and c.neg_bridges == 0) or (
        c.pos_rivers == 0 and c.pos_bridges == 0
    )
    assert alternating == one_sided

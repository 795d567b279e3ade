from fractions import Fraction
from operator import attrgetter

import hypothesis.strategies as st
import pytest
from hypothesis import given

from tbsl import MonodromyWord, SignCensus, sign_census, twist_word


def census_of(chain):
    return attrgetter(*SignCensus._fields)(sign_census(twist_word(chain)))


class TestTwistWord:
    def test_whitehead(self):
        w = twist_word((2, -2, -2))
        assert w.letters == ((2, 1), (1, 1), (3, -1))
        assert str(w) == "t2 t1 t3^-1"

    def test_all_negative(self):
        w = twist_word((-2, -2, -2))
        assert w.letters == ((2, 1), (1, -1), (3, -1))

    def test_alternating(self):
        w = twist_word((2, -2, 2))
        assert w.letters == ((2, 1), (1, 1), (3, 1))

    def test_rejects_non_pm2(self):
        # an odd entry such as 3 halves to the exponent 1, which MonodromyWord would accept;
        # a float or Fraction equal to 2 is refused here, not by MonodromyWord's TypeError
        for chain in ((4, -2, 2), (4, 2, 2), (2, 3, 2), (2, -2), (),
                      (2.0, -2, -2), (Fraction(2), -2, -2)):
            with pytest.raises(ValueError, match="requires a ±2 expansion"):
                twist_word(chain)

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
def pm2_chain(draw):
    n = draw(st.integers(min_value=0, max_value=5)) * 2 + 1
    return tuple(draw(st.sampled_from([2, -2])) for _ in range(n))


@given(pm2_chain())
def test_census_counts_every_curve(chain):
    c = sign_census(twist_word(chain))
    n = len(chain)
    assert c.pos_rivers + c.neg_rivers == (n - 1) // 2
    assert c.pos_bridges + c.neg_bridges == (n + 1) // 2
    assert sum(attrgetter(*c._fields)(c)) == n
    # the census is a count of ±2 entries: rivers at odd positions, bridges at even ones
    r, b = chain[1::2], chain[0::2]
    assert attrgetter(*c._fields)(c) == (r.count(-2), r.count(2), b.count(2), b.count(-2))


@given(pm2_chain())
def test_mirror_swaps_census_signs(chain):
    c = sign_census(twist_word(chain))
    cm = sign_census(twist_word(tuple(-a for a in chain)))
    assert (cm.pos_rivers, cm.neg_rivers) == (c.neg_rivers, c.pos_rivers)
    assert (cm.pos_bridges, cm.neg_bridges) == (c.neg_bridges, c.pos_bridges)


@given(pm2_chain())
def test_torus_expansions_are_the_all_positive_censuses(chain):
    alternating = all(chain[i] == chain[0] * (-1) ** i for i in range(len(chain)))
    c = sign_census(twist_word(chain))
    one_sided = (c.neg_rivers == 0 and c.neg_bridges == 0) or (
        c.pos_rivers == 0 and c.pos_bridges == 0
    )
    assert alternating == one_sided

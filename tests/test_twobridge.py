import itertools
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given

from oracles import (
    alexander_by_fox,
    all_links,
    classify_by_expansion,
    ln_by_definition,
    pm2_census_by_key,
    schubert_lifts,
    schubert_linking,
    unoriented_key,
)
from tbsl.errors import KnotNotLink
from tbsl.twobridge import _pm2_chain
from tbsl import (
    EvenExpansion,
    LinkFamily,
    SchubertRelation,
    TwoBridgeLink,
    cf_eval,
    classify,
    detect_Ln,
    even_expand,
    fibered_expansion,
    linking_number,
    ln_link,
    parse_link,
    render_link,
    schubert_oriented_equal,
    schubert_unoriented_equal,
)


class TestFromFraction:
    def test_whitehead(self):
        assert TwoBridgeLink.from_fraction(Fraction(8, 5)) == TwoBridgeLink(8, 5)

    def test_negative_denominator(self):
        assert TwoBridgeLink.from_fraction(Fraction(30, -11)) == TwoBridgeLink(30, -11)

    def test_negative_numerator_same_rational(self):
        # -30/11 and 30/-11 are the same rational, hence the same link
        assert TwoBridgeLink.from_fraction(Fraction(-30, 11)) == TwoBridgeLink(30, -11)

    def test_q_reduced_mod_2p(self):
        assert TwoBridgeLink.from_fraction(Fraction(8, 13)) == TwoBridgeLink(8, -3)
        assert schubert_oriented_equal(
            TwoBridgeLink.from_fraction(Fraction(8, 13)), TwoBridgeLink(8, -3)
        ) is SchubertRelation.ISOTOPIC

    def test_knot_rejected(self):
        with pytest.raises(KnotNotLink, match="3/2 has odd numerator"):
            TwoBridgeLink.from_fraction(Fraction(3, 2))

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="0 is not a two-bridge fraction"):
            TwoBridgeLink.from_fraction(0)

    def test_validation(self):
        with pytest.raises(ValueError, match="q must be odd"):
            TwoBridgeLink(8, 4)  # even q
        with pytest.raises(ValueError):
            TwoBridgeLink(8, 9)  # out of range
        with pytest.raises(ValueError):
            TwoBridgeLink(10, 5)  # not coprime
        with pytest.raises(ValueError, match="p must be a positive even integer, got 3"):
            TwoBridgeLink(3, 1)  # odd p, though q is odd and in range
        with pytest.raises(ValueError, match="p must be a positive even integer, got -4"):
            TwoBridgeLink(-4, 1)  # even p, but negative
        with pytest.raises(ValueError, match="p must be a positive even integer, got 0"):
            TwoBridgeLink(0, 1)

    def test_normalized_refuses_p_zero_before_reducing(self):
        # q is reduced mod 2p, so p = 0 must be refused first, and not as a knot
        with pytest.raises(ValueError, match="p must be a positive even integer, got 0"):
            TwoBridgeLink.normalized(0, 1)

    @pytest.mark.parametrize("p", range(1, 100, 2))
    def test_normalized_odd_p_is_a_knot(self, p):
        with pytest.raises(KnotNotLink):
            TwoBridgeLink.normalized(p, 1)


class TestSchubert:
    def test_identity(self):
        L = TwoBridgeLink(8, 5)
        assert schubert_oriented_equal(L, L) is SchubertRelation.ISOTOPIC

    def test_inverse_clause(self):
        # 5 * (-3) = -15 ≡ 1 (mod 16)
        rel = schubert_oriented_equal(TwoBridgeLink(8, 5), TwoBridgeLink(8, -3))
        assert rel is SchubertRelation.ISOTOPIC

    def test_distinct(self):
        assert (
            schubert_oriented_equal(TwoBridgeLink(8, 5), TwoBridgeLink(8, 3))
            is SchubertRelation.DISTINCT
        )
        assert not schubert_unoriented_equal(TwoBridgeLink(8, 5), TwoBridgeLink(8, 3))

    def test_unoriented_examples(self):
        assert schubert_unoriented_equal(TwoBridgeLink(8, 5), TwoBridgeLink(8, -3))
        L = TwoBridgeLink(30, -11)
        assert schubert_unoriented_equal(L, L)

    def test_component_reversal_clause(self):
        # q' = q + p: b(30,19) vs b(30,-11)
        rel = schubert_oriented_equal(TwoBridgeLink(30, 19), TwoBridgeLink(30, -11))
        assert rel is SchubertRelation.COMPONENT_REVERSAL

    def test_oriented_relation_matches_the_mod_2p_clauses(self):
        # Schubert's oriented classification written out, clause by clause
        for p in range(2, 62, 2):
            qs = [q for q in range(-p + 1, p, 2) if gcd(p, abs(q)) == 1]
            m = 2 * p
            for q1, q2 in itertools.product(qs, qs):
                if (q2 - q1) % m == 0 or (q1 * q2 - 1) % m == 0:
                    expected = SchubertRelation.ISOTOPIC
                elif (q2 - q1 - p) % m == 0 or (q1 * q2 - 1 - p) % m == 0:
                    expected = SchubertRelation.COMPONENT_REVERSAL
                else:
                    expected = SchubertRelation.DISTINCT
                got = schubert_oriented_equal(TwoBridgeLink(p, q1), TwoBridgeLink(p, q2))
                assert got is expected, (p, q1, q2)

    def test_unoriented_equals_oriented_clauses_over_lifts(self):
        # the mod-p test must equal the mod-2p clauses applied to both odd lifts
        for p in range(2, 62, 2):
            qs = [q for q in range(-p + 1, p, 2) if q != 0 and gcd(p, abs(q)) == 1]
            for q1, q2 in itertools.product(qs[: len(qs) // 2 + 1], qs):
                a, b = TwoBridgeLink(p, q1), TwoBridgeLink(p, q2)
                other = TwoBridgeLink(p, q2 - p if q2 > 0 else q2 + p)
                oriented_any = (
                    schubert_oriented_equal(a, b) is not SchubertRelation.DISTINCT
                    or schubert_oriented_equal(a, other) is not SchubertRelation.DISTINCT
                )
                assert schubert_unoriented_equal(a, b) == oriented_any

    def test_oracle_lifts_are_the_residue_scan(self, links_200):
        for a in links_200:
            p, lifts = a.p, schubert_lifts(a)
            brute = {c for c in range(-p + 1, p, 2) if (c - a.q) % p == 0 or (a.q * c - 1) % p == 0}
            assert set(lifts) == brute and lifts[0] == a.q, a

    def test_unoriented_equality_is_membership_in_the_lifts(self):
        # every ordered pair with p <= 60, different numerators included
        links = all_links(60)
        for a in links:
            lifts = set(schubert_lifts(a))
            for b in links:
                assert schubert_unoriented_equal(a, b) == (a.p == b.p and b.q in lifts), (a, b)


@st.composite
def raw_fraction(draw):
    p = draw(st.integers(min_value=1, max_value=300)) * 2
    q = draw(st.integers(min_value=-1000, max_value=1000)) * 2 + 1
    if gcd(p, abs(q)) != 1:
        q = 1
    return Fraction(draw(st.sampled_from([1, -1])) * p, q)


@given(raw_fraction())
def test_from_fraction_preserves_oriented_class(x):
    link = TwoBridgeLink.from_fraction(x)
    # rewrite with positive numerator: p/q == |num| / (sign(num) * den)
    p, q = abs(x.numerator), x.denominator * (1 if x.numerator > 0 else -1)
    assert link.p == p
    assert (link.q - q) % (2 * p) == 0  # q reduced by multiples of 2p only


@st.composite
def same_p_triple(draw):
    p = draw(st.integers(min_value=1, max_value=60)) * 2
    qs = [q for q in range(-p + 1, p, 2) if q != 0 and gcd(p, abs(q)) == 1]
    return tuple(TwoBridgeLink(p, draw(st.sampled_from(qs))) for _ in range(3))


@given(same_p_triple())
def test_unoriented_equivalence_relation(triple):
    a, b, c = triple
    assert schubert_unoriented_equal(a, a)
    assert schubert_unoriented_equal(a, b) == schubert_unoriented_equal(b, a)
    if schubert_unoriented_equal(a, b) and schubert_unoriented_equal(b, c):
        assert schubert_unoriented_equal(a, c)


@given(same_p_triple())
def test_oriented_comparison_is_symmetric(triple):
    a, b, _ = triple
    assert schubert_oriented_equal(a, b) is schubert_oriented_equal(b, a)


class TestMirror:
    def test_involution(self):
        L = TwoBridgeLink(8, 5)
        assert L.mirror().mirror() == L

    def test_mirror_class(self):
        assert schubert_unoriented_equal(TwoBridgeLink(8, 5).mirror(), TwoBridgeLink(8, 3))

    def test_mirror_negates_expansion(self):
        for L in [TwoBridgeLink(8, 5), TwoBridgeLink(30, -11), TwoBridgeLink(12, 5)]:
            e, em = fibered_expansion(L), fibered_expansion(L.mirror())
            assert em.coeffs == tuple(-a for a in e.coeffs)

    def test_ln_is_chiral(self):
        for n in range(1, 51):
            L = ln_link(n)
            assert not schubert_unoriented_equal(L, L.mirror())


class TestFiberedExpansion:
    def test_whitehead(self):
        assert fibered_expansion(TwoBridgeLink(8, 5)) == EvenExpansion((2, -2, -2))

    def test_rewritten_family2(self):
        assert fibered_expansion(TwoBridgeLink(30, -11)) == EvenExpansion(
            (-2, -2, 2, -2, -2)
        )

    def test_small_torus(self):
        assert fibered_expansion(TwoBridgeLink(12, 5)) == EvenExpansion((2, 2, 2))

    def test_nonfibered(self):
        # b(10,3): expansions of 10/3 and 10/-7 have entries of magnitude 4
        assert fibered_expansion(TwoBridgeLink(10, 3)) is None

    def test_candidate_search_finds_every_expansion(self, links_200):
        # independent enumeration: group all ±2 sequences by unoriented
        # class and compare against the Schubert-representative search
        by_key = pm2_census_by_key(200)
        for L in links_200:
            expected = by_key.get(unoriented_key(L), set())
            found = {
                chain for c in schubert_lifts(L) if (chain := _pm2_chain(L.p, c)) is not None
            }
            assert found == expected

    def test_inverse_lifts_expand_as_the_lifts_of_q_reversed(self, links_200):
        # why classify walks only the two lifts of q: reversing an odd-length
        # expansion transposes its continuant matrix, so it expands p/q' with
        # q·q' ≡ 1 (mod p), and |q'| < p since ±2 continuants grow strictly
        for L in links_200:
            lifts = schubert_lifts(L)
            own = {h[::-1] for c in lifts[:2] if (h := _pm2_chain(L.p, c)) is not None}
            inverse = {h for c in lifts[2:] if (h := _pm2_chain(L.p, c)) is not None}
            assert inverse == own, L


class TestClassify:
    def test_whitehead_is_l1(self):
        cls = classify(TwoBridgeLink(8, 5))
        assert cls.family is LinkFamily.LN and cls.n == 1
        assert cls.chain == (2, -2, -2)

    def test_family1(self):
        L = TwoBridgeLink.from_fraction(-Fraction(12, 5))
        cls = classify(L)
        assert cls.family is LinkFamily.FAMILY1 and not cls.mirrored

    def test_family1_mirrored(self):
        cls = classify(TwoBridgeLink(12, 5))
        assert cls.family is LinkFamily.FAMILY1 and cls.mirrored

    def test_torus(self):
        from tbsl import cf_eval

        L = TwoBridgeLink.from_fraction(cf_eval([2, -2, 2, -2, 2]).value)
        assert classify(L).family is LinkFamily.TORUS
        assert L.q % L.p in (1, L.p - 1)  # q ≡ ±1 shortcut cross-check

    def test_torus_tag_matches_residue_shortcut(self, links_200):
        # classify tests this residue itself; the oracle tests the torus shape of full expansions
        for L in links_200:
            is_torus = classify_by_expansion(L).family is LinkFamily.TORUS
            assert is_torus == (L.q % L.p in (1, L.p - 1))

    def test_family2_interior_both_representatives(self):
        # the same link expands as 2,-2,-2,-2,2 and as -2,-2,2,-2,-2
        cls = classify(TwoBridgeLink(30, -11))
        assert cls.family is LinkFamily.FAMILY2_INTERIOR
        cls = classify(TwoBridgeLink(30, 19))
        assert cls.family is LinkFamily.FAMILY2_INTERIOR

    def test_family2_end_bridge_shapes_are_ln(self):
        # every river -1 and the one -1 bridge at an end of a length-(2k+1) word:
        # b(6k+2, -(2k+1)) or its reversal, which is Ln(k) as 3(2k+1) ≡ 1 mod 6k+2
        # (the mirror for the negated word), so detect_Ln decides the class before
        # the family-2 shape and its end exclusion are read
        for k in range(2, 100):
            n, p = 2 * k + 1, 6 * k + 2
            assert 3 * n % p == 1
            for end in (0, n - 1):
                word = tuple(-1 if i % 2 or i == end else 1 for i in range(n))
                for sign, family in ((1, LinkFamily.LN), (-1, LinkFamily.LN_MIRROR)):
                    link = parse_link(f"L({','.join(str(2 * sign * h) for h in word)})")
                    assert schubert_unoriented_equal(link, TwoBridgeLink.normalized(p, -sign * n))
                    assert detect_Ln(link) == (k, sign < 0)
                    cls = classify(link)
                    assert cls.family is family and cls.n == k

    def test_ln_mirror(self):
        cls = classify(ln_link(3).mirror())
        assert cls.family is LinkFamily.LN_MIRROR and cls.n == 3 and cls.mirrored

    def test_non_fibered(self):
        cls = classify(TwoBridgeLink(10, 3))
        assert cls.family is LinkFamily.NON_FIBERED
        assert cls.chain is None

    def test_agreement_across_representatives(self, links_200):
        by_class = {}
        for L in links_200:
            by_class.setdefault(unoriented_key(L), []).append(L)
        for members in by_class.values():
            tags = {classify(L).tag() for L in members}
            assert len(tags) == 1, f"class of {members[0]} classified as {tags}"


class TestClassifyAgainstFullExpansion:
    # LinkClass equality compares family, n, chain and mirrored
    def test_every_link_up_to_400(self):
        for L in all_links(400):
            assert classify(L) == classify_by_expansion(L), L

    def test_ln_links_and_mirrors(self):
        for n in range(1, 501):
            for L in (ln_link(n), ln_link(n).mirror()):
                assert classify(L) == classify_by_expansion(L), L


@st.composite
def even_over_odd(draw):
    """Even p <= 10**6 over an odd q of either sign with gcd 1 and |q| < p.

    Half of the draws are values of ±2 sequences, so the all-±2 case
    comes up at every size and not only for small p.
    """
    if draw(st.booleans()):
        seq = draw(st.lists(st.sampled_from((2, -2)), min_size=1, max_size=15))
        x = cf_eval(seq[: len(seq) - 1 + len(seq) % 2]).value
        p, q = abs(x.numerator), abs(x.denominator)
    else:
        p = 2 * draw(st.integers(min_value=1, max_value=500_000))
        q = 2 * draw(st.integers(min_value=0, max_value=p // 2 - 1)) + 1
        assume(gcd(p, q) == 1)
    return p, draw(st.sampled_from((q, -q)))


@given(even_over_odd())
def test_pm2_chain_matches_full_expansion(pq):
    p, q = pq
    e = even_expand(Fraction(p, q))
    chain = _pm2_chain(p, q)
    if e.all_plus_minus_two:
        assert chain == e.coeffs
    else:
        assert chain is None


class TestLinkingNumber:
    def test_whitehead(self):
        assert linking_number((2, -2, -2)) == 0

    def test_ln_family(self):
        for n in range(1, 10):
            chain = classify(ln_link(n)).chain
            assert abs(linking_number(chain)) == n - 1

    def test_family1(self):
        assert linking_number((-2, -2, -2)) == -2

    def test_requires_pm2(self):
        # an odd entry such as 3 halves to 1 by floor division, so it must be refused;
        # so must a float or Fraction equal to 2, whose halves are not ints
        for chain in ((4, 2, 2), (2, 3, 2), (2, -2), (), (2.0, -2, -2), (Fraction(2), -2, -2)):
            with pytest.raises(ValueError, match="only computed from ±2 expansions"):
                linking_number(chain)

    def test_magnitude_agrees_across_representatives(self, links_200):
        for L in links_200:
            chain = classify(L).chain
            if chain is None:
                continue
            mirror_chain = classify(L.mirror()).chain
            assert abs(linking_number(chain)) == abs(linking_number(mirror_chain))


def _at_inverse(poly):
    """Δ(t, t^-1) of a two-variable polynomial {(i, j): c}, as {degree: c}."""
    out = {}
    for (i, j), c in poly.items():
        out[i - j] = out.get(i - j, 0) + c
    return {d: c for d, c in out.items() if c}


def test_fox_calculus_decides_fibering_fiber_size_and_linking(links_200):
    # Two-bridge links are alternating, so fibered ⇔ the Alexander polynomial is monic
    # (Murasugi 1963; Gabai 1986), for some orientation: every Schubert lift is
    # tried.  The fiber of a ±2 expansion of length n has 1 - χ = n, the span of
    # (t - 1)Δ(t, t^-1); |Δ(1, 1)| = |lk| (Torres 1953); and at the lift c of the
    # kept expansion, p/c, the signed Schubert sum is the linking number.
    for L in links_200:
        r = L.q % L.p
        s = pow(r, -1, L.p)
        polys = [_at_inverse(alexander_by_fox(L.p, c)) for c in (r, r - L.p, s, s - L.p)]
        spans = {max(d) - min(d) for d in polys if abs(d[min(d)]) == abs(d[max(d)]) == 1}
        chain = classify(L).chain
        assert (chain is not None) == bool(spans), L
        if chain is None:
            continue
        assert spans == {len(chain) - 1}, L
        c = int(L.p / cf_eval(chain).value)
        assert schubert_linking(L.p, c) == linking_number(chain), L
        assert abs(sum(alexander_by_fox(L.p, c).values())) == abs(linking_number(chain)), L


class TestDetectLn:
    def test_whitehead(self):
        assert detect_Ln(TwoBridgeLink(8, 5)) == (1, False)

    def test_n3(self):
        assert detect_Ln(TwoBridgeLink.normalized(20, -3)) == (3, False)

    def test_wrong_residue(self):
        assert detect_Ln(TwoBridgeLink(12, 5)) is None

    def test_hopf_links_are_not_ln(self):
        # 2 ≡ 2 (mod 6), but b(2, ∓3) is no link: the Hopf links b(2, ±1) are torus links
        for q in (1, -1):
            assert detect_Ln(TwoBridgeLink(2, q)) is None
            assert classify(TwoBridgeLink(2, q)).family is LinkFamily.TORUS

    def test_mirrors(self):
        for n in range(1, 51):
            assert detect_Ln(ln_link(n)) == (n, False)
            assert detect_Ln(ln_link(n).mirror()) == (n, True)

    def test_agrees_with_the_residue_definition(self, links_200):
        for L in links_200:
            assert detect_Ln(L) == ln_by_definition(L), L

    def test_ln_link_refuses_a_nonpositive_index(self):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            ln_link(0)

    def test_agrees_with_classify(self, links_200):
        for L in links_200:
            cls = classify(L)
            hit = detect_Ln(L)
            if cls.family in (LinkFamily.LN, LinkFamily.LN_MIRROR):
                assert hit == (cls.n, cls.family is LinkFamily.LN_MIRROR)
            else:
                assert hit is None


class TestParseRender:
    def test_parse_forms(self):
        assert parse_link("b(8,5)") == TwoBridgeLink(8, 5)
        assert parse_link("L(2,-2,-2)") == TwoBridgeLink(8, 5)
        assert parse_link("8/5") == TwoBridgeLink(8, 5)
        assert parse_link("b(8, 13)") == TwoBridgeLink(8, -3)

    def test_parse_hopf(self):
        assert parse_link("L(2)") == TwoBridgeLink(2, 1)

    def test_render(self):
        link = TwoBridgeLink(8, 5)
        assert render_link(link, classify(link)) == "b(8,5) = L(2,-2,-2) [Ln(1)]"

    def test_parse_errors(self):
        with pytest.raises(KnotNotLink):
            parse_link("b(7,3)")
        with pytest.raises(KnotNotLink):
            parse_link("b(7,2)")
        with pytest.raises(KnotNotLink):
            parse_link("b(9,3)")  # odd p is named before the common factor
        with pytest.raises(ValueError, match=r"invalid Schubert pair b\(8,4\)"):
            parse_link("b(8,4)")
        with pytest.raises(ValueError, match=r"invalid Schubert pair b\(8,10\)"):
            parse_link("b(8,10)")  # q beyond p, which normalising would reduce
        with pytest.raises(ValueError, match=r"invalid Schubert pair b\(10,5\)"):
            parse_link("b(10,5)")  # odd q, not coprime
        with pytest.raises(ValueError, match="evaluates to inf"):
            parse_link("L(2,1,-1)")
        with pytest.raises(ValueError):
            parse_link("wibble")

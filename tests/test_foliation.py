import pathlib
import sys
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from tbsl import (
    INFINITY,
    CircleInterval,
    EvenExpansion,
    Framing,
    Region2,
    SignCensus,
    Slope,
    Verdict,
    cf_eval,
    foliation_region,
    lemma_regions,
    ln_link,
    ln_taut_witness_strips,
    lspace_region,
    verdict,
)
from oracles import integer_axes, verdict_by_rules
from tbsl.errors import OutOfScope
from tbsl.foliation import (
    _FAMILY1_LINKING,
    _FAMILY2_BOXES,
    _FAMILY2_LINKING,
    _LN_LINKING,
    _LN_SURFACE_BOXES,
    _REALISED,
    _route,
    _table,
    analyse,
    chain_census,
    cover_witnesses,
    row_holds,
    witness_key,
)
from tbsl.surgery import SurgeryDiagram, framing_convert, presentation_matrix, rolfsen_fill
from tbsl.twobridge import (LinkFamily, SchubertRelation, TwoBridgeLink, classify, linking_number,
                            parse_link, schubert_oriented_equal, schubert_unoriented_equal)

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
SEIFERT_PLANE = Region2.finite_plane(Framing.SEIFERT)
CANONICAL_PLANE = Region2.finite_plane(Framing.CANONICAL)


class TestLemmaRegions:
    def test_mixed_rivers_cover_everything(self):
        assert lemma_regions(SignCensus(1, 1, 2, 0)).equals(SEIFERT_PLANE)

    def test_positive_river_with_mixed_bridges(self):
        assert lemma_regions(SignCensus(1, 0, 1, 2)).equals(SEIFERT_PLANE)

    def test_single_clause(self):
        region = lemma_regions(SignCensus(1, 0, 2, 0))
        expected = Region2.box(
            CircleInterval.open(INFINITY, 1),
            CircleInterval.open(INFINITY, 1),
            Framing.SEIFERT,
        )
        assert region.equals(expected)

    def test_no_clause(self):
        assert lemma_regions(SignCensus(0, 0, 1, 0)).is_empty()

    @pytest.mark.parametrize(
        "census, rects",
        [
            (SignCensus(0, 0, 2, 0), [("(inf,1)", "(inf,1)")]),
            (SignCensus(0, 0, 0, 2), [("(-1,inf)", "(-1,inf)")]),
            (SignCensus(0, 1, 0, 0), [("(-1,inf)", "(-1,inf)")]),
            (SignCensus(1, 0, 0, 0), [("(inf,1)", "(inf,1)")]),
            (
                SignCensus(0, 0, 1, 1),
                [("(0,inf)", "(inf,0)"), ("(inf,0)", "(0,inf)")],
            ),
        ],
    )
    def test_each_clause_fires_alone(self, census, rects):
        from tbsl import parse_interval

        expected = Region2(
            Framing.SEIFERT,
            tuple((parse_interval(a), parse_interval(b)) for a, b in rects),
        )
        assert lemma_regions(census).equals(expected)


class TestFoliationRegion:
    def test_whitehead_complement(self):
        region = foliation_region(ln_link(1))
        assert region.contains((0, 0))
        assert region.contains((Fraction(1, 2), 100))
        assert not region.contains((1, 1))
        assert region.union(lspace_region(ln_link(1))).equals(CANONICAL_PLANE)

    def test_family1_everything(self):
        region = foliation_region(parse_link("L(-2,-2,-2)"))
        assert region.equals(CANONICAL_PLANE)

    def test_l3_complement(self):
        region = foliation_region(ln_link(3))
        assert region.contains((Fraction(5, 2), 3))
        assert not region.contains((3, 3))

    def test_mirror_negates(self):
        for n in (1, 2, 7):
            L = ln_link(n)
            assert foliation_region(L.mirror()).equals(foliation_region(L).negated())

    def test_out_of_scope(self):
        with pytest.raises(OutOfScope, match="torus"):
            foliation_region(parse_link("L(2)"))
        with pytest.raises(OutOfScope, match="fibered"):
            foliation_region(TwoBridgeLink(10, 3))

    def test_non_exceptional_links_share_one_pair_of_regions(self):
        # generic, family 1 (and its mirror) and family 2 links: one empty region, one plane
        specs = ("b(18,5)", "L(-2,-2,-2)", "b(12,5)", "b(30,11)")
        first, *rest = (analyse(parse_link(s)) for s in specs)
        for a in rest:
            assert a.lspace is first.lspace and a.foliation is first.foliation
        assert first.lspace.is_empty() and first.foliation.equals(CANONICAL_PLANE)
        for link in (ln_link(1), ln_link(3), ln_link(3).mirror()):
            a, b = analyse(link), analyse(link)
            assert a.lspace is b.lspace and a.foliation is b.foliation, link
            assert a.lspace is not first.lspace and a.foliation is not first.foliation, link

    def test_operations_leave_the_shared_regions_unchanged(self):
        # an operation that edited a shared grid in place would change every later link's verdicts
        def grid(region):
            xaxis, yaxis, cols = region._grid
            return list(xaxis.keys), xaxis.den, list(yaxis.keys), yaxis.den, list(cols)

        shared = analyse(parse_link("L(-2,-2,-2)"))
        empty, plane = shared.lspace, shared.foliation
        ln_links = (ln_link(3), ln_link(3).mirror())
        ln_rows = [analyse(link).row for link in ln_links]  # shared by every analysis of the key
        strips = ln_taut_witness_strips(3)  # the Ln(3) row's witness, shared by every caller
        kept = [empty, plane, strips, *(region for row in ln_rows for region in row)]
        before = [grid(region) for region in kept]
        strip = Region2.box(CircleInterval.open(0, 1), CircleInterval.punctured(INFINITY),
                            Framing.CANONICAL)
        others = (empty, plane, lspace_region(ln_link(3)), foliation_region(ln_link(3)), strip)
        axis = (Slope(-1), Slope(0), Slope(Fraction(1, 2)), Slope(3), INFINITY)
        for region in kept:
            region.complement(), region.negated(), region.shifted(2, -1), region.canonical()
            list(region.row_masks(*integer_axes(axis, axis)))
            for other in others:
                for a, b in ((region, other), (other, region)):
                    a.union(b), a.intersect(b), a.difference(b), a.equals(b), a.covers(b)
        assert [grid(region) for region in kept] == before
        assert empty.is_empty()
        assert plane.equals(Region2.finite_plane(Framing.CANONICAL))
        assert analyse(parse_link("b(18,5)")).foliation is plane
        assert all(analyse(link).row is row for link, row in zip(ln_links, ln_rows))

    def test_default_window_shows_the_quadrant_corner(self):
        # at least 5, and two past the corner (n, n) of Ln(n)'s quadrant
        assert [analyse(ln_link(n)).window for n in (1, 3, 4, 10)] == [5, 5, 6, 12]
        assert analyse(parse_link("L(-2,-2,-2)")).window == 5


class TestVerdict:
    def test_poincare_corner(self):
        assert verdict(ln_link(1), (1, 1)) is Verdict.L_SPACE

    def test_ln_corner(self):
        for n in (2, 5, 9):
            assert verdict(ln_link(n), (n, n)) is Verdict.L_SPACE

    def test_off_corner(self):
        for n in (2, 5):
            assert verdict(ln_link(n), (n - 1, n)) is Verdict.NLS_WITH_TAUT_FOLIATION

    def test_zero_surgery_not_qhs(self):
        assert verdict(ln_link(1), (0, 7)) is Verdict.NOT_QHS_TAUT_BY_BETTI

    def test_betti_detection_uses_linking(self):
        L = ln_link(3)  # linking number 2
        assert verdict(L, (4, 1)) is Verdict.NOT_QHS_TAUT_BY_BETTI
        assert verdict(L, (4, Fraction(1, 2))) is Verdict.NLS_WITH_TAUT_FOLIATION

    def test_infinity_filling(self):
        assert verdict(ln_link(1), (INFINITY, 5)) is Verdict.INFINITY_FILLING

    def test_out_of_scope(self):
        with pytest.raises(OutOfScope):
            verdict(parse_link("L(2)"), (1, 1))

    def test_regions_and_verdicts_build_no_monodromy(self, monkeypatch):
        # only reports read the twist word and its census: every alias of the
        # two builders raises, and regions and verdicts are still computed
        def refuse(*args):
            raise AssertionError("the monodromy was built")

        tbsl_modules = [m for k, m in sys.modules.items() if k == "tbsl" or k.startswith("tbsl.")]
        for module in tbsl_modules:
            for name in ("twist_word", "sign_census"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        for spec in ("b(20,-3)", "b(20,3)", "L(2,-2,-2,2,-2)", "L(-2,-2,-2)", "b(30,-11)"):
            link = parse_link(spec)
            assert foliation_region(link).contains((0, 0))
            assert verdict(link, (0, 0)) is Verdict.NLS_WITH_TAUT_FOLIATION

    def test_classes_regions_and_verdicts_build_no_even_expansion(self, monkeypatch, links_200):
        # a link's facts are read off its plain ±2 chain: building an EvenExpansion raises
        def refuse(self, coeffs):
            raise AssertionError("an EvenExpansion was built")

        monkeypatch.setattr(EvenExpansion, "__init__", refuse)
        grid = (Slope(-1), Slope(0), Slope(Fraction(1, 2)), INFINITY)
        for link in links_200:
            if not classify(link).is_hyperbolic_fibered:
                continue
            a = analyse(link)
            assert a.foliation.equals(a.lspace.complement()), link
            assert a.linking == sum(a.cls.chain[0::2]) // 2, link
            assert len(list(a.verdict_rows(*integer_axes(grid, grid)))) == len(grid), link

    def test_region_views_classify_once_and_read_no_linking_number(self, monkeypatch):
        # a region view computes only what it reads: every alias of linking_number
        # raises, and every alias of classify counts its calls
        def refuse(*args):
            raise AssertionError("the linking number was computed")

        calls = []

        def counted(link, classify=classify):
            calls.append(link)
            return classify(link)

        tbsl_modules = [m for k, m in sys.modules.items() if k == "tbsl" or k.startswith("tbsl.")]
        for module in tbsl_modules:
            for name, stand_in in (("linking_number", refuse), ("classify", counted)):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, stand_in)
        views = (lspace_region, foliation_region, lambda link: analyse(link).lspace)
        for spec in ("b(20,-3)", "b(20,3)", "L(2,-2,-2,2,-2)", "L(-2,-2,-2)", "b(30,-11)"):
            link = parse_link(spec)
            regions = []
            for view in views:
                calls.clear()
                regions.append(view(link))
                assert calls == [link], spec
            ls, fol, analysed = regions
            assert ls.equals(analysed) and fol.equals(ls.complement()), spec
            assert fol.contains((0, 0)), spec

    def test_consistent_with_regions(self):
        from itertools import product

        for n in (1, 4):
            L = ln_link(n)
            ls, fol = lspace_region(L), foliation_region(L)
            values = [Fraction(v, 2) for v in range(-4, 2 * n + 5)]
            for s1, s2 in product(values, values):
                v = verdict(L, (s1, s2))
                if v is Verdict.L_SPACE:
                    assert ls.contains((s1, s2))
                elif v is Verdict.NLS_WITH_TAUT_FOLIATION:
                    assert fol.contains((s1, s2))
                else:
                    assert v is Verdict.NOT_QHS_TAUT_BY_BETTI
                    assert s1 * s2 == (n - 1) ** 2


class TestCoverWitnesses:
    def test_all_witnesses_hit_their_targets(self):
        for witness in cover_witnesses():
            assert witness.region.equals(witness.target), witness.name

    def test_each_row_witness_is_listed_once_in_first_seen_order(self):
        rows = list(_table().values())
        firsts = [w for i, w in enumerate(rows) if not any(v is w for v in rows[:i])]
        listed = cover_witnesses()
        assert len(listed) == len(firsts) and all(a is b for a, b in zip(listed, firsts))

    @pytest.mark.parametrize("n", [2, 3, 5, 11, 30, 400])
    def test_strips_cover_the_complement(self, n):
        strips = ln_taut_witness_strips(n)
        quadrant = lspace_region(ln_link(n))
        assert strips.union(quadrant).equals(CANONICAL_PLANE)
        assert strips.intersect(quadrant).is_empty()
        assert foliation_region(ln_link(n)).covers(strips)
        # the translate of the n = 2 route is the companion's boxes routed at -1/n itself
        routed = _route(_LN_LINKING, (Fraction(-1, n),), _LN_SURFACE_BOXES)
        assert strips.equals(routed)
        assert analyse(ln_link(n).mirror()).witness.equals(routed.negated())

    def test_both_families_route_the_strips_once(self, monkeypatch, fresh_witness_table):
        calls = []

        def counted(linking, fills, boxes, filled=None):
            calls.append((fills, boxes))
            return _route(linking, fills, boxes, filled)

        monkeypatch.setattr("tbsl.foliation._route", counted)
        for n in range(2, 51):
            for link in (ln_link(n), ln_link(n).mirror()):
                assert row_holds(analyse(link)), link
        assert calls == [((Fraction(-1, 2),), _LN_SURFACE_BOXES)]

    def test_strips_need_n_at_least_two(self):
        for n in (1, 0):
            with pytest.raises(ValueError, match="needs n >= 2"):
                ln_taut_witness_strips(n)

    @pytest.mark.parametrize("n", [2, 3, 30, 400])
    def test_strips_are_built_once_and_are_the_rows_witness(self, n):
        strips = ln_taut_witness_strips(n)
        assert ln_taut_witness_strips(n) is strips
        assert analyse(ln_link(n)).witness is strips
        assert analyse(ln_link(n).mirror()).witness.equals(strips.negated())

    @pytest.mark.parametrize("n", [2.0, 3.0, "3", Fraction(7, 2), Fraction(3)])
    def test_a_non_integer_index_is_refused_before_any_cached_region(self, n):
        from tbsl.lspace import verify_ln_chain

        ln_taut_witness_strips(3)  # a cached 3 lets no equal float or Fraction through
        for build in (ln_link, ln_taut_witness_strips, verify_ln_chain):
            with pytest.raises(TypeError):
                build(n)

    def test_lemma_regions_fit_inside_foliation_region(self, links_200):
        from tbsl.monodromy import sign_census, twist_word

        for L in links_200[:400]:
            cls = classify(L)
            if not cls.is_hyperbolic_fibered:
                continue
            census = sign_census(twist_word(cls.chain))
            lk = linking_number(cls.chain)
            shifted = (
                lemma_regions(census).shifted(-lk, -lk).with_framing(Framing.CANONICAL)
            )
            assert foliation_region(L).covers(shifted)


class TestWitnessTable:
    def test_ln1_gap_is_the_two_segments_and_the_mirror_its_negation(self):
        a, m = analyse(ln_link(1)), analyse(parse_link("b(8,3)"))
        closed_open = CircleInterval(Slope(0), Slope(1), True, False)
        point = CircleInterval.point(1)
        assert a.gap.canonical().rects == ((closed_open, point), (point, closed_open))
        assert m.cls.family.value == "Ln-mirror" and m.cls.n == 1
        assert m.gap.canonical().rects == a.gap.negated().canonical().rects
        for b in (a, m):
            assert b.witness.intersect(b.lspace).is_empty()
            assert b.witness.union(b.gap).equals(b.lspace.complement())
            assert b.foliation.equals(b.lspace.complement())

    def test_every_other_row_leaves_no_gap(self, links_200):
        links = [ln_link(n) for n in range(2, 31)] + list(links_200)
        for link in links + [link.mirror() for link in links]:
            a = analyse(link)
            if not a.cls.is_hyperbolic_fibered or a.cls.n == 1:
                continue
            assert a.gap.is_empty() and a.witness.intersect(a.lspace).is_empty(), link
            assert a.foliation.equals(a.witness), link

    def test_chain_census_is_the_census_of_the_twist_word(self, links_200):
        from tbsl.monodromy import sign_census, twist_word

        chains = [cls.chain for cls in map(classify, links_200) if cls.chain is not None]
        assert len(chains) > 500
        for chain in chains:
            assert chain_census(chain) == sign_census(twist_word(chain)), chain

    def test_every_class_up_to_200_lands_on_a_row_that_holds(self, links_200):
        keys = {}
        for link in links_200:
            a = analyse(link)
            if a.cls.is_hyperbolic_fibered:
                keys.setdefault(witness_key(a), a)
        assert all(row_holds(a) for a in keys.values())
        assert {k for k in keys if len(k) == 3} <= set(_table())
        assert {w.name for w in cover_witnesses()} == {
            "mixed-rivers", "positive-river-mixed-bridges", "family1-generic", "family1-small",
            "family2"}

    def test_keys(self):
        t, f = True, False
        assert witness_key(analyse(ln_link(4).mirror())) == (LinkFamily.LN_MIRROR, 4)
        assert witness_key(analyse(parse_link("L(2,2,2)"))) == (LinkFamily.FAMILY1, t, t)
        assert witness_key(analyse(parse_link("L(-2,-2,-2,-2,-2)"))) == (LinkFamily.FAMILY1, f, f)
        key = witness_key(analyse(parse_link("b(18,5)")))
        assert key[0] is LinkFamily.GENERIC_FIBERED and len(key[2]) == 4

    def test_one_class_fibered_on_two_keys(self):
        # b(30,-19) is b(30,11) with one component reversed: the two fibrations of one
        # unoriented class read linking numbers +1 and -1 and land on different rows
        t, f = True, False
        link, lift = TwoBridgeLink(30, 11), TwoBridgeLink(30, -19)
        assert schubert_unoriented_equal(link, lift)
        assert schubert_oriented_equal(link, lift) is SchubertRelation.COMPONENT_REVERSAL
        a, b = analyse(link), analyse(lift)
        assert a.cls.chain == (2, 2, -2, 2, 2) and a.linking == 1
        assert witness_key(a) == (LinkFamily.FAMILY2_INTERIOR, t, (t, t, f, t))
        assert b.linking == -1
        assert witness_key(b) == (LinkFamily.FAMILY2_INTERIOR, t, (f, t, f, t))
        assert row_holds(a) and row_holds(b)

    @pytest.mark.parametrize("spec, reason", [("b(10,3)", "not fibered"), ("L(2)", "torus")])
    def test_out_of_scope_links_have_no_key_and_no_row(self, spec, reason):
        # the row's scope gate: a non-fibered link has no chain to key, a torus link no row
        a = analyse(parse_link(spec))
        for read in (witness_key, row_holds):
            with pytest.raises(OutOfScope, match=reason):
                read(a)

    def test_a_key_outside_the_table_fails_its_row(self, monkeypatch):
        a = analyse(parse_link("b(18,5)"))
        assert row_holds(a)
        monkeypatch.setattr("tbsl.foliation.witness_key", lambda cls: ("no such row",))
        assert not row_holds(a)

    @pytest.mark.parametrize("fault", ["gap", "overlap"])
    def test_an_ln_row_with_a_gap_or_an_overlap_fails(self, monkeypatch, fresh_witness_table,
                                                        fault):
        # (0, 0) is off Ln(2)'s quadrant [2, inf)^2 and (2, 2) is its corner: a fault in the one
        # route of the strips, at n = 2, reaches the Ln(3) rows through the translate
        def faulty(linking, fills, boxes, filled=None):
            region = _route(linking, fills, boxes, filled)
            if fills != (Fraction(-1, 2),):
                return region
            dot = CircleInterval.point(0 if fault == "gap" else 2)
            point = Region2.box(dot, dot, Framing.CANONICAL)
            return region.difference(point) if fault == "gap" else region.union(point)

        monkeypatch.setattr("tbsl.foliation._route", faulty)
        for link in (ln_link(3), ln_link(3).mirror()):
            assert not row_holds(analyse(link)), link

    def test_a_cover_short_of_the_plane_fails_its_rows(self, monkeypatch, fresh_witness_table):
        monkeypatch.setattr("tbsl.foliation._FAMILY2_BOXES", _FAMILY2_BOXES[:1])
        for spec in ("L(2,-2,-2,-2,2)", "L(-2,2,2,2,-2)"):  # family 2 and its mirror
            a = analyse(parse_link(spec))
            assert a.cls.family is LinkFamily.FAMILY2_INTERIOR and not row_holds(a), spec
        assert row_holds(analyse(parse_link("b(18,5)")))

    def test_ln_rows_are_built_once_per_key(self):
        a, b = analyse(ln_link(6)), analyse(ln_link(6))
        assert a.witness is b.witness and a.gap is b.gap and a.foliation is b.foliation
        assert a.witness.equals(ln_taut_witness_strips(6))
        mirror = analyse(ln_link(6).mirror())
        assert mirror.witness.equals(a.witness.negated()) and mirror.witness is not a.witness

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_a_mirror_witness_holds_only_its_normal_forms_endpoints(self, n):
        # negating the route's own rectangle list would carry endpoints its normal form drops,
        # and every set operation on the mirror's row would then refine over them
        witness = analyse(ln_link(n).mirror()).witness
        bare = Region2(witness.framing, witness.canonical().rects)
        assert [(a.keys, a.den) for a in witness._grid[:2]] == [
            (a.keys, a.den) for a in bare._grid[:2]]

    def test_a_built_row_builds_no_region_again(self, monkeypatch):
        import tbsl.regions

        def reads(link):
            a = analyse(link)
            return (a.lspace, a.witness, a.gap, a.foliation, lspace_region(link),
                    foliation_region(link), verdict(link, (0, 0)))

        links = (ln_link(1), ln_link(3), ln_link(3).mirror())
        built = [reads(link) for link in links]

        def refuse(*args):
            raise AssertionError("a region was built")

        monkeypatch.setattr(Region2, "__init__", refuse)
        monkeypatch.setattr(tbsl.regions, "_reassemble_region", refuse)
        for link, first in zip(links, built):
            again = reads(link)
            assert all(x is y for x, y in zip(again, first)), link

    def test_non_ln_links_read_the_shared_plane_without_a_key(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a key was computed")

        monkeypatch.setattr("tbsl.foliation.witness_key", refuse)
        monkeypatch.setattr("tbsl.foliation.chain_census", refuse)
        first, *rest = (analyse(parse_link(s)) for s in ("b(18,5)", "L(-2,-2,-2)", "b(30,11)"))
        for a in rest:
            assert a.witness is first.witness and a.gap is first.gap
        assert first.witness.equals(CANONICAL_PLANE) and first.gap.is_empty()

    def test_importing_builds_no_row(self):
        import subprocess

        code = ("import tbsl.cli, tbsl.foliation as f; "
                "print(*(c.cache_info().currsize for c in (f._table, f._ln_row)))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={"PYTHONPATH": str(_SRC)}).stdout
        assert out.split() == ["0", "0"]


class TestRoute:
    def test_whitehead_filling_leaves_the_realised_interval(self):
        # at n = 1 the third slope -1 is an endpoint of (-1,0): the Whitehead gap
        message = r"filling slope -1 leaves the realised interval \(-1,0\)"
        with pytest.raises(ValueError, match=message):
            _route(_LN_LINKING, (-1,), _LN_SURFACE_BOXES)

    @pytest.mark.parametrize("k, h", [(1, 1), (2, 3), (5, 1), (7, 9)])
    def test_family2_boxes_cover_the_plane_for_every_twist(self, k, h):
        fills = (Fraction(-1, k), Fraction(-1, h))
        assert _route(_FAMILY2_LINKING, fills, _FAMILY2_BOXES).equals(CANONICAL_PLANE)

    def test_family2_filling_must_lie_in_its_interval(self):
        message = r"filling slope 1 leaves the realised interval \(inf,0\)"
        with pytest.raises(ValueError, match=message):
            _route(_FAMILY2_LINKING, (1, -1), _FAMILY2_BOXES)

    @staticmethod
    def _points(framing, *pairs):
        point = CircleInterval.point
        return Region2(framing, tuple((point(x), point(y)) for x, y in pairs))

    @pytest.mark.parametrize(
        "linking, fills, c1, c2, lk",
        [
            pytest.param(_LN_LINKING, (Fraction(-1, n),), n - 2, n, 1 - n, id=f"Ln n={n}")
            for n in (2, 3, 5, 9)
        ]
        + [pytest.param(_FAMILY1_LINKING, (-1,), 1, 3, -2, id="family1")]
        + [
            pytest.param(
                _FAMILY2_LINKING, (Fraction(-1, k), Fraction(-1, h)), k + h - 1, k + h - 1,
                1 - k - h, id=f"family2 k={k} h={h}",
            )
            for k, h in ((1, 1), (1, 2), (3, 1), (2, 5))
        ],
    )
    def test_probe_shifts_and_linking_number(self, linking, fills, c1, c2, lk):
        # a box of points at Seifert (0, 0) lands on the probed shift and its swap, and the
        # filled link's point (0, 0) moves by minus its linking number
        box = (CircleInterval.point(0), CircleInterval.point(0)) + (_REALISED["Q"],) * len(fills)
        filled = self._points(Framing.SEIFERT, (0, 0))
        expected = self._points(Framing.CANONICAL, (c1, c2), (c2, c1), (-lk, -lk))
        assert _route(linking, fills, (box,), filled).equals(expected)

    def test_filled_region_moves_by_the_linking_number(self):
        census = lemma_regions(SignCensus(1, 0, 0, 2))
        lk = analyse(parse_link("L(-2,-2,-2)")).linking
        expected = census.shifted(-lk, -lk).with_framing(Framing.CANONICAL)
        assert _route(_FAMILY1_LINKING, (-1,), (), census).equals(expected)

    def test_routes_and_the_table_run_no_set_operation(self, monkeypatch, fresh_witness_table):
        import tbsl.regions

        calls, combine = [], tbsl.regions._combine
        monkeypatch.setattr(tbsl.regions, "_combine", lambda *a: calls.append(a) or combine(*a))
        _table()
        _route(_LN_LINKING, (Fraction(-1, 2),), _LN_SURFACE_BOXES)  # Ln(2)
        _route(_LN_LINKING, (-1,), _LN_SURFACE_BOXES[1:2], lemma_regions(SignCensus(1, 0, 1, 1)))
        assert len(calls) == 0

    def test_the_strips_at_two_are_the_routes_list(self):
        # the probe at -1/2 shifts the boxes by (0, 2); the last four are the first four swapped
        rects = ln_taut_witness_strips(2).rects
        assert rects[:4] == tuple((b[0], b[1].shifted(2)) for b in _LN_SURFACE_BOXES)
        assert len(rects) == 8 and rects[4:] == tuple((iy, ix) for ix, iy in rects[:4])


class TestFamily2Companion:
    def test_framing_diagram_consistency(self):
        # Seifert (a, b, -1/k, -1/h) becomes canonical (a-1, b-1, ...) and the
        # two twists land on (a-1+k+h, b-1+k+h)
        for k, h in [(1, 1), (1, 4), (3, 2), (5, 5)]:
            d = SurgeryDiagram(
                _FAMILY2_LINKING, (7, -2, Fraction(-1, k), Fraction(-1, h)), Framing.SEIFERT
            )
            canonical = framing_convert(d, Framing.CANONICAL)
            assert canonical.slopes[0] == Slope(6)
            assert canonical.slopes[1] == Slope(-3)
            assert canonical.slopes[2:] == d.slopes[2:]
            filled = rolfsen_fill(rolfsen_fill(canonical, 3), 2)
            assert filled.slopes == (Slope(6 + k + h), Slope(-3 + k + h))
            assert abs(filled.linking[0][1]) == k + h - 1

    def test_filled_linking_matches_the_rewritten_link(self):
        # |lk| of L(-2k,-2,2,-2,-2h) is k+h-1
        for k, h in [(1, 1), (2, 3)]:
            link = parse_link(f"L({-2 * k},-2,2,-2,{-2 * h})")
            chain = classify(link).chain
            d = SurgeryDiagram(
                _FAMILY2_LINKING, (0, 0, Fraction(-1, k), Fraction(-1, h)), Framing.SEIFERT
            )
            d = rolfsen_fill(rolfsen_fill(framing_convert(d, Framing.CANONICAL), 3), 2)
            assert abs(linking_number(chain)) == abs(d.linking[0][1]) == k + h - 1

    def test_homology_consistent_through_fills(self):
        for k, h in [(1, 2), (3, 1)]:
            d = SurgeryDiagram(
                _FAMILY2_LINKING, (3, 5, Fraction(-1, k), Fraction(-1, h)), Framing.SEIFERT
            )
            d = framing_convert(d, Framing.CANONICAL)
            full = presentation_matrix(d)
            filled = presentation_matrix(rolfsen_fill(rolfsen_fill(d, 3), 2))
            assert filled.order == full.order


class TestFramingSquares:
    def test_family1_square_closes(self):
        # Seifert (a, b, -1) on the companion reaches Seifert (a-1, b+1) on
        # the filled link through the canonical route
        for a, b in [(0, 0), (4, -7), (-3, 2)]:
            d = SurgeryDiagram(_FAMILY1_LINKING, (a, b, -1), Framing.SEIFERT)
            d = framing_convert(d, Framing.CANONICAL)
            filled = rolfsen_fill(d, 2)
            back = framing_convert(filled, Framing.SEIFERT)
            assert back.slopes == (Slope(a - 1), Slope(b + 1))

    def test_family2_square_closes(self):
        # Seifert (a, b, -1/k, -1/h) on the companion reaches Seifert (a, b)
        # on the filled link
        for k, h in [(1, 1), (2, 5), (4, 3)]:
            for a, b in [(0, 0), (6, -1)]:
                d = SurgeryDiagram(
                    _FAMILY2_LINKING, (a, b, Fraction(-1, k), Fraction(-1, h)), Framing.SEIFERT
                )
                d = framing_convert(d, Framing.CANONICAL)
                filled = rolfsen_fill(rolfsen_fill(d, 3), 2)
                back = framing_convert(filled, Framing.SEIFERT)
                assert back.slopes == (Slope(a), Slope(b))


class TestMainTheoremPartition:
    def test_partition_on_the_small_census(self):
        from oracles import pm2_sequences, unoriented_key
        from tbsl import cf_eval

        seen = {}
        for seq in pm2_sequences(9):
            link = TwoBridgeLink.from_fraction(cf_eval(seq).value)
            key = unoriented_key(link)
            if key in seen:
                continue
            seen[key] = True
            if not classify(link).is_hyperbolic_fibered:
                continue
            ls, fol = lspace_region(link), foliation_region(link)
            assert ls.union(fol).equals(CANONICAL_PLANE)
            assert ls.intersect(fol).is_empty()


_GRID_VALUES = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))


@st.composite
def fibered_analysis_st(draw):
    """``Ln`` links, their mirrors, and hyperbolic fibered ±2 links with lk ≠ 0."""
    kind = draw(st.sampled_from(["ln", "mirror", "pm2"]))
    if kind == "pm2":
        length = draw(st.sampled_from([3, 5, 7, 9]))
        seq = draw(st.lists(st.sampled_from([2, -2]), min_size=length, max_size=length))
        a = analyse(TwoBridgeLink.from_fraction(cf_eval(seq).value))
        assume(a.cls.is_hyperbolic_fibered and a.linking != 0)
        return a
    link = ln_link(draw(st.integers(1, 12)))
    return analyse(link.mirror() if kind == "mirror" else link)


@st.composite
def grid_axes_st(draw, a):
    """Two shuffled axes holding 0, ``inf``, the quadrant corner, pairs with
    x·y = lk², and repeated values."""
    lk2 = a.linking**2
    corner = (-1 if a.cls.mirrored else 1) * (a.cls.n or 0)
    values = draw(st.lists(_GRID_VALUES, max_size=8))
    pool = [0, a.linking, -a.linking, corner, corner - 1, corner + 1, *values]
    pool += [Fraction(lk2) / v for v in pool if v]
    pool = [Slope(v) for v in pool] + [INFINITY]
    axes = []
    for _ in range(2):
        repeats = draw(st.lists(st.sampled_from(pool), max_size=4))
        axes.append(draw(st.permutations(pool + repeats)))
    return axes


@settings(max_examples=120)
@given(st.data())
def test_verdict_rows_match_the_rules_point_by_point(data):
    a = data.draw(fibered_analysis_st())
    xs, ys = data.draw(grid_axes_st(a))
    # over the lcm of the axes' denominators times a scale, so above 1 every numerator is
    # unreduced: a Betti point and the quadrant corner are found by exact products only
    rows = list(a.verdict_rows(*integer_axes(xs, ys, data.draw(st.integers(1, 12)))))
    assert len(rows) == len(xs)
    for x, row in zip(xs, rows):
        assert row == tuple(verdict_by_rules(a, x, y) for y in ys), x
    x, y = data.draw(st.sampled_from(xs)), data.draw(st.sampled_from(ys))
    assert verdict(a.link, (x, y)) is verdict_by_rules(a, x, y)


def test_verdict_rows_read_unreduced_numerators():
    # over 2: Ln(3) has lk = 2, so (4, 1) is a Betti point and the corner (3, 3) an L-space;
    # b(80,33) has lk = 0, so its x = 0 row and its y = 0 column are Betti points
    for spec, xs, ys in (("b(20,-3)", [8, 6, 4, None], [2, 6, 1, None]),
                         ("b(80,33)", [0, 2, None, -6], [4, 0, None, -2, 0])):
        a = analyse(parse_link(spec))
        rows = list(a.verdict_rows(xs, ys, 2))
        slopes = [[INFINITY if v is None else Slope(Fraction(v, 2)) for v in axis]
                  for axis in (xs, ys)]
        assert rows == [tuple(verdict_by_rules(a, x, y) for y in slopes[1]) for x in slopes[0]]
        assert Verdict.NOT_QHS_TAUT_BY_BETTI in rows[0]  # x = 4 with y = 1; x = 0 with lk = 0


@pytest.mark.parametrize("link, window, step", [
    ("b(62,-3)", 100, Fraction(1)),  # Ln(10): Betti rows at x = ±1, ±3, ±9, ±27, ±81
    ("b(62,3)", 100, Fraction(1)),  # its mirror
    ("b(80,33)", 30, Fraction(1, 3)),  # lk = 0: the x = 0 row is all Betti
])
def test_verdict_rows_share_one_tuple_per_mask(link, window, step):
    a = analyse(parse_link(link))
    axis = [Slope(k * step - window) for k in range(int(2 * window / step) + 1)]
    rows = list(a.verdict_rows(*integer_axes(axis, axis)))
    masks = list(a.lspace.row_masks(*integer_axes(axis, axis)))
    assert all(type(row) is tuple for row in rows)
    betti = [row for row in rows if Verdict.NOT_QHS_TAUT_BY_BETTI in row]
    assert betti
    shared = {}  # mask -> ids of the rows without a Betti point
    for mask, row in zip(masks, rows):
        if Verdict.NOT_QHS_TAUT_BY_BETTI not in row:
            shared.setdefault(mask, set()).add(id(row))
    assert all(len(ids) == 1 for ids in shared.values())
    assert len({id(row) for row in rows}) <= len(set(masks)) + len(betti)
    if a.linking == 0:
        assert rows[axis.index(Slope(0))] == (Verdict.NOT_QHS_TAUT_BY_BETTI,) * len(axis)

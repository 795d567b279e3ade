import dataclasses
from fractions import Fraction
from math import gcd

import hypothesis.strategies as st
import pytest
from hypothesis import given

from oracles import classify_by_expansion, even_expansion_search, greedy_even_entries
from tbsl import (
    INFINITY,
    CircleInterval,
    EvenExpansion,
    Framing,
    HomologyReport,
    LinkAnalysis,
    LinkClass,
    MonodromyWord,
    Region2,
    SignCensus,
    Slope,
    SlopeFamily,
    SurgeryDiagram,
    TwoBridgeLink,
    analyse,
    cf_eval,
    classify,
    even_expand,
    parse_interval,
    parse_link,
    rr_propagate,
    twist_word,
)
from tbsl import exactq, twobridge
from tbsl.exactq import MAX_EVEN_ENTRIES
from tbsl.foliation import CoverWitness
from tbsl.twobridge import LinkFamily, _pm2_chain
from tbsl.svgplot import region_svg


class TestSlope:
    def test_order_puts_inf_on_top(self):
        assert Slope(1) < Slope(2) < INFINITY
        assert not INFINITY < Slope(10**9)

    def test_parse_render_roundtrip(self):
        for text in ["inf", "8/5", "-30/11", "2", "0", "-1/3"]:
            assert str(Slope.of(text)) == text

    @pytest.mark.parametrize("text", ["1e3", "1E3", "0.5", "+3", "1_000", "١٢/٥", "１２"])
    def test_parse_reads_only_digits_over_digits(self, text):
        # Fraction reads each of these, and computes 1e10000000 in full
        with pytest.raises(ValueError, match=r"not of the form \[-\]digits\[/digits\]"):
            Slope.of(text)

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
        # as_rat reads text by the rule Slope.of keeps, not by Fraction's
        with pytest.raises(ValueError, match=r"not of the form \[-\]digits\[/digits\]"):
            build()

    def test_text_values_still_read(self):
        assert Slope("1/2") == Slope(Fraction(1, 2))
        assert Slope("-3") == Slope(-3)
        assert CircleInterval.open(0, 1).shifted("-1/2") == CircleInterval.open("-1/2", "1/2")

    def test_zero_denominator_is_named(self):
        # the text is reported as given, padding included
        with pytest.raises(ZeroDivisionError, match=r"^slope ' 1/0 ' has a zero denominator$"):
            Slope.of(" 1/0 ")

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
    ],
    ids=[
        "EvenExpansion",
        "cf_eval",
        "SurgeryDiagram",
        "MonodromyWord",
        "region_svg",
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

    @pytest.mark.parametrize(
        "bad, message",
        [
            (Fraction(0), "cannot expand 0"),
            (Fraction(3, 2), "3/2 does not have even numerator and odd denominator"),
            (Fraction(5), "5 does not have even numerator and odd denominator"),
            (Fraction(2, 3), r"\|2/3\| <= 1 admits no expansion"),
        ],
    )
    def test_each_refusal_names_its_reason(self, bad, message):
        with pytest.raises(ValueError, match=message):
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

    @pytest.mark.parametrize("bound", [4, 5, 6, 7])
    def test_bound_refuses_exactly_the_longer_words(self, monkeypatch, bound):
        # words of length 3 to 9, all +2, alternating and all -2: each expands exactly
        # when it is no longer than the bound, whatever its denominator
        monkeypatch.setattr(exactq, "MAX_EVEN_ENTRIES", bound)
        for n in (3, 5, 7, 9):
            for word in [(2,) * n, tuple(2 * (-1) ** i for i in range(n)), (-2,) * n]:
                value = cf_eval(word).value
                if n <= bound:
                    assert even_expand(value).coeffs == word
                else:
                    with pytest.raises(ValueError, match=f"more than {bound} entries"):
                        even_expand(value)
        # 2 then a jumped run (2,-2)*k that ends the word: the fibered walk keeps it exactly
        # when it is no longer than the bound, and refuses it before the run is yielded
        runs = _record_runs(monkeypatch, twobridge)
        for k in (1, 2, 3, 4):
            for word in [(2,) + (2, -2) * k, (-2,) + (-2, 2) * k]:
                link = TwoBridgeLink.from_fraction(cf_eval(word).value)
                runs.clear()
                if len(word) <= bound:
                    assert _pm2_chain(link.p, link.q) == word
                    assert runs == [word[:1], word[1:]]
                    continue
                for walk in (lambda: _pm2_chain(link.p, link.q), lambda: classify(link)):
                    runs.clear()
                    with pytest.raises(ValueError, match=f"more than {bound} entries"):
                        walk()
                    assert runs == [word[:1]]

    def test_large_denominators_expand_in_full(self):
        # a denominator above MAX_EVEN_ENTRIES must neither stop a short expansion
        # nor cut a long one below the bound
        for coeffs in [(2,) * 19, (2,) * 4 + (2, -2) * 300_000 + (2,)]:
            value = cf_eval(coeffs).value
            assert value.denominator > MAX_EVEN_ENTRIES
            assert even_expand(value).coeffs == coeffs

    def test_long_refusals_stop_after_a_few_runs(self, monkeypatch):
        # the runs are counted, not timed: each refusal comes before its long run is built
        runs = _record_runs(monkeypatch, exactq)
        p = MAX_EVEN_ENTRIES
        with pytest.raises(ValueError, match="more than 1000000 entries"):
            even_expand(Fraction(2 * p + 2, 2 * p + 1))
        assert len(runs) <= 3
        runs = _record_runs(monkeypatch, twobridge)
        with pytest.raises(ValueError, match="more than 1000000 entries"):
            classify(parse_link(f"b({10**30},-3)"))
        assert len(runs) <= 3

    def test_a_run_of_a_million_entries_is_one_step(self):
        runs = list(exactq.even_entries(10**6, 10**6 - 1))
        assert len(runs) <= 3
        assert sum(map(len, runs)) == 999_999


def _record_runs(monkeypatch, module) -> list[tuple[int, ...]]:
    """Replace ``module.even_entries`` by a walk that records each run it yields."""
    walk, runs = exactq.even_entries, []

    def recording(num, den):
        for run in walk(num, den):
            runs.append(run)
            yield run

    monkeypatch.setattr(module, "even_entries", recording)
    return runs


@st.composite
def run_words(draw):
    """Odd-length words of nonzero even entries built from long alternating ±2 runs.

    A run may follow an entry other than ±2 and may end on either sign; a word of
    even length gets one more entry in front, so its last run stays last and every
    run starts after the other parity of entries.
    """
    word = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            word.append(draw(st.sampled_from((-6, -4, 4, 6))))
        a = draw(st.sampled_from((2, -2)))
        word += [a, -a] * draw(st.integers(min_value=0, max_value=300))
        if draw(st.booleans()):
            word.append(a)
    if len(word) % 2 == 0:
        word.insert(0, draw(st.sampled_from((-4, -2, 2, 4))))
    return tuple(word)


def _check_walk(num: int, den: int) -> list[int]:
    """The jumped walk of num/den against the per-entry greedy oracle; returns the entries."""
    runs = list(exactq.even_entries(num, den))
    entries = [a for run in runs for a in run]
    assert entries == greedy_even_entries(num, den)
    for run in runs:  # one entry, or pairs (2,-2) or (-2,2) repeated
        pairs = len(run) // 2
        assert len(run) == 1 or (run[0] in (2, -2) and run == (run[0], -run[0]) * pairs)
    pm2 = tuple(entries) if set(map(abs, entries)) == {2} else None
    assert _pm2_chain(num, den) == _pm2_chain(-num, -den) == pm2
    return entries


@given(run_words())
def test_jumped_walk_matches_per_entry_greedy(word):
    x = cf_eval(word).value
    assert _check_walk(x.numerator, x.denominator) == list(word)


def test_jumped_walk_on_b_854_803():
    # 854/803 ends on a mirrored run (-2,2)*6 that starts after 17 entries and leaves
    # den = 0: the walk ends there.  Each of the four Schubert lifts is checked.
    link = TwoBridgeLink(854, 803)
    for num, den in [(854, 803), (-854, 51), (854, 787), (-854, 67)]:
        _check_walk(num, den)
    assert list(exactq.even_entries(854, 803))[-1] == (-2, 2) * 6
    assert classify(link) == classify_by_expansion(link)


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
        assert e.coeffs == (2, -2, -2) and len(e) == 3 and str(e) == "2,-2,-2"
        assert e.all_plus_minus_two
        assert not EvenExpansion((2, -4, -2)).all_plus_minus_two


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


@given(st.sampled_from(_POINTS), st.sampled_from(_POINTS))
def test_slope_order_is_strict_and_total(a, b):
    assert not a < a
    assert [a < b, a == b, b < a].count(True) == 1


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


# ---------------------------------------------------------------------------
# every immutable value compares, hashes and shows as a frozen dataclass would


def _value_samples():
    """Two values of each class that differ in a field; fresh objects on every call."""
    unit = CircleInterval.open(0, 1)
    box = Region2.box(unit, unit, Framing.CANONICAL)
    hopf = ((0, 1), (1, 0))
    return {
        Slope: [Slope(Fraction(1, 2)), Slope(None)],
        CircleInterval: [unit, CircleInterval.closed("inf", 2)],
        EvenExpansion: [EvenExpansion((2, -2, 4)), EvenExpansion((2,))],
        TwoBridgeLink: [TwoBridgeLink(20, -3), TwoBridgeLink(20, 3)],
        LinkClass: [LinkClass(LinkFamily.LN, 3, (2, -2, 2)), LinkClass(LinkFamily.NON_FIBERED)],
        SurgeryDiagram: [SurgeryDiagram(hopf, (1, None), Framing.CANONICAL),
                         SurgeryDiagram(hopf, (1, None), Framing.SEIFERT)],
        HomologyReport: [HomologyReport(((2, 1), (1, 2)), 3), HomologyReport(((0,),), 0)],
        MonodromyWord: [twist_word((2, -2, -2)), twist_word((2,))],
        SignCensus: [SignCensus(1, 0, 0, 2), SignCensus(0, 1, 0, 2)],
        # the second is an operation's result, holding only its grid until read
        Region2: [box, Region2.finite_plane(Framing.CANONICAL).difference(box)],
        SlopeFamily: [SlopeFamily(0, (1,), (CircleInterval.open(0, "inf"),)),
                      SlopeFamily(Fraction(1, 2), (-1, 1), (CircleInterval.open(0, "inf"), unit))],
        LinkAnalysis: [analyse(TwoBridgeLink(20, -3)), analyse(TwoBridgeLink(12, 5))],
        CoverWitness: [CoverWitness("a", box), CoverWitness("b", box)],
    }


_VALUE_CLASSES = list(_value_samples())


@pytest.mark.parametrize("cls", _VALUE_CLASSES, ids=lambda cls: cls.__name__)
def test_values_behave_as_frozen_dataclasses(cls):
    ref_cls = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)
    values, copies = _value_samples()[cls], _value_samples()[cls]
    refs = [ref_cls(*(getattr(v, name) for name in cls._fields)) for v in values]
    other = _value_samples()[_VALUE_CLASSES[_VALUE_CLASSES.index(cls) - 1]][0]
    for v, copy, ref in zip(values, copies, refs):
        assert v == copy and v is not copy and hash(v) == hash(copy) == hash(ref)
        assert v != ref and v.__eq__(ref) is NotImplemented and v.__eq__(other) is NotImplemented
        if "__repr__" not in vars(cls):  # Slope and CircleInterval show their own form
            assert repr(v) == repr(ref)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(v, name, getattr(v, name))
            with pytest.raises(AttributeError):
                delattr(v, name)
            with pytest.raises(AttributeError):
                delattr(ref, name)
    assert values[0] != values[1]
    assert [v == copy for v in values for copy in copies] == [a == b for a in refs for b in refs]

"""Two-bridge links in Schubert normal form and their classification.

A two-component two-bridge link is written ``b(p, q)`` with ``p`` even and
positive, ``q`` odd, ``-p < q < p`` and ``gcd(p, |q|) = 1``.  Oriented links
``b(p, q)`` and ``b(p', q')`` are isotopic exactly when ``p = p'`` and
``q' ≡ q^{±1} (mod 2p)``; forgetting orientations the condition relaxes to
``q' ≡ q^{±1} (mod p)``.  Each relation is tested as one congruence.

Fibered links are recognised through the all-even continued-fraction
expansion: the link is fibered exactly when some Schubert-equivalent
fraction expands with all entries ±2, and the shape of that expansion
sorts the fibered hyperbolic links into the families used downstream.  The
first such ±2 chain, a plain tuple, is the datum a :class:`LinkClass` keeps.
Only the two lifts of q are walked, each on integers a run at a time up to
its first entry other than ±2: reversing an odd-length expansion transposes
its continuant matrix, so the ±2 expansions of the lifts of q^{-1} are theirs
reversed.  A run is one entry or an alternating ±2 stretch taken in one step.
Torus links and the exceptional ``Ln`` links are recognised by residues.
"""

from __future__ import annotations

import operator
import re
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import KnotNotLink
from .exactq import DIGITS, EvenExpansion, Frozen, as_rat, cf_eval, even_entries, read_rational


class TwoBridgeLink(Frozen):
    """Normalised Schubert pair (p, q)."""

    _fields = ("p", "q")

    def __init__(self, p: int, q: int):
        if p <= 0 or p % 2 != 0:
            raise ValueError(f"p must be a positive even integer, got {p}")
        if q % 2 == 0 or not -p < q < p:
            raise ValueError(f"q must be odd, nonzero and in (-{p}, {p}), got {q}")
        if gcd(p, abs(q)) != 1:
            raise ValueError(f"p and q must be coprime, got ({p}, {q})")
        self.__dict__.update(p=p, q=q)

    @classmethod
    def normalized(cls, p: int, q: int) -> "TwoBridgeLink":
        """Reduce ``q`` modulo 2p into (-p, p); preserves the oriented class."""
        if p <= 0 or p % 2 != 0:
            if p > 0:
                raise KnotNotLink(f"b({p},{q}) is a knot, not a link (odd p)")
            raise ValueError(f"p must be a positive even integer, got {p}")
        r = q % (2 * p)
        if r >= p:
            r -= 2 * p
        return cls(p, r)

    @classmethod
    def from_fraction(cls, x) -> "TwoBridgeLink":
        """The normalised link of a reduced fraction p/q with p even.

        Negative fractions are re-written with positive numerator: the value
        num/den equals |num| / (sign(num)·den), so no mirroring is involved.
        """
        x = as_rat(x)
        num, den = x.numerator, x.denominator
        if num == 0:
            raise ValueError("0 is not a two-bridge fraction")
        if num % 2 != 0:
            raise KnotNotLink(f"{x} has odd numerator: a knot, not a link")
        if num < 0:
            num, den = -num, -den
        return cls.normalized(num, den)

    def fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    def mirror(self) -> "TwoBridgeLink":
        """The mirror image b(p, -q); an involution."""
        return TwoBridgeLink(self.p, -self.q)

    def __str__(self) -> str:
        return f"b({self.p},{self.q})"


class SchubertRelation(Enum):
    ISOTOPIC = "isotopic"
    COMPONENT_REVERSAL = "isotopic-after-component-reversal"
    DISTINCT = "distinct"


def schubert_oriented_equal(a: TwoBridgeLink, b: TwoBridgeLink) -> SchubertRelation:
    """Compare oriented links via the mod-2p classification.

    Mod 2p the lifts of q^{±1} mod p are q^{±1} and q^{±1} + p, so an
    unoriented-equal pair that is not isotopic differs by a component reversal.
    """
    if not schubert_unoriented_equal(a, b):
        return SchubertRelation.DISTINCT
    m = 2 * a.p
    if (b.q - a.q) % m == 0 or (a.q * b.q - 1) % m == 0:
        return SchubertRelation.ISOTOPIC
    return SchubertRelation.COMPONENT_REVERSAL


def schubert_unoriented_equal(a: TwoBridgeLink, b: TwoBridgeLink) -> bool:
    """Unoriented equivalence, q' ≡ q^{±1} (mod p): the mod-p twin of the oriented test."""
    p = a.p
    return p == b.p and ((b.q - a.q) % p == 0 or (a.q * b.q - 1) % p == 0)


def _pm2_chain(p: int, q: int) -> tuple[int, ...] | None:
    """The even expansion of ``p/q`` if every entry is ±2; ``None`` at its first other entry."""
    if q < 0:
        p, q = -p, -q
    chain = []
    for run in even_entries(p, q):
        if run[0] != 2 and run[0] != -2:  # a run of more than one entry is all ±2
            return None
        chain += run
    return tuple(chain)


def fibered_expansion(link: TwoBridgeLink) -> EvenExpansion | None:
    """The ±2 chain ``classify`` keeps, as an :class:`EvenExpansion`; ``None`` if there is none."""
    chain = classify(link).chain
    return None if chain is None else EvenExpansion(chain)


class LinkFamily(Enum):
    TORUS = "torus"
    FAMILY1 = "family1"
    FAMILY2_INTERIOR = "family2-interior"
    LN = "Ln"
    LN_MIRROR = "Ln-mirror"
    GENERIC_FIBERED = "generic-fibered"
    NON_FIBERED = "non-fibered"


class LinkClass(Frozen):
    _fields = ("family", "n", "chain", "mirrored")

    def __init__(self, family: LinkFamily, n: int | None = None,
                 chain: tuple[int, ...] | None = None, mirrored: bool = False):
        self.__dict__.update(family=family, n=n, chain=chain, mirrored=mirrored)

    @property
    def is_fibered(self) -> bool:
        return self.family is not LinkFamily.NON_FIBERED

    @property
    def is_hyperbolic_fibered(self) -> bool:
        return self.family not in (LinkFamily.TORUS, LinkFamily.NON_FIBERED)

    def tag(self) -> str:
        if self.family in (LinkFamily.LN, LinkFamily.LN_MIRROR):
            return f"{self.family.value}({self.n})"
        return self.family.value


def _family2_interior_shape(chain: tuple[int, ...], r: int) -> bool:
    # every river r and exactly one bridge r.  For r = -2 the family's definition also keeps
    # that bridge away from both ends; with it at an end of a length-(2k+1) word the link is
    # b(6k+2, -(2k+1)) or its reversal, which is Ln(k) since 3(2k+1) ≡ 1 mod 6k+2 (the
    # mirror for r = 2): detect_Ln has decided it, so no end is excluded.
    return all(x == r for x in chain[1::2]) and chain[0::2].count(r) == 1


#: The paper's family templates, in test order.  Each shape is matched on a ±2 chain with
#: r = -2 where the template's halves are -1, or with r = 2 for the mirror.
_FAMILY_SHAPES = (
    (LinkFamily.FAMILY1, lambda chain, r: all(x == r for x in chain)),
    (LinkFamily.FAMILY2_INTERIOR, _family2_interior_shape),
)


def detect_Ln(link: TwoBridgeLink) -> tuple[int, bool] | None:
    """Match against b(6n+2, -3) and its mirror b(6n+2, 3); (n, mirrored) on success.

    Each match is one :func:`schubert_unoriented_equal` congruence; p = 2 has only the Hopf
    links b(2, ±1).  The matches are the fibered hyperbolic members of Y. Liu's L-space links
    b(rq - 1, -q), r and q odd, and their mirrors (*L-space surgeries on links*, Quantum
    Topology, 2017); Liu's b(p, q) convention is unchecked here.
    """
    p = link.p
    if p % 6 == 2 and p > 2:
        for r, mirrored in ((-3, False), (3, True)):
            if schubert_unoriented_equal(link, TwoBridgeLink(p, r)):
                return ((p - 2) // 6, mirrored)
    return None


def ln_link(n: int) -> TwoBridgeLink:
    """The n-th link of the exceptional family, b(6n+2, 6n-1) ≅ b(6n+2, -3)."""
    if (n := operator.index(n)) < 1:
        raise ValueError("n must be a positive integer")
    return TwoBridgeLink(6 * n + 2, 6 * n - 1)


def classify(link: TwoBridgeLink) -> LinkClass:
    """Sort a link into its surgery family.

    Two residue tests decide first: :func:`detect_Ln`, then the torus links
    T(2, p) = b(p, ±1).  The family shapes are tested on every all-±2
    expansion of the two lifts of q, not just the first, since a link can
    expand both in the canonical shape and in a rewritten one.  The lifts of
    q^{-1} need no walk: reversing an odd-length expansion transposes its
    continuant matrix, so their ±2 expansions are those of q's lifts
    reversed, and every shape tested is reversal-invariant.  ``mirrored``
    records when a shape of :data:`_FAMILY_SHAPES` matched only with the sign swapped.
    """
    hit = detect_Ln(link)
    p, q = link.p, link.q
    pm2 = [h for c in (q, q - p if q > 0 else q + p) if (h := _pm2_chain(p, c)) is not None]
    if not pm2:
        return LinkClass(LinkFamily.NON_FIBERED)
    chain = pm2[0]
    if hit is not None:
        n, mirrored = hit
        fam = LinkFamily.LN_MIRROR if mirrored else LinkFamily.LN
        return LinkClass(fam, n=n, chain=chain, mirrored=mirrored)
    if q % p in (1, p - 1):
        return LinkClass(LinkFamily.TORUS, chain=chain)
    for family, shape in _FAMILY_SHAPES:
        for r in (-2, 2):
            if any(shape(h, r) for h in pm2):
                return LinkClass(family, chain=chain, mirrored=r == 2)
    mirrored = all(x == 2 for x in chain[1::2])  # every river twist is negative
    return LinkClass(LinkFamily.GENERIC_FIBERED, chain=chain, mirrored=mirrored)


def is_pm2_chain(chain: tuple[int, ...]) -> bool:
    """Whether ``chain`` is a ±2 chain: odd length, and every entry the ``int`` 2 or -2."""
    return len(chain) % 2 == 1 and set(chain) <= {2, -2} and set(map(type, chain)) <= {int}


def linking_number(chain: tuple[int, ...]) -> int:
    """Linking number of the two components, read off an odd-length ±2 chain.

    Sum of the bridge halves (odd positions) in the fiber-surface orientation.
    """
    if not is_pm2_chain(chain):
        raise ValueError("linking number is only computed from ±2 expansions")
    return sum(chain[0::2]) // 2


_B_RE = re.compile(rf"^b\(\s*(-?{DIGITS})\s*,\s*(-?{DIGITS})\s*\)$")
_L_RE = re.compile(rf"^L\(\s*(-?{DIGITS}(?:\s*,\s*-?{DIGITS})*)\s*\)$")


def _bad_position(text: str) -> int:
    allowed = set("0123456789,()-/ bL")
    for i, ch in enumerate(text):
        if ch not in allowed:
            return i
    return len(text)


def parse_link(text: str) -> TwoBridgeLink:
    """Parse ``b(p,q)``, ``L(a1,...,an)`` or a bare fraction ``p/q``."""
    text = text.strip()
    m = _B_RE.match(text)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        if p % 2 == 1:
            raise KnotNotLink(f"b({p},{q}) is a knot, not a link (odd p)")
        if gcd(p, abs(q)) != 1:  # p is even here, so this refuses every even q too
            raise ValueError(f"invalid Schubert pair b({p},{q})")
        return TwoBridgeLink.normalized(p, q)
    m = _L_RE.match(text)
    if m:
        coeffs = [int(a) for a in m.group(1).split(",")]
        value = cf_eval(coeffs)
        if value.is_infinity:
            raise ValueError(f"{text} evaluates to inf, not a link")
        return TwoBridgeLink.from_fraction(value.value)
    try:
        frac = read_rational(text)
    except ZeroDivisionError:
        raise ValueError(f"cannot parse link spec {text!r} (zero denominator)") from None
    except ValueError as exc:
        raise ValueError(
            f"cannot parse link spec {text!r} (unexpected input at position "
            f"{_bad_position(text)})"
        ) from exc
    return TwoBridgeLink.from_fraction(frac)


"""Two-bridge links in Schubert normal form and their classification.

A two-component two-bridge link is written ``b(p, q)`` with ``p`` even and
positive, ``q`` odd, ``-p < q < p`` and ``gcd(p, |q|) = 1``.  Oriented links
``b(p, q)`` and ``b(p', q')`` are isotopic exactly when ``p = p'`` and
``q' ≡ q^{±1} (mod 2p)``; forgetting orientations the condition relaxes to
``q' ≡ q^{±1} (mod p)``.

Fibered links are recognised through the all-even continued-fraction
expansion: the link is fibered exactly when some Schubert-equivalent
fraction expands with all entries ±2, and the shape of that expansion
sorts the fibered hyperbolic links into the families used downstream.
Each candidate is walked on integers up to its first entry other than ±2,
and the exceptional ``Ln`` links are recognised by :func:`detect_Ln` (mod p).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Iterator

from .errors import KnotNotLink
from .exactq import EvenExpansion, Slope, as_rat, cf_eval, even_entries, even_expand


@dataclass(frozen=True)
class TwoBridgeLink:
    """Normalised Schubert pair (p, q)."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if p <= 0 or p % 2 != 0:
            raise ValueError(f"p must be a positive even integer, got {p}")
        if q % 2 == 0 or q == 0 or not -p < q < p:
            raise ValueError(f"q must be odd, nonzero and in (-{p}, {p}), got {q}")
        if gcd(p, abs(q)) != 1:
            raise ValueError(f"p and q must be coprime, got ({p}, {q})")

    @classmethod
    def normalized(cls, p: int, q: int) -> "TwoBridgeLink":
        """Reduce ``q`` modulo 2p into (-p, p); preserves the oriented class."""
        if p <= 0 or p % 2 != 0:
            if p > 0 and p % 2 == 1:
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
        if isinstance(x, Slope):
            if x.is_infinity:
                raise ValueError("inf is not a two-bridge fraction")
            x = x.value
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
    """Compare oriented links via the mod-2p classification."""
    if a.p != b.p:
        return SchubertRelation.DISTINCT
    m = 2 * a.p
    if (b.q - a.q) % m == 0 or (a.q * b.q - 1) % m == 0:
        return SchubertRelation.ISOTOPIC
    if (b.q - a.q - a.p) % m == 0 or (a.q * b.q - 1 - a.p) % m == 0:
        return SchubertRelation.COMPONENT_REVERSAL
    return SchubertRelation.DISTINCT


def schubert_unoriented_equal(a: TwoBridgeLink, b: TwoBridgeLink) -> bool:
    """Unoriented equivalence: q' ≡ q^{±1} (mod p).

    This is the mod-p collapse of the four oriented clauses; the two odd
    lifts of each residue are precisely the representatives the oriented
    test would see.
    """
    if a.p != b.p:
        return False
    p = a.p
    return (b.q - a.q) % p == 0 or (a.q * b.q - 1) % p == 0


def _candidates(link: TwoBridgeLink) -> list[int]:
    """Odd q' in (-p, p) with q' ≡ q^{±1} (mod p), the link's own q first."""
    p, q = link.p, link.q
    second = q - p if q > 0 else q + p
    rinv = pow(q % p, -1, p)  # odd, since p is even and the inverse is odd mod 2
    out = []
    for c in (q, second, rinv, rinv - p):
        if c not in out:
            out.append(c)
    return out


def _pm2_halves(p: int, q: int) -> tuple[int, ...] | None:
    """Halves of the even expansion of ``p/q``; ``None`` at its first entry not ±2."""
    if q < 0:
        p, q = -p, -q
    halves = []
    for a in even_entries(p, q):
        if a != 2 and a != -2:
            return None
        halves.append(a // 2)
    return tuple(halves)


def _pm2_chains(link: TwoBridgeLink) -> Iterator[tuple[int, ...]]:
    """Halves of each all-±2 candidate expansion, lazily, in candidate order."""
    for c in _candidates(link):
        halves = _pm2_halves(link.p, c)
        if halves is not None:
            yield halves


def fibered_expansion(link: TwoBridgeLink) -> EvenExpansion | None:
    """The first candidate expansion with all entries ±2, if any."""
    halves = next(_pm2_chains(link), None)
    return None if halves is None else EvenExpansion(tuple(2 * h for h in halves))


class LinkFamily(Enum):
    TORUS = "torus"
    FAMILY1 = "family1"
    FAMILY2_INTERIOR = "family2-interior"
    LN = "Ln"
    LN_MIRROR = "Ln-mirror"
    GENERIC_FIBERED = "generic-fibered"
    NON_FIBERED = "non-fibered"


@dataclass(frozen=True)
class LinkClass:
    family: LinkFamily
    n: int | None = None
    fibered_expansion: EvenExpansion | None = None
    mirrored: bool = False

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


def _alternating(halves: tuple[int, ...]) -> bool:
    return all(halves[i] == halves[0] * (-1) ** i for i in range(len(halves)))


def _family2_interior_shape(halves: tuple[int, ...]) -> bool:
    # all rivers -1 and exactly one bridge -1, away from both ends
    n = len(halves)
    if n < 5:
        return False
    if any(halves[i] != -1 for i in range(1, n, 2)):
        return False
    minus = [i for i in range(0, n, 2) if halves[i] == -1]
    return len(minus) == 1 and minus[0] not in (0, n - 1)


def detect_Ln(link: TwoBridgeLink) -> tuple[int, bool] | None:
    """Match against b(6n+2, -3) and its mirror; (n, mirrored) on success."""
    p = link.p
    if p % 6 != 2:
        return None
    n = (p - 2) // 6
    if n < 1:
        return None
    rep = TwoBridgeLink(p, -3)
    if schubert_unoriented_equal(link, rep):
        return (n, False)
    if schubert_unoriented_equal(link, rep.mirror()):
        return (n, True)
    return None


def ln_link(n: int) -> TwoBridgeLink:
    """The n-th link of the exceptional family, b(6n+2, 6n-1) ≅ b(6n+2, -3)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return TwoBridgeLink(6 * n + 2, 6 * n - 1)


def classify(link: TwoBridgeLink) -> LinkClass:
    """Sort a link into its surgery family.

    Every all-±2 candidate is inspected (not just the first): the same link
    can expand both in the canonical family shape and in a rewritten shape,
    depending on which Schubert representative is used, and the
    classification must not depend on that choice.  The exception is ``Ln``,
    decided by :func:`detect_Ln` alone, so the walk stops at its first ±2
    candidate; the torus shape (q ≡ ±1 mod p) cannot occur there, as
    −3 ≢ ±1 (mod 6n+2) for n ≥ 1.  ``mirrored`` records when the family
    template matched only after negating the expansion.
    """
    hit = detect_Ln(link)
    chains = _pm2_chains(link)
    pm2 = list(islice(chains, 1) if hit is not None else chains)
    if not pm2:
        return LinkClass(LinkFamily.NON_FIBERED)
    first = EvenExpansion(tuple(2 * h for h in pm2[0]))
    if hit is not None:
        n, mirrored = hit
        fam = LinkFamily.LN_MIRROR if mirrored else LinkFamily.LN
        return LinkClass(fam, n=n, fibered_expansion=first, mirrored=mirrored)
    if any(_alternating(h) for h in pm2):
        return LinkClass(LinkFamily.TORUS, fibered_expansion=first)
    if any(all(x == -1 for x in h) for h in pm2):
        return LinkClass(LinkFamily.FAMILY1, fibered_expansion=first)
    if any(all(x == 1 for x in h) for h in pm2):
        return LinkClass(LinkFamily.FAMILY1, fibered_expansion=first, mirrored=True)
    if any(_family2_interior_shape(h) for h in pm2):
        return LinkClass(LinkFamily.FAMILY2_INTERIOR, fibered_expansion=first)
    if any(_family2_interior_shape(tuple(-x for x in h)) for h in pm2):
        return LinkClass(
            LinkFamily.FAMILY2_INTERIOR, fibered_expansion=first, mirrored=True
        )
    rivers_all_negative = all(x == 1 for x in pm2[0][1::2])
    return LinkClass(
        LinkFamily.GENERIC_FIBERED, fibered_expansion=first, mirrored=rivers_all_negative
    )


def linking_number(e: EvenExpansion) -> int:
    """Linking number of the two components, read off a ±2 expansion.

    Sum of the bridge halves (odd positions) in the fiber-surface
    orientation; only defined for all-±2 expansions.
    """
    if not e.all_plus_minus_two:
        raise ValueError("linking number is only computed from ±2 expansions")
    return sum(e.halves()[0::2])


_B_RE = re.compile(r"^b\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)$")
_L_RE = re.compile(r"^L\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)$")


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
        if gcd(p, abs(q)) != 1 or q % 2 == 0:
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
        frac = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"cannot parse link spec {text!r} (zero denominator)") from None
    except ValueError as exc:
        raise ValueError(
            f"cannot parse link spec {text!r} (unexpected input at position "
            f"{_bad_position(text)})"
        ) from exc
    return TwoBridgeLink.from_fraction(frac)


def render_link(link: TwoBridgeLink, cls: LinkClass) -> str:
    """Canonical rendering: both normal forms plus the tag of the link's class ``cls``."""
    return f"{link} = L({even_expand(link.fraction())}) [{cls.tag()}]"

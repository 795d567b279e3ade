"""Exact arithmetic on the circle of surgery slopes.

Slopes live on the circle Q ∪ {inf}: the rationals together with a single
point at infinity.  All arithmetic is exact; ``fractions.Fraction`` (always
reduced, positive denominator) carries the rational values and ``inf`` is a
distinguished extra point carried by :class:`Slope`, never inside a
``Fraction``.

The circle is traversed in the direction of increasing slope, and ``inf``
is the point where +infinity is glued to -infinity.  This fixes the meaning
of every interval, including the arcs that pass through infinity:

* ``(inf, 1)``  is the set of rationals strictly below 1;
* ``(1, inf)``  is the set of rationals strictly above 1;
* ``[inf, 1]``  additionally contains ``inf`` and ``1``;
* ``(2, -2)``   wraps: rationals above 2, then ``inf``, then rationals
  below -2;
* ``(inf, inf)`` is the whole rational line (the circle punctured at
  ``inf``), while ``[a, a]`` is the single point ``a``.

Its values (:class:`Slope`, :class:`CircleInterval`, :class:`EvenExpansion`) and those
of the other modules are :class:`Frozen`: plain classes that name their fields once and
normalise and check them in their own ``__init__``, compared and hashed by their fields.
No code is generated at import, as ``dataclasses`` does: importing it pulls in
``inspect`` and ``ast``, and it compiles each method through ``exec``, which together
cost a command-line run about a fifth of its time.

The module also provides continued-fraction evaluation and the unique
all-even continued-fraction expansion used to normalise two-bridge data.
Its greedy loop, :func:`even_entries`, yields a run at a time, one entry or an
alternating ±2 stretch taken in one step, so the fibered test can stop at the
first entry other than ±2 and a too-long run is refused before it is built.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Iterable, Iterator
from fractions import Fraction
from functools import total_ordering
from itertools import chain


def as_rat(x) -> Fraction:
    """Coerce to an exact rational; floats are rejected, text is read by :func:`read_rational`."""
    if isinstance(x, float):
        raise TypeError(f"floats are not exact slopes; pass a Fraction or string: {x!r}")
    return read_rational(x) if isinstance(x, str) else Fraction(x)


#: The digits of every integer read from text: ASCII only, where ``\d`` takes any decimal digit.
DIGITS = "[0-9]+"
_RATIONAL_RE = re.compile(f"(-?{DIGITS})(?:/({DIGITS}))?")


def read_rational(text: str, what: str = "rational") -> Fraction:
    """``text`` as ``[-]digits[/digits]``; ``Fraction`` also reads ``+``, decimals, ``_``
    and exponents, computing ``1e10000000`` in full.  Other forms raise ``ValueError``
    and a zero denominator ``ZeroDivisionError``, each naming ``what`` and ``text``."""
    m = _RATIONAL_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"{what} {text!r} is not of the form [-]digits[/digits]")
    den = int(m[2] or 1)
    if den == 0:
        raise ZeroDivisionError(f"{what} {text!r} has a zero denominator")
    return Fraction(int(m[1]), den)


class Frozen:
    """An immutable value with the fields ``_fields`` names, in order.

    A subclass's own ``__init__`` puts them in the instance ``__dict__``; assigning or
    deleting an attribute raises ``AttributeError``.  Values of the same class are equal
    when their fields are, hashed as the tuple of the fields, and shown as
    ``Name(field=value, ...)``, as ``@dataclass(frozen=True)`` would make them.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls._fields)  # the tuple of the fields; one: the field

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        key = self._key(self)
        return hash(key if len(self._fields) > 1 else (key,))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@total_ordering
class Slope(Frozen):
    """A point of the slope circle: a rational number or ``inf``.

    ``None`` encodes the point at infinity.  The total order puts ``inf``
    above every rational; the circle wraps there.
    """

    _fields = ("value",)

    def __init__(self, value: Fraction | None = None):
        if value is not None and not isinstance(value, Fraction):
            value = as_rat(value)
        self.__dict__["value"] = value

    @classmethod
    def of(cls, x) -> "Slope":
        if isinstance(x, Slope):
            return x
        if isinstance(x, str):
            return cls.parse(x)
        return cls(as_rat(x))

    @classmethod
    def parse(cls, text: str) -> "Slope":
        if text.strip() == "inf":
            return INFINITY
        return cls(read_rational(text, "slope"))

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __lt__(self, other) -> bool:
        other = Slope.of(other)
        if self.is_infinity:
            return False
        if other.is_infinity:
            return True
        return self.value < other.value

    def __neg__(self) -> "Slope":
        return self if self.is_infinity else Slope(-self.value)

    def shifted(self, d) -> "Slope":
        """Translate by a rational amount; ``inf`` is fixed."""
        return self if self.is_infinity else Slope(self.value + as_rat(d))

    def __str__(self) -> str:
        return "inf" if self.is_infinity else str(self.value)

    def __repr__(self) -> str:
        return f"Slope({self})"


INFINITY = Slope(None)


class CircleInterval(Frozen):
    """An arc of the slope circle with exact endpoints and open/closed flags.

    The arc runs from ``lo`` to ``hi`` in the direction of increasing slope
    (wrapping at ``inf``).  ``lo == hi`` with both ends closed is the single
    point; with both ends open it is the punctured circle, so ``(inf,inf)``
    holds every rational.  Both ends are ``Slope``s.
    """

    _fields = ("lo", "hi", "lo_closed", "hi_closed")

    #: No arc is the whole circle: every region holds finite points only, and
    #: on them ``(inf,inf)`` is the whole line.  Kept for readers of the flag.
    full_circle = False

    def __init__(self, lo: Slope, hi: Slope, lo_closed: bool, hi_closed: bool):
        if lo_closed != hi_closed and lo == hi:
            raise ValueError(
                "degenerate interval must be a point [a,a] or a punctured circle (a,a)"
            )
        self.__dict__.update(lo=lo, hi=hi, lo_closed=lo_closed, hi_closed=hi_closed)

    @classmethod
    def open(cls, lo, hi) -> "CircleInterval":
        return cls(Slope.of(lo), Slope.of(hi), False, False)

    @classmethod
    def closed(cls, lo, hi) -> "CircleInterval":
        return cls(Slope.of(lo), Slope.of(hi), True, True)

    @classmethod
    def point(cls, a) -> "CircleInterval":
        a = Slope.of(a)
        return cls(a, a, True, True)

    @classmethod
    def punctured(cls, a) -> "CircleInterval":
        a = Slope.of(a)
        return cls(a, a, False, False)

    def contains(self, x) -> bool:
        x, lo, hi = Slope.of(x), self.lo, self.hi
        if x == lo:
            return self.lo_closed
        if x == hi:
            return self.hi_closed
        if lo == hi:
            return not self.lo_closed  # all but the point, or only the point
        return lo < x < hi if lo < hi else x > lo or x < hi

    def negated(self) -> "CircleInterval":
        """The pointwise image under slope negation (``inf`` is fixed)."""
        return CircleInterval(-self.hi, -self.lo, self.hi_closed, self.lo_closed)

    def shifted(self, d) -> "CircleInterval":
        return CircleInterval(
            self.lo.shifted(d), self.hi.shifted(d), self.lo_closed, self.hi_closed
        )

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"

    def __repr__(self) -> str:
        return f"CircleInterval({self})"


_INTERVAL_RE = re.compile(r"^([\[(])\s*([^,\s]+)\s*,\s*([^,\s\])]+)\s*([\])])$")


def parse_interval(text: str) -> CircleInterval:
    """Inverse of ``str(CircleInterval)``."""
    m = _INTERVAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not an interval: {text!r}")
    lb, lo, hi, rb = m.groups()
    return CircleInterval(Slope.parse(lo), Slope.parse(hi), lb == "[", rb == "]")


class EvenExpansion(Frozen):
    """An odd-length continued-fraction expansion with nonzero even entries.

    Such an expansion is unique for its value, and the value always has an
    even numerator and odd denominator.  Entries all equal to ±2 certify a
    fibered two-bridge link.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        coeffs = tuple(map(operator.index, coeffs))
        if len(coeffs) % 2 != 1:
            raise ValueError("even expansion must have odd length")
        sizes = set(map(abs, coeffs))
        if 0 in sizes or any(a % 2 != 0 for a in sizes):
            raise ValueError("even expansion entries must be nonzero even integers")
        # whether every entry is ±2, read off the one walk above; not a field
        self.__dict__.update(coeffs=coeffs, all_plus_minus_two=sizes == {2})

    def __len__(self) -> int:
        return len(self.coeffs)

    def __str__(self) -> str:
        return ",".join(str(a) for a in self.coeffs)


def cf_eval(coeffs: Iterable[int]) -> Slope:
    """Value of the continued fraction a1 + 1/(a2 + 1/(... + 1/an)).

    Evaluated projectively, so a vanishing tail contributes 1/0 = inf and
    a + inf = inf; the result is a reduced rational or ``inf``.
    """
    coeffs = [operator.index(a) for a in coeffs]
    if not coeffs:
        raise ValueError("empty continued fraction")
    if any(a == 0 for a in coeffs):
        raise ValueError("zero entries are not supported")
    p_prev, q_prev = 1, 0
    p, q = coeffs[0], 1
    for a in coeffs[1:]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    if q == 0:
        return INFINITY
    return Slope(Fraction(p, q))


#: Most entries an even expansion may have: ``p/(p-1)`` has about ``p``.
MAX_EVEN_ENTRIES = 10**6


def even_entries(num: int, den: int) -> Iterator[tuple[int, ...]]:
    """The entries of the all-even expansion of ``num/den``, in order, a run at a time.

    Greedy: each step takes the unique even integer within distance one of
    the current value; parity guarantees existence and uniqueness, and the
    denominators strictly decrease, so this terminates with odd length.  A run is
    one entry ``(a,)`` or ``(2, -2) * k``: while x = num/den lies in (1, 5/3), each
    pair 2, -2 lowers t = den/(num - den) by 2, so one division finds the k pairs
    down to t <= 3/2, and t = 0 ends the expansion (``(-2, 2) * k`` for -x).  Past
    ``MAX_EVEN_ENTRIES`` entries it raises ``ValueError`` before building the run.
    Expects the reduced input :func:`even_expand` checks for: even ``num``, odd
    ``den > 0`` and ``|num| > den``.
    """
    left = MAX_EVEN_ENTRIES
    while den:
        f = num // den  # floor; exactly one of f, f+1 is even
        d = abs(num) - den
        # the pairs that bring t = den/d to 3/2 or below; > 0 exactly when 1 < |x| < 5/3
        pairs = (2 * den + d - 1) // (4 * d) if f == 1 or f == -2 else 0
        left -= 2 * pairs or 1
        if left < 0:
            raise ValueError(f"the all-even expansion has more than {MAX_EVEN_ENTRIES} entries")
        if pairs:
            a = 2 if f == 1 else -2
            den -= 2 * pairs * d
            num = den + d if f == 1 else -den - d
            yield (a, -a) * pairs
        else:
            a = f if f % 2 == 0 else f + 1
            yield (a,)
            num, den = den, num - a * den
        if den < 0:
            num, den = -num, -den


def even_expand(x) -> EvenExpansion:
    """The unique all-even continued-fraction expansion of ``x``.

    Requires a reduced fraction with even numerator, odd denominator and
    ``|x| > 1`` (otherwise no expansion with nonzero even entries exists);
    the entries come from :func:`even_entries`.
    """
    x = as_rat(x)
    num, den = x.numerator, x.denominator
    if num == 0:
        raise ValueError("cannot expand 0")
    if num % 2 != 0:  # an even numerator of a reduced fraction has an odd denominator
        raise ValueError(f"{x} does not have even numerator and odd denominator")
    if abs(num) <= den:
        raise ValueError(f"|{x}| <= 1 admits no expansion with nonzero even entries")
    return EvenExpansion(tuple(chain.from_iterable(even_entries(num, den))))


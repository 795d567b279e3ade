"""Independent arithmetic used to generate inputs and to check outputs.

Nothing here imports ``tbsl``: the closed forms below are written from the
definitions (continuants, Schubert equivalence mod p, the quadrant theorem)
so that a wrong answer from the library cannot also be the expected answer.
"""

from __future__ import annotations

from fractions import Fraction

LSPACE = "LSpace"
NLS = "NLSWithTautFoliation"
NOT_QHS = "NotQHS_TautByBetti"
INFINITY_FILLING = "InfinityFilling"


def cf_value(coeffs) -> tuple[int, int]:
    """Numerator and denominator of a1 + 1/(a2 + ... + 1/an), via continuants."""
    p_prev, q_prev, p, q = 1, 0, coeffs[0], 1
    for a in coeffs[1:]:
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    if q < 0:
        p, q = -p, -q
    return p, q


def schubert_pair(num: int, den: int) -> tuple[int, int]:
    """Normalised (p, q) of the two-bridge link with fraction num/den (num even)."""
    if num < 0:
        num, den = -num, -den
    r = den % (2 * num)
    return num, r - 2 * num if r >= num else r


def link_spec_from_coeffs(coeffs) -> tuple[str, int, int]:
    """``L(...)`` spec of a ±2 sequence, with its normalised Schubert pair."""
    p, q = schubert_pair(*cf_value(coeffs))
    return "L(" + ",".join(str(a) for a in coeffs) + ")", p, q


def linking_number(coeffs) -> int:
    """Sum of the bridge halves (odd positions, 1-based) of a ±2 sequence."""
    return sum(a // 2 for a in coeffs[0::2])


def ln_index(p: int, q: int) -> tuple[int, bool] | None:
    """(n, mirrored) when b(p, q) is unoriented-equal to b(6n+2, -3) or its mirror."""
    if p % 6 != 2 or p < 8:
        return None
    qm = q % p
    if qm in ((-3) % p, pow((-3) % p, -1, p)):
        return (p - 2) // 6, False
    if qm in (3 % p, pow(3, -1, p)):
        return (p - 2) // 6, True
    return None


def _even_expansion(num: int, den: int) -> list[int]:
    coeffs = []
    while den != 1:
        f = num // den
        a = f if f % 2 == 0 else f + 1
        coeffs.append(a)
        num, den = den, num - a * den
        if den < 0:
            num, den = -num, -den
    coeffs.append(num)
    return coeffs


def is_torus(p: int, q: int) -> bool:
    """Some Schubert representative expands as ±2 entries with alternating signs."""
    second = q - p if q > 0 else q + p
    inverse = pow(q % p, -1, p)
    for c in {q, second, inverse, inverse - p}:
        halves = [a // 2 for a in _even_expansion(*Fraction(p, c).as_integer_ratio())]
        if all(abs(h) == 1 for h in halves) and all(
            h == halves[0] * (-1) ** i for i, h in enumerate(halves)
        ):
            return True
    return False


def expected_verdict(r1, r2, lk: int, ln: tuple[int, bool] | None) -> str:
    """Closed-form verdict at a canonical-framing multislope (``None`` is inf)."""
    if r1 is None or r2 is None:
        return INFINITY_FILLING
    if r1 * r2 == lk * lk:
        return NOT_QHS
    if ln is not None:
        n, mirrored = ln
        if (not mirrored and r1 >= n and r2 >= n) or (mirrored and r1 <= -n and r2 <= -n):
            return LSPACE
    return NLS


def parse_slope(text: str):
    return None if text == "inf" else Fraction(text)


# -- circle intervals as plain tuples: (lo, hi, lo_closed, hi_closed, kind) ----
# lo/hi are Fractions or None (inf); kind is "arc", "point", "punctured", "full".


def _lt(a, b) -> bool:
    """Order on Q ∪ {inf} with inf above every rational."""
    if a is None:
        return False
    return b is None or a < b


def interval_contains(iv, x) -> bool:
    lo, hi, lo_closed, hi_closed, kind = iv
    if kind == "full":
        return True
    if kind == "point":
        return x == lo
    if kind == "punctured":
        return x != lo
    if x == lo:
        return lo_closed
    if x == hi:
        return hi_closed
    if _lt(lo, hi):
        return _lt(lo, x) and _lt(x, hi)
    return _lt(lo, x) or _lt(x, hi)

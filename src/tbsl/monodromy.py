"""Dehn-twist factorisation of the fibration monodromy and its sign census.

The fiber surface of a ±2 expansion of length n carries core curves
indexed 1..n.  The monodromy is the product of one twist per curve, the
even-indexed ("river") twists first in ascending order, then the
odd-indexed ("bridge") twists ascending.  The twist at index i has
exponent -sgn(b_i) for even i and sgn(b_i) for odd i, where b_i is half
the i-th expansion entry.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .exactq import EvenExpansion


@dataclass(frozen=True)
class MonodromyWord:
    """Ordered twist letters (curve_index, exponent), rivers before bridges."""

    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        letters = tuple((operator.index(i), operator.index(e)) for i, e in self.letters)
        object.__setattr__(self, "letters", letters)
        idx = [i for i, _ in self.letters]
        if sorted(idx) != list(range(1, len(idx) + 1)):
            raise ValueError("word must contain each index 1..n exactly once")
        if idx != sorted(idx, key=lambda i: (i % 2, i)):  # rivers before bridges, each ascending
            raise ValueError("even indices must precede odd ones, each block ascending")
        if any(e not in (1, -1) for _, e in self.letters):
            raise ValueError("exponents must be ±1")

    def __str__(self) -> str:
        return " ".join(f"t{i}" if e == 1 else f"t{i}^-1" for i, e in self.letters)


@dataclass(frozen=True)
class SignCensus:
    pos_rivers: int
    neg_rivers: int
    pos_bridges: int
    neg_bridges: int


def twist_word(e: EvenExpansion) -> MonodromyWord:
    """Twist word of a ±2 expansion."""
    if not e.all_plus_minus_two:
        raise ValueError("monodromy word requires a ±2 expansion")
    h = e.halves()
    rivers = [(i + 1, -h[i]) for i in range(1, len(h), 2)]
    bridges = [(i + 1, h[i]) for i in range(0, len(h), 2)]
    return MonodromyWord(tuple(rivers + bridges))


def sign_census(w: MonodromyWord) -> SignCensus:
    """Count exponent signs at river (even) and bridge (odd) indices."""
    pr = sum(1 for i, e in w.letters if i % 2 == 0 and e == 1)
    nr = sum(1 for i, e in w.letters if i % 2 == 0 and e == -1)
    pb = sum(1 for i, e in w.letters if i % 2 == 1 and e == 1)
    nb = sum(1 for i, e in w.letters if i % 2 == 1 and e == -1)
    return SignCensus(pr, nr, pb, nb)

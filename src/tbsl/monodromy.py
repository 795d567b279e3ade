"""Dehn-twist factorisation of the fibration monodromy and its sign census.

The fiber surface of a ±2 chain, an odd-length tuple of entries ±2, of
length n carries core curves indexed 1..n.  The monodromy is the product of
one twist per curve, the even-indexed ("river") twists first in ascending
order, then the odd-indexed ("bridge") twists ascending.  The twist at index
i has exponent -sgn(b_i) for even i and sgn(b_i) for odd i, where b_i is half
the i-th chain entry.
"""

from __future__ import annotations

import operator

from .exactq import Frozen
from .twobridge import is_pm2_chain


class MonodromyWord(Frozen):
    """Ordered twist letters (curve_index, exponent), rivers before bridges."""

    _fields = ("letters",)

    def __init__(self, letters: tuple[tuple[int, int], ...]):
        letters = tuple((operator.index(i), operator.index(e)) for i, e in letters)
        idx, n = [i for i, _ in letters], len(letters)
        if idx != [*range(2, n + 1, 2), *range(1, n + 1, 2)]:  # rivers first, each block ascending
            raise ValueError("word must contain each index 1..n exactly once"
                             if sorted(idx) != [*range(1, n + 1)] else
                             "even indices must precede odd ones, each block ascending")
        if any(e not in (1, -1) for _, e in letters):
            raise ValueError("exponents must be ±1")
        self.__dict__["letters"] = letters

    def __str__(self) -> str:
        return " ".join(f"t{i}" if e == 1 else f"t{i}^-1" for i, e in self.letters)


class SignCensus(Frozen):
    _fields = ("pos_rivers", "neg_rivers", "pos_bridges", "neg_bridges")

    def __init__(self, pos_rivers: int, neg_rivers: int, pos_bridges: int, neg_bridges: int):
        self.__dict__.update(pos_rivers=pos_rivers, neg_rivers=neg_rivers,
                             pos_bridges=pos_bridges, neg_bridges=neg_bridges)


def twist_word(chain: tuple[int, ...]) -> MonodromyWord:
    """Twist word of a ±2 chain."""
    if not is_pm2_chain(chain):
        raise ValueError("monodromy word requires a ±2 expansion")
    rivers = [(i + 1, -chain[i] // 2) for i in range(1, len(chain), 2)]
    bridges = [(i + 1, chain[i] // 2) for i in range(0, len(chain), 2)]
    return MonodromyWord(tuple(rivers + bridges))


def sign_census(w: MonodromyWord) -> SignCensus:
    """Count exponent signs at river (even) and bridge (odd) indices."""
    pr = sum(1 for i, e in w.letters if i % 2 == 0 and e == 1)
    nr = sum(1 for i, e in w.letters if i % 2 == 0 and e == -1)
    pb = sum(1 for i, e in w.letters if i % 2 == 1 and e == 1)
    nb = sum(1 for i, e in w.letters if i % 2 == 1 and e == -1)
    return SignCensus(pr, nr, pb, nb)

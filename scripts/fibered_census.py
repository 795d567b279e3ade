#!/usr/bin/env python3
"""Census of two-bridge links up to a numerator bound.

Tabulates how many unoriented classes fall into each surgery family, lists
the exceptional quadrant links found, and checks that every hyperbolic
fibered class lands on a row of the witness table that passes its checks
(``row_holds``, once for each row a lift reaches): its witness misses the
L-space region and, but on ``Ln(1)`` and its mirror, leaves no gap, so the
L-space and foliation regions partition the finite multislope plane.  A
class's key depends on the lift b(p, q') analysed, so both lifts
q' = q mod p and q' = q mod p - p are analysed and their keys checked.  The
inverse 1/q (mod p) reverses the ±2 chain, whose odd length keeps the
position parity a key reads, so it adds no key.
"""

import argparse
from collections import Counter
from math import gcd

from tbsl import TwoBridgeLink, analyse, even_expand
from tbsl.foliation import row_holds, witness_key


def unoriented_classes(max_p):
    """One link per unoriented class with even p <= max_p, by p, then by q.

    The class of b(p, q) is {q, 1/q} mod p.  Each class is listed once, as
    b(p, q - p) for the odd q in (0, p) prime to p with q <= 1/q (mod p): its
    negative lift of the smaller residue.
    """
    for p in range(2, max_p + 1, 2):
        for q in range(1, p, 2):
            if gcd(p, q) == 1 and q <= pow(q, -1, p):
                yield TwoBridgeLink(p, q - p)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-p", type=int, default=100)
    args = parser.parse_args()

    counts = Counter()
    quadrant_links = []
    rows = set()
    partition_checked = 0
    for link in unoriented_classes(args.max_p):
        a = analyse(link)
        counts[a.cls.family.value] += 1
        if a.cls.n is not None:
            quadrant_links.append(f"{link} = L({even_expand(link.fraction())}) [{a.cls.tag()}]")
        if a.cls.is_hyperbolic_fibered:
            # a key depends on the lift analysed: read both lifts' keys
            for b in (analyse(TwoBridgeLink(link.p, link.q + link.p)), a):
                key = witness_key(b)
                if key not in rows:
                    assert row_holds(b), f"{b.link} lands on the row {key}, which fails its checks"
                    rows.add(key)
            partition_checked += 1

    total = sum(counts.values())
    print(f"unoriented two-bridge classes with p <= {args.max_p}: {total}")
    for family, count in sorted(counts.items()):
        print(f"  {family:<18} {count}")
    print(f"partition verified for {partition_checked} hyperbolic fibered classes")
    if quadrant_links:
        print("links with nonempty L-space region:")
        for line in quadrant_links:
            print(f"  {line}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Census of two-bridge links up to a numerator bound.

Tabulates how many unoriented classes fall into each surgery family, lists
the exceptional quadrant links found, and checks that every hyperbolic
fibered class lands on a row of the witness table that passes its checks
(``row_holds``, once per row): its witness misses the L-space region and,
but on ``Ln(1)`` and its mirror, leaves no gap, so the L-space and
foliation regions partition the finite multislope plane.  A class's key
depends on the Schubert representative b(p, q') analysed, so each
q' = q or 1/q (mod p) with |q'| < p is analysed and its key checked.
"""

import argparse
from collections import Counter
from math import gcd

from tbsl import TwoBridgeLink, analyse, render_link
from tbsl.foliation import row_holds, witness_key


def unoriented_classes(max_p):
    seen = set()
    for p in range(2, max_p + 1, 2):
        for q in range(-p + 1, p, 2):
            if q == 0 or gcd(p, abs(q)) != 1:
                continue
            qm = q % p
            key = (p, min(qm, pow(qm, -1, p)))
            if key in seen:
                continue
            seen.add(key)
            yield TwoBridgeLink(p, q)


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
            quadrant_links.append(render_link(link, a.cls))
        if a.cls.is_hyperbolic_fibered:
            # a key depends on the Schubert representative analysed: read every one's
            qm = link.q % link.p
            qi = pow(qm, -1, link.p)
            for q in dict.fromkeys((link.q, qm, qm - link.p, qi, qi - link.p)):
                b = a if q == link.q else analyse(TwoBridgeLink(link.p, q))
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

#!/usr/bin/env python3
"""Census of two-bridge links up to a numerator bound.

Tabulates how many unoriented classes fall into each surgery family, lists
the exceptional quadrant links found, and cross-checks that the L-space and
foliation regions partition the finite multislope plane for every
hyperbolic fibered class.
"""

import argparse
from collections import Counter
from math import gcd

from tbsl import Framing, Region2, TwoBridgeLink, analyse, render_link


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

    plane = Region2.finite_plane(Framing.CANONICAL)
    counts = Counter()
    quadrant_links = []
    partition_checked = 0
    for link in unoriented_classes(args.max_p):
        a = analyse(link)
        counts[a.cls.family.value] += 1
        if a.cls.n is not None:
            quadrant_links.append(render_link(link, a.cls))
        if a.cls.is_hyperbolic_fibered:
            ls, fol = a.lspace, a.foliation
            assert ls.union(fol).equals(plane) and ls.intersect(fol).is_empty()
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

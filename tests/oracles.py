"""Independent brute-force oracles used to validate the fast paths.

These deliberately avoid the library's own algorithms: expansions are found
by exhaustive search (with provably sound pruning) or one greedy entry per
step, never a run of entries at once, fibered links by
enumerating all ±2 sequences directly, region membership by testing
every rectangle at a probe point of every grid atom, translations by moving
each rectangle side, a region grid's columns on a finer grid one joint atom
at a time, with endpoints compared as fractions, verdicts by the rules
applied one point at a time (b1 > 0 read off a Laplace determinant), and
determinants by Laplace expansion.  The link classifier is the one that
expands every Schubert lift in full before looking at its entries, and
it tests the ``Ln`` residues and the family shapes from their definitions.
The lift order of :func:`schubert_lifts` is a convention this module writes
out itself, with its own modular inverse: it decides which ±2 expansion counts
as first, and the tests hold the library's first ±2 chain to it.  Fibering,
fiber size and linking number are also read off the link group, by Fox
calculus on Schubert's presentation, without any continued fraction.
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

from tbsl import LinkClass, LinkFamily, Region2, Slope, TwoBridgeLink, Verdict, even_expand


def schubert_lifts(link: TwoBridgeLink) -> list[int]:
    """The odd q' in (-p, p) with q' ≡ q^{±1} (mod p): q, its other lift, then the two
    lifts of q^{-1} (which may repeat those of q)."""
    p, q = link.p, link.q
    inv = pow(q % p, -1, p)  # odd, since p is even
    return [q, q - p if q > 0 else q + p, inv, inv - p]


def even_expansion_search(x: Fraction, max_len: int) -> list[tuple[int, ...]]:
    """All expansions of ``x`` with nonzero even entries and length <= max_len.

    Sound pruning: every tail of such an expansion has magnitude at least
    one (|a| >= 2 and the next reciprocal contributes at most one), so each
    entry lies within distance one of the running value.  Entries are
    therefore among floor-1, floor, floor+1 at every step.
    """
    out: list[tuple[int, ...]] = []

    def rec(num: int, den: int, prefix: list[int]) -> None:
        if den == 1 and num != 0 and num % 2 == 0 and len(prefix) < max_len:
            out.append(tuple(prefix) + (num,))
        if len(prefix) + 2 > max_len:
            return
        f = num // den
        for a in (f - 1, f, f + 1):
            if a == 0 or a % 2 != 0:
                continue
            rnum = num - a * den
            if rnum == 0 or abs(rnum) > den:
                continue
            nn, nd = den, rnum
            if nd < 0:
                nn, nd = -nn, -nd
            rec(nn, nd, prefix + [a])

    x = Fraction(x)
    rec(x.numerator, x.denominator, [])
    return out


def greedy_even_entries(num: int, den: int) -> list[int]:
    """The all-even expansion of ``num/den`` one entry per step, with plain integers only.

    For even ``num``, odd ``den > 0`` and ``|num| > den``: each entry is the even
    integer nearest the running value, 2·floor((x + 1)/2), which lies within
    distance one of it; the expansion ends when the denominator reaches 1.
    """
    out = []
    while den != 1:
        a = 2 * ((num + den) // (2 * den))
        out.append(a)
        num, den = den, num - a * den
        if den < 0:
            num, den = -num, -den
    out.append(num)
    return out


def unoriented_key(link: TwoBridgeLink) -> tuple[int, int]:
    """Canonical key of the unoriented Schubert class: (p, min(q, q^-1) mod p)."""
    qm = link.q % link.p
    qi = pow(qm, -1, link.p)
    return (link.p, min(qm, qi))


def pm2_census_by_key(max_p: int) -> dict[tuple[int, int], set[tuple[int, ...]]]:
    """Every ±2 sequence with numerator <= max_p, grouped by unoriented class.

    The numerator continuants of ±2 sequences are strictly increasing in
    absolute value, so pruning prefixes with |numerator| > max_p is sound
    and the enumeration is complete for all lengths at once.
    """
    by_key: dict[tuple[int, int], set[tuple[int, ...]]] = {}

    def rec(p_prev: int, q_prev: int, p: int, q: int, seq: tuple[int, ...]) -> None:
        if len(seq) % 2 == 1:
            key = unoriented_key(TwoBridgeLink.from_fraction(Fraction(p, q)))
            by_key.setdefault(key, set()).add(seq)
        for a in (2, -2):
            p2 = a * p + p_prev
            if abs(p2) > max_p:
                continue
            rec(p, q, p2, a * q + q_prev, seq + (a,))

    for a in (2, -2):
        rec(1, 0, a, 1, (a,))
    return by_key


def fibered_census(max_p: int) -> set[tuple[int, int]]:
    """Unoriented keys of every value of a ±2 sequence with numerator <= max_p."""
    return set(pm2_census_by_key(max_p))


def all_links(max_p: int) -> list[TwoBridgeLink]:
    """Every normalised two-bridge link with p <= max_p."""
    links = []
    for p in range(2, max_p + 1, 2):
        for q in range(-p + 1, p, 2):
            if q != 0 and gcd(p, abs(q)) == 1:
                links.append(TwoBridgeLink(p, q))
    return links


def pm2_sequences(max_len: int) -> list[tuple[int, ...]]:
    """All ±2 sequences of odd length <= max_len."""
    seqs = []
    for n in range(1, max_len + 1, 2):
        stack = [()]
        for _ in range(n):
            stack = [s + (a,) for s in stack for a in (2, -2)]
        seqs.extend(stack)
    return seqs


def grid_probes(*regions) -> list[tuple[Slope, Slope]]:
    """One finite probe point in every cell of the regions' joint grid.

    On each axis the probes are every finite endpoint, the midpoint of each
    pair of neighbouring endpoints, and one point beyond each end, so every
    point atom and every open arc of the grid holds a probe.  Any region
    whose rectangles have no other endpoints is constant on each cell, so
    comparing regions on these probes decides them exactly.
    """
    axes = []
    for k in (0, 1):
        ends = sorted(
            {s.value for r in regions for rect in r.rects for s in (rect[k].lo, rect[k].hi)}
            - {None}
        )
        if not ends:
            axes.append([Slope(Fraction(0))])
            continue
        mids = [(a + b) / 2 for a, b in zip(ends, ends[1:])]
        axes.append([Slope(v) for v in (ends[0] - 1, *ends, *mids, ends[-1] + 1)])
    return list(itertools.product(*axes))


def member(region, point) -> bool:
    """Brute-force membership of a finite point: one rectangle holds both coordinates."""
    x, y = point
    return any(ix.contains(x) and iy.contains(y) for ix, iy in region.rects)


def integer_axes(xs, ys, scale: int = 1):
    """Two axes of slopes in the grid engine's form ``(xs, ys, den)``: integer numerators over
    the lcm of every finite denominator times ``scale``, ``None`` for ``inf``; a ``scale``
    above 1 leaves every numerator a multiple of it, unreduced."""
    values = [[Slope.of(s).value for s in axis] for axis in (xs, ys)]
    den = scale * lcm(*(v.denominator for axis in values for v in axis if v is not None))
    return (*([None if v is None else v.numerator * (den // v.denominator) for v in axis]
              for axis in values), den)


def shifted_by_rectangles(region, dx, dy):
    """``region`` translated by (dx, dy) one rectangle side at a time, through
    ``CircleInterval.shifted``: the region built from the moved rectangles."""
    rects = tuple((ix.shifted(dx), iy.shifted(dy)) for ix, iy in region.rects)
    return Region2(region.framing, rects)


def _holding_atom(axis, joint, j: int) -> int:
    """The atom of ``axis`` that holds atom ``j`` of the finer ``joint``, by endpoint values: a
    joint endpoint is the endpoint it equals or else lies in the arc above the endpoints below
    it, and the open arc below joint endpoint ``k`` lies above as many endpoints of ``axis`` as
    lie at or below joint endpoint ``k - 1``."""
    ends = [Fraction(k, axis.den) for k in axis.keys]
    if j % 2:
        v = Fraction(joint.keys[j // 2], joint.den)
        return 2 * ends.index(v) + 1 if v in ends else 2 * sum(1 for e in ends if e < v)
    below = Fraction(joint.keys[j // 2 - 1], joint.den) if j else None
    return 2 * sum(1 for e in ends if below is not None and e <= below)


def remapped_by_atoms(grid, xaxis, yaxis) -> list[int]:
    """The columns of a region grid ``(x axis, y axis, columns)`` on joint axes that hold its
    endpoints, one joint atom at a time: joint x-atom ``i`` takes the column of the grid's x-atom
    holding it, and sets bit ``j`` when that column sets the grid's y-atom holding joint y-atom
    ``j``.  An axis is read by its fields only: sorted integer ``keys`` over ``den``."""
    gx, gy, cols = grid
    ys = [_holding_atom(gy, yaxis, j) for j in range(2 * len(yaxis.keys) + 1)]
    return [sum(1 << j for j, a in enumerate(ys) if cols[_holding_atom(gx, xaxis, i)] >> a & 1)
            for i in range(2 * len(xaxis.keys) + 1)]


def verdict_by_rules(analysis, x, y) -> Verdict:
    """The verdict rules at one point, with brute-force L-space membership."""
    if x.is_infinity or y.is_infinity:
        return Verdict.INFINITY_FILLING
    # b1 > 0 exactly when the canonical-framing presentation, p_i on the
    # diagonal and q_i·lk off it, is singular
    (p1, q1), (p2, q2) = x.value.as_integer_ratio(), y.value.as_integer_ratio()
    lk = analysis.linking
    if laplace_det(((p1, q1 * lk), (q2 * lk, p2))) == 0:
        return Verdict.NOT_QHS_TAUT_BY_BETTI
    if member(analysis.lspace, (x, y)):
        return Verdict.L_SPACE
    return Verdict.NLS_WITH_TAUT_FOLIATION


def laplace_det(m) -> int:
    """Determinant by Laplace expansion along the first row (O(n!))."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = tuple(tuple(row[k] for k in range(n) if k != j) for row in m[1:])
        total += (-1) ** j * m[0][j] * laplace_det(minor)
    return total


def ln_by_definition(link: TwoBridgeLink) -> tuple[int, bool] | None:
    """(n, mirrored) when the link is b(6n+2, r) up to Schubert equivalence, n >= 1.

    The test is q ≡ r or q·r ≡ 1 (mod p), with r = -3 for ``Ln`` and r = 3
    for its mirror.
    """
    p, q = link.p, link.q
    if p % 6 != 2 or p < 8:
        return None
    for r, mirrored in ((-3, False), (3, True)):
        if (q - r) % p == 0 or (q * r - 1) % p == 0:
            return ((p - 2) // 6, mirrored)
    return None


def torus_shape(halves: tuple[int, ...]) -> bool:
    """Halves that alternate in sign: the expansion of a (2, 2k) torus link."""
    return all(a == -b for a, b in zip(halves, halves[1:]))


def family2_interior_shape(halves: tuple[int, ...]) -> bool:
    """At least five halves, every river (odd position) -1, and exactly one
    bridge (even position) -1, which is neither the first nor the last."""
    bridges, rivers = halves[0::2], halves[1::2]
    return (
        len(halves) >= 5
        and all(h == -1 for h in rivers)
        and bridges.count(-1) == 1
        and bridges[0] == bridges[-1] == 1
    )


def classify_by_expansion(link: TwoBridgeLink) -> LinkClass:
    """``classify`` by full expansion of every Schubert lift.

    Every lift is expanded to the end with ``even_expand``, every
    all-±2 expansion is inspected (``Ln`` links included), and the torus
    shape is tested before the ``Ln`` residues.
    """
    expansions = [even_expand(Fraction(link.p, c)) for c in schubert_lifts(link)]
    pm2 = [e.coeffs for e in expansions if e.all_plus_minus_two]
    if not pm2:
        return LinkClass(LinkFamily.NON_FIBERED)
    first = pm2[0]
    halves = [tuple(a // 2 for a in chain) for chain in pm2]
    if any(torus_shape(h) for h in halves):
        return LinkClass(LinkFamily.TORUS, chain=first)
    hit = ln_by_definition(link)
    if hit is not None:
        n, mirrored = hit
        fam = LinkFamily.LN_MIRROR if mirrored else LinkFamily.LN
        return LinkClass(fam, n=n, chain=first, mirrored=mirrored)
    for h in halves:
        if all(x == -1 for x in h):
            return LinkClass(LinkFamily.FAMILY1, chain=first)
    for h in halves:
        if all(x == 1 for x in h):
            return LinkClass(LinkFamily.FAMILY1, chain=first, mirrored=True)
    for h in halves:
        if family2_interior_shape(h):
            return LinkClass(LinkFamily.FAMILY2_INTERIOR, chain=first)
    for h in halves:
        if family2_interior_shape(tuple(-x for x in h)):
            return LinkClass(LinkFamily.FAMILY2_INTERIOR, chain=first, mirrored=True)
    rivers_all_negative = all(x == 1 for x in halves[0][1::2])
    return LinkClass(LinkFamily.GENERIC_FIBERED, chain=first, mirrored=rivers_all_negative)


def schubert_signs(p: int, q: int) -> list[int]:
    """The exponents ε_i = (-1)^⌊iq/p⌋, i = 1..p-1, of Schubert's word for b(p, q)."""
    return [1 - 2 * (i * q // p & 1) for i in range(1, p)]


def alexander_by_fox(p: int, q: int) -> dict[tuple[int, int], int]:
    """Two-variable Alexander polynomial of b(p, q), up to units: {(i, j): coefficient
    of t1^i t2^j}.

    The link group is ⟨a, b | a w = w a⟩ with w = b^ε1 a^ε2 b^ε3 ... b^ε(p-1)
    (Schubert 1956).  The Fox derivative of the relator by b is (a - 1)·∂w/∂b, so
    ∂w/∂b abelianised (a ↦ t1, b ↦ t2) is Δ(t1, t2).  The derivative of b^±1 at
    letter i is ±(prefix), with the prefix b^-1 more for b^-1.
    """
    poly: dict[tuple[int, int], int] = {}
    ea = eb = 0  # exponents of a and b in the prefix
    for i, e in enumerate(schubert_signs(p, q), start=1):
        if i % 2 == 0:
            ea += e
            continue
        key = (ea, eb if e == 1 else eb - 1)
        poly[key] = poly.get(key, 0) + e
        eb += e
    return {k: c for k, c in poly.items() if c}


def schubert_linking(p: int, q: int) -> int:
    """The signed sum of the b-exponents ε_i (i odd) of Schubert's word for b(p, q)."""
    return sum(schubert_signs(p, q)[0::2])

"""Surgery-diagram calculus: framings, twists, and first homology.

Surgery coefficients come in two bases per component: the Seifert framing
(longitudes cut out by the fiber surface) and the canonical framing
(null-homologous longitudes).  They differ by the total linking with the
other components,

    canonical slope of K_i = Seifert slope of K_i - sum_j lk(K_i, K_j),

with meridians, and hence infinite fillings, shared by both.

The homology of a fully filled diagram in the canonical framing is
presented by the square matrix with p_i on the diagonal and q_i·lk(i, j)
off it, where the i-th slope is p_i/q_i; only |det| is meaningful.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .errors import FramingMismatch, UnsupportedSlope
from .exactq import INFINITY, Frozen, Slope
from .regions import Framing


class SurgeryDiagram(Frozen):
    """Components with a symmetric linking matrix and per-component slopes.

    ``slopes[i]`` is ``None`` for an unfilled (drilled) component; otherwise
    a :class:`Slope`.  All filled slopes carry the diagram's framing tag.
    """

    _fields = ("linking", "slopes", "framing")

    def __init__(self, linking: tuple[tuple[int, ...], ...], slopes: tuple[Slope | None, ...],
                 framing: Framing):
        lk = tuple(tuple(operator.index(v) for v in row) for row in linking)
        sl = tuple(None if s is None else Slope.of(s) for s in slopes)
        n = len(lk)
        if n == 0 or any(len(row) != n for row in lk):
            raise ValueError("linking matrix must be square and nonempty")
        if len(sl) != n:
            raise ValueError("one slope entry per component required")
        for i in range(n):
            if lk[i][i] != 0:
                raise ValueError("linking matrix must have zero diagonal")
            for j in range(n):
                if lk[i][j] != lk[j][i]:
                    raise ValueError("linking matrix must be symmetric")
        self.__dict__.update(linking=lk, slopes=sl, framing=framing)

    @property
    def n_components(self) -> int:
        return len(self.linking)

    def with_slope(self, i: int, s: Slope | None) -> "SurgeryDiagram":
        slopes = list(self.slopes)
        slopes[i] = s
        return SurgeryDiagram(self.linking, tuple(slopes), self.framing)

    def fully_filled(self) -> bool:
        return all(s is not None for s in self.slopes)


def framing_convert(d: SurgeryDiagram, target: Framing) -> SurgeryDiagram:
    """Re-express every filled slope in the target framing; inf is fixed."""
    if d.framing == target:
        return d
    sign = -1 if target == Framing.CANONICAL else 1
    # the diagonal is zero, so a row sums to the component's total linking
    slopes = tuple(None if s is None else s.shifted(sign * sum(d.linking[i]))
                   for i, s in enumerate(d.slopes))
    return SurgeryDiagram(d.linking, slopes, target)


def rolfsen_fill(d: SurgeryDiagram, component: int) -> SurgeryDiagram:
    """Fill an unknotted component framed -1/m and remove it from the diagram.

    The twist adds m·lk(i, c)² to each remaining canonical slope and
    m·lk(i, c)·lk(j, c) to each remaining linking number.  Filling with inf
    deletes the component without any twisting.  The component must be
    unknotted (caller-asserted); slopes other than -1/m or inf do not return
    to the three-sphere and are rejected.
    """
    if d.framing != Framing.CANONICAL:
        raise FramingMismatch("rolfsen_fill expects canonical-framing slopes")
    s = d.slopes[component]
    if s is None:
        raise ValueError("component to fill must carry a slope")
    if s.is_infinity:
        m = 0
    else:
        fr = s.value
        if abs(fr.numerator) != 1:
            raise UnsupportedSlope(
                f"rolfsen_fill needs a slope of the form -1/m or inf, got {fr}"
            )
        m = -fr.numerator * fr.denominator
    keep = [i for i in range(d.n_components) if i != component]
    lk_c = d.linking[component]
    linking = tuple(
        tuple(
            d.linking[i][j] + (m * lk_c[i] * lk_c[j] if i != j else 0)
            for j in keep
        )
        for i in keep
    )
    slopes = tuple(None if s is None else s.shifted(m * lk_c[i] ** 2)
                   for i, s in enumerate(d.slopes) if i != component)
    return SurgeryDiagram(linking, slopes, Framing.CANONICAL)


class HomologyReport(Frozen):
    """Presentation matrix of the first homology, its determinant and order."""

    _fields = ("presentation", "determinant")

    def __init__(self, presentation: tuple[tuple[int, ...], ...], determinant: int):
        self.__dict__.update(presentation=presentation, determinant=determinant)

    @property
    def order(self) -> int | None:
        """Order of the group, ``None`` meaning infinite."""
        return abs(self.determinant) if self.determinant != 0 else None

    def to_json_dict(self) -> dict:
        return {
            "presentation": [list(row) for row in self.presentation],
            "determinant": self.determinant,
            "order": "infinite" if self.order is None else self.order,
        }


def _det(m: tuple[tuple[int, ...], ...]) -> int:
    """Determinant by fraction-free (Bareiss) elimination, in integers only.

    Every division is exact; a zero pivot swaps in a lower row and flips
    the sign, and a column with no pivot makes the determinant zero.
    """
    a = [list(row) for row in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def presentation_matrix(d: SurgeryDiagram) -> HomologyReport:
    """Homology presentation of a fully filled canonical-framing diagram.

    Components filled with inf contribute nothing and are dropped; the
    all-inf filling presents the trivial group (order 1).
    """
    if d.framing != Framing.CANONICAL:
        raise FramingMismatch("presentation_matrix expects canonical framing")
    if not d.fully_filled():
        raise ValueError("diagram must be fully filled")
    active = [i for i, s in enumerate(d.slopes) if not s.is_infinity]
    rows = []
    for i in active:
        p, q = d.slopes[i].value.numerator, d.slopes[i].value.denominator
        rows.append(tuple(p if j == i else q * d.linking[i][j] for j in active))
    matrix = tuple(rows)
    return HomologyReport(matrix, _det(matrix))


def is_qhs(d: SurgeryDiagram) -> bool:
    """Does a fully filled two-component diagram (canonical framing) give a
    rational homology sphere?

    Fails exactly when the slopes are {0, inf} or when r1·r2 equals lk²;
    agrees with a nonzero presentation determinant.
    """
    if d.n_components != 2 or not d.fully_filled():
        raise ValueError("is_qhs expects a fully filled two-component diagram")
    r1, r2 = d.slopes
    if r1.is_infinity or r2.is_infinity:
        other = r2 if r1.is_infinity else r1
        return other.is_infinity or other.value != 0
    lk = d.linking[0][1]
    return r1.value * r2.value != lk * lk


def drilled_longitude(d: SurgeryDiagram, component: int) -> Slope:
    """Homological longitude of the manifold drilled along one component.

    The presentation determinant is linear in the (p, q) of that component;
    the longitude is its unique zero, recovered from the determinants at the
    inf and 0 fillings.
    """
    if d.slopes[component] is not None:
        raise ValueError("component must be unfilled")
    for i, s in enumerate(d.slopes):
        if i != component and s is None:
            raise ValueError("all other components must be filled")
    a = presentation_matrix(d.with_slope(component, INFINITY)).determinant
    b = presentation_matrix(d.with_slope(component, Slope(Fraction(0)))).determinant
    if a == 0 and b == 0:
        raise ValueError("not a rational homology solid torus")
    if a == 0:
        return INFINITY
    return Slope(Fraction(-b, a))

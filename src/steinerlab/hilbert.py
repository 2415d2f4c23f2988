"""Divisor and curve arithmetic for configuration spaces of n plane points.

The divisor lattice is spanned by H (configurations meeting a fixed line)
and half the discriminant class D (non-reduced configurations); a class
is stored as (a, b) meaning a*H - (b/2)*D.  Curves are stored against the
dual basis: alpha (one point moving on a line) and beta (a spinning
tangent direction), with alpha.H = 1, alpha.D = 0, beta.H = 0, beta.D = -2.

Proven edges come from the two bundle constructions; two further families
are conjectural, and everything else is reported as open together with
the best moving-curve lower bound.  Status fields keep conjecture and
theorem separate in all output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .slopes import is_semistable_slope


@dataclass(frozen=True)
class DivisorClass:
    """The class a*H - (b/2)*D; slope is a/b, and the H:D coefficient
    ratio of the unscaled class is 2a/b."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    @property
    def slope(self) -> Fraction:
        if self.b == 0:
            raise ZeroDivisionError("slope undefined for b = 0")
        return self.a / self.b

    @property
    def h_over_delta(self) -> Fraction:
        """Ratio of the H coefficient to the full-D coefficient, 2a/b."""
        return 2 * self.a / self.b

    @property
    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def normalized(self) -> "DivisorClass":
        """Scaled so the half-D coefficient is 1 (b = 1)."""
        return DivisorClass(self.a / self.b, Fraction(1))

    def scaled(self, t) -> "DivisorClass":
        return DivisorClass(self.a * t, self.b * t)


H_CLASS = DivisorClass(Fraction(1), Fraction(0))
DISCRIMINANT_CLASS = DivisorClass(Fraction(0), Fraction(-2))


@dataclass(frozen=True)
class CurveClass:
    """x*alpha + y*beta; meets H in x and the discriminant in -2y."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))

    @property
    def h_degree(self) -> Fraction:
        return self.x

    @property
    def delta_degree(self) -> Fraction:
        return -2 * self.y

    @property
    def slope(self) -> Fraction:
        """Discriminant degree over H degree, the quantity maximized by
        good moving curves."""
        return self.delta_degree / self.h_degree


ALPHA = CurveClass(Fraction(1), Fraction(0))
BETA = CurveClass(Fraction(0), Fraction(1))


def pair(d: DivisorClass, c: CurveClass) -> Fraction:
    """Intersection pairing: a*(C.H) - (b/2)*(C.D) = a*x + b*y."""
    return d.a * c.x + d.b * c.y


@dataclass(frozen=True)
class NDecomposition:
    """n = r(r+1)/2 + s with 0 <= s <= r; the decomposition is unique."""

    n: int
    r: int
    s: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.s, self.r)


def decompose(n: int) -> NDecomposition:
    if n < 1:
        raise ValueError("need n >= 1")
    # r(r+1)/2 <= n < (r+1)(r+2)/2  <=>  r = floor((sqrt(8n+1) - 1) / 2)
    r = (math.isqrt(8 * n + 1) - 1) // 2
    s = n - r * (r + 1) // 2
    assert 0 <= s <= r
    return NDecomposition(n, r, s)


def steiner_divisor(r: int, s: int) -> DivisorClass:
    """Divisor of configurations failing interpolation for the cokernel
    bundle family: (r^2 - r + s) H - (r/2) D."""
    if not 0 <= s <= r:
        raise ValueError("need 0 <= s <= r")
    return DivisorClass(Fraction(r * r - r + s), Fraction(r))


def kernel_divisor(r: int, s: int) -> DivisorClass:
    """Dual kernel-bundle divisor: (r^2 + r + s - 1) H - ((r+2)/2) D."""
    if not 1 <= s <= r:
        raise ValueError("need 1 <= s <= r")
    return DivisorClass(Fraction(r * r + r + s - 1), Fraction(r + 2))


def pencil_curve(n: int, d: int) -> CurveClass:
    """n points moving in a linear pencil on a smooth curve of degree d:
    meets H in d and the discriminant in d(d-3) + 2n."""
    if d < 1:
        raise ValueError("need d >= 1")
    delta = d * (d - 3) + 2 * n
    return CurveClass(Fraction(d), Fraction(-delta, 2))


def nodal_pencil_curve(r: int, s: int) -> tuple[CurveClass, int]:
    """Moving curve from a pencil on a nodal curve of degree 2r - 1 with
    m = r^2 - (r-1) - n nodes, valid for 0 <= s < r/2.

    The discriminant degree 2(2r^2 - 3r + 2s + 1) is the equality case of
    a lower bound (no pencil member may contain a full node preimage).
    """
    if not (0 <= s and 2 * s < r):
        raise ValueError("need 0 <= s < r/2")
    n = r * (r + 1) // 2 + s
    m = r * r - (r - 1) - n
    delta = 2 * (2 * r * r - 3 * r + 2 * s + 1)
    return CurveClass(Fraction(2 * r - 1), Fraction(-delta, 2)), m


@dataclass(frozen=True)
class GaetaShape:
    """Two-step resolution shape of the ideal of n general points:
    (twist, multiplicity) lists for the middle and left terms."""

    n: int
    middle: tuple[tuple[int, int], ...]
    left: tuple[tuple[int, int], ...]

    def euler_defect(self, t: int) -> int:
        """Middle minus left Euler characteristics at twist t, minus the
        expected B(t) - n; zero for every t when the shape is correct.
        B is the polynomial (t+1)(t+2)/2, evaluated as such even at
        negative arguments."""

        def poly_b(x: int) -> Fraction:
            return Fraction((x + 1) * (x + 2), 2)

        total = sum(m * poly_b(t + e) for e, m in self.middle)
        total -= sum(m * poly_b(t + e) for e, m in self.left)
        return total - (poly_b(t) - self.n)


def gaeta_shape(n: int) -> GaetaShape:
    """Resolution shape of the ideal sheaf of n general plane points,
    branching on s <= r/2 versus s >= r/2 (the branches agree at equality
    once zero-multiplicity terms are dropped)."""
    dec = decompose(n)
    r, s = dec.r, dec.s

    def clean(pairs):
        return tuple((e, m) for e, m in pairs if m > 0)

    if 2 * s <= r:
        middle = clean([(-r, r - s + 1)])
        left = clean([(-r - 1, r - 2 * s), (-r - 2, s)])
    else:
        middle = clean([(-r, r - s + 1), (-r - 1, 2 * s - r)])
        left = clean([(-r - 2, s)])
    return GaetaShape(n, middle, left)


# ---------------------------------------------------------------------------
# cone classification

CASE_STEINER = "case4"
CASE_KERNEL = "case1"
CASE_NODAL = "case2-conj"
CASE_NODAL_DUAL = "case3-conj"
CASE_OPEN = "open"

STATUS_PROVEN = "proven"
STATUS_CONJECTURAL = "conjectural"
STATUS_CANDIDATE = "candidate"


@dataclass(frozen=True)
class ConeReport:
    """Classification of the nontrivial effective-cone edge for n points.

    edge_status records whether the edge class is a theorem, a conjecture,
    or (for open n) merely the best candidate bound; possibility1 is only
    set for open n and records the larger of the two proven moving-curve
    bounds, normalized to b = 1.
    """

    n: int
    decomposition: NDecomposition
    case_label: str
    effective_edge: DivisorClass
    edge_status: str
    moving_curve: CurveClass
    moving_description: str
    possibility1: DivisorClass | None = None


def _sqrt2m1_convergents(max_den: int = 10**6) -> list[Fraction]:
    """Continued-fraction convergents of sqrt(2) - 1 = [0; 2, 2, 2, ...]
    with denominator up to max_den, excluding the trivial 0."""
    out = []
    p0, q0, p1, q1 = 1, 0, 0, 1  # before/at the 0 term
    while True:
        p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
        if q1 > max_den:
            break
        out.append(Fraction(p1, q1))
    return out


_CONVERGENTS = frozenset(_sqrt2m1_convergents())


def _in_nodal_window(r: int, s: int) -> bool:
    """Exact test for the conjectural nodal-curve regime: s/r < 1/2 and
    2s/(2r-1) above sqrt(2)-1, or 2s/(2r-1) one of its convergents."""
    if s < 1:
        return False
    if Fraction(2 * s, 2 * r - 1) in _CONVERGENTS:
        return True
    if not 2 * s < r:
        return False
    return (2 * s + 2 * r - 1) ** 2 > 2 * (2 * r - 1) ** 2


def _in_nodal_dual_window(r: int, s: int) -> bool:
    """Mirror image (s -> r - s) of the nodal window, for s/r > 1/2."""
    if s > r - 1:
        return False
    if Fraction(2 * (r - s), 2 * r - 1) in _CONVERGENTS:
        return True
    if not 2 * s > r:
        return False
    return (4 * r - 2 * s - 1) ** 2 > 2 * (2 * r - 1) ** 2


def cone_report(n: int) -> ConeReport:
    """Classify the nontrivial edge of the effective cone for n points.

    Proven cases use the exact membership tests for the two bundle
    families; the two conjectural windows use exact integer comparisons
    against sqrt(2)-1; everything else is reported open with the larger
    moving-curve bound as possibility 1.  Window boundaries fall through
    to open rather than being guessed.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    dec = decompose(n)
    r, s = dec.r, dec.s

    if is_semistable_slope(2, Fraction(s, r)):
        edge = steiner_divisor(r, s)
        curve = pencil_curve(n, r)
        assert pair(edge, curve) == 0
        return ConeReport(
            n, dec, CASE_STEINER, edge, STATUS_PROVEN, curve,
            f"pencil on a smooth curve of degree {r}",
        )

    if s >= 1 and is_semistable_slope(2, 1 - Fraction(s + 1, r + 2)):
        edge = kernel_divisor(r, s)
        curve = pencil_curve(n, r + 2)
        assert pair(edge, curve) == 0
        return ConeReport(
            n, dec, CASE_KERNEL, edge, STATUS_PROVEN, curve,
            f"pencil on a smooth curve of degree {r + 2}",
        )

    if _in_nodal_window(r, s):
        curve, m = nodal_pencil_curve(r, s)
        edge = DivisorClass(Fraction(2 * r * r - 3 * r + 2 * s + 1), Fraction(2 * r - 1))
        assert pair(edge, curve) == 0
        return ConeReport(
            n, dec, CASE_NODAL, edge, STATUS_CONJECTURAL, curve,
            f"pencil on a degree {2 * r - 1} curve with {m} nodes",
        )

    if _in_nodal_dual_window(r, s):
        edge = DivisorClass(Fraction(2 * r * r + 3 * r + 2 * s - 2), Fraction(2 * r + 5))
        m = (r + 3) ** 2 - (r + 2) - n
        curve = CurveClass(Fraction(2 * r + 5), -edge.a)
        assert pair(edge, curve) == 0
        return ConeReport(
            n, dec, CASE_NODAL_DUAL, edge, STATUS_CONJECTURAL, curve,
            f"pencil on a degree {2 * r + 5} curve with {m} nodes (existence conjectural)",
        )

    candidates = [(steiner_divisor(r, s), pencil_curve(n, r), r)]
    if s >= 1:
        candidates.append((kernel_divisor(r, s), pencil_curve(n, r + 2), r + 2))
    edge, curve, deg = max(candidates, key=lambda t: t[0].slope)
    return ConeReport(
        n, dec, CASE_OPEN, edge.normalized(), STATUS_CANDIDATE, curve,
        f"pencil on a smooth curve of degree {deg} (lower bound only)",
        possibility1=edge.normalized(),
    )

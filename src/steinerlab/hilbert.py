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
from dataclasses import dataclass, field
from fractions import Fraction

from .slopes import _semistable


@dataclass(frozen=True)
class DivisorClass:
    """The class a*H - (b/2)*D; slope is a/b, and the H:D coefficient
    ratio of the unscaled class is 2a/b.  Both fields are Fractions: a
    field given as anything else is converted once, on construction."""

    a: Fraction
    b: Fraction

    def __post_init__(self):
        if type(self.a) is not Fraction or type(self.b) is not Fraction:
            for name in ("a", "b"):
                object.__setattr__(self, name, Fraction(getattr(self, name)))

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


@dataclass(frozen=True)
class CurveClass:
    """x*alpha + y*beta; meets H in x and the discriminant in -2y.  Both
    fields are Fractions, converted once as in DivisorClass."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        if type(self.x) is not Fraction or type(self.y) is not Fraction:
            for name in ("x", "y"):
                object.__setattr__(self, name, Fraction(getattr(self, name)))

    @property
    def h_degree(self) -> Fraction:
        return self.x

    @property
    def delta_degree(self) -> Fraction:
        return -2 * self.y


def pair(d: DivisorClass, c: CurveClass) -> Fraction:
    """Intersection pairing: a*(C.H) - (b/2)*(C.D) = a*x + b*y, over one denominator in integers."""
    (an, ad), (bn, bd), (xn, xd), (yn, yd) = map(Fraction.as_integer_ratio, (d.a, d.b, c.x, c.y))
    return Fraction(an * xn * bd * yd + bn * yn * ad * xd, ad * xd * bd * yd)


def _pairs_to_zero(d: DivisorClass, c: CurveClass) -> bool:
    """pair(d, c) == 0 as the integer identity a*x = -b*y, denominators cleared."""
    lhs = d.a.numerator * c.x.numerator * d.b.denominator * c.y.denominator
    return lhs == -d.b.numerator * c.y.numerator * d.a.denominator * c.x.denominator


@dataclass(frozen=True)
class NDecomposition:
    """n = r(r+1)/2 + s with 0 <= s <= r; the decomposition is unique."""

    n: int
    r: int
    s: int


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
    delta = d * (d - 3) + 2 * n  # even, as d(d - 3) is
    return CurveClass(Fraction(d), Fraction(-(delta // 2)))


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
    return CurveClass(Fraction(2 * r - 1), Fraction(-(delta // 2))), m


@dataclass(frozen=True)
class GaetaShape:
    """Two-step resolution shape of the ideal of n general points:
    (twist, multiplicity) lists for the middle and left terms.  The
    coefficients of twice the Euler defect are kept in _twice_defect, which
    is neither compared nor printed."""

    n: int
    middle: tuple[tuple[int, int], ...]
    left: tuple[tuple[int, int], ...]
    _twice_defect: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # (c2, c1, c0) of 2n + sum of m * 2B(t + e), by 2B(t + e) = t^2 + (2e + 3)t + (e + 1)(e + 2),
        # over the middle terms, the left ones negated and -B(t) itself
        terms = [*self.middle, *((e, -m) for e, m in self.left), (0, -1)]
        object.__setattr__(self, "_twice_defect", (
            sum(m for _, m in terms),
            sum(m * (2 * e + 3) for e, m in terms),
            2 * self.n + sum(m * (e + 1) * (e + 2) for e, m in terms),
        ))

    def euler_defect(self, t: int) -> int:
        """Middle minus left Euler characteristics at twist t, minus the
        expected B(t) - n; zero for every t when the shape is correct.
        B is the polynomial (t+1)(t+2)/2, evaluated as such even at
        negative arguments.  Twice the defect is an even integer (each
        (t+e+1)(t+e+2) is), so halving it is exact."""
        c2, c1, c0 = self._twice_defect
        return ((c2 * t + c1) * t + c0) // 2


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


def _is_sqrt2m1_convergent(num: int, den: int) -> bool:
    """Whether num/den, with num >= 1, is a continued-fraction convergent
    of sqrt(2) - 1 = [0; 2, 2, 2, ...].  By the Pell equation, a reduced
    p/q is one exactly when (p + q)^2 - 2q^2 = +-1."""
    g = math.gcd(num, den)
    p, q = num // g, den // g
    return p >= 1 and abs((p + q) ** 2 - 2 * q * q) == 1


def _in_nodal_window(r: int, s: int) -> bool:
    """Exact test for the conjectural nodal-curve regime: s/r < 1/2 and
    2s/(2r-1) above sqrt(2)-1, or 2s/(2r-1) one of its convergents."""
    if s < 1:
        return False
    if _is_sqrt2m1_convergent(2 * s, 2 * r - 1):
        return True
    if not 2 * s < r:
        return False
    return (2 * s + 2 * r - 1) ** 2 > 2 * (2 * r - 1) ** 2


def cone_report(n: int) -> ConeReport:
    """Classify the nontrivial edge of the effective cone for n points.

    Proven cases use the exact membership tests for the two bundle
    families; the two conjectural windows use exact integer comparisons
    against sqrt(2)-1.  Each of these four picks its edge and moving
    curve, and one assert checks that they pair to zero, for conjectural
    edges as for proven ones.  Everything else is reported open with the
    larger moving-curve bound as possibility 1: the kernel class exactly
    when 2s < r, since its slope exceeds the Steiner slope by
    (r - 2s)/(r(r + 2)).  A tie would be s/r = 1/2, a ladder slope, so it
    never reaches the open case.  Window boundaries fall through to open
    rather than being guessed.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    dec = decompose(n)
    r, s = dec.r, dec.s

    if _semistable(2, s, r):
        case, edge, curve = CASE_STEINER, steiner_divisor(r, s), pencil_curve(n, r)
        description = f"pencil on a smooth curve of degree {r}"
    elif s >= 1 and _semistable(2, r + 1 - s, r + 2):  # the slope 1 - (s+1)/(r+2)
        case, edge, curve = CASE_KERNEL, kernel_divisor(r, s), pencil_curve(n, r + 2)
        description = f"pencil on a smooth curve of degree {r + 2}"
    elif _in_nodal_window(r, s):
        curve, m = nodal_pencil_curve(r, s)
        case, edge = CASE_NODAL, DivisorClass(Fraction(2 * r * r - 3 * r + 2 * s + 1), Fraction(2 * r - 1))
        description = f"pencil on a degree {2 * r - 1} curve with {m} nodes"
    elif _in_nodal_window(r, r - s):  # the mirror image, for s/r > 1/2
        case, edge = CASE_NODAL_DUAL, DivisorClass(Fraction(2 * r * r + 3 * r + 2 * s - 2), Fraction(2 * r + 5))
        curve, m = CurveClass(Fraction(2 * r + 5), -edge.a), (r + 3) ** 2 - (r + 2) - n
        description = f"pencil on a degree {2 * r + 5} curve with {m} nodes (existence conjectural)"
    else:  # open, so s >= 1: slope 0 is on the ladder
        edge, deg = (kernel_divisor(r, s), r + 2) if 2 * s < r else (steiner_divisor(r, s), r)
        edge = edge.normalized()
        return ConeReport(
            n, dec, CASE_OPEN, edge, STATUS_CANDIDATE, pencil_curve(n, deg),
            f"pencil on a smooth curve of degree {deg} (lower bound only)",
            possibility1=edge,
        )
    assert _pairs_to_zero(edge, curve)
    status = STATUS_PROVEN if case in (CASE_STEINER, CASE_KERNEL) else STATUS_CONJECTURAL
    return ConeReport(n, dec, case, edge, status, curve, description)

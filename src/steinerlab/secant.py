"""The general secant-plane class formula and its existence trichotomy.

The class of the locus of degree-d divisors imposing at most d - r
conditions on an s-dimensional series lives in a ring generated by two
ample classes theta and x with theta^(g+1) = 0; it is computed as a sum
over strictly increasing integer sequences of squared Vandermonde
determinants times binomial weight factors, walked depth-first.  All
coefficients are exact rationals, accumulated as integers over
((r+k-1)!)^k; integrality of the final class is checked, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

MAX_SEQUENCE_SPAN = 40  # guard on k + r per class evaluation
# guard on the sequences a class walk of length k = 20 reaches; one sequence of length k costs about
# (k*k + 20) / 420 of one of length 20, so a walk of length k may reach _MAX_WALK_LEAVES * 420 // (k*k + 20),
# near 1 s at every k (see CHANGES.md)
_MAX_WALK_LEAVES = 160_000

GUARANTEED = "Guaranteed"
NOT_EXPECTED = "NotExpected"
INVALID = "Invalid"


@dataclass(frozen=True)
class SecantParams:
    """Numerical data of the secant problem: a degree-n genus-g curve, an
    s-dimensional series, divisors of degree d failing by r conditions.

    The derived quantities are k = s + 1 - d + r (sequence length) and
    delta = n - g - s (excess degree).
    """

    n: int
    g: int
    s: int
    d: int
    r: int

    def __post_init__(self):
        if self.g < 0:
            raise ValueError("genus must be nonnegative")
        if min(self.s, self.d, self.r) < 0:
            raise ValueError("need s, d, r >= 0")

    @property
    def k(self) -> int:
        return self.s + 1 - self.d + self.r

    @property
    def delta(self) -> int:
        return self.n - self.g - self.s


def existence_check(params: SecantParams) -> str:
    """Trichotomy for the secant locus.

    Guaranteed: nonempty (delta >= 0, rk <= d, (r - delta)k <= g).
    NotExpected: empty or of wrong dimension ((r - delta)k > g).
    Invalid: the first two hypotheses fail.
    """
    k, delta = params.k, params.delta
    if delta < 0 or params.r * k > params.d:
        return INVALID
    if (params.r - delta) * k <= params.g:
        return GUARANTEED
    return NOT_EXPECTED


def general_binomial(n: int, i: int) -> int:
    """Binomial coefficient for arbitrary integer n: falling factorial
    over i! for i > 0, 1 at i = 0, and 0 for negative i.  Always an int:
    the product of i consecutive integers is divisible by i!."""
    if i < 0:
        return 0
    return prod(range(n - i + 1, n + 1)) // factorial(i)


def _scaled_weight(r: int, k: int, delta: int, i: int, beta_i: int) -> int:
    """The weight of position i holding beta_i in the class formula,
    C(delta+i-1, r+i-beta_i) (r+i-beta_i)! / ((r+k-beta_i)! (beta_i-1)!),
    times (r+k-1)!: an integer because
    (r+k-1)! / ((r+k-beta_i)! (beta_i-1)!) = C(r+k-1, beta_i-1).  Zero
    exactly when the binomial part vanishes; in that case no factorial is
    evaluated, so all their arguments stay nonnegative."""
    if not 1 <= beta_i <= k + r:
        raise ValueError("sequence entry out of range")
    binom = general_binomial(delta + i - 1, r + i - beta_i)
    if binom == 0:
        return 0
    return binom * factorial(r + i - beta_i) * comb(r + k - 1, beta_i - 1)


@dataclass(frozen=True)
class CohomologyClass:
    """Sum of c_j * theta^j * x^(rk - j) for 0 <= j <= min(g, rk); powers
    of theta beyond the genus are identically dropped."""

    total_degree: int
    genus: int
    coeffs: tuple[tuple[int, Fraction], ...]  # sorted (j, c_j), zeros omitted

    @classmethod
    def from_dict(cls, total_degree: int, genus: int, coeffs: dict[int, Fraction]) -> "CohomologyClass":
        items = tuple(sorted((j, c) for j, c in coeffs.items() if c != 0))
        return cls(total_degree, genus, items)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for _, c in self.coeffs)


def _walk_leaves(k: int, r: int, delta: int, g: int) -> int:
    """The sequences secant_class reaches: 0 <= b_0 < ... < b_(k-1) with
    max(0, r - delta) <= b_i <= r + i (where every weight is nonzero) and
    sum(b_i - i) <= g.  With lo = max(0, r - delta), the b_i - i - lo form a
    partition into at most k parts of at most m = r - lo each, of size at
    most g - k*lo: the sum of the Gaussian binomial
    [k + m, k]_q = prod_i (1 - q^(m+i)) / (1 - q^i) up to that degree,
    evaluated on coefficient lists truncated there."""
    lo = max(0, r - delta)
    m, size = r - lo, g - k * lo
    if size < 0:
        return 0
    size = min(size, k * m)
    coef = [1] + [0] * size
    for i in range(1, k + 1):
        for t in range(size, m + i - 1, -1):  # times 1 - q^(m+i)
            coef[t] -= coef[t - m - i]
        for t in range(i, size + 1):  # over 1 - q^i
            coef[t] += coef[t - i]
    return sum(coef)


def secant_class(params: SecantParams) -> CohomologyClass:
    """The secant locus class, as a polynomial in theta and x.

    Valid in the regime delta >= 0 and rk <= d.  The increasing sequences
    are walked depth-first; a prefix carries its weight product, its part
    of the Vandermonde product and its theta degree.  A zero weight skips
    its subtree, and a prefix whose smallest completion passes the genus
    ends its loop (a larger entry there passes it too).  A walk that would
    reach more sequences than the guard admits at its length is refused first.
    """
    k, delta, r, g = params.k, params.delta, params.r, params.g
    if existence_check(params) == INVALID:
        raise ValueError("class formula requires delta >= 0 and rk <= d")
    if k < 1:
        raise ValueError("sequence length k must be >= 1")
    if k + r > MAX_SEQUENCE_SPAN:
        raise ValueError(f"k + r exceeds the guard {MAX_SEQUENCE_SPAN}")
    limit = _MAX_WALK_LEAVES * 420 // (k * k + 20)
    if comb(k + r, k) > limit:  # else no walk can pass the guard
        leaves = _walk_leaves(k, r, delta, g)
        if leaves > limit:
            raise ValueError(f"the class walks {leaves} sequences, above the guard {limit}")
    # integer weights over the common denominator ((r+k-1)!)^k; sequences hold b - 1
    weights = [[_scaled_weight(r, k, delta, i, b) for b in range(1, k + r + 1)] for i in range(1, k + 1)]
    nums: dict[int, int] = {}

    def walk(prefix: tuple[int, ...], j: int, weight: int, vander: int) -> None:
        i = len(prefix)  # prefix has theta degree j = sum(prefix[t] - t)
        for b in range(prefix[-1] + 1 if prefix else 0, r + i + 1):
            if j + (k - i) * (b - i) > g:  # entries b+1, b+2, ... complete it
                break
            w = weight * weights[i][b]
            if not w:
                continue
            v = vander
            for a in prefix:
                v *= b - a
            if i + 1 == k:
                nums[j + b - i] = nums.get(j + b - i, 0) + v * v * w
            else:
                walk(prefix + (b,), j + b - i, w, v)

    walk((), 0, 1, 1)
    coeffs = {j: Fraction(num, factorial(r + k - 1) ** k) for j, num in nums.items()}
    return CohomologyClass.from_dict(r * k, g, coeffs)


def secant_class_rank_one(params: SecantParams) -> CohomologyClass:
    """Independent closed form for k = 1: the sum over j of
    C(delta, r - j) / j! * theta^j * x^(r - j), truncated past the genus."""
    if params.k != 1:
        raise ValueError("closed form is for k = 1 only")
    if existence_check(params) == INVALID:
        raise ValueError("class formula requires delta >= 0 and rk <= d")
    delta, r, g = params.delta, params.r, params.g
    coeffs = {
        j: Fraction(general_binomial(delta, r - j), factorial(j))
        for j in range(0, min(r, g) + 1)
    }
    return CohomologyClass.from_dict(r, g, coeffs)


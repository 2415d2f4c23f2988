"""Exact classification of bundle slopes via continued-fraction recurrences.

Slopes and ratios are ints or exact Fractions, and None stands for
infinity; every comparison is the sign of an integer expression in
numerators and denominators.  Two recursions drive the module:

* ``slope_step(N, x) = 1/(N-1 + 1/(1+x))``, whose iterates starting at 0
  enumerate the *exceptional slopes* on projective N-space in increasing
  order; they converge to an irrational limit.
* ``ratio_step(N, x) = N - 1/x``, the dual recursion on ratios b/a, whose
  orbit of infinity decreases to the larger root of x**2 - N*x + 1.

The irrational limits are never materialized: all threshold comparisons
are signs of integer quadratics, so membership answers are exact.  Below
the limit, slope membership is one integer test too: the ladder's rung
pairs are exactly the solutions of x**2 - (N+1)xy + y**2 = 1 with
0 <= x < y (proof in _semistable), so a slope is reduced by its gcd and
tested against this invariant at the same cost at every depth.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd


def _ratio(q) -> tuple[int, int] | None:
    """(num, den) of an int or Fraction q, den > 0; None (infinity) stays None."""
    return None if q is None else q.as_integer_ratio()


def _slope(q) -> tuple[int, int]:
    """_ratio(q) for a slope, which must be finite and nonnegative."""
    pair = _ratio(q)
    if pair is None:
        raise ValueError("slope must be finite")
    if pair[0] < 0:
        raise ValueError("slope must be nonnegative")
    return pair


def _rungs(n_dim: int):
    """(a_(m-1), a_m), m = 0, 1, ..., of a_(m+1) = (N+1)a_m - a_(m-1); rung m,
    of rank a_m - a_(m-1) and c1 a_(m-1), has the m-th exceptional slope."""
    prev, cur = 0, 1
    while True:
        yield prev, cur
        prev, cur = cur, (n_dim + 1) * cur - prev


def _limit_sign(n_dim: int, num: int, den: int) -> int:
    """Sign of num/den (den > 0) minus the exceptional limit, the positive
    root of (N-1)x**2 + (N-1)x - 1: irrational for N >= 2, so the sign is
    never 0 for num >= 0, and infinite for N = 1, so the sign is -1."""
    value = (n_dim - 1) * num * (num + den) - den * den  # den^2 times the quadratic
    return (value > 0) - (value < 0)


def slope_step(n_dim: int, x) -> Fraction:
    """One step of the exceptional-slope recursion: 1/(N-1 + 1/(1+x)).

    Requires finite x >= 0.
    """
    if n_dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    q = Fraction(*_slope(x))
    return 1 / (n_dim - 1 + 1 / (1 + q))


# bound on count**3 * (N+1).bit_length()**2, the cost of exceptional_slopes
# up to a constant: rung m has about m * (N+1).bit_length() bits, and
# reducing and printing it is quadratic in them; the largest admitted list takes about
# 1 s as --json (see CHANGES.md)
MAX_SLOPE_WORK = 5 * 10**11


def exceptional_slopes(n_dim: int, count: int) -> list[Fraction]:
    """The first ``count`` iterates of slope_step at 0, strictly increasing;
    refused, before any rung is built, when count**3 * (N+1).bit_length()**2
    exceeds MAX_SLOPE_WORK."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if n_dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    work = count**3 * (n_dim + 1).bit_length() ** 2
    if work > MAX_SLOPE_WORK:
        raise ValueError(f"count**3 * (N+1).bit_length()**2 = {work} exceeds the bound {MAX_SLOPE_WORK}")
    return [Fraction(prev, cur - prev) for prev, cur in islice(_rungs(n_dim), count)]


def is_semistable_slope(n_dim: int, q) -> bool:
    """Membership of q in the set of semistable slopes for N-space.

    The set consists of everything above the exceptional limit together
    with the exceptional slopes themselves.  For N = 1 it degenerates to
    the nonnegative integers.  The input is validated here and decided by
    the integer core _semistable on its numerator and denominator.
    """
    if n_dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    return _semistable(n_dim, *_slope(q))


def _semistable(n_dim: int, num: int, den: int) -> bool:
    """is_semistable_slope(N, num/den) for N >= 1, num >= 0, den > 0 and
    (num, den) not necessarily coprime.

    Above the limit every slope is a member.  Below it the members are the
    rungs a_(m-1)/(a_m - a_(m-1)), which are in lowest terms, and the rung
    pairs (x, y) = (a_(m-1), a_m) are exactly the solutions of
    x**2 - (N+1)xy + y**2 = 1 with 0 <= x < y: the recurrence preserves the
    invariant, which is 1 at (0, 1), and for x >= 1 the pair
    ((N+1)x - y, x) is a smaller solution (Vieta jumping), so the descent
    ends at (0, 1).  So num/den is reduced by its gcd and tested once, with
    x = num and y = num + den.  For N = 1 the test reads (y - x)**2 = 1,
    that is, den divides num, and the limit is infinite.
    """
    if _limit_sign(n_dim, num, den) > 0:
        return True
    g = gcd(num, den)
    x, y = num // g, (num + den) // g
    return x * x - (n_dim + 1) * x * y + y * y == 1


def ratio_step(n_dim: int, x) -> Fraction:
    """One step of the dual recursion on ratios: N - 1/x, with step(None) = N."""
    if x is None:
        return Fraction(n_dim)
    num, den = _ratio(x)
    if num == 0:
        raise ValueError("ratio recursion is undefined at 0")
    return n_dim - Fraction(den, num)


def compare_ratio_limit(n_dim: int, q) -> int:
    """Sign of q**2 - N*q + 1 for finite q; for q > 1 this is the sign of q
    minus the limit of the orbit of infinity under ratio_step."""
    num, den = _ratio(q)
    value = num * (num - n_dim * den) + den * den  # den^2 times the quadratic
    return (value > 0) - (value < 0)


def is_balanced_ratio(n_dim: int, q) -> bool:
    """Whether b/a = q is a ratio at which a general N-dimensional series
    multiplies every subspace up by at least b/a.

    Computed by the reduction q = b/a -> a/(b-a) into the semistable-slope
    set one dimension down.  Infinity (None: a = 0) is a member.
    """
    if n_dim < 2:
        raise ValueError("ratio sets are defined for ambient dimension >= 2")
    if q is None:
        return True
    b, a = _ratio(q)
    if b <= a:
        raise ValueError("ratio must be > 1 or infinite")
    return _semistable(n_dim - 1, a, b - a)


def is_balanced_ratio_orbit(n_dim: int, q) -> bool:
    """Same membership as is_balanced_ratio, by the dual description: the
    open interval (1, limit) together with the orbit of infinity under
    ratio_step.  Kept as an independent implementation for cross-checks.
    """
    if n_dim < 2:
        raise ValueError("ratio sets are defined for ambient dimension >= 2")
    if q is None:
        return True
    b, a = _ratio(q)
    if b <= a:
        raise ValueError("ratio must be > 1 or infinite")
    if n_dim == 2:
        # the orbit of infinity is (m+1)/m and the interval is empty
        return b - a == 1
    if compare_ratio_limit(n_dim, q) < 0:
        return True
    # q is above the limit and the orbit tn/td of infinity (from N, in
    # integers) decreases to the limit, so some step reaches or passes q
    tn, td = n_dim, 1
    while tn * a > b * td:
        tn, td = n_dim * tn - td, tn
    return tn * a == b * td

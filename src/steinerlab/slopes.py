"""Exact classification of bundle slopes via continued-fraction recurrences.

Slopes are exact rationals; every comparison is the sign of an integer
expression in numerators and denominators.  Two recursions drive the module:

* ``slope_step(N, x) = 1/(N-1 + 1/(1+x))``, whose iterates starting at 0
  enumerate the *exceptional slopes* on projective N-space in increasing
  order; they converge to an irrational limit.
* ``ratio_step(N, x) = N - 1/x``, the dual recursion on ratios b/a, whose
  orbit of infinity decreases to the larger root of x**2 - N*x + 1.

The irrational limits are never materialized: all threshold comparisons
are signs of integer quadratics, so membership answers are exact.
"""

from __future__ import annotations

from fractions import Fraction

INFINITY = float("inf")

#: a Slope is an exact Fraction, or INFINITY (used only as a marker; no
#: float arithmetic is ever performed on it)
Slope = Fraction | float


def is_infinite(x: Slope) -> bool:
    return x == INFINITY


def slope_step(n_dim: int, x: Slope) -> Fraction:
    """One step of the exceptional-slope recursion: 1/(N-1 + 1/(1+x)).

    Requires finite x >= 0.
    """
    if n_dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    if is_infinite(x):
        raise ValueError("slope recursion is only defined for finite slopes")
    q = Fraction(x)
    if q < 0:
        raise ValueError("slope must be nonnegative")
    return 1 / (n_dim - 1 + 1 / (1 + q))


def exceptional_slopes(n_dim: int, count: int) -> list[Fraction]:
    """The first ``count`` iterates of slope_step at 0, strictly increasing."""
    if count < 1:
        raise ValueError("count must be >= 1")
    out = [Fraction(0)]
    for _ in range(count - 1):
        out.append(slope_step(n_dim, out[-1]))
    return out


def compare_slope_limit(n_dim: int, q) -> int:
    """Sign of q minus the limit of the exceptional slopes.

    The limit is the positive root of (N-1)x**2 + (N-1)x - 1, which is
    irrational for N >= 2, so the result is never 0 for rational q >= 0
    (for N = 1 the limit is infinite and the sign is always -1).
    """
    num, den = Fraction(q).as_integer_ratio()
    if num < 0:
        raise ValueError("slope must be nonnegative")
    value = (n_dim - 1) * num * (num + den) - den * den  # den^2 times the quadratic
    return (value > 0) - (value < 0)


def is_semistable_slope(n_dim: int, q) -> bool:
    """Membership of q in the set of semistable slopes for N-space.

    The set consists of everything above the exceptional limit together
    with the exceptional slopes themselves.  For N = 1 it degenerates to
    the nonnegative integers.  The input is validated here and decided by
    the integer core _semistable on its numerator and denominator.
    """
    if n_dim < 1:
        raise ValueError("ambient dimension must be >= 1")
    num, den = Fraction(q).as_integer_ratio()
    if num < 0:
        raise ValueError("slope must be nonnegative")
    return _semistable(n_dim, num, den)


def _semistable(n_dim: int, num: int, den: int) -> bool:
    """is_semistable_slope(N, num/den) for N >= 1, num >= 0, den > 0 and
    (num, den) not necessarily coprime: every test is homogeneous in them."""
    if n_dim == 1:
        return num % den == 0
    # den^2 times the limit quadratic of compare_slope_limit; never zero
    if (n_dim - 1) * num * (num + den) > den * den:
        return True
    # num/den is below the limit and the exceptional ladder increases to
    # the limit, so some rung reaches or passes it and the loop ends there.
    # The rungs are c1/rank = a_(m-1)/(a_m - a_(m-1)) of the integer
    # recurrence a_(m+1) = (N+1)a_m - a_(m-1) from a_(-1) = 0, a_0 = 1,
    # compared with num/den by cross-multiplication.
    prev, cur = 0, 1  # a_(m-1), a_m
    while True:
        lhs, rhs = prev * den, num * (cur - prev)
        if lhs == rhs:
            return True
        if lhs > rhs:
            return False
        prev, cur = cur, (n_dim + 1) * cur - prev


def ratio_step(n_dim: int, x: Slope) -> Fraction:
    """One step of the dual recursion on ratios: N - 1/x, with step(inf) = N."""
    if is_infinite(x):
        return Fraction(n_dim)
    q = Fraction(x)
    if q == 0:
        raise ValueError("ratio recursion is undefined at 0")
    return n_dim - 1 / q


def compare_ratio_limit(n_dim: int, q) -> int:
    """Sign of q**2 - N*q + 1; for q > 1 this is the sign of q minus the
    limit of the orbit of infinity under ratio_step."""
    num, den = Fraction(q).as_integer_ratio()
    value = num * (num - n_dim * den) + den * den  # den^2 times the quadratic
    return (value > 0) - (value < 0)


def _check_psi_domain(n_dim: int, q: Slope) -> Fraction | None:
    if n_dim < 2:
        raise ValueError("ratio sets are defined for ambient dimension >= 2")
    if is_infinite(q):
        return None
    q = Fraction(q)
    if q <= 1:
        raise ValueError("ratio must be > 1 or infinite")
    return q


def is_balanced_ratio(n_dim: int, q: Slope) -> bool:
    """Whether b/a = q is a ratio at which a general N-dimensional series
    multiplies every subspace up by at least b/a.

    Computed by the reduction q = b/a -> a/(b-a) into the semistable-slope
    set one dimension down.  Infinity (the a = 0 convention) is a member.
    """
    q = _check_psi_domain(n_dim, q)
    if q is None:
        return True
    b, a = q.numerator, q.denominator
    return _semistable(n_dim - 1, a, b - a)


def is_balanced_ratio_orbit(n_dim: int, q: Slope) -> bool:
    """Same membership as is_balanced_ratio, by the dual description: the
    open interval (1, limit) together with the orbit of infinity under
    ratio_step.  Kept as an independent implementation for cross-checks.
    """
    q = _check_psi_domain(n_dim, q)
    if q is None:
        return True
    if n_dim == 2:
        # the orbit of infinity is (m+1)/m and the interval is empty
        return q.numerator - q.denominator == 1
    sign = compare_ratio_limit(n_dim, q)
    if sign < 0:
        return True
    # q is above the limit and the orbit of infinity decreases to the
    # limit, so some step reaches or passes q and the loop ends there
    t: Slope = INFINITY
    while True:
        t = ratio_step(n_dim, t)
        if t == q:
            return True
        if t < q:
            return False

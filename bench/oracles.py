"""Independent oracles for the benchmark's checks.

Nothing here imports steinerlab: every expected answer is recomputed from
the definitions with plain integers, so a defect in the program cannot
hide in its own reference.
"""

from __future__ import annotations

import math
from fractions import Fraction


def ladder_index(n_dim: int, q: Fraction) -> int | None:
    """Index of q in the exceptional-slope ladder on N-space, else None.

    The ladder is c1/rank of a_{-1} = 0, a_0 = 1, a_{m+1} = (N+1)a_m - a_{m-1}
    with c1 = a_{m-1}, rank = a_m - a_{m-1}.  The walk stops once the ladder
    passes q, or once q lies above the limit, which the ladder never reaches.
    """
    if above_slope_limit(n_dim, q):
        return None
    num, den = q.numerator, q.denominator
    prev, cur, m = 0, 1, 0
    while True:
        c1, rank = prev, cur - prev
        if c1 * den == num * rank:
            return m
        if c1 * den > num * rank:
            return None
        prev, cur, m = cur, (n_dim + 1) * cur - prev, m + 1


def ladder_slope(n_dim: int, m: int) -> Fraction:
    """The m-th exceptional slope, from the integer recurrence."""
    prev, cur = 0, 1
    for _ in range(m):
        prev, cur = cur, (n_dim + 1) * cur - prev
    return Fraction(prev, cur - prev)


def above_slope_limit(n_dim: int, q: Fraction) -> bool:
    """q > the positive root of (N-1)x^2 + (N-1)x - 1 (irrational for N >= 2)."""
    num, den = q.numerator, q.denominator
    return (n_dim - 1) * (num * num + num * den) > den * den


def semistable(n_dim: int, q: Fraction) -> bool:
    return above_slope_limit(n_dim, q) or ladder_index(n_dim, q) is not None


def is_sqrt2m1_convergent(q: Fraction) -> bool:
    """Pell test: a positive p/q is a convergent of sqrt(2) - 1 exactly when
    (p + q)^2 - 2q^2 = +-1."""
    p, d = q.numerator, q.denominator
    return p > 0 and abs((p + d) ** 2 - 2 * d * d) == 1


def sqrt2m1_convergents(max_den: int) -> list[Fraction]:
    """Convergents p/q of sqrt(2) - 1 with 0 < p and q <= max_den."""
    out = []
    p0, q0, p1, q1 = 1, 0, 0, 1
    while True:
        p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
        if q1 > max_den:
            return out
        out.append(Fraction(p1, q1))


def decompose(n: int) -> tuple[int, int]:
    """n = r(r+1)/2 + s with 0 <= s <= r, by integer square root."""
    r = (math.isqrt(8 * n + 1) - 1) // 2
    return r, n - r * (r + 1) // 2


def _in_nodal_window(r: int, s: int) -> bool:
    if s < 1:
        return False
    if is_sqrt2m1_convergent(Fraction(2 * s, 2 * r - 1)):
        return True
    return 2 * s < r and (2 * s + 2 * r - 1) ** 2 > 2 * (2 * r - 1) ** 2


def _in_nodal_dual_window(r: int, s: int) -> bool:
    if s > r - 1:
        return False
    if is_sqrt2m1_convergent(Fraction(2 * (r - s), 2 * r - 1)):
        return True
    return 2 * s > r and (4 * r - 2 * s - 1) ** 2 > 2 * (2 * r - 1) ** 2


def cone_expectation(n: int) -> dict:
    """Case label, status and edge (a, b) of the effective-cone edge for n
    points; for open n the edge is the normalized larger candidate bound."""
    r, s = decompose(n)
    if semistable(2, Fraction(s, r)):
        return _cone(n, r, s, "case4", "proven", (r * r - r + s, r))
    if s >= 1 and semistable(2, 1 - Fraction(s + 1, r + 2)):
        return _cone(n, r, s, "case1", "proven", (r * r + r + s - 1, r + 2))
    if _in_nodal_window(r, s):
        return _cone(n, r, s, "case2-conj", "conjectural", (2 * r * r - 3 * r + 2 * s + 1, 2 * r - 1))
    if _in_nodal_dual_window(r, s):
        return _cone(n, r, s, "case3-conj", "conjectural", (2 * r * r + 3 * r + 2 * s - 2, 2 * r + 5))
    slope = Fraction(r * r - r + s, r)
    if s >= 1:
        slope = max(slope, Fraction(r * r + r + s - 1, r + 2))
    return _cone(n, r, s, "open", "candidate", (slope, 1))


def _cone(n, r, s, case, status, edge):
    return {"n": n, "r": r, "s": s, "case": case, "status": status,
            "edge": (Fraction(edge[0]), Fraction(edge[1]))}


def euler_defects(n: int, middle, left, t_max: int) -> list[int]:
    """Twists t in [0, t_max] where the resolution shape breaks the Euler
    identity sum m*B(t+e) over middle - over left = B(t) - n, with
    B(x) = (x+1)(x+2)/2; computed doubled to stay in integers."""
    def b2(x):
        return (x + 1) * (x + 2)

    bad = []
    for t in range(t_max + 1):
        lhs = sum(m * b2(t + e) for e, m in middle) - sum(m * b2(t + e) for e, m in left)
        if lhs != b2(t) - 2 * n:
            bad.append(t)
    return bad


def secant_rank_one(delta: int, r: int, g: int) -> dict[int, Fraction]:
    """Closed form of the k = 1 secant class: C(delta, r-j)/j! at theta^j,
    for 0 <= j <= min(r, g), zero terms omitted."""
    out = {}
    for j in range(min(r, g) + 1):
        c = Fraction(math.comb(delta, r - j), math.factorial(j))
        if c:
            out[j] = c
    return out

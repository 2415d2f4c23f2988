"""Tests for the slope recursions and membership predicates."""

import time
from fractions import Fraction as F
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steinerlab.linalg import RandomSource
from steinerlab.slopes import (
    _limit_sign,
    _semistable,
    _slope,
    compare_ratio_limit,
    exceptional_slopes,
    is_balanced_ratio,
    is_balanced_ratio_orbit,
    is_semistable_slope,
    ratio_step,
    slope_step,
)

GOLDEN_PLANE_SLOPES = [F(0), F(1, 2), F(3, 5), F(8, 13), F(21, 34), F(55, 89)]


def test_slope_step_values():
    assert slope_step(2, F(0)) == F(1, 2)
    assert slope_step(2, F(1, 2)) == F(3, 5)
    assert slope_step(3, F(0)) == F(1, 3)


def test_slope_step_rejects_bad_input():
    with pytest.raises(ValueError):
        slope_step(2, F(-1, 2))
    with pytest.raises(ValueError, match="^slope must be finite$"):
        slope_step(2, None)


def test_infinity_is_not_a_slope():
    # None is infinity: the slope functions refuse it with slope_step's message
    for check in (
        lambda: _slope(None),
        lambda: is_semistable_slope(2, None),
        lambda: is_semistable_slope(1, None),
    ):
        with pytest.raises(ValueError, match="^slope must be finite$"):
            check()


def test_exceptional_slopes_plane():
    assert exceptional_slopes(2, 6) == GOLDEN_PLANE_SLOPES
    assert exceptional_slopes(2, 1) == [F(0)]


def test_exceptional_slopes_dimension_three():
    # cross-checked against the ladder table below; the third value is
    # 4/11, sitting just under the limit (sqrt(3) - 1)/2 ~ 0.3660
    assert exceptional_slopes(3, 3) == [F(0), F(1, 3), F(4, 11)]


@pytest.mark.parametrize("n_dim", [2, 3, 4, 5])
def test_exceptional_slopes_increasing_and_below_limit(n_dim):
    slopes = exceptional_slopes(n_dim, 10)
    assert all(a < b for a, b in zip(slopes, slopes[1:]))
    assert all(_limit_sign(n_dim, *_slope(q)) == -1 for q in slopes)


def test_limit_sign_signs():
    assert _limit_sign(2, 2, 3) == 1
    assert _limit_sign(2, 55, 89) == -1
    assert _limit_sign(2, 0, 1) == -1


def _near_slope_limit(n_dim, den, offset):
    # floor(den * x) + offset for the limit x, the positive root of
    # (N-1)x^2 + (N-1)x - 1
    c = n_dim - 1
    return max(0, (isqrt((c * c + 4 * c) * den * den) - c * den) // (2 * c) + offset)


@settings(max_examples=300, deadline=None)
@given(
    n_dim=st.integers(2, 6),
    num=st.integers(0, 10**12),
    den=st.integers(1, 10**12),
    offset=st.integers(-3, 3),
)
def test_limit_sign_matches_the_fraction_quadratic(n_dim, num, den, offset):
    for q in (F(num, den), F(_near_slope_limit(n_dim, den, offset), den)):
        value = (n_dim - 1) * q * q + (n_dim - 1) * q - 1
        assert _limit_sign(n_dim, *_slope(q)) == (value > 0) - (value < 0)


def test_is_semistable_slope_examples():
    assert not is_semistable_slope(2, F(2, 5))
    assert is_semistable_slope(2, F(8, 13))
    assert is_semistable_slope(2, F(1))


@pytest.mark.parametrize("n_dim", [0, -1])
def test_is_semistable_slope_rejects_ambient_dimension_below_one(n_dim):
    # the same message as slope_step and exceptional_slopes, at every count
    for check in (
        lambda: is_semistable_slope(n_dim, F(1)),
        lambda: slope_step(n_dim, F(0)),
        lambda: exceptional_slopes(n_dim, 1),
        lambda: exceptional_slopes(n_dim, 3),
    ):
        with pytest.raises(ValueError, match="^ambient dimension must be >= 1$"):
            check()
    with pytest.raises(ValueError, match="^count must be >= 1$"):
        exceptional_slopes(n_dim, 0)


def test_is_semistable_slope_exhaustive_small_denominators():
    # every membership with denominator <= 89 must come from the six
    # golden slopes or from lying above the limit
    golden = set(GOLDEN_PLANE_SLOPES)
    for den in range(1, 90):
        for num in range(0, 2 * den + 1):
            q = F(num, den)
            if q.denominator > 89:
                continue
            expected = q in golden or _limit_sign(2, *_slope(q)) > 0
            assert is_semistable_slope(2, q) == expected


def test_ratio_step_values():
    assert ratio_step(3, None) == F(3)
    assert ratio_step(3, F(3)) == F(8, 3)
    assert ratio_step(2, F(1)) == F(1)  # fixed point of the plane recursion


def test_ratio_step_rejects_zero():
    with pytest.raises(ValueError):
        ratio_step(3, F(0))


def test_is_balanced_ratio_examples():
    assert is_balanced_ratio(3, F(8, 3))
    assert not is_balanced_ratio(3, F(11, 4))
    assert is_balanced_ratio(3, F(5, 2))
    assert is_balanced_ratio(3, None)
    assert is_balanced_ratio_orbit(3, None)


def test_is_balanced_ratio_domain():
    for bad in (F(1), F(1, 2), F(0)):
        with pytest.raises(ValueError):
            is_balanced_ratio(3, bad)
        with pytest.raises(ValueError):
            is_balanced_ratio_orbit(3, bad)


def test_is_balanced_ratio_n2_is_the_orbit():
    # for the plane case the interval is empty and members are (m+1)/m
    assert is_balanced_ratio(2, F(3, 2))
    assert is_balanced_ratio_orbit(2, F(3, 2))
    assert not is_balanced_ratio(2, F(7, 5))
    assert not is_balanced_ratio_orbit(2, F(7, 5))
    assert is_balanced_ratio(2, F(100, 99))


@pytest.mark.parametrize("n_dim", [3, 4, 5])
def test_dual_ratio_membership_agrees(n_dim):
    rng = RandomSource(99).derive(n_dim)
    for _ in range(300):
        den = rng.below(50) + 1
        num = rng.below(n_dim * den - den) + den + 1
        q = F(num, den)
        assert is_balanced_ratio(n_dim, q) == is_balanced_ratio_orbit(n_dim, q), q


def _near_ratio_limit(n_dim, den, offset):
    # floor(den * x) + offset for the limit x = (N + sqrt(N^2 - 4)) / 2,
    # kept above 1
    return max(den + 1, (n_dim * den + isqrt((n_dim * n_dim - 4) * den * den)) // 2 + offset)


@settings(max_examples=200, deadline=None)
@given(
    n_dim=st.integers(3, 5),
    den=st.integers(1, 10**12),
    share=st.integers(1, 10**6),
    offset=st.integers(-3, 3),
)
def test_dual_ratio_membership_agrees_at_large_denominators(n_dim, den, share, offset):
    # one ratio spread over (1, N] and one next to the limit of the orbit
    spread = den + 1 + (n_dim - 1) * den * share // 10**6
    for num in (min(spread, n_dim * den), _near_ratio_limit(n_dim, den, offset)):
        q = F(num, den)
        assert is_balanced_ratio(n_dim, q) == is_balanced_ratio_orbit(n_dim, q), q
        value = q * q - n_dim * q + 1
        assert compare_ratio_limit(n_dim, q) == (value > 0) - (value < 0)


def test_ratio_orbit_members_agree_between_routes():
    t = None
    for _ in range(12):
        t = ratio_step(4, t)
        assert is_balanced_ratio(4, t)
        assert is_balanced_ratio_orbit(4, t)


def test_compare_ratio_limit_signs():
    assert compare_ratio_limit(3, F(11, 4)) == 1
    assert compare_ratio_limit(3, F(5, 2)) == -1


def _ladder(n_dim, m):
    """a_(-1)..a_m of the ladder recurrence a_(n+1) = (N+1)a_n - a_(n-1),
    a_(-1) = 0, a_0 = 1; rung n has rank a_n - a_(n-1) and c1 a_(n-1).

    The reference the slope and decomposition tests check the library
    against (test_steiner imports it).  test_fibonacci_tables,
    test_fibonacci_slope_zero_at_base and test_fibonacci_values_increase
    pin the reference itself, not library code."""
    vals = [0, 1]
    for _ in range(m):
        vals.append((n_dim + 1) * vals[-1] - vals[-2])
    return vals


def _ladder_slope(vals, n):
    """c1/rank of rung n of a _ladder table."""
    return F(vals[n], vals[n + 1] - vals[n])


def test_fibonacci_tables():
    assert _ladder(2, 4) == [0, 1, 3, 8, 21, 55]
    assert _ladder(3, 2) == [0, 1, 4, 15]


def test_fibonacci_slope_zero_at_base():
    assert _ladder_slope(_ladder(5, 1), 0) == 0


@pytest.mark.parametrize("n_dim", [1, 2, 3, 4])
def test_fibonacci_slopes_match_recursion(n_dim):
    table = _ladder(n_dim, 9)
    for n in range(1, 9):
        assert _ladder_slope(table, n) == slope_step(n_dim, _ladder_slope(table, n - 1))
    assert [_ladder_slope(table, n) for n in range(9)] == exceptional_slopes(n_dim, 9)
    # the membership walk visits exactly these rungs
    assert all(is_semistable_slope(n_dim, _ladder_slope(table, n)) for n in range(9))


def test_fibonacci_values_increase():
    vals = _ladder(2, 10)
    assert all(a < b for a, b in zip(vals[1:], vals[2:]))


def test_integer_ladder_base_case():
    # ambient dimension 1: the semistable slopes degenerate to integers
    assert is_semistable_slope(1, F(3))
    assert not is_semistable_slope(1, F(7, 2))


def test_deep_ladder_membership_has_no_step_cap():
    # the 80th exceptional slope sits deeper than any fixed step cap of 64
    ladder = exceptional_slopes(2, 81)
    deep = ladder[79]
    assert is_semistable_slope(2, deep) is True
    assert is_semistable_slope(2, ladder[78]) is True
    assert is_semistable_slope(2, ladder[80]) is True
    for lo, hi in ((ladder[78], deep), (deep, ladder[80])):
        between = F(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        assert lo < between < hi
        assert is_semistable_slope(2, between) is False


def test_deep_ratio_orbit_membership_has_no_step_cap():
    orbit = [ratio_step(3, None)]
    for _ in range(80):
        orbit.append(ratio_step(3, orbit[-1]))
    deep, deeper = orbit[79], orbit[80]
    assert deeper < deep
    between = F(deep.numerator + deeper.numerator, deep.denominator + deeper.denominator)
    for q, member in ((deep, True), (deeper, True), (between, False)):
        assert is_balanced_ratio_orbit(3, q) is member
        assert is_balanced_ratio(3, q) is member


@settings(max_examples=200, deadline=None)
@given(
    n_dim=st.integers(2, 5),
    num=st.integers(0, 10**12),
    den=st.integers(1, 10**12),
    rung=st.integers(0, 39),
)
def test_semistable_membership_matches_the_slope_list(n_dim, num, den, rung):
    # the 40th ladder denominator is far past 10^12, so below the limit the
    # members with such denominators are exactly the first 40 slopes
    ladder = exceptional_slopes(n_dim, 40)
    members = set(ladder)
    for q in (F(num, den), ladder[rung]):
        want = q in members or _limit_sign(n_dim, *_slope(q)) > 0
        assert is_semistable_slope(n_dim, q) is want


@settings(max_examples=300, deadline=None)
@given(
    n_dim=st.integers(1, 5),
    k=st.integers(1, 6),
    num=st.integers(0, 10**9),
    den=st.integers(1, 10**9),
)
@example(n_dim=2, k=3, num=0, den=1)
@example(n_dim=1, k=2, num=1, den=1)  # the pair (2, 2)
@example(n_dim=1, k=2, num=1, den=2)  # the pair (2, 4)
@example(n_dim=2, k=6, num=8, den=13)
def test_integer_core_ignores_a_common_factor(n_dim, k, num, den):
    assert _semistable(n_dim, k * num, k * den) == is_semistable_slope(n_dim, F(num, den))


def test_integer_core_on_unreduced_integer_slopes():
    assert _semistable(1, 2, 2) is True
    assert _semistable(1, 2, 4) is False
    assert _semistable(1, 0, 5) is True
    assert all(_semistable(n_dim, 0, den) for n_dim in range(1, 6) for den in (1, 2, 7))


@pytest.mark.parametrize("n_dim", [2, 3, 4])
def test_integer_core_at_the_rungs_and_beside_them(n_dim):
    # each rung is a member, and a point strictly between two rungs (below
    # the limit) is not; the rungs come from the Fraction recursion
    ladder = exceptional_slopes(n_dim, 32)
    for m in range(1, 31):
        e, nxt = ladder[m], ladder[m + 1]
        eps = F(1, 3 * e.denominator * nxt.denominator)
        for k in (1, 4):
            assert _semistable(n_dim, k * e.numerator, k * e.denominator) is True
            for q in (e - eps, e + eps):
                assert ladder[m - 1] < q < nxt
                assert _semistable(n_dim, k * q.numerator, k * q.denominator) is False


def _walked_semistable(n_dim, num, den):
    """_semistable as it was before the rung invariant: N = 1 by
    divisibility, otherwise the limit quadratic and then the ladder walked
    rung by rung, each rung compared with num/den by cross-multiplication."""
    if n_dim == 1:
        return num % den == 0
    if (n_dim - 1) * num * (num + den) > den * den:
        return True
    prev, cur = 0, 1
    while True:
        lhs, rhs = prev * den, num * (cur - prev)
        if lhs >= rhs:
            return lhs == rhs
        prev, cur = cur, (n_dim + 1) * cur - prev


@pytest.mark.parametrize("n_dim", range(1, 7))
def test_rung_pairs_are_the_solutions_of_the_invariant(n_dim):
    # all solutions of x^2 - (N+1)xy + y^2 = 1 with 0 <= x < y <= 10^4, by
    # solving the quadratic for y at each x, are the ladder's rung pairs there
    bound = 10**4
    solutions = set()
    for x in range(bound):
        disc = (n_dim + 1) ** 2 * x * x - 4 * (x * x - 1)
        root = isqrt(disc)
        if root * root != disc:
            continue
        for y2 in ((n_dim + 1) * x - root, (n_dim + 1) * x + root):
            if y2 % 2 == 0 and x < y2 // 2 <= bound:
                solutions.add((x, y2 // 2))
    rungs, x, y = set(), 0, 1
    while y <= bound:  # consecutive _ladder terms
        rungs.add((x, y))
        x, y = y, (n_dim + 1) * y - x
    assert solutions == rungs


@settings(max_examples=400, deadline=None)
@given(
    n_dim=st.integers(1, 8),
    depth=st.integers(0, 200),
    shift=st.integers(-2, 2),
    k=st.integers(1, 6),
    num=st.integers(0, 10**30),
    den=st.integers(1, 10**30),
)
@example(n_dim=8, depth=200, shift=0, k=1, num=0, den=1)
@example(n_dim=2, depth=200, shift=1, k=6, num=10**30, den=1)
@example(n_dim=1, depth=5, shift=-1, k=2, num=4, den=2)
def test_semistable_matches_the_ladder_walk(n_dim, depth, shift, k, num, den):
    # a random pair, and a rung (shift 0) or a pair beside it, each times k
    vals = _ladder(n_dim, depth + 1)
    rung = (max(vals[depth] + shift, 0), vals[depth + 1] - vals[depth])
    for a, b in ((num, den), rung):
        assert _semistable(n_dim, k * a, k * b) is _walked_semistable(n_dim, k * a, k * b)


def test_a_rung_5000_deep_and_its_neighbours_answer_at_once():
    vals = _ladder(2, 5002)
    before, rung, after = (_ladder_slope(vals, m) for m in (4999, 5000, 5001))
    below = F(before.numerator + rung.numerator, before.denominator + rung.denominator)
    above = F(rung.numerator + after.numerator, rung.denominator + after.denominator)
    assert before < below < rung < above < after
    start = time.perf_counter()
    answers = [is_semistable_slope(2, q) for q in (below, rung, above)]
    elapsed = time.perf_counter() - start
    assert answers == [False, True, False]
    assert elapsed < 0.1

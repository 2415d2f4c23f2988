"""Tests for the secant-class formula and the existence trichotomy."""

import itertools
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from steinerlab import secant
from steinerlab.acceptance import criterion_10_secant
from steinerlab.linalg import RandomSource
from steinerlab.secant import (
    GUARANTEED,
    INVALID,
    NOT_EXPECTED,
    CohomologyClass,
    SecantParams,
    _scaled_weight,
    _walk_leaves,
    existence_check,
    general_binomial,
    secant_class,
    secant_class_rank_one,
)
from test_bench_contract import BENCH, _load

ELLIPTIC_QUARTIC = SecantParams(n=4, g=1, s=3, d=3, r=1)


def hilbert_bridge(r_h: int, s_h: int) -> SecantParams:
    """Secant parameters of the node-location search for the nodal moving
    curve on the configuration space: the degree-r forms through a general
    configuration restrict to a series on a line, and a degree r-1 divisor
    failing s conditions is needed.  Requires 0 <= s < r/2; the result
    always has k = 2 and delta = s.  A test-side fixture: no code path of
    the package needs it."""
    if not (0 <= s_h and 2 * s_h < r_h):
        raise ValueError("need 0 <= s < r/2")
    params = SecantParams(n=r_h, g=0, s=r_h - s_h, d=r_h - 1, r=s_h)
    assert params.k == 2 and params.delta == s_h
    return params


def test_derived_quantities():
    assert ELLIPTIC_QUARTIC.k == 2
    assert ELLIPTIC_QUARTIC.delta == 0


def test_existence_trichotomy():
    # a degree-4 genus-1 space curve has no trisecant lines: the naive
    # two-hypothesis version would wrongly promise them
    assert existence_check(ELLIPTIC_QUARTIC) == NOT_EXPECTED
    assert existence_check(hilbert_bridge(5, 1)) == GUARANTEED
    assert existence_check(SecantParams(n=2, g=1, s=3, d=3, r=1)) == INVALID  # delta < 0
    assert existence_check(SecantParams(n=9, g=1, s=5, d=3, r=2)) == INVALID  # rk > d


def test_general_binomial():
    assert general_binomial(0, 1) == 0
    assert general_binomial(5, -1) == 0
    assert general_binomial(5, 0) == 1
    assert general_binomial(5, 2) == 10
    assert general_binomial(-3, 2) == 6  # (-3)(-4)/2
    for n in range(-12, 13):
        for i in range(0, 9):
            value = general_binomial(n, i)
            assert type(value) is int
            # C(-m, i) = (-1)^i C(m + i - 1, i)
            assert value == (comb(n, i) if n >= 0 else (-1) ** i * comb(i - n - 1, i))


def _weight(r, k, delta, i, beta_i):
    return Fraction(_scaled_weight(r, k, delta, i, beta_i), factorial(r + k - 1))


def test_weight_factor_examples():
    assert _weight(1, 2, 0, 1, 1) == 0
    assert _weight(1, 2, 0, 1, 2) == 1
    # negative lower index in the binomial part
    assert _weight(1, 2, 1, 1, 3) == 0  # r + i - beta = -1
    with pytest.raises(ValueError):
        _weight(1, 2, 0, 1, 4)


def test_elliptic_quartic_class_is_zero():
    cls = secant_class(ELLIPTIC_QUARTIC)
    assert cls.is_zero
    assert cls.total_degree == 2


def test_rank_one_closed_form_example():
    # one failing condition on a pencil-like series: class x + theta
    params = SecantParams(n=4, g=2, s=1, d=2, r=1)
    assert params.k == 1 and params.delta == 1
    cls = secant_class(params)
    assert cls.coeffs == ((0, 1), (1, 1))
    assert cls.coeffs == secant_class_rank_one(params).coeffs


def test_rank_one_closed_form_random_sweep():
    rng = RandomSource(5)
    checked = 0
    while checked < 60:
        r = rng.below(5)
        delta = rng.below(5)
        g = rng.below(8)
        d = r + rng.below(4)
        s = d - r
        n = delta + g + s
        params = SecantParams(n=n, g=g, s=s, d=d, r=r)
        if params.k != 1:
            continue
        checked += 1
        assert secant_class(params).coeffs == secant_class_rank_one(params).coeffs


def test_rank_zero_failure_index_gives_single_term():
    # with no failure index the sequence is forced and the class is a
    # single nonnegative number in degree 0
    params = SecantParams(n=7, g=2, s=3, d=2, r=0)
    assert params.k == 2 and params.delta == 2
    cls = secant_class(params)
    assert cls.total_degree == 0
    assert len(cls.coeffs) == 1
    j, c = cls.coeffs[0]
    assert j == 0 and c > 0


def test_nonnegativity_random():
    rng = RandomSource(6)
    for _ in range(60):
        r = rng.below(4)
        k = rng.below(3) + 1
        delta = rng.below(5)
        g = rng.below(7)
        d = r * k + rng.below(3)
        s = d + k - r - 1
        if s < 0:
            continue
        params = SecantParams(n=delta + g + s, g=g, s=s, d=d, r=r)
        assert all(c >= 0 for _, c in secant_class(params).coeffs)


def test_vanishing_in_excess_regime():
    rng = RandomSource(7)
    checked = 0
    while checked < 80:
        r = rng.below(4) + 1
        k = rng.below(3) + 1
        delta = rng.below(r)  # delta < r
        bound = (r - delta) * k
        if bound < 1:
            continue
        g = rng.below(bound)  # g < (r - delta) * k
        d = r * k + rng.below(3)
        s = d + k - r - 1
        if s < 0:
            continue
        params = SecantParams(n=delta + g + s, g=g, s=s, d=d, r=r)
        checked += 1
        assert secant_class(params).is_zero, params


def _reference_weight_factor(r, k, delta, i, beta_i):
    binom = general_binomial(delta + i - 1, r + i - beta_i)
    if binom == 0:
        return Fraction(0)
    return Fraction(binom) * Fraction(
        factorial(r + i - beta_i), factorial(r + k - beta_i) * factorial(beta_i - 1)
    )


def _reference_vandermonde_squared(beta: tuple[int, ...]) -> int:
    prod = 1
    for i, j in itertools.combinations(range(len(beta)), 2):
        prod *= beta[j] - beta[i]
    return prod * prod


def _reference_secant_class(params: SecantParams) -> CohomologyClass:
    """The class formula with one Fraction product per sequence and the
    weight as a Fraction quotient of factorials, over every increasing
    sequence, as secant_class computed it before it kept integers over a
    common denominator and walked the sequences depth-first."""
    k, delta, r, g = params.k, params.delta, params.r, params.g
    coeffs: dict[int, Fraction] = {}
    for beta in itertools.combinations(range(1, k + r + 1), k):
        weight = Fraction(1)
        for i, b in enumerate(beta, start=1):
            weight *= _reference_weight_factor(r, k, delta, i, b)
            if weight == 0:
                break
        if weight == 0:
            continue
        j = sum(b - i for i, b in enumerate(beta, start=1))
        if j > g:
            continue
        coeffs[j] = coeffs.get(j, Fraction(0)) + _reference_vandermonde_squared(beta) * weight
    return CohomologyClass.from_dict(r * k, g, coeffs)


def _shape_params(k, r, delta, g, extra):
    d = r * k + extra
    s = d + k - r - 1
    return SecantParams(n=delta + g + s, g=g, s=s, d=d, r=r)


# (k, r, delta, g): a zero weight before the last position, and sequences
# with nonzero weight whose theta power exceeds the genus
PRUNED_SHAPES = [(2, 5, 0, 0), (3, 6, 2, 1), (4, 10, 3, 5), (3, 9, 4, 7)]


def test_pruned_shapes_reach_both_prunings():
    for k, r, delta, g in PRUNED_SHAPES:
        early_zero = past_genus = False
        for beta in itertools.combinations(range(1, k + r + 1), k):
            factors = [_scaled_weight(r, k, delta, i, b) for i, b in enumerate(beta, start=1)]
            early_zero |= 0 in factors[:-1]
            past_genus |= 0 not in factors and sum(beta) - k * (k + 1) // 2 > g
        assert early_zero and past_genus, (k, r, delta, g)


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 4),
    r=st.integers(0, 10),
    delta=st.integers(0, 12),
    g=st.integers(0, 40),
    extra=st.integers(0, 3),
)
@example(k=2, r=5, delta=0, g=0, extra=0)
@example(k=3, r=6, delta=2, g=1, extra=1)
@example(k=4, r=10, delta=3, g=5, extra=2)
@example(k=4, r=10, delta=12, g=40, extra=3)
@example(k=3, r=9, delta=4, g=7, extra=0)
def test_secant_class_matches_fraction_reference(k, r, delta, g, extra):
    params = _shape_params(k, r, delta, g, extra)
    assert params.k == k and params.delta == delta
    for i in range(1, k + 1):
        for b in range(1, k + r + 1):
            assert _weight(r, k, delta, i, b) == _reference_weight_factor(r, k, delta, i, b)
    assert secant_class(params).coeffs == _reference_secant_class(params).coeffs


@pytest.mark.parametrize("k, r, delta, g", [(5, 12, 10, 50), (5, 13, 11, 70)])
def test_secant_class_matches_fraction_reference_at_k5(k, r, delta, g):
    # the two k = 5 shapes of the cone-arith benchmark, past the drawn range
    # above; each is nonzero at its top theta power min(g, rk), so at g = 50
    # a genus bound one too small shows
    params = _shape_params(k, r, delta, g, 0)
    ours = secant_class(params)
    assert ours.coeffs == _reference_secant_class(params).coeffs
    assert dict(ours.coeffs).get(min(g, r * k), 0) != 0


def test_class_integrality_is_reported_not_assumed():
    fractional = secant_class(SecantParams(n=5, g=2, s=2, d=4, r=2))  # k = 1
    assert not fractional.is_integral
    integral = secant_class(SecantParams(n=8, g=0, s=2, d=4, r=2))
    assert integral.is_integral


def test_secant_class_guards():
    with pytest.raises(ValueError):
        secant_class(SecantParams(n=2, g=1, s=3, d=3, r=1))  # delta < 0
    with pytest.raises(ValueError):
        secant_class(SecantParams(n=100, g=2, s=50, d=25, r=20))  # k + r > 40


def test_hilbert_bridge_contract():
    for r_h in range(3, 20):
        for s_h in range((r_h - 1) // 2 + 1):
            if 2 * s_h >= r_h:
                continue
            params = hilbert_bridge(r_h, s_h)
            assert params.k == 2
            assert params.delta == s_h
            assert existence_check(params) == GUARANTEED
    with pytest.raises(ValueError):
        hilbert_bridge(4, 2)


def test_bridge_example_values():
    params = hilbert_bridge(5, 1)
    assert (params.n, params.g, params.s, params.d, params.r) == (5, 0, 4, 4, 1)


def _reference_walk_leaves(k, r, delta, g):
    """The sequences of _reference_secant_class with a nonzero weight and
    theta power at most g, counted one by one."""
    count = 0
    for beta in itertools.combinations(range(1, k + r + 1), k):
        if all(_scaled_weight(r, k, delta, i, b) for i, b in enumerate(beta, start=1)):
            count += sum(b - i for i, b in enumerate(beta, start=1)) <= g
    return count


def test_walk_leaves_match_the_counted_sequences():
    for k, r, delta, g in itertools.product(range(1, 5), range(7), range(8), (0, 1, 3, 7, 12, 30)):
        assert _walk_leaves(k, r, delta, g) == _reference_walk_leaves(k, r, delta, g), (k, r, delta, g)
    # no pruning: every increasing sequence in range
    assert _walk_leaves(20, 20, 1601, 1000) == comb(40, 20)


def test_walk_count_runs_only_past_the_guard(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return _walk_leaves(*args)

    monkeypatch.setattr(secant, "_walk_leaves", counted)
    monkeypatch.syspath_prepend(str(BENCH))  # workloads imports oracles
    workloads = _load("workloads")
    for k, r, delta, g in workloads.SECANT_SHAPES:  # every seed draws d from r*k + 0..7
        for extra in range(8):
            secant_class(_shape_params(k, r, delta, g, extra))
    assert criterion_10_secant().passed
    assert calls == []
    with pytest.raises(ValueError):
        secant_class(SecantParams(n=3000, g=1000, s=399, d=400, r=20))
    assert calls == [(20, 20, 1601, 1000)]

"""Tests for linear series, the multiplication map, filling ratios, and sumsets."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerlab.linalg import DEFAULT_PRIME, FieldMatrix, RandomSource
from steinerlab.series import (
    LinearSeries,
    _min_shift_ratio,
    SumsetInstance,
    line_space,
    min_filling_monomial,
    monomial_series,
    monomial_values,
    multiplication_matrix,
    plane_space,
    random_series,
    verify_lemma_ba2,
)
from steinerlab.slopes import ratio_step

P = DEFAULT_PRIME


def mono(degree, exps):
    return LinearSeries.monomial_span(line_space(degree), exps, P)


def full(degree):
    return mono(degree, range(degree + 1))


def product_dim(v, w):
    """Dimension of the span of all products f g, f in v and g in w.  The
    coefficients of f g are the map of f (multiplication_matrix of [[f]])
    applied to g, in Python integers."""
    rows = []
    for f in v.basis.array.tolist():
        f_map = multiplication_matrix([[f]], v.ambient, w.ambient.degree, P).array.tolist()
        rows += [[sum(c * x for c, x in zip(row, g)) % P for row in f_map] for g in w.basis.array.tolist()]
    return FieldMatrix(rows, P, cols=len(f_map)).rank()


def test_poly_space_dims():
    assert line_space(4).dim == 5
    assert plane_space(3).dim == 10
    assert plane_space(0).dim == 1


def test_product_of_full_spaces():
    a, b = 5, 8
    v = full(b - a)
    w = full(a - 1)
    assert product_dim(v, w) == b


def test_product_with_constants():
    w = mono(4, [0, 2, 3])
    one = mono(0, [0])
    assert product_dim(one, w) == w.dim


def test_product_monomial_example():
    assert product_dim(mono(3, [0, 3]), mono(1, [0, 1])) == 4


def test_monomial_values_match_python_powers():
    pt = (P - 2, 123456789, P - 1)
    want = [pow(pt[0], i, P) * pow(pt[1], j, P) * pow(pt[2], 4 - i - j, P) % P
            for i in range(4, -1, -1) for j in range(4 - i, -1, -1)]
    assert monomial_values(4, pt, P).tolist() == want


def test_filling_example_net():
    v = mono(3, [0, 2, 3])
    w = full(4)
    assert F(product_dim(v, w), w.dim) == F(8, 5)


def test_sumset_examples():
    def mu(inst, subset):
        return F(len({s + t for s in subset for t in inst.shifts}), len(subset))

    assert SumsetInstance(5, 8).shifts == (0, 2, 3)
    assert mu(SumsetInstance(5, 8), range(5)) == F(8, 5)
    assert mu(SumsetInstance(5, 8), [0]) == 3
    assert SumsetInstance(3, 5).shifts == (0, 1, 2)
    assert mu(SumsetInstance(3, 5), [0, 1, 2]) == F(5, 3)


def test_sumset_instance_validation():
    with pytest.raises(ValueError):
        SumsetInstance(5, 11)  # ratio above 2


def test_verify_lemma_examples():
    lo, witness = verify_lemma_ba2(5, 8)
    assert lo == F(8, 5)
    assert verify_lemma_ba2(1, 2) == (F(2), (0,))
    assert verify_lemma_ba2(4, 8)[0] == 2


def test_verify_lemma_bound_exceeded():
    with pytest.raises(ValueError):
        verify_lemma_ba2(15, 16)


@pytest.mark.parametrize("a", range(1, 11))
def test_lemma_bound_holds_coprime(a):
    for b in range(a + 1, 2 * a + 1):
        if math.gcd(a, b) == 1:
            lo, _ = verify_lemma_ba2(a, b)
            assert lo >= F(b, a), (a, b, lo)


def test_monomial_series_examples():
    assert monomial_series(5, 8, 3).monomial_exponents() == [0, 2, 3]
    # one division step: {1} plus u^2 times the net for (2, 4)
    assert monomial_series(2, 6, 4).monomial_exponents() == [0, 2, 4]


@pytest.mark.parametrize("n_dim", [3, 4, 5])
def test_monomial_series_dim_bound(n_dim):
    for a in range(1, 9):
        for b in range(a + 1, (n_dim - 1) * a + 1):
            assert monomial_series(a, b, n_dim).dim <= n_dim


def test_monomial_series_range_check():
    with pytest.raises(ValueError):
        monomial_series(2, 5, 3)  # 5/2 > N - 1 = 2
    with pytest.raises(ValueError):
        monomial_series(3, 3, 4)


def test_reduction_step_inverts_ratio_recursion():
    # the descent (a, b) -> (N a - b, a) for N - 1 < b/a <= N
    for a, b, n_dim in [(5, 13, 3), (8, 21, 3), (7, 26, 4), (3, 11, 4)]:
        a2, b2 = n_dim * a - b, a
        if a2 > 0:
            assert ratio_step(n_dim, F(b2, a2)) == F(b, a)


def test_random_series_contract():
    space = line_space(6)
    v1 = random_series(space, 3, RandomSource(5), P)
    v2 = random_series(space, 3, RandomSource(5), P)
    assert v1.basis == v2.basis  # determinism
    assert v1.dim == 3
    full = random_series(space, space.dim, RandomSource(1), P)
    assert full.dim == space.dim


def test_min_filling_monomial_trivial_cases():
    one = mono(3, [0])
    assert min_filling_monomial(one, 5)[0] == 1
    a, b = 5, 8
    full = LinearSeries.monomial_span(line_space(b - a), range(b - a + 1), P)
    lo, witness = min_filling_monomial(full, a)
    assert lo == F(b, a)
    assert witness == tuple(range(a))


def test_min_filling_matches_exhaustive_lemma():
    v = monomial_series(5, 8, 3)
    assert min_filling_monomial(v, 5)[0] == verify_lemma_ba2(5, 8)[0]


def test_min_filling_rejects_non_monomial():
    v = LinearSeries(line_space(2), FieldMatrix([[1, 1, 0]], P))
    with pytest.raises(ValueError):
        min_filling_monomial(v, 2)


def test_filling_ratio_of_monomials_matches_sumsets():
    # the linear-algebra route and the pure exponent-set route must agree
    rng = RandomSource(17)
    for _ in range(40):
        a = rng.below(5) + 2
        b = a + rng.below(a) + 1  # a < b <= 2a
        v_exps = sorted({rng.below(b - a + 1) for _ in range(3)} | {0})
        w_exps = sorted({rng.below(a) for _ in range(rng.below(a) + 1)})
        v = mono(b - a, v_exps)
        w = mono(a - 1, w_exps)
        image = {s + t for s in w_exps for t in v_exps}
        assert F(product_dim(v, w), w.dim) == F(len(image), len(w_exps))


def test_filling_ratio_dimension_bound():
    rng = RandomSource(23)
    for _ in range(20):
        a = rng.below(4) + 2
        b = a + rng.below(a) + 1
        n_dim = min(rng.below(3) + 2, b - a + 1)
        v = random_series(line_space(b - a), n_dim, rng.derive(a * b), P)
        w_dim = rng.below(a - 1) + 1
        w = random_series(line_space(a - 1), w_dim, rng.derive(a * b + 1), P)
        ratio = F(product_dim(v, w), w.dim)
        assert ratio <= min(F(n_dim), F(b, w.dim))


def test_monomial_construction_bound_small_sweep():
    # the constructed series fills at ratio >= b/a on a small grid
    for n_dim in (3, 4):
        for a in range(1, 7):
            for b in range(a + 1, (n_dim - 1) * a + 1):
                v = monomial_series(a, b, n_dim)
                lo, _ = min_filling_monomial(v, a)
                assert lo >= F(b, a), (a, b, n_dim)


def _reference_min_shift_ratio(a, shifts):
    """The plain per-mask loop: one Fraction per nonempty mask, first
    strict minimum wins."""
    shifts = sorted(set(shifts))
    best = None
    best_mask = 0
    for mask in range(1, 1 << a):
        image = 0
        for t in shifts:
            image |= mask << t
        ratio = F(image.bit_count(), mask.bit_count())
        if best is None or ratio < best:
            best = ratio
            best_mask = mask
    witness = tuple(i for i in range(a) if best_mask >> i & 1)
    return best, witness


@settings(max_examples=150, deadline=None)
@given(
    a=st.integers(1, 12),
    shifts=st.one_of(
        st.just(()),
        st.tuples(st.integers(0, 199)),
        st.lists(st.integers(64, 199), min_size=1, max_size=4),
        st.lists(st.integers(0, 199), min_size=1, max_size=6),
    ),
)
def test_min_shift_ratio_matches_reference(a, shifts):
    # shifts of 64 and more put the image past one 64-bit word
    got = _min_shift_ratio(a, shifts)
    want = _reference_min_shift_ratio(a, shifts)
    assert got == want
    assert type(got[0]) is F


def test_min_shift_ratio_edge_cases():
    assert _min_shift_ratio(5, ()) == (F(0), (0,))
    assert _min_shift_ratio(1, (0,)) == (F(1), (0,))
    assert _min_shift_ratio(3, (0, 63, 64, 65)) == _reference_min_shift_ratio(3, (0, 63, 64, 65))


def test_min_shift_ratio_spans_several_blocks():
    # 65535 masks in sixteen blocks.  For shifts {0, 1, 14} the witness
    # mask 49159 lies in the twelfth block; for {0, 2, 4} the minimum 5/4
    # is reached in blocks 6, 11 and 16, and the first of them must win
    for exps, want in (
        ([0, 1, 14], (F(9, 5), (0, 1, 2, 14, 15))),
        ([0, 2, 4], (F(5, 4), (0, 2, 4, 6, 8, 10, 12, 14))),
    ):
        got = min_filling_monomial(mono(exps[-1], exps), 16, max_a=16)
        assert got == _reference_min_shift_ratio(16, exps) == want


# (a, b) -> (minimum, witness) for every criterion-3 pair with a in {13, 14}
GOLDEN_LEMMA = {
    (13, 14): (F(14, 13), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    (13, 15): (F(15, 13), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    (13, 16): (F(16, 13), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    (13, 17): (F(17, 13), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    (13, 18): (F(18, 13), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    (13, 19): (F(19, 13), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    (13, 20): (F(20, 13), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    (13, 21): (F(21, 13), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    (13, 22): (F(22, 13), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    (13, 23): (F(23, 13), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    (13, 24): (F(24, 13), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    (13, 25): (F(25, 13), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
    (14, 15): (F(15, 14), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)),
    (14, 17): (F(17, 14), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)),
    (14, 19): (F(19, 14), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)),
    (14, 23): (F(23, 14), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)),
    (14, 25): (F(25, 14), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)),
    (14, 27): (F(27, 14), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)),
}
# (N, b) -> (minimum, witness) for every criterion-4 case with a = 12
GOLDEN_MONOMIAL_A12 = {
    (3, 13): (F(13, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (3, 14): (F(7, 6), (0, 2, 4, 6, 8, 10)),
    (3, 15): (F(5, 4), (0, 3, 6, 9)),
    (3, 16): (F(4, 3), (0, 4, 8)),
    (3, 17): (F(17, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (3, 18): (F(3, 2), (0, 6)),
    (3, 19): (F(19, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (3, 20): (F(5, 3), (0, 4, 8)),
    (3, 21): (F(7, 4), (0, 3, 6, 9)),
    (3, 22): (F(11, 6), (0, 2, 4, 6, 8, 10)),
    (3, 23): (F(23, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (3, 24): (F(2, 1), (0,)),
    (4, 13): (F(13, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (4, 14): (F(7, 6), (0, 2, 4, 6, 8, 10)),
    (4, 15): (F(5, 4), (0, 3, 6, 9)),
    (4, 16): (F(4, 3), (0, 4, 8)),
    (4, 17): (F(17, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (4, 18): (F(3, 2), (0, 6)),
    (4, 19): (F(19, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (4, 20): (F(5, 3), (0, 4, 8)),
    (4, 21): (F(7, 4), (0, 3, 6, 9)),
    (4, 22): (F(11, 6), (0, 2, 4, 6, 8, 10)),
    (4, 23): (F(23, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (4, 24): (F(2, 1), (0,)),
    (4, 25): (F(25, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (4, 26): (F(13, 6), (0, 2, 4, 6, 8, 10)),
    (4, 27): (F(9, 4), (0, 3, 6, 9)),
    (4, 28): (F(7, 3), (0, 4, 8)),
    (4, 29): (F(29, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (4, 30): (F(5, 2), (0, 6)),
    (4, 31): (F(31, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (4, 32): (F(8, 3), (0, 4, 8)),
    (4, 33): (F(11, 4), (0, 3, 6, 9)),
    (4, 34): (F(17, 6), (0, 2, 4, 6, 8, 10)),
    (4, 35): (F(35, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (4, 36): (F(3, 1), (0,)),
    (5, 13): (F(13, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (5, 14): (F(7, 6), (0, 2, 4, 6, 8, 10)),
    (5, 15): (F(5, 4), (0, 3, 6, 9)),
    (5, 16): (F(4, 3), (0, 4, 8)),
    (5, 17): (F(17, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (5, 18): (F(3, 2), (0, 6)),
    (5, 19): (F(19, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (5, 20): (F(5, 3), (0, 4, 8)),
    (5, 21): (F(7, 4), (0, 3, 6, 9)),
    (5, 22): (F(11, 6), (0, 2, 4, 6, 8, 10)),
    (5, 23): (F(23, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (5, 24): (F(2, 1), (0,)),
    (5, 25): (F(25, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (5, 26): (F(13, 6), (0, 2, 4, 6, 8, 10)),
    (5, 27): (F(9, 4), (0, 3, 6, 9)),
    (5, 28): (F(7, 3), (0, 4, 8)),
    (5, 29): (F(29, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (5, 30): (F(5, 2), (0, 6)),
    (5, 31): (F(31, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (5, 32): (F(8, 3), (0, 4, 8)),
    (5, 33): (F(11, 4), (0, 3, 6, 9)),
    (5, 34): (F(17, 6), (0, 2, 4, 6, 8, 10)),
    (5, 35): (F(35, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (5, 36): (F(3, 1), (0,)),
    (5, 37): (F(37, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (5, 38): (F(19, 6), (0, 2, 4, 6, 8, 10)),
    (5, 39): (F(13, 4), (0, 3, 6, 9)),
    (5, 40): (F(10, 3), (0, 4, 8)),
    (5, 41): (F(41, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (5, 42): (F(7, 2), (0, 6)),
    (5, 43): (F(43, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (5, 44): (F(11, 3), (0, 4, 8)),
    (5, 45): (F(15, 4), (0, 3, 6, 9)),
    (5, 46): (F(23, 6), (0, 2, 4, 6, 8, 10)),
    (5, 47): (F(47, 12), (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    (5, 48): (F(4, 1), (0,)),
}


def test_golden_sumset_minima():
    for (a, b), want in GOLDEN_LEMMA.items():
        assert verify_lemma_ba2(a, b) == want, (a, b)
    for (n_dim, b), want in GOLDEN_MONOMIAL_A12.items():
        assert min_filling_monomial(monomial_series(12, b, n_dim), 12) == want, (n_dim, b)

"""Tests for random and monomial series, the multiplication map, filling
ratios, and sumsets."""

import math
import re
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerlab.linalg import DEFAULT_PRIME, FieldMatrix, RandomSource
from steinerlab.series import (
    MAX_SERIES_DEGREE,
    MAX_SUMSET_WORK,
    _min_shift_ratio,
    min_filling_monomial,
    monomial_series,
    monomial_values,
    multiplication_matrix,
    random_series,
    verify_lemma_ba2,
)
from steinerlab.slopes import ratio_step

P = DEFAULT_PRIME


def mono(degree, exps):
    """The basis of the line series of the given degree spanned by u^e, e
    in exps: one 0/1 row per exponent."""
    exps = list(exps)
    basis = np.zeros((len(exps), degree + 1), dtype=np.int64)
    basis[np.arange(len(exps)), exps] = 1
    return FieldMatrix(basis, P)


def full(degree):
    return mono(degree, range(degree + 1))


def product_dim(v, w):
    """Dimension of the span of all products f g, f and g rows of the line
    series bases v and w.  The coefficients of f g are the map of f
    (multiplication_matrix of [[f]]) applied to g, in Python integers."""
    rows = []
    for f in v.array.tolist():
        f_map = multiplication_matrix([[f]], 1, v.cols - 1, w.cols - 1, P).array.tolist()
        rows += [[sum(c * x for c, x in zip(row, g)) % P for row in f_map] for g in w.array.tolist()]
    return FieldMatrix(np.array(rows, dtype=np.int64).reshape(len(rows), len(f_map)), P).rank()


def test_product_of_full_spaces():
    a, b = 5, 8
    v = full(b - a)
    w = full(a - 1)
    assert product_dim(v, w) == b


def test_product_with_constants():
    w = mono(4, [0, 2, 3])
    one = mono(0, [0])
    assert product_dim(one, w) == w.rows


def test_product_monomial_example():
    assert product_dim(mono(3, [0, 3]), mono(1, [0, 1])) == 4


def _python_powers(d, pt, p):
    return [pow(pt[0], i, p) * pow(pt[1], j, p) * pow(pt[2], d - i - j, p) % p
            for i in range(d, -1, -1) for j in range(d - i, -1, -1)]


def test_monomial_values_match_python_powers():
    pt = (P - 2, 123456789, P - 1)
    assert monomial_values(4, pt, P).tolist() == _python_powers(4, pt, P)
    # a stack of points, among them all-(p - 1) coordinates, whose products
    # of (p - 1)^2 ~ 2^62 would wrap int64 unless each is reduced
    for p in (2, 7, P):
        stack = [(p - 1, p - 1, p - 1), pt, (0, 1, 1), (p - 1, 0, p - 1)]
        stack = [tuple(c % p for c in q) for q in stack]
        for d in (0, 1, 5):
            assert monomial_values(d, stack, p).tolist() == [_python_powers(d, q, p) for q in stack]
    assert monomial_values(3, [[pt, pt], [pt, pt]], P).shape == (2, 2, 10)


def test_filling_example_net():
    v = mono(3, [0, 2, 3])
    w = full(4)
    assert F(product_dim(v, w), w.rows) == F(8, 5)


def test_sumset_examples():
    # for b <= 2a, monomial_series(a, b, 3) is the net {0, a mod (b-a), b-a}
    def mu(net, subset):
        return F(len({s + t for s in subset for t in net}), len(subset))

    assert monomial_series(5, 8, 3) == [0, 2, 3]
    assert mu(monomial_series(5, 8, 3), range(5)) == F(8, 5)
    assert mu(monomial_series(5, 8, 3), [0]) == 3
    assert monomial_series(3, 5, 3) == [0, 1, 2]
    assert mu(monomial_series(3, 5, 3), [0, 1, 2]) == F(5, 3)
    assert verify_lemma_ba2(3, 5) == (F(5, 3), (0, 1, 2))


def test_sumset_instance_validation():
    with pytest.raises(ValueError, match="need 1 < b/a <= 2"):
        verify_lemma_ba2(5, 11)  # ratio above 2
    with pytest.raises(ValueError, match="need 1 < b/a <= 2"):
        verify_lemma_ba2(5, 5)
    with pytest.raises(ValueError, match="need 1 < b/a <= N-1"):
        monomial_series(5, 11, 3)


def test_verify_lemma_examples():
    lo, witness = verify_lemma_ba2(5, 8)
    assert lo == F(8, 5)
    assert verify_lemma_ba2(1, 2) == (F(2), (0,))
    assert verify_lemma_ba2(4, 8)[0] == 2


def test_verify_lemma_bound_exceeded():
    # a = 24 is the first a the work bound refuses: the net's image fits one
    # word, and 2**23 * (1 + 64) is above the bound, for every b
    error = (f"a = 24 over 1 image words is a search of 2**(a-1) * (words + 64) = {2**23 * 65},"
             f" above the sumset work bound {MAX_SUMSET_WORK}")
    for b in (25, 37, 48):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            verify_lemma_ba2(24, b)


def test_work_bound_refuses_any_a_without_forming_the_work():
    # the work is formed only while 2**(a-1) fits under the bound; past its
    # bit length (a = 30 on) 2**(a-1) alone exceeds it, and an a of 10**8
    # or 2**40 is refused at once rather than built as a huge integer
    assert MAX_SUMSET_WORK.bit_length() == 29
    cases = [(29, 1, f"= {2**28 * 65}"), (30, 1, "> 2**29"),
             (10**8, 1562501, "> 2**99999999"), (2**40, 2**34 + 1, f"> 2**{2**40 - 1}")]
    for a, words, work in cases:
        error = (f"a = {a} over {words} image words is a search of 2**(a-1) * (words + 64) {work},"
                 f" above the sumset work bound {MAX_SUMSET_WORK}")
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            verify_lemma_ba2(a, a + 1)
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            min_filling_monomial(monomial_series(a, a + 1, 3), a)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("a", range(1, 11))
def test_lemma_bound_holds_coprime(a):
    for b in range(a + 1, 2 * a + 1):
        if math.gcd(a, b) == 1:
            lo, _ = verify_lemma_ba2(a, b)
            assert lo >= F(b, a), (a, b, lo)


def test_lemma_bound_holds_past_the_criterion_range():
    # criterion 3 stops at a = 14; the search admits the 64 coprime pairs
    # with 15 <= a <= 20 at a fraction of a second
    pairs = [(a, b) for a in range(15, 21) for b in range(a + 1, 2 * a + 1) if math.gcd(a, b) == 1]
    assert len(pairs) == 64
    for a, b in pairs:
        lo, _ = verify_lemma_ba2(a, b)
        assert lo >= F(b, a), (a, b, lo)


def _search_work(a, shifts):
    """The work _min_shift_ratio checks, 2**(a-1) * (n_words + 64), from
    a and the largest shift alone."""
    n_words = (a + max(shifts, default=-1) + 1 + 62) // 64
    return 2 ** (a - 1) * (n_words + 64)


def test_work_bound_admits_the_old_domain():
    # before the work bound, verify_lemma_ba2 took every a <= 14 and
    # min_filling_monomial every a <= 12 with exponents up to
    # MAX_SERIES_DEGREE; all of it stays admitted, without running a search
    nets = max(_search_work(a, monomial_series(a, b, 3)) for a in range(1, 15) for b in range(a + 1, 2 * a + 1))
    widest = max(_search_work(a, [MAX_SERIES_DEGREE]) for a in range(1, 13))
    assert (nets, widest) == (2**13 * 65, 2**11 * 6315)
    assert max(nets, widest) <= MAX_SUMSET_WORK
    # the new edges: a = 23 on one word and a = 16 on the widest series
    assert _search_work(23, [23]) <= MAX_SUMSET_WORK < _search_work(24, [24])
    assert _search_work(16, [MAX_SERIES_DEGREE]) <= MAX_SUMSET_WORK < _search_work(17, [MAX_SERIES_DEGREE])


def test_admitted_searches_keep_the_argmin_in_int64():
    # the argmin ranks size * (lcm(1..a) // |S|), at most 64 * n_words *
    # lcm(1..a), with n_words the most the bound admits at that a; the
    # largest is at a = 19, and no a >= 24 is admitted at all
    products = {}
    for a in range(1, 25):
        n_words = MAX_SUMSET_WORK // 2 ** (a - 1) - 64
        if n_words >= 1:
            products[a] = 64 * n_words * math.lcm(*range(1, a + 1))
    assert max(products) == 23
    assert max(products, key=products.get) == 19 and products[19] < 2.2e13 < 2**63


def test_monomial_series_examples():
    assert monomial_series(5, 8, 3) == [0, 2, 3]
    # one division step: {1} plus u^2 times the net for (2, 4)
    assert monomial_series(2, 6, 4) == [0, 2, 4]


@pytest.mark.parametrize("n_dim", [3, 4, 5])
def test_monomial_series_dim_bound(n_dim):
    for a in range(1, 9):
        for b in range(a + 1, (n_dim - 1) * a + 1):
            exps = monomial_series(a, b, n_dim)
            assert exps == sorted(set(exps)) and 0 <= exps[0] and exps[-1] <= b - a
            assert len(exps) <= n_dim


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
    v1 = random_series(7, 3, RandomSource(5), P)
    v2 = random_series(7, 3, RandomSource(5), P)
    assert v1.p == v2.p and np.array_equal(v1.array, v2.array)  # determinism
    assert (v1.rows, v1.cols, v1.rank()) == (3, 7, 3)
    full = random_series(7, 7, RandomSource(1), P)
    assert full.rows == full.rank() == 7
    assert random_series(7, 0, RandomSource(1), P).array.shape == (0, 7)


def test_min_filling_monomial_trivial_cases():
    assert min_filling_monomial([0], 5)[0] == 1
    a, b = 5, 8
    lo, witness = min_filling_monomial(list(range(b - a + 1)), a)
    assert lo == F(b, a)
    assert witness == tuple(range(a))


def test_min_filling_matches_exhaustive_lemma():
    exps = monomial_series(5, 8, 3)
    assert min_filling_monomial(exps, 5)[0] == verify_lemma_ba2(5, 8)[0]


def test_min_filling_rejects_bad_input():
    with pytest.raises(ValueError, match="exponents must be >= 0"):
        min_filling_monomial([0, -1, 2], 3)
    with pytest.raises(ValueError, match="need a >= 1"):
        min_filling_monomial([0, 1], 0)
    # a = 17 over the widest series and a = 24 over a single word are the
    # first searches the work bound refuses
    for exps, a in (([0, MAX_SERIES_DEGREE], 17), ([0, 1], 24)):
        with pytest.raises(ValueError, match=f"above the sumset work bound {MAX_SUMSET_WORK}$"):
            min_filling_monomial(exps, a)


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
        assert F(product_dim(v, w), w.rows) == F(len(image), len(w_exps))


def test_filling_ratio_dimension_bound():
    rng = RandomSource(23)
    for _ in range(20):
        a = rng.below(4) + 2
        b = a + rng.below(a) + 1
        n_dim = min(rng.below(3) + 2, b - a + 1)
        v = random_series(b - a + 1, n_dim, rng.derive(a * b), P)
        w_dim = rng.below(a - 1) + 1
        w = random_series(a, w_dim, rng.derive(a * b + 1), P)
        ratio = F(product_dim(v, w), w.rows)
        assert ratio <= min(F(n_dim), F(b, w.rows))


def test_monomial_construction_bound_small_sweep():
    # the constructed series fills at ratio >= b/a on a small grid
    for n_dim in (3, 4):
        for a in range(1, 7):
            for b in range(a + 1, (n_dim - 1) * a + 1):
                lo, _ = min_filling_monomial(monomial_series(a, b, n_dim), a)
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
        st.lists(st.integers(0, 3000), min_size=1, max_size=4),
    ),
)
def test_min_shift_ratio_matches_reference(a, shifts):
    # shifts of 64 and more put the image past one 64-bit word, and shifts
    # up to 3000 spread it over as many as 48 words
    got = _min_shift_ratio(a, shifts)
    want = _reference_min_shift_ratio(a, shifts)
    assert got == want
    assert type(got[0]) is F
    # only subsets that hold 0 are searched: a translate of any subset has
    # the same ratio and a smaller mask, so the first minimum holds 0
    assert got[1][0] == 0


@pytest.mark.parametrize("a", [13, 14])
def test_lemma_nets_at_the_largest_a_match_reference(a):
    # every b in (a, 2a], coprime or not, against the all-masks loop
    for b in range(a + 1, 2 * a + 1):
        assert verify_lemma_ba2(a, b) == _reference_min_shift_ratio(a, monomial_series(a, b, 3)), (a, b)


def test_criteria_3_and_4_searches_match_reference():
    # the 64 criterion-3 nets and the 234 criterion-4 series, each at the
    # least N that admits b/a, as the criteria search them
    searches = [(a, monomial_series(a, b, 3)) for a in range(1, 15) for b in range(a + 1, 2 * a + 1)
                if math.gcd(a, b) == 1]
    searches += [(a, monomial_series(a, b, max(3, -(-b // a) + 1))) for a in range(1, 13)
                 for b in range(a + 1, 4 * a + 1)]
    assert len(searches) == 298
    for a, exps in searches:
        assert _min_shift_ratio(a, exps) == _reference_min_shift_ratio(a, exps), (a, exps)


def test_series_degree_bound():
    # b - a, the largest exponent, is checked before the exponent list is
    # built, so a huge b is refused at once
    d = MAX_SERIES_DEGREE
    assert monomial_series(12, 12 + d, d)[-1] == d
    for b in (13 + d, 10**15):
        with pytest.raises(ValueError, match=f"^b - a = {b - 12} exceeds the series degree bound {d}$"):
            monomial_series(12, b, b)
    assert min_filling_monomial([0, d], 1) == (F(2), (0,))
    with pytest.raises(ValueError, match=f"^exponent {d + 1} exceeds the series degree bound {d}$"):
        min_filling_monomial([0, d + 1], 1)


def test_min_shift_ratio_edge_cases():
    assert _min_shift_ratio(5, ()) == (F(0), (0,))
    assert _min_shift_ratio(1, (0,)) == (F(1), (0,))
    assert _min_shift_ratio(3, (0, 63, 64, 65)) == _reference_min_shift_ratio(3, (0, 63, 64, 65))


def test_min_shift_ratio_spans_several_blocks():
    # all 65535 masks, so the doubling runs up to bit 15.  For shifts
    # {0, 1, 14} the witness mask 49159 = {0, 1, 2, 14, 15} is built in the
    # last doubling step; for {0, 2, 4} the minimum 5/4 is reached by the
    # masks 21845, 43690 and 65535, whose highest bits are 14, 15 and 15,
    # and the first of them must win
    for exps, want in (
        ([0, 1, 14], (F(9, 5), (0, 1, 2, 14, 15))),
        ([0, 2, 4], (F(5, 4), (0, 2, 4, 6, 8, 10, 12, 14))),
    ):
        got = _min_shift_ratio(16, exps)
        assert got == _reference_min_shift_ratio(16, exps) == want


def test_min_filling_monomial_wide_image_is_fast():
    # exponents up to 200000 make images of 3126 words, each built by 12
    # ORs; a cost per word and exponent would take seconds
    exps = monomial_series(12, 200000, 20000)
    start = time.perf_counter()
    assert min_filling_monomial(exps, 12)[0] == F(50000, 3)
    assert time.perf_counter() - start < 3


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

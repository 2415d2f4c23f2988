"""Tests for presentation restriction, splitting types, and interpolation."""

from fractions import Fraction as F

import pytest

import numpy as np

from steinerlab.linalg import DEFAULT_PRIME, DEFAULT_TRIALS, RandomSource
from steinerlab.series import line_space, multiplication_matrix, random_series
from steinerlab.slopes import exceptional_slopes
from steinerlab.steiner import (
    _block_multiplication_map,
    _restriction_data,
    _series_matrix,
    SplittingType,
    SteinerSpec,
    balanced_test,
    interpolation_test_cokernel,
    interpolation_test_kernel,
    matrix_iso_test,
    predicted_decomposition,
    pullback_splitting,
)

P = DEFAULT_PRIME
SEEDS = range(DEFAULT_TRIALS)


def test_spec_validation():
    with pytest.raises(ValueError):
        SteinerSpec(2, 1, 1, 1)  # rank 1 < N with s > 0
    with pytest.raises(ValueError):
        SteinerSpec(1, 1, 2, 1)
    spec = SteinerSpec(2, 3, 5, 2, seed=1)
    assert spec.slope == F(3, 5)
    assert spec.rank == 10
    assert spec.c1 == 30


def test_splitting_type_validation():
    with pytest.raises(ValueError):
        SplittingType((1, 2))  # increasing
    with pytest.raises(ValueError):
        SplittingType((2, -1))
    assert SplittingType((3, 3)).is_balanced()
    assert not SplittingType((3, 2)).is_balanced()


def test_matrix_iso_examples():
    assert any(matrix_iso_test(3, 1, 3, 1, RandomSource(s), P) for s in SEEDS)
    assert any(matrix_iso_test(3, 3, 8, 1, RandomSource(s), P) for s in SEEDS)
    assert not any(matrix_iso_test(3, 4, 11, 1, RandomSource(s), P) for s in SEEDS)


def test_matrix_iso_validation():
    with pytest.raises(ValueError):
        matrix_iso_test(3, 3, 2, 1, RandomSource(0), P)
    with pytest.raises(ValueError):
        matrix_iso_test(3, 50, 51, 100, RandomSource(0), P)  # guard


def test_pullback_splitting_balanced_examples():
    assert pullback_splitting(SteinerSpec(2, 1, 2, 1, seed=0), P).parts == (1, 1)
    assert pullback_splitting(SteinerSpec(2, 3, 5, 1, seed=0), P).parts == (3,) * 5


def test_pullback_splitting_unbalanced_example():
    # decomposes as one trivial summand plus two copies of the first
    # ladder bundle, so the degree-5 restriction has a degree-0 part
    split = pullback_splitting(SteinerSpec(2, 2, 5, 1, seed=0), P)
    assert min(split.parts) == 0
    assert split.parts == (3, 3, 2, 2, 0)


@pytest.mark.parametrize(
    "spec",
    [
        SteinerSpec(2, 1, 2, 1, seed=0),
        SteinerSpec(2, 2, 5, 1, seed=1),
        SteinerSpec(2, 3, 5, 1, seed=2),
        SteinerSpec(2, 1, 2, 2, seed=3),
        SteinerSpec(3, 1, 3, 1, seed=4),
        SteinerSpec(2, 0, 4, 2, seed=5),
    ],
)
def test_splitting_invariants_and_balanced_consistency(spec):
    split = pullback_splitting(spec, P)
    assert len(split.parts) == spec.rank
    assert split.total == spec.c1
    balanced_by_parts = split.parts == (spec.s,) * spec.rank
    assert balanced_test(spec, P) == balanced_by_parts


SMALL_PRIME = 65521

# the restriction benchmark's shapes (N, s, r, k, p) and their splitting
# types at seeds 0, 1 and 2, recorded from the full twist-by-twist sweep
GOLDEN_SPLITTINGS = [
    ((2, 3, 5, 1, P), [(3,) * 5] * 3),
    ((2, 8, 13, 1, P), [(8,) * 13] * 3),
    ((2, 3, 5, 2, P), [(3,) * 10] * 3),
    ((2, 5, 8, 1, P), [(5,) * 8] * 3),
    ((2, 2, 5, 1, P), [(3, 3, 2, 2, 0)] * 3),
    ((2, 5, 13, 1, P), [(7,) * 5 + (6,) * 5 + (0,) * 3] * 3),
    ((3, 4, 11, 1, P), [(4,) * 11] * 3),
    ((3, 4, 11, 2, P), [(4,) * 22] * 3),
    ((3, 3, 10, 1, P), [(4,) * 3 + (3,) * 6 + (0,)] * 3),
    ((2, 8, 13, 1, SMALL_PRIME), [(8,) * 13] * 3),
    ((3, 4, 11, 1, SMALL_PRIME), [(4,) * 11] * 3),
]


@pytest.mark.parametrize("shape,per_seed", GOLDEN_SPLITTINGS)
def test_golden_splittings(shape, per_seed):
    n_dim, s, r, k, p = shape
    for seed, parts in enumerate(per_seed):
        spec = SteinerSpec(n_dim, s, r, k, seed=seed)
        assert pullback_splitting(spec, p).parts == parts
        assert balanced_test(spec, p) == (parts == (s,) * (k * r))


def _swept_parts(spec, p):
    """Splitting type from h(t) at every twist from 0 upward."""
    v, entries = _restriction_data(spec, p)
    h = [0, 0]  # h(-2), h(-1)
    parts = []
    t = 0
    while len(parts) < spec.rank:
        big = _block_multiplication_map(entries, v.ambient, t, p)
        h.append(big.cols - big.rank())
        parts += [t] * (h[-1] - 2 * h[-2] + h[-3])
        t += 1
    return tuple(sorted(parts, reverse=True))


@pytest.mark.parametrize(
    "spec",
    [
        SteinerSpec(2, 4, 7, 1, seed=0),  # smallest part 3: the search ends above 0
        SteinerSpec(2, 5, 9, 1, seed=1),
        SteinerSpec(2, 2, 5, 1, seed=2),  # a part 0: the search ends at 0
        SteinerSpec(2, 3, 5, 1, seed=3),  # balanced: one rank
    ],
)
def test_windowed_splitting_matches_full_sweep(spec):
    split = pullback_splitting(spec, P)
    assert split.parts == _swept_parts(spec, P)
    assert split.total == spec.c1


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("rows,cols,degree,in_degree", [(2, 3, 2, 0), (3, 5, 4, 3), (0, 4, 2, 1), (2, 2, 1, -1)])
def test_line_block_map_matches_blockwise_assembly(seed, rows, cols, degree, in_degree):
    rng = RandomSource(seed)
    v = random_series(line_space(degree), 2, rng, P)
    entries = _series_matrix(rows, cols, v, rng)
    in_dim, out_dim = in_degree + 1, degree + in_degree + 1
    want = np.zeros((rows * out_dim, cols * in_dim), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            want[i * out_dim : (i + 1) * out_dim, j * in_dim : (j + 1) * in_dim] = multiplication_matrix(
                v.ambient, entries[i][j], in_degree, P
            )
    got = _block_multiplication_map(entries, v.ambient, in_degree, P, cols=cols)
    assert np.array_equal(got.array, want)


def test_trivial_presentation_splits_trivially():
    split = pullback_splitting(SteinerSpec(2, 0, 3, 2, seed=9), P)
    assert split.parts == (0,) * 6
    assert balanced_test(SteinerSpec(2, 0, 3, 2, seed=9), P)


def test_restriction_to_a_line():
    # r = 1 with rank from k: the curve is a line and entries span the
    # whole degree-1 space; slope 1 restricts balanced
    spec = SteinerSpec(2, 1, 1, 2, seed=0)
    assert pullback_splitting(spec, P).parts == (1, 1)
    assert balanced_test(spec, P)


def test_balanced_equals_matrix_iso_on_matched_seeds():
    for seed in SEEDS:
        spec = SteinerSpec(2, 2, 5, 1, seed=seed)
        assert balanced_test(spec, P) == matrix_iso_test(3, 2, 7, 1, RandomSource(seed), P)
        spec = SteinerSpec(2, 3, 5, 1, seed=seed)
        assert balanced_test(spec, P) == matrix_iso_test(3, 3, 8, 1, RandomSource(seed), P)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_exceptional_slope_balanced_for_small_multiplicities(k):
    assert any(balanced_test(SteinerSpec(2, 1, 2, k, seed=s), P) for s in SEEDS)


@pytest.mark.parametrize("k", [1, 2])
def test_unstable_slope_never_balanced(k):
    assert not any(balanced_test(SteinerSpec(2, 2, 5, k, seed=s), P) for s in SEEDS)


def test_predicted_decomposition_examples():
    d = predicted_decomposition(2, 2, 5, 1)
    assert (d.n, d.k1, d.k2) == (0, 1, 2)
    d = predicted_decomposition(2, 1, 2, 1)
    assert (d.n, d.k1, d.k2) == (1, 1, 0)
    d = predicted_decomposition(2, 5, 11, 1)
    assert (d.n, d.k1, d.k2) == (0, 1, 5)


def test_predicted_decomposition_rejects_high_slope():
    with pytest.raises(ValueError):
        predicted_decomposition(2, 2, 3, 1)  # 2/3 above the limit


@pytest.mark.parametrize("n_dim", [2, 3])
def test_predicted_decomposition_constraints(n_dim):
    from steinerlab.slopes import fibonacci_table

    table = fibonacci_table(n_dim, 8)
    rng = RandomSource(31)
    found = 0
    while found < 25:
        r = rng.below(40) + 2
        s = rng.below(r)
        k = rng.below(3) + 1
        try:
            d = predicted_decomposition(n_dim, s, r, k)
        except ValueError:
            continue
        found += 1
        assert d.k1 * table.rank(d.n) + d.k2 * table.rank(d.n + 1) == k * r
        assert d.k1 * table.c1(d.n) + d.k2 * table.c1(d.n + 1) == k * s
        assert table.slope(d.n) <= F(s, r) < table.slope(d.n + 1)


def test_exceptional_slope_is_pure_ladder_bundle():
    # an exceptional slope sits at the left window edge: k2 = 0 and the
    # presentation is a multiple of a single ladder bundle
    for n, q in enumerate(exceptional_slopes(2, 5)[1:4], start=1):
        d = predicted_decomposition(2, q.numerator, q.denominator, 1)
        assert (d.n, d.k2) == (n, 0)


def test_interpolation_cokernel_examples():
    assert interpolation_test_cokernel(2, 0, 1, RandomSource(0), P)
    assert interpolation_test_cokernel(5, 3, 1, RandomSource(0), P)
    assert not any(interpolation_test_cokernel(3, 1, 1, RandomSource(s), P) for s in SEEDS)


def test_interpolation_cokernel_validation():
    with pytest.raises(ValueError):
        interpolation_test_cokernel(1, 0, 1, RandomSource(0), P)


def test_interpolation_kernel_examples():
    # ratio 1/4 and 1/5 cases fail; the exceptional 1/2 case succeeds
    assert not any(interpolation_test_kernel(2, 2, 1, RandomSource(s), P) for s in SEEDS)
    assert not any(interpolation_test_kernel(3, 3, 1, RandomSource(s), P) for s in SEEDS)
    assert any(interpolation_test_kernel(2, 1, 1, RandomSource(s), P) for s in SEEDS)


def test_interpolation_kernel_relation_free_edge():
    # s = r + 1 has no relations: the sections are a twist of a trivial
    # bundle and interpolation reduces to a full-space vanishing count
    assert interpolation_test_kernel(2, 3, 1, RandomSource(0), P)


def test_interpolation_kernel_validation():
    with pytest.raises(ValueError):
        interpolation_test_kernel(2, 0, 1, RandomSource(0), P)
    with pytest.raises(ValueError):
        interpolation_test_kernel(2, 4, 1, RandomSource(0), P)


def test_determinism_of_trials():
    a = pullback_splitting(SteinerSpec(2, 2, 5, 1, seed=7), P)
    b = pullback_splitting(SteinerSpec(2, 2, 5, 1, seed=7), P)
    assert a == b
    x = interpolation_test_cokernel(3, 1, 1, RandomSource(3), P)
    y = interpolation_test_cokernel(3, 1, 1, RandomSource(3), P)
    assert x == y

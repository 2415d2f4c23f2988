"""Tests for presentation restriction, splitting types, and interpolation."""

import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from steinerlab.linalg import FieldMatrix, GenericityError, RandomSource, _eliminate, mulmod_sub
from steinerlab.primes import DEFAULT_PRIME, DEFAULT_TRIALS
from steinerlab.series import monomial_values, multiplication_matrix, random_series
from steinerlab import steiner
from steinerlab.slopes import exceptional_slopes
from test_slopes import _ladder
from steinerlab.steiner import (
    _draw_series_matrix,
    _fibers,
    _random_points,
    _restricted_kernel_map,
    _schur_map,
    _triangular,
    _with_retries,
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
    # no matrix (k = 0) or no series (dimension <= 0) is not a map to test;
    # k = 0 used to pass as a 0 x 0 isomorphism
    for series_dim, k in ((3, 0), (3, -1), (0, 1), (-1, 1)):
        with pytest.raises(ValueError, match="^need k >= 1 and series_dim >= 1$"):
            matrix_iso_test(series_dim, 1, 2, k, RandomSource(0), P)


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
    assert sum(split.parts) == spec.c1
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


def _restriction_entries(spec, p):
    """The matrix that pullback_splitting(spec, p) draws: ks x k(s+r)
    entries, line polynomials of degree <= r."""
    return _draw_series_matrix(spec.n_dim + 1, spec.s, spec.s + spec.r, spec.k, RandomSource(spec.seed), p)


def _swept_parts(spec, p):
    """Splitting type from h(t) at every twist from 0 upward."""
    entries = _restriction_entries(spec, p)
    h = [0, 0]  # h(-2), h(-1)
    parts = []
    t = 0
    while len(parts) < spec.rank:
        big = multiplication_matrix(entries, 1, spec.r, t, p)
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
        SteinerSpec(2, 1, 9, 1, seed=0),  # four rounds
        SteinerSpec(2, 1, 17, 1, seed=0),  # five rounds
        SteinerSpec(2, 2, 5, 2, seed=0),  # k = 2, unbalanced
    ],
)
def test_windowed_splitting_matches_full_sweep(spec):
    split = pullback_splitting(spec, P)
    assert split.parts == _swept_parts(spec, P)
    assert sum(split.parts) == spec.c1


def _count_maps(monkeypatch):
    """Record the twist of every _schur_map call and of every full
    multiplication map built, in two lists."""
    calls, full = [], []

    def counted(entries, twist, p):
        calls.append(twist)
        return _schur_map(entries, twist, p)

    def counted_full(entries, variables, degree, in_degree, p):
        full.append(in_degree)
        return multiplication_matrix(entries, variables, degree, in_degree, p)

    monkeypatch.setattr(steiner, "_schur_map", counted)
    monkeypatch.setattr(steiner, "multiplication_matrix", counted_full)
    return calls, full


@pytest.mark.parametrize("shape,rounds", [((2, 8, 13, 1), 1), ((2, 2, 5, 1), 2), ((2, 1, 9, 1), 4)])
def test_splitting_eliminates_once_per_round(monkeypatch, shape, rounds):
    # a balanced restriction is settled by the first round's map; an
    # unbalanced one takes one more map each time the twist bound rises
    calls, full = _count_maps(monkeypatch)
    pullback_splitting(SteinerSpec(*shape, seed=0), P)
    assert len(calls) == rounds
    assert calls[0] == shape[1] - 1
    assert full == []  # every fiber had full rank: no round built the full map


def test_splitting_takes_the_full_map_below_enough_points(monkeypatch):
    # F_3 has fewer than T+D+1 points in both rounds (T = 1, 3 and D = 5)
    calls, full = _count_maps(monkeypatch)
    assert pullback_splitting(SteinerSpec(2, 2, 5, 1, seed=1), 3).parts == (3, 3, 2, 2, 0)
    assert calls == full == [1, 3]


def test_splitting_guard_trips_before_any_draw(monkeypatch):
    # the first round's map would be 20100 x 20100, 3.2 GB of int64
    def refuse(*args, **kwargs):
        raise AssertionError("drew or built a map past the guard")

    monkeypatch.setattr(steiner, "_draw_series_matrix", refuse)
    monkeypatch.setattr(steiner, "multiplication_matrix", refuse)
    with pytest.raises(ValueError, match="map dimension exceeds the desk-scale guard"):
        pullback_splitting(SteinerSpec(2, 100, 101, 1, seed=0), P)


def test_small_prime_degenerate_restriction_error():
    # at p = 3 this draw's matrix drops rank at a point of the curve, so
    # its two parts, 2 and 1, sum to 3 rather than c1 = 4
    with pytest.raises(ArithmeticError, match="^splitting degrees do not sum to c1$"):
        pullback_splitting(SteinerSpec(2, 2, 2, 1, seed=0), 3)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.integers(2, 4),
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(1, 2),
    st.integers(0, 50),
    st.sampled_from([3, 65521, P]),
    st.integers(0, 12),
)
def test_degree_ordered_prefix_gives_every_twist(n_dim, s, r, k, seed, p, top):
    # the twist-t map is the leading k(s+r)(t+1) columns of the degree-ordered
    # twist-T map, so its pivots count the rank of every twist t <= T
    assume(k * r >= n_dim)
    spec = SteinerSpec(n_dim, s, r, k, seed=seed)
    entries = _restriction_entries(spec, p)
    width = k * (s + r)
    big = multiplication_matrix(entries, 1, r, top, p).array
    by_degree = big.reshape(big.shape[0], width, top + 1).transpose(0, 2, 1).reshape(big.shape)
    pivots = FieldMatrix(by_degree, p).pivots()
    for t in range(top + 1):
        twisted = multiplication_matrix(entries, 1, r, t, p)
        h = width * (t + 1) - sum(c < width * (t + 1) for c in pivots)
        assert h == twisted.cols - twisted.rank()


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(0, 8),
    st.sampled_from([5, 7, 11, 13, 65521, P]),
    st.integers(0, 10**6),
    st.sampled_from([None, 0, 1, 3, -1]),
)
@example(2, 1, 3, 4, 7, 0, None)  # p < T+D+1: the full map
@example(2, 1, 3, 4, 13, 0, 3)  # M(u_3) = 0: the full map
@example(2, 1, 3, 4, 13, 0, -1)  # the common root is a point v_0
@example(2, 1, 6, 0, 5, 0, None)  # T = 0 and p < T+D+1: the full map, whose reorder is no copy at T = 0
def test_value_map_gives_every_twist(rows, extra, deg, top, p, seed, root):
    # h(t) read from the pivots of _schur_map's array, eliminated in place,
    # equals the kernel dimension of the twist-t multiplication map for every
    # t <= T, on the value map and on the fallback alike; a common root of
    # all entries drops the fiber there
    cols = rows + extra
    entries = RandomSource(seed).integers((rows, cols, deg + 1), p)
    if root is not None:
        entries[..., -1] = 0  # degree deg - 1, times (u - root)
        entries = (np.roll(entries, 1, axis=-1) - root % p * entries) % p
    schur, block = _schur_map(entries, top, p)
    powers = [np.array([pow(u, e, p) for e in range(deg + 1)]) for u in range(top + 1)]
    dropped = any(FieldMatrix((entries * v % p).sum(-1), p).rank() < rows for v in powers)
    assert block == (cols if p <= top + deg or dropped else cols - rows)
    assert schur.dtype == np.int64 and schur.flags.writeable and schur.flags.c_contiguous
    degrees = np.bincount(np.array(_eliminate(schur, p), dtype=np.int64) // block, minlength=top + 1)
    for t in range(top + 1):
        twisted = multiplication_matrix(entries, 1, deg, t, p)
        assert block * (t + 1) - degrees[: t + 1].sum() == twisted.cols - twisted.rank()


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 2),
    st.sampled_from([5, 7, 11, 13, 65521, P]),
    st.integers(0, 10**6),
)
@example(1, 1, 5, 1, 5, 0)  # T = 0 and p < T+D+1: the full map, eliminated in place
def test_iso_matches_the_full_map_rank(series_dim, a, gap, k, p, seed):
    b = a + gap
    full = multiplication_matrix(_draw_series_matrix(series_dim, a, b, k, RandomSource(seed), p), 1, gap, a - 1, p)
    got = matrix_iso_test(series_dim, a, b, k, RandomSource(seed), p)
    assert type(got) is bool
    assert got == (full.rank() == a * b * k)


@pytest.mark.parametrize("engine", [balanced_test, pullback_splitting])
def test_restriction_engines_hold_one_map(engine):
    # the balanced (2, 21, 34) takes one round, whose map is 714 x 714; built,
    # weighted and ranked in one array, beside buffers of a panel's or a
    # fiber stack's size, it peaks near 2 maps, and ranked on a copy near 3.5
    spec = SteinerSpec(2, 21, 34, 1, seed=0)
    side = spec.r * spec.k * spec.s  # D R rows, (T+1)(C-R) columns
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        engine(spec, P)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 8 * side * side


@pytest.mark.parametrize("p", [3, P])  # the full map at p = 3, the value map at P
def test_restriction_engines_return_python_bools(p):
    # the certificates hash repr(), and repr(np.True_) is not repr(True)
    spec = SteinerSpec(2, 3, 5, 1, seed=2)
    assert type(balanced_test(spec, p)) is bool
    assert type(matrix_iso_test(3, 3, 8, 1, RandomSource(2), p)) is bool


def _random_element(basis, rng):
    """A random element of the series with this basis: one draw of
    basis.rows uniform coefficients, the per-entry order that
    _draw_series_matrix reproduces."""
    p = basis.p
    coeffs = rng.integers(basis.rows, p)
    return ((coeffs[:, None] * basis.array % p).sum(axis=0) % p).tolist()


def _monomials(variables, degree):
    """Exponents of the degree-d monomials: (e,) for u^e on the line, (i, j)
    for x^i y^j z^(d-i-j) in graded-lex order with x > y > z on the plane."""
    if variables == 1:
        return [(e,) for e in range(degree + 1)]
    return [(i, j) for i in range(degree, -1, -1) for j in range(degree - i, -1, -1)]


def _reference_block_map(entries, variables, degree, in_degree, cols, p):
    """Matrix of g -> M g, coefficient by coefficient in Python ints."""
    ins = _monomials(variables, in_degree)
    outs = {m: k for k, m in enumerate(_monomials(variables, degree + in_degree))}
    big = [[0] * (cols * len(ins)) for _ in range(len(entries) * len(outs))]
    for i, row in enumerate(entries):
        for j, f in enumerate(row):
            for e, fe in zip(_monomials(variables, degree), f):
                for c, g in enumerate(ins):
                    row = big[i * len(outs) + outs[tuple(x + y for x, y in zip(e, g))]]
                    row[j * len(ins) + c] = (row[j * len(ins) + c] + fe) % p
    return big


BLOCK_MAP_CASES = [
    pytest.param(1, 2, 3, 2, 0, id="2-3-2-0"),
    pytest.param(1, 3, 5, 4, 3, id="3-5-4-3"),
    pytest.param(1, 0, 4, 2, 1, id="0-4-2-1"),
    pytest.param(1, 2, 2, 1, -1, id="2-2-1--1"),
    pytest.param(3, 2, 3, 1, 2, id="plane-2-3-1-2"),
    pytest.param(3, 3, 2, 2, 1, id="plane-3-2-2-1"),
    pytest.param(3, 0, 3, 1, 1, id="plane-0-3-1-1"),
    pytest.param(3, 2, 2, 1, -1, id="plane-2-2-1--1"),
]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("variables,rows,cols,degree,in_degree", BLOCK_MAP_CASES)
def test_line_block_map_matches_blockwise_assembly(seed, variables, rows, cols, degree, in_degree):
    rng = RandomSource(seed)
    dim = len(_monomials(variables, degree))
    v = random_series(dim, 2, rng, P)
    entries = [[_random_element(v, rng) for _ in range(cols)] for _ in range(rows)]
    want = _reference_block_map(entries, variables, degree, in_degree, cols, P)
    got = multiplication_matrix(np.array(entries, dtype=np.int64).reshape(rows, cols, dim), variables, degree, in_degree, P)
    assert got.array.shape == (rows * len(_monomials(variables, degree + in_degree)), cols * len(_monomials(variables, in_degree)))
    assert got.array.tolist() == want


def test_fiber_evaluates_every_linear_form():
    entries = RandomSource(0).integers((3, 4, 3), P)
    points = [(P - 1, 987654321, 1), (5, 0, 1)]
    want = [[[sum(c * x for c, x in zip(form, pt)) % P for form in row] for row in entries.tolist()] for pt in points]
    assert _fibers(entries, points, P).tolist() == want
    # three terms of (p - 1)^2 ~ 2^62 each would wrap int64 unless reduced first
    top = np.full((2, 2, 3), P - 1, dtype=np.int64)
    assert _fibers(top, [(P - 1, P - 1, P - 1)], P).tolist() == [[[3, 3], [3, 3]]]


@pytest.mark.parametrize("p", [2, 65521, P])
@pytest.mark.parametrize("series_dim,a,b,k", [(3, 2, 5, 1), (4, 3, 8, 2), (2, 1, 2, 3), (9, 2, 4, 1)])
def test_series_matrix_is_one_draw_in_per_entry_order(series_dim, a, b, k, p):
    rng, ref = RandomSource(11), RandomSource(11)
    entries = _draw_series_matrix(series_dim, a, b, k, rng, p)
    w = random_series(b - a + 1, min(series_dim, b - a + 1), ref, p)
    want = [[_random_element(w, ref) for _ in range(b * k)] for _ in range(a * k)]
    assert entries.shape == (a * k, b * k, b - a + 1)
    assert entries.tolist() == want
    assert rng.integers(3, 1000).tolist() == ref.integers(3, 1000).tolist()  # both streams end at the same place


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


@pytest.mark.parametrize("n_dim,s,r,error", [
    (2, 1, 0, "need s >= 0 and r >= 1"),
    (2, -1, 2, "need s >= 0 and r >= 1"),
    (2, -1, -2, "need s >= 0 and r >= 1"),  # not read as the slope 1/2
    (2, 4, 6, "slope must lie below the exceptional limit"),
    (1, 1, 2, "ambient dimension must be >= 2"),
    (0, 0, 1, "ambient dimension must be >= 2"),
])
def test_predicted_decomposition_rejects_bad_input(n_dim, s, r, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        predicted_decomposition(n_dim, s, r, 1)


def _rung(vals, n):
    """(rank, c1) of rung n of a _ladder table."""
    return vals[n + 1] - vals[n], vals[n]


@pytest.mark.parametrize("n_dim", [2, 3])
def test_predicted_decomposition_constraints(n_dim):
    table = _ladder(n_dim, 8)
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
        (r1, c1), (r2, c2) = _rung(table, d.n), _rung(table, d.n + 1)
        assert d.k1 * r1 + d.k2 * r2 == k * r
        assert d.k1 * c1 + d.k2 * c2 == k * s
        assert F(c1, r1) <= F(s, r) < F(c2, r2)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(n_dim=st.integers(2, 7), depth=st.integers(0, 298))
def test_ladder_window_determinant_is_one(n_dim, depth):
    # predicted_decomposition solves for (k1, k2) without dividing by the
    # window determinant rank(n) c1(n+1) - rank(n+1) c1(n) = a_n^2 - a_(n+1) a_(n-1),
    # which the recurrence keeps at 1; on rung n itself its k1 is that determinant
    vals = _ladder(n_dim, depth + 1)
    (r1, c1), (r2, c2) = _rung(vals, depth), _rung(vals, depth + 1)
    assert r1 * c2 - r2 * c1 == vals[depth + 1] ** 2 - vals[depth + 2] * vals[depth] == 1
    d = predicted_decomposition(n_dim, c1, r1, 1)
    assert (d.n, d.k1, d.k2) == (depth, 1, 0)


def test_exceptional_slope_is_pure_ladder_bundle():
    # an exceptional slope sits at the left window edge: k2 = 0 and the
    # presentation is a multiple of a single ladder bundle
    for n, q in enumerate(exceptional_slopes(2, 5)[1:4], start=1):
        d = predicted_decomposition(2, q.numerator, q.denominator, 1)
        assert (d.n, d.k2) == (n, 0)


@pytest.mark.parametrize("depth", [70, 200])
def test_predicted_decomposition_deep_ladder_has_no_step_cap(depth):
    ladder = exceptional_slopes(2, depth)
    table = _ladder(2, depth + 1)
    m = depth - 1  # ladder[-1] is rung m of the table
    lo, hi = ladder[-2], ladder[-1]
    mediant = F(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
    for q, k, n in ((hi, 1, m), (mediant, 2, m - 1)):
        s, r = q.numerator, q.denominator
        d = predicted_decomposition(2, s, r, k)
        assert d.n == n
        (r1, c1), (r2, c2) = _rung(table, d.n), _rung(table, d.n + 1)
        assert d.k1 * r1 + d.k2 * r2 == k * r
        assert d.k1 * c1 + d.k2 * c2 == k * s
    assert predicted_decomposition(2, hi.numerator, hi.denominator).k2 == 0


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


def _reference_fiber(entries, point, p):
    """The matrix of linear forms evaluated at one point."""
    return FieldMatrix((entries * monomial_values(1, point, p) % p).sum(-1) % p, p)


def _reference_cokernel_trial(r, s, k, rng, p):
    """The cokernel trial with one fiber elimination and one left kernel
    per point, and the conditions assembled by np.kron."""
    n = _triangular(r) + s
    height = k * (s + r)
    width = k * s
    dim_out = _triangular(r)
    dim_in = _triangular(r - 1)
    entries = rng.integers((height, width, 3), p)
    if width:
        syz = multiplication_matrix(entries, 3, 1, r - 2, p)
        if syz.rank() != width * dim_in:
            raise GenericityError("degenerate draw: syzygies not independent")
    if height * dim_out - width * dim_in != k * r * n:
        raise ArithmeticError("section count does not match rank * points")
    points = _random_points(n, rng, p)
    cond_rows = []
    for pt in points:
        fiber = _reference_fiber(entries, pt, p)
        if width and fiber.rank() != width:
            raise GenericityError("degenerate draw: fiber map dropped rank at a point")
        mono = monomial_values(r - 1, pt, p)
        for q in fiber.left_kernel_basis():
            cond_rows.append(np.kron(q, mono) % p)
    conditions = FieldMatrix(np.array(cond_rows, dtype=np.int64).reshape(len(cond_rows), height * dim_out), p)
    fixed_sections = conditions.cols - conditions.rank()
    return fixed_sections == width * dim_in


def _reference_kernel_trial(r, s, k, rng, p):
    """The kernel trial with the kernel basis in reduced form, evaluated
    section by section at every point."""
    n = _triangular(r) + s
    width = k * (2 * r - s + 3)
    height = k * (r - s + 1)
    entries = rng.integers((height, width, 3), p)
    kernel = multiplication_matrix(entries, 3, 1, r, p).kernel_basis()
    h0 = len(kernel)
    if h0 != k * (r + 2) * n:
        return False
    points = _random_points(n, rng, p)
    kernel_arr = kernel.reshape(h0, width, _triangular(r + 1))
    value_rows = []
    for pt in points:
        if _reference_fiber(entries, pt, p).rank() != height:
            raise GenericityError("degenerate draw: fiber map dropped rank at a point")
        vals = (kernel_arr * monomial_values(r, pt, p) % p).sum(-1) % p
        value_rows.append(vals.T)
    conditions = FieldMatrix(np.vstack(value_rows), p)
    return h0 - conditions.rank() == 0


def _outcome(run):
    try:
        return run()
    except (GenericityError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    r=st.integers(1, 5),
    s_cut=st.integers(0, 6),
    k=st.sampled_from([1, 2]),
    p=st.sampled_from([2, 3, 5, 65521, P]),
    seed=st.integers(0, 10**6),
)
# cokernel trials whose first draw drops a fiber's rank and is re-drawn
@example(r=2, s_cut=1, k=1, p=2, seed=0)
@example(r=2, s_cut=1, k=2, p=2, seed=6)
@example(r=2, s_cut=2, k=1, p=3, seed=0)
# kernel trials whose section count is one too high: the answer is False,
# from the restricted rank, or from the onto rank after a degenerate draw
@example(r=2, s_cut=1, k=1, p=2, seed=25)
@example(r=2, s_cut=2, k=1, p=2, seed=0)
# a cokernel trial whose points lie on a curve of degree r-1: the answer
# is False, with no re-draw
@example(r=5, s_cut=1, k=1, p=7, seed=1)
def test_interpolation_engines_match_per_point_reference(r, s_cut, k, p, seed):
    if r >= 2:
        s = min(s_cut, r)
        got = _outcome(lambda: interpolation_test_cokernel(r, s, k, RandomSource(seed), p))
        want = _outcome(lambda: _with_retries(lambda g: _reference_cokernel_trial(r, s, k, g, p), RandomSource(seed)))
        assert got == want
    s = max(1, min(s_cut, r + 1))
    got = _outcome(lambda: interpolation_test_kernel(r, s, k, RandomSource(seed), p))
    want = _outcome(lambda: _with_retries(lambda g: _reference_kernel_trial(r, s, k, g, p), RandomSource(seed)))
    assert got == want


def _reference_restricted(entries, points, r, p):
    """The kernel trial's restriction as the full product: the whole
    multiplication map, rows (entry, degree r+1 monomial), times the ker V
    basis in each of the width blocks."""
    height, width, _ = entries.shape
    dim_r = _triangular(r + 1)
    mult = multiplication_matrix(entries, 3, 1, r, p)
    values = np.array([monomial_values(r, pt, p) for pt in points], dtype=np.int64)
    basis = FieldMatrix(values, p).kernel_basis().T
    restricted = np.zeros((mult.rows * width, basis.shape[1]), dtype=np.int64)
    mulmod_sub(restricted, mult.array.reshape(-1, dim_r), -basis % p, p)  # mult @ basis, exactly
    cols = width * basis.shape[1]
    return FieldMatrix(restricted.reshape(mult.rows, cols), p)


def _assert_coordinate_lemma(entries, points, r, p):
    got = _restricted_kernel_map(entries, points, r, p)
    want = _reference_restricted(entries, points, r, p)
    assert got.shape[1] == want.cols
    assert len(_eliminate(got, p)) == want.rank()
    if FieldMatrix(monomial_values(r, points, p), p).rank() == len(points):
        assert got.shape[0] == got.shape[1]  # square when V has rank n


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    r=st.integers(1, 6),
    s_cut=st.integers(1, 7),
    k=st.sampled_from([1, 2]),
    p=st.sampled_from([2, 3, 5, 7, 65521, P]),
    seed=st.integers(0, 10**6),
)
def test_coordinate_restriction_has_the_rank_of_the_full_product(r, s_cut, k, p, seed):
    # the lemma needs no distinct points, only z = 1, so the points here are
    # raw draws: at small p they repeat and V loses rank
    s = min(s_cut, r + 1)
    n = _triangular(r) + s
    rng = RandomSource(seed)
    entries = rng.integers((k * (r - s + 1), k * (2 * r - s + 3), 3), p)
    points = np.ones((n, 3), dtype=np.int64)
    points[:, :2] = rng.integers((n, 2), p)
    _assert_coordinate_lemma(entries, points, r, p)


@pytest.mark.parametrize("r,s,k,p,seed", [
    (3, 3, 1, 3, 0), (5, 3, 1, 5, 2), (4, 3, 2, 5, 20), (3, 2, 1, 7, 14), (4, 3, 1, 7, 20),
])
def test_coordinate_restriction_on_dependent_distinct_points(r, s, k, p, seed):
    # draws as the kernel trial makes them whose distinct points lie on a
    # degree r curve beyond those the count forces: V has rank below n
    n = _triangular(r) + s
    rng = RandomSource(seed)
    entries = rng.integers((k * (r - s + 1), k * (2 * r - s + 3), 3), p)
    points = _random_points(n, rng, p)
    assert FieldMatrix(monomial_values(r, points, p), p).rank() < n
    _assert_coordinate_lemma(entries, points, r, p)


def _reference_points(n, rng, p):
    """The point draw one pair at a time, with two draws per pair."""
    points, seen, attempts = [], set(), 0
    while len(points) < n:
        pt = (rng.below(p), rng.below(p), 1)
        attempts += 1
        if attempts > 20 * n + 100:
            raise GenericityError("could not draw distinct points")
        if pt in seen:
            continue
        seen.add(pt)
        points.append(pt)
    return points


@pytest.mark.parametrize("n,p", [(1, 2), (4, 2), (5, 2), (7, 2), (9, 3), (8, 3), (10, 3), (20, 3), (30, 7), (40, 65521), (60, P)])
@pytest.mark.parametrize("seed", range(4))
def test_point_draws_are_the_stream_of_single_pairs(n, p, seed):
    # p = 3 repeats pairs often; p = 2 has only four points, so n = 5 raises,
    # and n = 7 at p = 2 or n = 20 at p = 3 may reach the attempt limit; the
    # stream's end state is compared after a raise too
    rng, ref = RandomSource(seed, (n, p)), RandomSource(seed, (n, p))
    got = _outcome(lambda: _random_points(n, rng, p).tolist())
    want = _outcome(lambda: [list(pt) for pt in _reference_points(n, ref, p)])
    assert got == want
    assert rng.below(2**31 - 1) == ref.below(2**31 - 1)
    if (n, p) == (5, 2):
        assert got == "GenericityError: could not draw distinct points"


def test_cokernel_trial_is_false_on_a_singular_value_matrix():
    # the first draw of (5, 1, 1) at p = 7 puts its 16 points on a quartic
    rng = RandomSource(1)
    rng.integers((6, 1, 3), 7)
    points = _random_points(16, rng, 7)
    assert FieldMatrix([monomial_values(4, pt, 7) for pt in points], 7).rank() < _triangular(5)
    assert steiner._cokernel_trial(5, 1, 1, RandomSource(1), 7) is False
    assert _reference_cokernel_trial(5, 1, 1, RandomSource(1), 7) is False


def test_section_counts_match_rank_times_points():
    # the identities behind both trials: the cokernel's sections less its
    # syzygies, and the kernel map's columns less its rows
    for r in range(1, 61):
        n = _triangular(r)
        for s in range(r + 2):
            for k in range(1, 5):
                if r >= 2:
                    coker = k * (s + r) * _triangular(r) - k * s * _triangular(r - 1)
                    assert coker == k * r * (n + s)
                kernel = k * (2 * r - s + 3) * _triangular(r + 1) - k * (r - s + 1) * _triangular(r + 2)
                assert kernel == k * (r + 2) * (n + s)


def test_kernel_trial_not_onto_is_false_after_a_degenerate_draw(monkeypatch):
    # (1, 1, 1) at p = 2, seed 0 has one section too many; a failed point
    # draw then reaches the onto rank, which answers False with no re-draw
    rng = RandomSource(0)
    entries = rng.integers((1, 4, 3), 2)
    mult = multiplication_matrix(entries, 3, 1, 1, 2)
    assert mult.rank() < mult.rows
    assert _reference_kernel_trial(1, 1, 1, RandomSource(0), 2) is False

    def no_points(n, rng, p):
        raise GenericityError("could not draw distinct points")

    monkeypatch.setattr(steiner, "_random_points", no_points)
    assert steiner._kernel_trial(1, 1, 1, RandomSource(0), 2) is False


def test_dependent_syzygies_are_named_after_the_fiber_check(monkeypatch):
    # a zero column is a constant syzygy, so every fiber drops column rank;
    # the re-draws all fail the same way and the error names the syzygy
    def zero_column(self, shape, n):
        out = draw(self, shape, n)
        if np.ndim(shape) == 1 and len(shape) == 3:  # linear forms; points are (m, 2)
            out[:, 0] = 0
        return out

    draw = RandomSource.integers
    monkeypatch.setattr(RandomSource, "integers", zero_column)
    text = "GenericityError: trial failed after 3 re-draws: degenerate draw: syzygies not independent"
    for r, s, k in ((3, 1, 1), (4, 2, 2)):
        got = _outcome(lambda: interpolation_test_cokernel(r, s, k, RandomSource(0), P))
        want = _outcome(lambda: _with_retries(lambda g: _reference_cokernel_trial(r, s, k, g, P), RandomSource(0)))
        assert got == want == text


def test_cokernel_trial_without_free_points_matches_reference():
    # s = 0: the n points are a basis or V is singular, and S has no rows;
    # at p = 2 any three points are a basis and six cannot be drawn
    outcomes = set()
    for p in (2, 3):
        for r in (2, 3):
            for k in (1, 2):
                for seed in range(6):
                    got = _outcome(lambda: steiner._cokernel_trial(r, 0, k, RandomSource(seed), p))
                    assert got == _outcome(lambda: _reference_cokernel_trial(r, 0, k, RandomSource(seed), p))
                    outcomes.add(got)
    assert outcomes == {True, False, "GenericityError: could not draw distinct points"}


def test_determinism_of_trials():
    a = pullback_splitting(SteinerSpec(2, 2, 5, 1, seed=7), P)
    b = pullback_splitting(SteinerSpec(2, 2, 5, 1, seed=7), P)
    assert a == b
    x = interpolation_test_cokernel(3, 1, 1, RandomSource(3), P)
    y = interpolation_test_cokernel(3, 1, 1, RandomSource(3), P)
    assert x == y

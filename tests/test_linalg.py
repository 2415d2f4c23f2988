"""Tests for the prime-field matrix substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerlab.linalg import (
    DEFAULT_PRIME,
    FieldMatrix,
    GenericityError,
    RandomSource,
    check_prime,
    is_prime,
    mulmod_sub,
    random_matrix,
    stacked_left_kernels,
)

P = DEFAULT_PRIME


def test_default_prime_is_prime():
    assert is_prime(P)
    assert P == 2**31 - 1


def test_check_prime_rejects_composites_and_large_moduli():
    with pytest.raises(ValueError):
        check_prime(2**31 - 2)
    with pytest.raises(ValueError):
        check_prime(2**61 - 1)  # prime but beyond the int64-safe bound


def test_check_prime_rejections_survive_the_cache():
    # warm the primality cache with the same values first
    assert is_prime(P) and is_prime(2**61 - 1) and not is_prime(2**31 - 2)
    assert check_prime(P) == P
    for bad in (2**31 - 2, 2**61 - 1, float(P), np.int64(P), 91, 1, 0):
        with pytest.raises(ValueError):
            check_prime(bad)
    assert check_prime(P) == P


def test_identity_rank():
    assert FieldMatrix(np.eye(3, dtype=np.int64), P).rank() == 3


def test_zero_matrix_rank():
    assert FieldMatrix(np.zeros((4, 7), dtype=np.int64), P).rank() == 0


def _vandermonde(nodes, p):
    return FieldMatrix([[pow(x, j, p) for j in range(len(nodes))] for x in nodes], p)


def test_vandermonde_rank_five():
    # oracle: the determinant is the product of node differences, which is
    # a nonzero field element for distinct nodes
    nodes = [2, 3, 5, 7, 11]
    det = 1
    for i in range(5):
        for j in range(i + 1, 5):
            det *= nodes[j] - nodes[i]
    assert det % P != 0
    assert _vandermonde(nodes, P).rank() == 5


def test_kernel_identity_empty():
    assert FieldMatrix(np.eye(4, dtype=np.int64), P).kernel_basis() == []


def test_kernel_zero_matrix():
    basis = FieldMatrix(np.zeros((2, 3), dtype=np.int64), P).kernel_basis()
    assert len(basis) == 3
    assert FieldMatrix(basis, P).rank() == 3


def test_kernel_of_ones_row():
    (v,) = FieldMatrix([[1, 1]], P).kernel_basis()
    # proportional to (1, -1)
    assert (v[0] + v[1]) % P == 0 and v != [0, 0]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", [(4, 7), (7, 4), (6, 6), (1, 9)])
def test_rank_nullity_and_exact_kernel(seed, shape):
    m = random_matrix(*shape, RandomSource(seed), P)
    basis = m.kernel_basis()
    assert m.rank() + len(basis) == m.cols
    for v in basis:
        assert all(sum(a * x for a, x in zip(row, v)) % P == 0 for row in m.array.tolist())


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_rank_invariant_under_permutations(seed):
    rng = RandomSource(seed)
    m = random_matrix(5, 8, rng, P)
    rows = list(range(5))
    cols = list(range(8))
    # a couple of deterministic shuffles
    rows = rows[::-1]
    cols = cols[3:] + cols[:3]
    permuted = FieldMatrix(m.array[np.ix_(rows, cols)], P)
    assert permuted.rank() == m.rank()


def test_random_matrix_deterministic():
    a = random_matrix(6, 6, RandomSource(42), P)
    b = random_matrix(6, 6, RandomSource(42), P)
    assert a == b


def test_random_matrix_empty_rows():
    m = random_matrix(0, 5, RandomSource(0), P)
    assert (m.rows, m.cols) == (0, 5)
    assert m.rank() == 0
    assert len(m.kernel_basis()) == 5


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generic_square_matrix_invertible(seed):
    assert random_matrix(30, 30, RandomSource(seed), P).rank() == 30


def test_derived_streams_are_independent_and_reproducible():
    base = RandomSource(7)
    a = base.derive(0).integers(5, 1000)
    b = base.derive(1).integers(5, 1000)
    assert a != b
    assert RandomSource(7).derive(0).integers(5, 1000) == a
    # drawing from a child does not disturb the parent
    c = RandomSource(7)
    c.derive(3).integers(100, 10)
    d = RandomSource(7)
    assert c.integers(5, 1000) == d.integers(5, 1000)


def test_small_prime_supported():
    m = FieldMatrix([[1, 1], [1, 1]], 5)
    assert m.rank() == 1


# ---------------------------------------------------------------------------
# elimination properties against a plain Gauss-Jordan on Python ints

PROPERTY_PRIMES = [2, 3, 65521, 2**31 - 1]


def _reference_rref(arr, p):
    """Reduced row echelon form (nonzero rows) and pivot columns."""
    a = [[x % p for x in row] for row in arr]
    cols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(cols):
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for j in range(len(a)):
            if j != r and a[j][c]:
                f = a[j][c]
                a[j] = [(x - f * y) % p for x, y in zip(a[j], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def _entries(p, rows, cols):
    return st.lists(
        st.lists(st.integers(0, p - 1), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def _matrices(draw):
    """(entries, p, rows, cols): random, forced rank-deficient (a product
    of thin factors) or all-zero, including 0-row and 0-column shapes."""
    p = draw(st.sampled_from(PROPERTY_PRIMES))
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["random", "thin", "zero"]))
    if kind == "random":
        arr = draw(_entries(p, rows, cols))
    elif kind == "thin":
        k = draw(st.integers(0, max(0, min(rows, cols) - 1)))
        left = draw(_entries(p, rows, k))
        right = draw(_entries(p, k, cols))
        arr = [[sum(left[i][t] * right[t][j] for t in range(k)) % p for j in range(cols)] for i in range(rows)]
    else:
        arr = [[0] * cols for _ in range(rows)]
    return arr, p, rows, cols


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_matrices())
def test_elimination_properties(case):
    arr, p, rows, cols = case
    ref, ref_pivots = _reference_rref(arr, p)
    # fresh matrices, so each method runs its own elimination, not the rank memo
    rank = FieldMatrix(arr, p, rows=rows, cols=cols).rank()
    kernel = FieldMatrix(arr, p, rows=rows, cols=cols).kernel_basis()
    basis = FieldMatrix(arr, p, rows=rows, cols=cols).row_space_basis()
    left = FieldMatrix(arr, p, rows=rows, cols=cols).left_kernel_basis()

    assert rank == len(ref_pivots)
    assert rank == cols - len(kernel)
    assert rank == basis.rows
    assert rank == rows - len(left)
    assert basis.array.tolist() == ref
    free = [c for c in range(cols) if c not in ref_pivots]
    for f, v in zip(free, kernel):
        # reduced form: 1 at its own free column, 0 at the others
        assert [v[c] for c in free] == [int(c == f) for c in free]
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in arr)
    for w in left:
        assert all(sum(w[i] * arr[i][j] for i in range(rows)) % p == 0 for j in range(cols))


# ---------------------------------------------------------------------------
# the blocked elimination against an unblocked reference loop


def _reference_forward(data, p):
    """Unblocked forward elimination, one column at a time over the whole
    trailing submatrix: row echelon form and pivot columns."""
    a = np.array(data, dtype=np.int64)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        inv = pow(int(a[r, c]), -1, p)
        tail = a[r, c + 1 :] * inv % p
        a[r, c + 1 :] = tail
        below = r + 1 + np.flatnonzero(a[r + 1 :, c])
        if below.size:
            a[below, c + 1 :] = (a[below, c + 1 :] - a[below, c, None] * tail) % p
        pivots.append(c)
        r += 1
    return a, pivots


class _ReferenceMatrix(FieldMatrix):
    """FieldMatrix whose back-substitution reads the unblocked elimination."""

    def _forward(self):
        return _reference_forward(self.array, self.p)


# below one panel, exactly one, one past it, one strip, and several of each
PANEL_SIZES = [0, 1, 7, 31, 32, 33, 64, 65, 97, 130]


@st.composite
def _panel_matrices(draw):
    """(array, p) of tall, wide and square shapes around the panel and strip
    sizes: random, rank-deficient (a product of thin factors) or sparse,
    each with some columns, or a whole band of them, set to zero."""
    p = draw(st.sampled_from(PROPERTY_PRIMES))
    rows = draw(st.sampled_from(PANEL_SIZES))
    cols = draw(st.sampled_from(PANEL_SIZES))
    kind = draw(st.sampled_from(["random", "thin", "sparse"]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        arr = gen.integers(0, p, (rows, cols))
    elif kind == "thin":
        k = draw(st.integers(0, 40))
        left, right = gen.integers(0, p, (rows, k)), gen.integers(0, p, (k, cols))
        arr = np.zeros((rows, cols), dtype=np.int64)
        for t in range(k):
            arr = (arr + left[:, t, None] * right[t] % p) % p
    else:
        arr = gen.integers(0, p, (rows, cols)) * (gen.random((rows, cols)) < draw(st.sampled_from([0.02, 0.1, 0.3])))
    arr[:, gen.random(cols) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0
    lo = draw(st.integers(0, cols))
    arr[:, lo : lo + draw(st.sampled_from([0, 5, 40]))] = 0
    return arr.astype(np.int64), p


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_panel_matrices())
def test_blocked_elimination_matches_unblocked_reference(case):
    arr, p = case
    rows, cols = arr.shape
    ref, ref_pivots = _reference_forward(arr, p)
    got, pivots = FieldMatrix(arr, p, rows=rows, cols=cols)._forward()
    assert pivots == ref_pivots
    # the echelon rows agree from each pivot on; left of it both are stale
    for t, c in enumerate(pivots):
        assert got[t, c:].tolist() == ref[t, c:].tolist()
    assert FieldMatrix(arr, p, rows=rows, cols=cols).rank() == len(ref_pivots)
    kernel = FieldMatrix(arr, p, rows=rows, cols=cols).kernel_basis()
    assert kernel == _ReferenceMatrix(arr, p, rows=rows, cols=cols).kernel_basis()


def test_blocked_elimination_all_entries_p_minus_one():
    # three panels of the largest entry at the largest prime, then the same
    # with p - 2 on the diagonal, which makes it -(J + I) on 70 columns and
    # so of full rank 70 (det 71 is nonzero mod p)
    arr = np.full((70, 96), P - 1, dtype=np.int64)
    assert FieldMatrix(arr, P).rank() == 1
    assert FieldMatrix(arr, P).kernel_basis() == _ReferenceMatrix(arr, P).kernel_basis()
    arr[np.arange(70), np.arange(70)] = P - 2
    ref, ref_pivots = _reference_forward(arr, P)
    got, pivots = FieldMatrix(arr, P)._forward()
    assert pivots == ref_pivots == list(range(70))
    assert all(got[t, t:].tolist() == ref[t, t:].tolist() for t in range(70))


@pytest.mark.parametrize("p", [2, 65521, P])
@pytest.mark.parametrize("shape", [(1, 1, 1), (130, 96, 40), (64, 33, 200), (3, 0, 5)])
@pytest.mark.parametrize("fill", ["random", "p-1"])
def test_mulmod_sub_is_exact(p, shape, fill):
    m, n, q = shape
    gen = np.random.default_rng(m * n + q)
    if fill == "random":
        c, a, b = (gen.integers(0, p, s) for s in ((m, q), (m, n), (n, q)))
    else:
        c, a, b = (np.full(s, p - 1, dtype=np.int64) for s in ((m, q), (m, n), (n, q)))
    want = (c.astype(object) - a.astype(object).dot(b.astype(object))) % p
    mulmod_sub(c, a, b, p)
    assert c.tolist() == want.tolist()


def test_rank_deficient_fiber_in_a_stack_raises():
    rng = RandomSource(4)
    stack = np.array(rng.integers(5 * 6 * 3, P), dtype=np.int64).reshape(5, 6, 3)
    stacked_left_kernels(stack, P)  # five random fibers of full column rank
    stack[3, :, 2] = 2 * stack[3, :, 0] % P  # the fourth drops to rank 2
    with pytest.raises(GenericityError, match="fiber map dropped rank at a point"):
        stacked_left_kernels(stack, P)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    p=st.sampled_from([2, 3, 5, 65521, P]),
    n=st.integers(1, 4),
    h=st.integers(1, 7),
    w_cut=st.integers(0, 7),
    seed=st.integers(0, 10**6),
)
def test_batched_left_kernels_span_each_fiber_left_kernel(p, n, h, w_cut, seed):
    w = min(w_cut, h)
    stack = np.array(RandomSource(seed).integers(n * h * w, p), dtype=np.int64).reshape(n, h, w)
    full_rank = all(FieldMatrix(f, p, rows=h, cols=w).rank() == w for f in stack)
    if not full_rank:
        with pytest.raises(GenericityError):
            stacked_left_kernels(stack, p)
        return
    kernels = stacked_left_kernels(stack, p)
    assert kernels.shape == (n, h - w, h)
    for f, q in zip(stack, kernels):
        want = FieldMatrix(f, p, rows=h, cols=w).left_kernel_basis()
        got = FieldMatrix(q, p, rows=h - w, cols=h)
        assert got.rank() == h - w
        assert got.row_space_basis() == FieldMatrix(want, p, rows=h - w, cols=h).row_space_basis()

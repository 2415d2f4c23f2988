"""Tests for the prime-field matrix substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerlab.linalg import (
    FieldMatrix,
    GenericityError,
    RandomSource,
    mulmod_sub,
    stacked_left_kernels,
)
from steinerlab.primes import DEFAULT_PRIME, check_prime, is_prime

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
    basis = FieldMatrix(np.eye(4, dtype=np.int64), P).kernel_basis()
    assert basis.dtype == np.int64 and basis.shape == (0, 4)


def test_kernel_zero_matrix():
    basis = FieldMatrix(np.zeros((2, 3), dtype=np.int64), P).kernel_basis()
    assert basis.shape == (3, 3)
    assert FieldMatrix(basis, P).rank() == 3


def test_kernel_of_ones_row():
    (v,) = FieldMatrix([[1, 1]], P).kernel_basis().tolist()
    # proportional to (1, -1)
    assert (v[0] + v[1]) % P == 0 and v != [0, 0]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", [(4, 7), (7, 4), (6, 6), (1, 9)])
def test_rank_nullity_and_exact_kernel(seed, shape):
    m = FieldMatrix(RandomSource(seed).integers(shape, P), P)
    basis = m.kernel_basis()
    assert basis.shape == (m.cols - m.rank(), m.cols)
    for v in basis.tolist():
        assert all(sum(a * x for a, x in zip(row, v)) % P == 0 for row in m.array.tolist())


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_rank_invariant_under_permutations(seed):
    rng = RandomSource(seed)
    m = FieldMatrix(rng.integers((5, 8), P), P)
    rows = list(range(5))
    cols = list(range(8))
    # a couple of deterministic shuffles
    rows = rows[::-1]
    cols = cols[3:] + cols[:3]
    permuted = FieldMatrix(m.array[np.ix_(rows, cols)], P)
    assert permuted.rank() == m.rank()


def test_drawn_matrix_deterministic():
    a = FieldMatrix(RandomSource(42).integers((6, 6), P), P)
    b = FieldMatrix(RandomSource(42).integers((6, 6), P), P)
    assert a.p == b.p
    assert np.array_equal(a.array, b.array)


def test_empty_matrices_keep_their_shape():
    m = FieldMatrix(RandomSource(0).integers((0, 5), P), P)
    assert (m.rows, m.cols) == (0, 5)
    assert m.rank() == 0
    assert m.kernel_basis().shape == (5, 5)
    assert m.left_kernel_basis().shape == (0, 0)
    assert m.row_space_basis().array.shape == (0, 5)
    tall = FieldMatrix(np.zeros((3, 0), dtype=np.int64), P)
    assert tall.kernel_basis().shape == (0, 0)
    assert tall.left_kernel_basis().shape == (3, 3)
    assert tall.row_space_basis().array.shape == (0, 0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generic_square_matrix_invertible(seed):
    assert FieldMatrix(RandomSource(seed).integers((30, 30), P), P).rank() == 30


def test_derived_streams_are_independent_and_reproducible():
    base = RandomSource(7)
    a = base.derive(0).integers(5, 1000).tolist()
    b = base.derive(1).integers(5, 1000).tolist()
    assert a != b
    assert RandomSource(7).derive(0).integers(5, 1000).tolist() == a
    # drawing from a child does not disturb the parent
    c = RandomSource(7)
    c.derive(3).integers(100, 10)
    d = RandomSource(7)
    assert c.integers(5, 1000).tolist() == d.integers(5, 1000).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 65521, 2**31 - 1, 2**31])
@pytest.mark.parametrize("count", [0, 1, 7, 5000])
def test_integers_is_the_stream_of_single_draws(n, count):
    # 3 and 5 reject a quarter and three eighths of their words, 2**31 half
    rng, ref = RandomSource(n, (count,)), RandomSource(n, (count,))
    got = rng.integers(count, n)
    assert got.dtype == np.int64 and got.shape == (count,)
    assert got.tolist() == [ref.below(n) for _ in range(count)]
    assert rng.below(2**31 - 1) == ref.below(2**31 - 1)


@pytest.mark.parametrize("shape", [(3, 4), (2, 0, 5), (2, 3, 4, 1), ()])
def test_integers_fills_a_shape_row_major(shape):
    rng, ref = RandomSource(9), RandomSource(9)
    got = rng.integers(shape, 65521)
    assert got.dtype == np.int64 and got.shape == shape
    assert got.ravel().tolist() == ref.integers(got.size, 65521).tolist()
    assert rng.below(2**31 - 1) == ref.below(2**31 - 1)


def test_integers_keeps_the_empty_range_error():
    with pytest.raises(ValueError, match="empty range"):
        RandomSource(0).integers(3, 0)
    with pytest.raises(ValueError, match="empty range"):
        RandomSource(0).integers((2, 1), 0)
    assert RandomSource(0).integers(0, 0).shape == (0,)
    assert RandomSource(0).integers((0, 3), 0).shape == (0, 3)
    with pytest.raises(AssertionError):
        RandomSource(0).integers(1, 2**32)  # randrange takes two words here


def test_small_prime_supported():
    m = FieldMatrix([[1, 1], [1, 1]], 5)
    assert m.rank() == 1


@pytest.mark.parametrize(
    "data, dtype",
    [
        ([[1.5, 2.7]], "float64"),
        ([[1.0, 2.0]], "float64"),  # integral floats too: no float reaches the field
        (np.array([[1.5, 2.7]], dtype=np.float32), "float32"),
        (np.array([[2**70, 1]], dtype=object), "object"),
        ([[2**70, 1]], "object"),
        ([[2**63]], "uint64"),
    ],
)
def test_non_integer_entries_are_refused(data, dtype):
    with pytest.raises(TypeError, match=dtype):
        FieldMatrix(data, 5)


def test_integer_and_bool_entries_are_reduced():
    want = [[1, 4, 0]]
    assert FieldMatrix([[6, -1, 10]], 5).array.tolist() == want
    assert FieldMatrix(np.array([[6, -1, 10]], dtype=np.int32), 5).array.tolist() == want
    assert FieldMatrix(np.array([[6, 4, 10]], dtype=np.uint8), 5).array.tolist() == want
    bools = FieldMatrix(np.array([[True, False]]), 5)
    assert bools.array.dtype == np.int64 and bools.array.tolist() == [[1, 0]]
    for m in (FieldMatrix([[6, -1, 10]], 5), bools):
        assert m.array.dtype == np.int64 and not m.array.flags.writeable


def test_int64_entries_take_one_reduction_and_no_copy(monkeypatch):
    # interpolation builds thousands of these: the int64 input is reduced
    # straight into the one array the matrix keeps
    arr = np.array([[6, -1], [10, 3]], dtype=np.int64)
    calls = []
    real_mod = np.mod

    def counted(x, *args, **kwargs):
        calls.append(x)
        return real_mod(x, *args, **kwargs)

    monkeypatch.setattr(np, "mod", counted)
    m = FieldMatrix(arr, 5)
    assert len(calls) == 1 and calls[0] is arr
    assert m.array.tolist() == [[1, 4], [0, 3]] and not np.shares_memory(m.array, arr)


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
    mat = np.array(arr, dtype=np.int64).reshape(rows, cols)
    # fresh matrices, so each method runs its own elimination, not the rank memo
    rank = FieldMatrix(mat, p).rank()
    kernel = FieldMatrix(mat, p).kernel_basis()
    basis = FieldMatrix(mat, p).row_space_basis()
    left = FieldMatrix(mat, p).left_kernel_basis()

    assert rank == len(ref_pivots)
    assert kernel.shape == (cols - rank, cols)
    assert basis.array.shape == (rank, cols)
    assert left.shape == (rows - rank, rows)
    assert basis.array.tolist() == ref
    kernel, left = kernel.tolist(), left.tolist()
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
    sizes: random, rank-deficient (a product of thin factors), sparse or a
    staircase, each with some columns, or a whole band of them, set to
    zero."""
    p = draw(st.sampled_from(PROPERTY_PRIMES))
    rows = draw(st.sampled_from(PANEL_SIZES))
    cols = draw(st.sampled_from(PANEL_SIZES))
    kind = draw(st.sampled_from(["random", "thin", "sparse", "staircase"]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        arr = gen.integers(0, p, (rows, cols))
    elif kind == "thin":
        k = draw(st.integers(0, 40))
        left, right = gen.integers(0, p, (rows, k)), gen.integers(0, p, (k, cols))
        arr = np.zeros((rows, cols), dtype=np.int64)
        for t in range(k):
            arr = (arr + left[:, t, None] * right[t] % p) % p
    elif kind == "sparse":
        arr = gen.integers(0, p, (rows, cols)) * (gen.random((rows, cols)) < draw(st.sampled_from([0.02, 0.1, 0.3])))
    else:
        # zero below a non-decreasing row profile: later panels have columns
        # that are zero from the panel's top row down but nonzero above it
        arr = gen.integers(0, p, (rows, cols))
        arr[np.arange(rows)[:, None] > np.sort(gen.integers(0, rows + 1, cols))] = 0
    arr[:, gen.random(cols) < draw(st.sampled_from([0.0, 0.1, 0.5]))] = 0
    lo = draw(st.integers(0, cols))
    arr[:, lo : lo + draw(st.sampled_from([0, 5, 40]))] = 0
    return arr.astype(np.int64), p


@settings(derandomize=True, deadline=None, max_examples=120)
@given(_panel_matrices())
def test_blocked_elimination_matches_unblocked_reference(case):
    arr, p = case
    cols = arr.shape[1]
    ref, ref_pivots = _reference_forward(arr, p)
    got, pivots = FieldMatrix(arr, p)._forward()
    assert pivots == ref_pivots
    # the echelon rows agree from each pivot on; left of it both are stale
    for t, c in enumerate(pivots):
        assert got[t, c:].tolist() == ref[t, c:].tolist()
    assert FieldMatrix(arr, p).rank() == len(ref_pivots)
    assert FieldMatrix(arr, p).pivots() == ref_pivots
    kernel = FieldMatrix(arr, p).kernel_basis()
    assert kernel.shape == (cols - len(ref_pivots), cols)
    assert np.array_equal(kernel, _ReferenceMatrix(arr, p).kernel_basis())


def test_blocked_elimination_all_entries_p_minus_one():
    # three panels of the largest entry at the largest prime, then the same
    # with p - 2 on the diagonal, which makes it -(J + I) on 70 columns and
    # so of full rank 70 (det 71 is nonzero mod p)
    arr = np.full((70, 96), P - 1, dtype=np.int64)
    assert FieldMatrix(arr, P).rank() == 1
    assert np.array_equal(FieldMatrix(arr, P).kernel_basis(), _ReferenceMatrix(arr, P).kernel_basis())
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


@pytest.mark.parametrize("p", [65521, P])
def test_mulmod_sub_same_for_fortran_and_c_ordered_operands(p):
    # an operand such as -K.T % p is Fortran-ordered; the float64 limbs
    # are built C-contiguous either way, and the product is the same integers
    gen = np.random.default_rng(7)
    c, a, b = (gen.integers(0, p, s) for s in ((90, 70), (90, 45), (45, 70)))
    want = c.copy()
    mulmod_sub(want, a, b, p)
    for order_c, order_a, order_b in [("F", "F", "F"), ("C", "F", "C"), ("C", "C", "F")]:
        got = np.array(c, order=order_c)
        mulmod_sub(got, np.array(a, order=order_a), np.array(b, order=order_b), p)
        assert np.array_equal(got, want)


def test_rank_deficient_fiber_in_a_stack_raises():
    rng = RandomSource(4)
    stack = rng.integers((5, 6, 3), P)
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
    stack = RandomSource(seed).integers((n, h, w), p)
    full_rank = all(FieldMatrix(f, p).rank() == w for f in stack)
    if not full_rank:
        with pytest.raises(GenericityError):
            stacked_left_kernels(stack, p)
        return
    kernels = stacked_left_kernels(stack, p)
    assert kernels.shape == (n, h - w, h)
    for f, q in zip(stack, kernels):
        want = FieldMatrix(f, p).left_kernel_basis()
        got = FieldMatrix(q, p)
        assert got.rank() == h - w
        assert np.array_equal(got.row_space_basis().array, FieldMatrix(want, p).row_space_basis().array)

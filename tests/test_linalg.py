"""Tests for the prime-field matrix substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerlab.linalg import (
    DEFAULT_PRIME,
    FieldElement,
    FieldMatrix,
    RandomSource,
    check_prime,
    is_prime,
    random_matrix,
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


def test_identity_rank():
    assert FieldMatrix.identity(3, P).rank() == 3


def test_zero_matrix_rank():
    assert FieldMatrix.zeros(4, 7, P).rank() == 0


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
    assert FieldMatrix.identity(4, P).kernel_basis() == []


def test_kernel_zero_matrix():
    basis = FieldMatrix.zeros(2, 3, P).kernel_basis()
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
        assert m.mul_vec(v) == [0] * m.rows


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


def test_matmul_exact():
    a = FieldMatrix([[1, 2], [3, 4]], P)
    b = FieldMatrix([[5, 6], [7, 8]], P)
    assert a.matmul(b) == FieldMatrix([[19, 22], [43, 50]], P)


def test_matmul_no_overflow_near_modulus():
    big = P - 1
    a = FieldMatrix([[big] * 30], P)
    b = FieldMatrix([[big]] * 30, P)
    expected = 30 * (big * big % P) % P
    assert a.matmul(b)[0, 0] == expected


def test_field_element_arithmetic():
    x = FieldElement(5, 7)
    y = FieldElement(4, 7)
    assert (x + y).value == 2
    assert (x - y).value == 1
    assert (x * y).value == 6
    assert (x / y).value == 3  # 4 * 3 = 12 = 5 mod 7
    assert (-x).value == 2
    with pytest.raises(ZeroDivisionError):
        FieldElement(0, 7).inverse()


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
    assert [basis.row(i) for i in range(basis.rows)] == ref
    free = [c for c in range(cols) if c not in ref_pivots]
    for f, v in zip(free, kernel):
        # reduced form: 1 at its own free column, 0 at the others
        assert [v[c] for c in free] == [int(c == f) for c in free]
        assert all(sum(a * x for a, x in zip(row, v)) % p == 0 for row in arr)
    for w in left:
        assert all(sum(w[i] * arr[i][j] for i in range(rows)) % p == 0 for j in range(cols))

"""Polynomials on the line and the plane, the one multiplication map,
random series, and the sumset combinatorics of filling ratios.

A polynomial space is two integers, its variables and its degree.  Line
polynomials (variables = 1) are stored dehomogenized in one affine
coordinate u, so those of degree <= a have dimension a + 1.  Plane forms
(variables = 3) are dense coefficient vectors over the degree-d monomials
in x, y, z in graded-lex order.  A random series is the FieldMatrix of its
basis, one coefficient vector per row, over a prime field (see linalg); a
monomial series on the line is its sorted list of exponents.

The filling ratio of a monomial series E on a monomial subspace S is the
sumset ratio |S + E| / |S|; one exhaustive search minimizes it over all
S in {0..a-1}.  A translate of S has the same ratio, so the search covers
only the 2^(a-1) subsets that hold 0, building their images by doubling.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .linalg import FieldMatrix, RandomSource, GenericityError
from .primes import DEFAULT_PRIME, check_prime

# bound on the work 2^(a-1) * (n_words + 64) of one sumset search: n_words OR and popcount passes
# per mask, plus 64 for its size, card index and argmin.  It admits a <= 23 on one word and a <= 16
# on the widest series, each search near 1 s and 150 MB at most, and keeps the argmin's products,
# at most 64 * n_words * lcm(1..a), below 2.2 * 10^13, inside int64 (see CHANGES.md)
MAX_SUMSET_WORK = 400_000_000
# largest degree b - a of a searched series, i.e. exponent; keeps `filling` near 1 s (see CHANGES.md)
MAX_SERIES_DEGREE = 400_000


@lru_cache(maxsize=None)
def plane_monomials(degree: int) -> tuple[tuple[int, int], ...]:
    """(i, j) exponents of x^i y^j z^(d-i-j), graded-lex with x > y > z."""
    return tuple(
        (i, j) for i in range(degree, -1, -1) for j in range(degree - i, -1, -1)
    )


@lru_cache(maxsize=256)
def _product_index(variables: int, degree: int, in_degree: int) -> np.ndarray:
    """T[e, c]: the output monomial index of (monomial e of degree) times
    (monomial c of in_degree), in the degree + in_degree space.

    Monomial products are injective in c for fixed e, and in e for fixed c.
    """
    if variables == 1:
        table = np.add.outer(np.arange(degree + 1), np.arange(in_degree + 1))
    else:
        idx = {m: k for k, m in enumerate(plane_monomials(degree + in_degree))}
        table = np.array(
            [[idx[(i1 + i2, j1 + j2)] for i2, j2 in plane_monomials(in_degree)] for i1, j1 in plane_monomials(degree)],
            dtype=np.int64,
        ).reshape(len(plane_monomials(degree)), len(plane_monomials(in_degree)))
    table.flags.writeable = False
    return table


def multiplication_matrix(entries, variables: int, degree: int, in_degree: int, p: int) -> FieldMatrix:
    """Matrix of g -> M g, where M is a rows x cols matrix whose entries are
    coefficient vectors of polynomials of the given degree on the line
    (variables = 1) or the plane (variables = 3), a (rows, cols, dim)
    array-like, and g is a block vector of cols polynomials of degree
    <= in_degree; a single polynomial f is [[f]].

    Row i*out_dim + k is coefficient k of (M g)_i, column j*in_dim + c is
    coefficient c of g_j.  Coefficient e of entry (i, j) times monomial c
    lands at row i*out_dim + T[e, c] (see _product_index), so the map is
    one scatter and no two writes hit the same cell.
    """
    table = _product_index(variables, degree, in_degree)
    dim, in_dim = table.shape
    top = degree + in_degree + 1  # output dimension: top on the line, top(top+1)/2 on the plane
    out_dim = top if variables == 1 else top * (top + 1) // 2
    coeffs = np.asarray(entries, dtype=np.int64)
    rows, cols = coeffs.shape[:2]
    coeffs = coeffs.reshape(rows, cols, dim, 1)
    i, j, e, c = np.ix_(range(rows), range(cols), range(dim), range(in_dim))
    big = np.zeros((rows * out_dim, cols * in_dim), dtype=np.int64)
    big[i * out_dim + table[e, c], j * in_dim + c] = coeffs
    return FieldMatrix(big, p)


def monomial_values(degree: int, points, p: int) -> np.ndarray:
    """Values mod p of the degree-d plane monomials at points (x:y:z) of
    shape (..., 3), in the order of plane_monomials(d), from one table of
    coordinate powers: shape (..., dim), one vector for one point.  A
    form's value is its coefficient vector contracted with these."""
    pts = np.asarray(points, dtype=np.int64) % p
    powers = np.ones(pts.shape[:-1] + (degree + 1, 3), dtype=np.int64)
    for e in range(1, degree + 1):
        powers[..., e, :] = powers[..., e - 1, :] * pts % p
    i, j = np.array(plane_monomials(degree), dtype=np.int64).reshape(-1, 2).T
    return powers[..., i, 0] * powers[..., j, 1] % p * powers[..., degree - i - j, 2] % p


# ---------------------------------------------------------------------------
# sumset combinatorics


def _min_shift_ratio(a: int, shifts) -> tuple[Fraction, tuple[int, ...]]:
    """Minimum of |S + shifts| / |S| over nonempty S in {0..a-1}, by bitmask.

    Bit i of a mask stands for i in S, so the image S + shifts is the OR of
    pattern << i over i in S, where pattern has one bit per shift.  Only the
    2^(a-1) odd masks, the subsets that hold 0, are searched: moving S down
    by its least element keeps |S + shifts| and |S| and lowers the mask, so
    the minimum and the first mask at it (the witness) are odd.  Entry m is
    mask 2m + 1; images are built by doubling, one 64-bit word at a time:
    mask 1's is pattern, and that of 2m + 1 + 2^j (2m < 2^j) is the image
    of 2m + 1 ORed with pattern << j.  Each word is popcounted into the
    sizes.  With no shifts the minimum is 0 at S = {0}.  Work above
    MAX_SUMSET_WORK is refused before any image, or a huge 2^(a-1), is built.
    """
    bits = bytearray(max(shifts, default=0) // 8 + 1)
    for t in shifts:
        bits[t >> 3] |= 1 << (t & 7)
    pattern = int.from_bytes(bits, "little")  # linear in the shifts, unlike a sum of 1 << t
    n_words = (a + pattern.bit_length() + 62) // 64
    if n_words + 64 > MAX_SUMSET_WORK >> (a - 1):  # work > bound for whole n_words, with no 2**(a-1) built
        work = f"= {(n_words + 64) << (a - 1)}" if a <= MAX_SUMSET_WORK.bit_length() else f"> 2**{a - 1}"
        raise ValueError(f"a = {a} over {n_words} image words is a search of 2**(a-1) * (words + 64) {work},"
                         f" above the sumset work bound {MAX_SUMSET_WORK}")
    half = 1 << (a - 1)
    shifted = b"".join((pattern << j).to_bytes(8 * n_words, "little") for j in range(a))
    words = np.frombuffer(shifted, dtype="<u8").reshape(a, n_words)  # word k of pattern << j
    image = np.empty(half, dtype=np.uint64)
    size = np.zeros(half, dtype=np.int64)
    for k in range(n_words):
        image[0] = words[0, k]
        for j in range(1, a):
            np.bitwise_or(image[: 1 << (j - 1)], words[j, k], out=image[1 << (j - 1) : 1 << j])
        size += np.bitwise_count(image)
    # |image|/|S| times lcm(1..a) is an integer, so argmin finds the first least mask exactly
    per_card = math.lcm(*range(1, a + 1)) // np.arange(1, a + 1)
    best = int(np.argmin(size * per_card[np.bitwise_count(np.arange(half, dtype=np.uint64))]))
    best_mask = 2 * best + 1
    return Fraction(int(size[best]), best_mask.bit_count()), tuple(i for i in range(a) if best_mask >> i & 1)


def verify_lemma_ba2(a: int, b: int) -> tuple[Fraction, tuple[int, ...]]:
    """Exhaustive minimum of the sumset ratio over all nonempty subsets.

    For a < b <= 2a the three-monomial net monomial_series(a, b, 3) =
    {0, a mod (b-a), b-a} acts on a monomial subspace with exponent set S
    by S + net.  For 1 < b/a <= 2 the minimum is always >= b/a; callers
    assert that.  Returns (minimum, witness subset).
    """
    if not (0 < a < b <= 2 * a):
        raise ValueError("need 1 < b/a <= 2")
    return _min_shift_ratio(a, monomial_series(a, b, 3))


def monomial_series(a: int, b: int, n_dim: int) -> list[int]:
    """The sorted exponents of an explicit monomial series of degree b - a
    and dimension <= N whose products fill.

    Valid for 1 < b/a <= N-1.  Writing b - a = q*a + r with remainder in
    (0, a], the series is {1, u^a, ..., u^((q-1)a)} plus u^(qa) times the
    three-monomial net for the pair (a, a + r).
    """
    if a < 1 or not a < b or Fraction(b, a) > n_dim - 1:
        raise ValueError("need 1 < b/a <= N-1")
    d = b - a
    if d > MAX_SERIES_DEGREE:
        raise ValueError(f"b - a = {d} exceeds the series degree bound {MAX_SERIES_DEGREE}")
    q = (d - 1) // a
    r = d - q * a  # 0 < r <= a
    base = {0, a % r, r}
    exps = sorted({i * a for i in range(q)} | {q * a + e for e in base})
    if len(exps) > n_dim:
        raise AssertionError("constructed series exceeds the dimension bound")
    return exps


def random_series(ambient_dim: int, dim: int, rng: RandomSource, p: int = DEFAULT_PRIME) -> FieldMatrix:
    """The basis (dim x ambient_dim) of a uniformly random subspace of the
    given dimension; redraws it on the (measure ~ dim/p) event of rank
    deficiency."""
    if dim > ambient_dim or dim < 0:
        raise ValueError("series dimension exceeds the ambient space")
    check_prime(p)
    for attempt in range(100):
        draw = rng if attempt == 0 else rng.derive(attempt)
        basis = FieldMatrix(draw.integers((dim, ambient_dim), p), p)
        if basis.rank() == dim:
            return basis
    raise GenericityError("random series kept hitting rank-deficient draws")


def min_filling_monomial(exponents, a: int) -> tuple[Fraction, tuple[int, ...]]:
    """Exact minimum of the filling ratio of the monomial series with these
    exponents over all nonempty monomial subspaces of the degree a-1
    space, with the exponent-set witness.

    As the series is spanned by monomials, this is also the minimum over
    all subspaces (leading terms only improve the ratio).
    """
    if a < 1:
        raise ValueError("need a >= 1")
    if min(exponents, default=0) < 0:
        raise ValueError("exponents must be >= 0")
    if max(exponents, default=0) > MAX_SERIES_DEGREE:
        raise ValueError(f"exponent {max(exponents)} exceeds the series degree bound {MAX_SERIES_DEGREE}")
    return _min_shift_ratio(a, exponents)

"""Polynomial spaces on the line and the plane, the one multiplication map,
linear series, and the sumset combinatorics of their filling ratios.

Line polynomials are stored dehomogenized in one affine coordinate u, so
the space of degree <= a polynomials has dimension a + 1.  Plane forms
are dense coefficient vectors over the degree-d monomials in x, y, z in
graded-lex order.  All series live over a prime field; see linalg.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .linalg import DEFAULT_PRIME, FieldMatrix, RandomSource, GenericityError, random_matrix

# exhaustive-search bounds: subsets of {0..a-1} are enumerated, so these
# keep runs at seconds scale while covering every case of interest
MAX_EXHAUSTIVE_A = 14
MAX_MONOMIAL_A = 12
# masks per block of the vectorized sumset search
_SUMSET_BLOCK = 1 << 12


@dataclass(frozen=True)
class PolySpace:
    """The full space of polynomials of a given degree on P^1 or P^2.

    variables is 1 (affine coordinate u) or 3 (plane forms in x, y, z).
    """

    variables: int
    degree: int

    def __post_init__(self):
        if self.variables not in (1, 3):
            raise ValueError("variables must be 1 (line) or 3 (plane)")
        if self.degree < -1:
            raise ValueError("degree must be >= -1")

    @property
    def dim(self) -> int:
        if self.degree < 0:
            return 0
        if self.variables == 1:
            return self.degree + 1
        return (self.degree + 1) * (self.degree + 2) // 2


def line_space(degree: int) -> PolySpace:
    return PolySpace(1, degree)


def plane_space(degree: int) -> PolySpace:
    return PolySpace(3, degree)


@lru_cache(maxsize=None)
def plane_monomials(degree: int) -> tuple[tuple[int, int], ...]:
    """(i, j) exponents of x^i y^j z^(d-i-j), graded-lex with x > y > z."""
    return tuple(
        (i, j) for i in range(degree, -1, -1) for j in range(degree - i, -1, -1)
    )


@lru_cache(maxsize=None)
def plane_monomial_index(degree: int) -> dict[tuple[int, int], int]:
    return {m: k for k, m in enumerate(plane_monomials(degree))}


@lru_cache(maxsize=256)
def _product_index(variables: int, degree: int, in_degree: int) -> np.ndarray:
    """T[e, c]: the output monomial index of (monomial e of degree) times
    (monomial c of in_degree), in the degree + in_degree space.

    Monomial products are injective in c for fixed e, and in e for fixed c.
    """
    if variables == 1:
        table = np.add.outer(np.arange(degree + 1), np.arange(in_degree + 1))
    else:
        idx = plane_monomial_index(degree + in_degree)
        table = np.array(
            [[idx[(i1 + i2, j1 + j2)] for i2, j2 in plane_monomials(in_degree)] for i1, j1 in plane_monomials(degree)],
            dtype=np.int64,
        ).reshape(len(plane_monomials(degree)), len(plane_monomials(in_degree)))
    table.flags.writeable = False
    return table


def multiplication_matrix(entries, entry_space: PolySpace, in_degree: int, p: int, cols: int | None = None) -> FieldMatrix:
    """Matrix of g -> M g, where M is a rows x cols matrix whose entries are
    coefficient vectors in entry_space and g is a block vector of cols
    polynomials of degree <= in_degree; a single polynomial f is [[f]].

    Row i*out_dim + k is coefficient k of (M g)_i, column j*in_dim + c is
    coefficient c of g_j.  Coefficient e of entry (i, j) times monomial c
    lands at row i*out_dim + T[e, c] (see _product_index), so the map is
    one scatter and no two writes hit the same cell.  cols must be passed
    when entries may have zero rows.
    """
    rows = len(entries)
    if cols is None:
        cols = len(entries[0]) if rows else 0
    in_dim = PolySpace(entry_space.variables, in_degree).dim
    out_dim = PolySpace(entry_space.variables, entry_space.degree + in_degree).dim
    coeffs = np.asarray(entries, dtype=np.int64).reshape(rows, cols, entry_space.dim, 1)
    table = _product_index(entry_space.variables, entry_space.degree, in_degree)
    i, j, e, c = np.ix_(range(rows), range(cols), range(entry_space.dim), range(in_dim))
    big = np.zeros((rows * out_dim, cols * in_dim), dtype=np.int64)
    big[i * out_dim + table[e, c], j * in_dim + c] = coeffs
    return FieldMatrix(big, p, rows=rows * out_dim, cols=cols * in_dim)


def monomial_values(degree: int, point: tuple[int, int, int], p: int) -> np.ndarray:
    """Values mod p of the degree-d plane monomials at (x:y:z), in the
    order of plane_monomials(d); a form's value is its coefficient vector
    contracted with these."""
    x, y, z = point
    d = degree
    xs = [1] * (d + 1)
    ys = [1] * (d + 1)
    zs = [1] * (d + 1)
    for e in range(1, d + 1):
        xs[e] = xs[e - 1] * x % p
        ys[e] = ys[e - 1] * y % p
        zs[e] = zs[e - 1] * z % p
    vals = [xs[i] * ys[j] % p * zs[d - i - j] % p for i, j in plane_monomials(d)]
    return np.array(vals, dtype=np.int64)


class LinearSeries:
    """A subspace of a polynomial space, given by an independent basis."""

    def __init__(self, ambient: PolySpace, basis: FieldMatrix):
        if basis.cols != ambient.dim:
            raise ValueError("basis vector length must match the ambient dimension")
        if basis.rank() != basis.rows:
            raise ValueError("basis vectors must be linearly independent")
        self.ambient = ambient
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.rows

    @classmethod
    def monomial_span(cls, ambient: PolySpace, exponents, p: int = DEFAULT_PRIME) -> "LinearSeries":
        """Line series spanned by the monomials u^e for e in exponents."""
        if ambient.variables != 1:
            raise ValueError("monomial spans are supported on the line")
        exps = sorted(set(exponents))
        if exps and (exps[0] < 0 or exps[-1] > ambient.degree):
            raise ValueError("exponent outside the ambient degree range")
        mat = np.zeros((len(exps), ambient.dim), dtype=np.int64)
        for r, e in enumerate(exps):
            mat[r, e] = 1
        return cls(ambient, FieldMatrix(mat, p))

    def monomial_exponents(self) -> list[int]:
        """Exponent set when every basis vector is a single monomial."""
        exps = []
        for i in range(self.dim):
            row = self.basis.array[i]
            nz = np.nonzero(row)[0]
            if nz.size != 1:
                raise ValueError("series is not spanned by monomials")
            exps.append(int(nz[0]))
        return sorted(exps)

    def __repr__(self):
        return f"LinearSeries(dim={self.dim} in {self.ambient})"


# ---------------------------------------------------------------------------
# sumset combinatorics


@dataclass(frozen=True)
class SumsetInstance:
    """Sumset form of a filling-ratio question for a monomial net.

    For a < b <= 2a the net {1, u^c, u^(b-a)} with c = a mod (b-a) acts on
    a monomial subspace with exponent set S by S + {0, c, b-a}.
    """

    a: int
    b: int

    def __post_init__(self):
        if not (0 < self.a < self.b <= 2 * self.a):
            raise ValueError("need a < b <= 2a")

    @property
    def c(self) -> int:
        return self.a % (self.b - self.a)

    @property
    def shifts(self) -> tuple[int, ...]:
        return tuple(sorted({0, self.c, self.b - self.a}))


def _min_shift_ratio(a: int, shifts) -> tuple[Fraction, tuple[int, ...]]:
    """Minimum of |S + shifts| / |S| over nonempty S in {0..a-1}, by bitmask.

    Bit i of a mask stands for i in S.  The masks 1 .. 2^a - 1 are scanned
    in increasing order, in blocks of _SUMSET_BLOCK = 2^12 masks, so the
    buffers (allocated once) do not grow with a.  In each block the image
    S + shifts is ORed into as many 64-bit words as a + max(shifts) bits
    need and popcounted; the block minimum is the least min(|image|)/c over
    the cardinalities c present.  The witness is the first mask, in
    increasing order, that reaches the overall minimum.  With no shifts
    every image is empty, so the minimum is 0 at S = {0}.
    """
    shifts = sorted(set(shifts))
    n_masks = (1 << a) - 1
    size = min(_SUMSET_BLOCK, n_masks)
    n_words = (a + shifts[-1] + 63) // 64 if shifts else 0
    offsets = np.arange(size, dtype=np.uint64)
    masks = np.empty(size, dtype=np.uint64)
    word = np.empty(size, dtype=np.uint64)
    part = np.empty(size, dtype=np.uint64)
    card = np.empty(size, dtype=np.int64)
    image = np.empty(size, dtype=np.int64)
    bits = np.empty(size, dtype=np.int64)
    none = np.iinfo(np.int64).max
    least = np.empty(a + 1, dtype=np.int64)  # min |image| per |S| in a block
    best: Fraction | None = None
    best_mask = 0
    for lo in range(1, n_masks + 1, _SUMSET_BLOCK):
        n = min(size, n_masks + 1 - lo)
        m, w, tmp, cnt, img, bc = masks[:n], word[:n], part[:n], card[:n], image[:n], bits[:n]
        np.add(offsets[:n], np.uint64(lo), out=m)
        np.bitwise_count(m, out=cnt)
        img.fill(0)
        for k in range(n_words):
            w.fill(0)
            for t in shifts:
                d = t - 64 * k
                if 0 <= d < 64:
                    np.left_shift(m, np.uint64(d), out=tmp)
                elif -a < d < 0:
                    np.right_shift(m, np.uint64(-d), out=tmp)
                else:
                    continue
                np.bitwise_or(w, tmp, out=w)
            np.bitwise_count(w, out=bc)
            np.add(img, bc, out=img)
        least.fill(none)
        np.minimum.at(least, cnt, img)
        q = min(Fraction(v, c) for c, v in enumerate(least.tolist()) if c and v != none)
        if best is None or q < best:
            # first mask of the block at q, by an exact integer test
            np.multiply(img, q.denominator, out=img)
            np.multiply(cnt, q.numerator, out=cnt)
            best = q
            best_mask = lo + int(np.argmax(img == cnt))
    witness = tuple(i for i in range(a) if best_mask >> i & 1)
    return best, witness


def verify_lemma_ba2(a: int, b: int, max_a: int = MAX_EXHAUSTIVE_A) -> tuple[Fraction, tuple[int, ...]]:
    """Exhaustive minimum of the sumset ratio over all nonempty subsets.

    For 1 < b/a <= 2 the minimum is always >= b/a; callers assert that.
    Returns (minimum, witness subset).
    """
    if not (0 < a < b <= 2 * a):
        raise ValueError("need 1 < b/a <= 2")
    if a > max_a:
        raise ValueError(f"a = {a} exceeds the exhaustive bound {max_a}")
    inst = SumsetInstance(a, b)
    return _min_shift_ratio(a, inst.shifts)


def monomial_series(a: int, b: int, n_dim: int, p: int = DEFAULT_PRIME) -> LinearSeries:
    """An explicit monomial series of dimension <= N whose products fill.

    Valid for 1 < b/a <= N-1.  Writing b - a = q*a + r with remainder in
    (0, a], the series is {1, u^a, ..., u^((q-1)a)} plus u^(qa) times the
    three-monomial net for the pair (a, a + r).
    """
    if a < 1 or not a < b or Fraction(b, a) > n_dim - 1:
        raise ValueError("need 1 < b/a <= N-1")
    d = b - a
    q = (d - 1) // a
    r = d - q * a  # 0 < r <= a
    base = {0, a % r, r}
    exps = {i * a for i in range(q)} | {q * a + e for e in base}
    series = LinearSeries.monomial_span(line_space(d), exps, p)
    if series.dim > n_dim:
        raise AssertionError("constructed series exceeds the dimension bound")
    return series


def random_series(ambient: PolySpace, dim: int, rng: RandomSource, p: int = DEFAULT_PRIME) -> LinearSeries:
    """A uniformly random subspace of the given dimension; redraws the
    basis matrix on the (measure ~ dim/p) event of rank deficiency."""
    if dim > ambient.dim or dim < 0:
        raise ValueError("series dimension exceeds the ambient space")
    for attempt in range(100):
        mat = random_matrix(dim, ambient.dim, rng if attempt == 0 else rng.derive(attempt), p)
        if mat.rank() == dim:
            return LinearSeries(ambient, mat)
    raise GenericityError("random series kept hitting rank-deficient draws")


def min_filling_monomial(v: LinearSeries, a: int, max_a: int = MAX_MONOMIAL_A) -> tuple[Fraction, tuple[int, ...]]:
    """Exact minimum of the filling ratio of v over all nonempty monomial
    subspaces of the degree a-1 space, with the exponent-set witness.

    Only valid as a global minimum over all subspaces when v itself is
    spanned by monomials (leading terms only improve the ratio).
    """
    if a > max_a:
        raise ValueError(f"a = {a} exceeds the exhaustive bound {max_a}")
    if a < 1:
        raise ValueError("need a >= 1")
    exps = v.monomial_exponents()
    return _min_shift_ratio(a, exps)


"""Bundle presentations by matrices of forms: isomorphism tests for
multiplication maps, splitting types of restrictions to rational curves,
decomposition arithmetic for unstable presentations, and interpolation
tests for plane bundles.

A presentation here is the data (N, s, r, k): the cokernel on projective
N-space of a general k(s+r) x ks matrix of linear forms.  Restricting to
a general rational curve of degree r turns the matrix into one with
entries in an (N+1)-dimensional series of degree-r line polynomials, and
every question below becomes an exact rank computation over F_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .linalg import (
    DEFAULT_PRIME,
    FieldMatrix,
    GenericityError,
    RandomSource,
)
from .series import (
    LinearSeries,
    PolySpace,
    line_space,
    multiplication_matrix,
    plane_monomials,
    plane_space,
    random_element,
    random_series,
)
from .slopes import compare_slope_limit, fibonacci_table

MAX_MAP_DIM = 20000  # guard on the square multiplication-map size
POINT_RETRIES = 3  # re-draws per trial on degenerate specializations


@dataclass(frozen=True)
class SteinerSpec:
    """Presentation data: cokernel of a general k(s+r) x ks matrix of
    linear forms on projective N-space; slope is s/r."""

    n_dim: int
    s: int
    r: int
    k: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n_dim < 2:
            raise ValueError("ambient dimension must be >= 2")
        if self.s < 0 or self.r < 1 or self.k < 1:
            raise ValueError("need s >= 0, r >= 1, k >= 1")
        if self.s != 0 and self.k * self.r < self.n_dim:
            raise ValueError("local freeness needs s = 0 or k*r >= N")

    @property
    def slope(self) -> Fraction:
        return Fraction(self.s, self.r)

    @property
    def rank(self) -> int:
        return self.k * self.r

    @property
    def c1(self) -> int:
        return self.k * self.s * self.r


@dataclass(frozen=True)
class SplittingType:
    """Non-increasing degrees of the line-bundle summands of a restriction."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if any(a < 0 for a in self.parts):
            raise ValueError("parts must be nonnegative")
        if any(self.parts[i] < self.parts[i + 1] for i in range(len(self.parts) - 1)):
            raise ValueError("parts must be non-increasing")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def is_balanced(self) -> bool:
        return len(set(self.parts)) <= 1


@dataclass(frozen=True)
class Decomposition:
    """Multiplicities of two consecutive exceptional bundles whose direct
    sum matches the rank and first Chern class of a presentation."""

    n: int
    k1: int
    k2: int


def _series_matrix(rows: int, cols: int, v: LinearSeries, rng: RandomSource) -> list[list[list[int]]]:
    """rows x cols matrix of random elements of the series, drawn row-major."""
    return [[random_element(v, rng) for _ in range(cols)] for _ in range(rows)]


def _block_multiplication_map(
    entries: list[list[list[int]]], entry_space: PolySpace, in_degree: int, p: int,
    cols: int | None = None,
) -> FieldMatrix:
    """Matrix of g -> M g where M has polynomial entries and g is a block
    vector of degree <= in_degree coefficient vectors.

    cols must be passed when entries may have zero rows.
    """
    rows = len(entries)
    if cols is None:
        cols = len(entries[0]) if rows else 0
    in_dim = PolySpace(entry_space.variables, in_degree).dim
    out_dim = PolySpace(entry_space.variables, entry_space.degree + in_degree).dim
    big = np.zeros((rows * out_dim, cols * in_dim), dtype=np.int64)
    if entry_space.variables == 1:
        # coefficient e of entry (i, j) times u^c lands at row i*out_dim + c + e,
        # column j*in_dim + c: one scatter over (i, j, e, c)
        coeffs = np.array(entries, dtype=np.int64).reshape(rows, cols, entry_space.dim, 1)
        i, j, e, c = np.ix_(range(rows), range(cols), range(entry_space.dim), range(in_dim))
        big[i * out_dim + c + e, j * in_dim + c] = coeffs
        return FieldMatrix(big, p, rows=rows * out_dim, cols=cols * in_dim)
    for i in range(rows):
        for j in range(cols):
            block = multiplication_matrix(entry_space, entries[i][j], in_degree, p)
            big[i * out_dim : (i + 1) * out_dim, j * in_dim : (j + 1) * in_dim] = block
    return FieldMatrix(big, p, rows=rows * out_dim, cols=cols * in_dim)


def matrix_iso_test(
    series_dim: int, a: int, b: int, k: int, rng: RandomSource, p: int = DEFAULT_PRIME
) -> bool:
    """Whether a random ak x bk matrix over a random series of dimension
    series_dim in degree b-a multiplies the block space of degree a-1
    polynomials isomorphically onto the degree b-1 block space.

    Both sides have dimension a*b*k, so this is one exact rank check.
    """
    if a < 1 or b <= a:
        raise ValueError("need 1 <= a < b")
    if a * b * k > MAX_MAP_DIM:
        raise ValueError("map dimension exceeds the desk-scale guard")
    space = line_space(b - a)
    # a series of more than b - a + 1 coordinates spans everything, so the
    # entries are then simply arbitrary polynomials of degree b - a
    v = random_series(space, min(series_dim, space.dim), rng, p)
    entries = _series_matrix(a * k, b * k, v, rng)
    big = _block_multiplication_map(entries, v.ambient, a - 1, p)
    return big.rank() == a * b * k


def _restriction_data(spec: SteinerSpec, p: int) -> tuple[LinearSeries, list[list[list[int]]]]:
    """The degree-r series defining the rational curve and the transposed
    presentation matrix (shape ks x k(s+r)) restricted to it.

    The draw order (series, then entries row-major in the transposed
    shape) matches matrix_iso_test(N+1, s, s+r, k) exactly, so the two
    entry points agree seed for seed.
    """
    rng = RandomSource(spec.seed)
    space = line_space(spec.r)
    v = random_series(space, min(spec.n_dim + 1, space.dim), rng, p)
    entries = _series_matrix(spec.k * spec.s, spec.k * (spec.s + spec.r), v, rng)
    return v, entries


def pullback_splitting(spec: SteinerSpec, p: int = DEFAULT_PRIME) -> SplittingType:
    """Splitting type of the restriction to a general rational curve of
    degree r, recovered from section counts of twisted duals.

    With h(t) the kernel dimension of the twist-t multiplication map, the
    number of summands of degree t is the second difference
    h(t) - 2h(t-1) + h(t-2); negative values signal an arithmetic bug.

    h never decreases in t and vanishes exactly below the smallest part.
    If h(s-1) = 0 every part is >= s, and kr parts summing to c1 = krs
    are then all s.  Otherwise a binary search finds the last t < s with
    h(t) = 0, and the sweep starts right after it.
    """
    kr = spec.rank
    if spec.s == 0:
        return SplittingType((0,) * kr)
    v, entries = _restriction_data(spec, p)
    counts: dict[int, int] = {}

    def h(t: int) -> int:
        if t not in counts:
            big = _block_multiplication_map(entries, v.ambient, t, p)
            counts[t] = big.cols - big.rank()
        return counts[t]

    if h(spec.s - 1) == 0:
        return SplittingType((spec.s,) * kr)
    lo, hi = -1, spec.s - 1  # h(lo) = 0 < h(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if h(mid) == 0:
            lo = mid
        else:
            hi = mid
    h_prev2 = h_prev1 = 0
    parts: list[int] = []
    for t in range(hi, spec.c1 + 1):
        h_t = h(t)
        mult = h_t - 2 * h_prev1 + h_prev2
        if mult < 0:
            raise ArithmeticError(f"negative multiplicity {mult} at twist {t}")
        parts.extend([t] * mult)
        if len(parts) > kr:
            raise ArithmeticError("recovered more summands than the rank")
        if len(parts) == kr:
            if sum(parts) != spec.c1:
                raise ArithmeticError("splitting degrees do not sum to c1")
            return SplittingType(tuple(sorted(parts, reverse=True)))
        h_prev2, h_prev1 = h_prev1, h_t
    raise ArithmeticError("splitting type not recovered within the twist range")


def balanced_test(spec: SteinerSpec, p: int = DEFAULT_PRIME) -> bool:
    """Whether the restriction to a general degree-r rational curve is
    balanced, via a single injectivity check at twist s-1.

    Equivalent to pullback_splitting(spec) having all parts equal to s,
    and, seed for seed, to matrix_iso_test(N+1, s, s+r, k).
    """
    if spec.s == 0:
        return True
    return matrix_iso_test(
        spec.n_dim + 1, spec.s, spec.s + spec.r, spec.k, RandomSource(spec.seed), p
    )


def predicted_decomposition(n_dim: int, s: int, r: int, k: int = 1) -> Decomposition:
    """For slope below the exceptional limit, the unique multiplicities
    (k1, k2) of consecutive ladder bundles matching rank kr and c1 ks."""
    slope = Fraction(s, r)
    if compare_slope_limit(n_dim, slope) >= 0:
        raise ValueError("slope must lie below the exceptional limit")
    table = fibonacci_table(n_dim, 2)
    n = 0
    while True:
        top = table.top_index
        while n + 1 > top:
            table = fibonacci_table(n_dim, top + 2)
            top = table.top_index
        if table.slope(n) <= slope < table.slope(n + 1):
            break
        n += 1
        if n > 64:
            raise RuntimeError("window search exceeded the iteration cap")
    r1, c1 = table.rank(n), table.c1(n)
    r2, c2 = table.rank(n + 1), table.c1(n + 1)
    det = r1 * c2 - r2 * c1
    num1 = k * r * c2 - r2 * k * s
    num2 = r1 * k * s - k * r * c1
    if num1 % det or num2 % det:
        raise ArithmeticError("non-integral multiplicities: window mislocated")
    k1, k2 = num1 // det, num2 // det
    if k1 < 0 or k2 < 0:
        raise ArithmeticError("negative multiplicities: window mislocated")
    return Decomposition(n, k1, k2)


# ---------------------------------------------------------------------------
# interpolation on the plane


def _triangular(r: int) -> int:
    return r * (r + 1) // 2


def _plane_dim(d: int) -> int:
    return plane_space(d).dim if d >= 0 else 0


def _random_linear_matrix(rows: int, cols: int, rng: RandomSource, p: int) -> list[list[list[int]]]:
    return [[rng.integers(3, p) for _ in range(cols)] for _ in range(rows)]


def _random_points(n: int, rng: RandomSource, p: int) -> list[tuple[int, int, int]]:
    """n distinct plane points with affine coordinates uniform in F_p."""
    points: list[tuple[int, int, int]] = []
    seen = set()
    attempts = 0
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


def _evaluate_linear(entry: list[int], point: tuple[int, int, int], p: int) -> int:
    x, y, z = point
    return (entry[0] * x + entry[1] * y + entry[2] * z) % p


def _monomial_values(degree: int, point: tuple[int, int, int], p: int) -> np.ndarray:
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


def _cokernel_trial(r: int, s: int, k: int, rng: RandomSource, p: int) -> bool:
    n = _triangular(r) + s
    height = k * (s + r)
    width = k * s
    dim_out = _plane_dim(r - 1)
    dim_in = _plane_dim(r - 2)
    entries = _random_linear_matrix(height, width, rng, p)

    # section count of the presented bundle must be exactly (rank) * n,
    # i.e. the syzygy multiplication map must be injective on sections
    if width:
        syz = _block_multiplication_map(entries, plane_space(1), r - 2, p)
        if syz.rank() != width * dim_in:
            raise GenericityError("degenerate draw: syzygies not independent")
    if height * dim_out - width * dim_in != k * r * n:
        raise ArithmeticError("section count does not match rank * points")

    points = _random_points(n, rng, p)
    cond_rows = []
    for pt in points:
        fiber = FieldMatrix(
            [[_evaluate_linear(entries[i][j], pt, p) for j in range(width)] for i in range(height)],
            p,
            rows=height,
            cols=width,
        )
        if width and fiber.rank() != width:
            raise GenericityError("degenerate draw: fiber map dropped rank at a point")
        mono = _monomial_values(r - 1, pt, p)
        for q in fiber.left_kernel_basis():
            cond_rows.append(np.kron(np.array(q, dtype=np.int64), mono) % p)
    conditions = FieldMatrix(np.array(cond_rows, dtype=np.int64), p, rows=len(cond_rows), cols=height * dim_out)
    fixed_sections = conditions.cols - conditions.rank()
    return fixed_sections == width * dim_in


def _kernel_trial(r: int, s: int, k: int, rng: RandomSource, p: int) -> bool:
    n = _triangular(r) + s
    width = k * (2 * r - s + 3)
    height = k * (r - s + 1)
    entries = _random_linear_matrix(height, width, rng, p)
    big = _block_multiplication_map(entries, plane_space(1), r, p, cols=width)
    kernel = big.kernel_basis()
    h0 = len(kernel)
    if h0 != k * (r + 2) * n:
        return False
    points = _random_points(n, rng, p)
    for pt in points:
        fiber = FieldMatrix(
            [[_evaluate_linear(entries[i][j], pt, p) for j in range(width)] for i in range(height)],
            p,
            rows=height,
            cols=width,
        )
        if fiber.rank() != height:
            raise GenericityError("degenerate draw: fiber map dropped rank at a point")
    dim_r = _plane_dim(r)
    kernel_arr = np.array(kernel, dtype=np.int64).reshape(h0, width, dim_r)
    value_rows = []
    for pt in points:
        mono = _monomial_values(r, pt, p)
        # values of every coordinate form of every kernel section at pt
        vals = np.zeros((h0, width), dtype=np.int64)
        for m_idx in range(dim_r):
            vals = (vals + kernel_arr[:, :, m_idx] * int(mono[m_idx])) % p
        value_rows.append(vals.T)  # width rows, h0 columns
    conditions = FieldMatrix(np.vstack(value_rows), p, rows=n * width, cols=h0)
    return h0 - conditions.rank() == 0


def _with_retries(trial, rng: RandomSource) -> bool:
    last: GenericityError | None = None
    for attempt in range(POINT_RETRIES + 1):
        try:
            return trial(rng if attempt == 0 else rng.derive(1000 + attempt))
        except GenericityError as exc:
            last = exc
    raise GenericityError(f"trial failed after {POINT_RETRIES} re-draws: {last}")


def interpolation_test_cokernel(
    r: int, s: int, k: int, rng: RandomSource, p: int = DEFAULT_PRIME
) -> bool:
    """Whether a random cokernel presentation (twisted into degree r-1
    forms) has no sections vanishing at n = r(r+1)/2 + s random points
    beyond the forced syzygy sections.

    A point's conditions are membership of the section's value vector in
    the column span of the presentation matrix at that point.  Degenerate
    specializations are re-drawn a bounded number of times.
    """
    if r < 2:
        raise ValueError("need r >= 2")
    if s < 0 or k < 1:
        raise ValueError("need s >= 0, k >= 1")
    return _with_retries(lambda g: _cokernel_trial(r, s, k, g, p), rng)


def interpolation_test_kernel(
    r: int, s: int, k: int, rng: RandomSource, p: int = DEFAULT_PRIME
) -> bool:
    """Kernel-presentation interpolation: the degree-r syzygy sections of
    a random matrix of linear forms, required to vanish at all n points.

    True when the section count is exactly k(r+2)n and no nonzero section
    vanishes on the whole point set.
    """
    if r < 1 or s < 1 or k < 1:
        raise ValueError("need r >= 1, s >= 1, k >= 1")
    if s > r + 1:
        raise ValueError("presentation needs s <= r + 1")
    return _with_retries(lambda g: _kernel_trial(r, s, k, g, p), rng)

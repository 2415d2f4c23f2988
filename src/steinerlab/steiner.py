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
    mulmod_sub,
    stacked_left_kernels,
)
from .series import (
    LinearSeries,
    line_space,
    monomial_values,
    multiplication_matrix,
    plane_space,
    random_series,
)
from .slopes import compare_slope_limit

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


def _draw_series_matrix(
    series_dim: int, a: int, b: int, k: int, rng: RandomSource, p: int
) -> tuple[LinearSeries, np.ndarray]:
    """A random series of dimension series_dim in degree b-a, capped at the
    full space, then an ak x bk matrix of its elements drawn row-major: an
    (ak, bk, b-a+1) array of coefficient vectors.

    The coefficients of all entries are one draw, in the order of one
    draw of v.dim basis coefficients per entry.  The iso and restriction
    engines both draw through here, so pullback_splitting and
    balanced_test on SteinerSpec(N, s, r, k, seed) see the matrix of
    matrix_iso_test(N+1, s, s+r, k, RandomSource(seed)).
    """
    space = line_space(b - a)
    # a series of more than b - a + 1 coordinates spans everything, so the
    # entries are then simply arbitrary polynomials of degree b - a
    v = random_series(space, min(series_dim, space.dim), rng, p)
    coeffs = np.array(rng.integers(a * k * b * k * v.dim, p), dtype=np.int64).reshape(a * k, b * k, v.dim, 1)
    # each product is reduced before the sum over the basis, so no term of
    # (p-1)^2 can wrap int64
    return v, (coeffs * v.basis.array % p).sum(axis=2) % p


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
    v, entries = _draw_series_matrix(series_dim, a, b, k, rng, p)
    return multiplication_matrix(entries, v.ambient, a - 1, p).rank() == a * b * k


def _restriction_data(spec: SteinerSpec, p: int) -> tuple[LinearSeries, np.ndarray]:
    """The degree-r series defining the rational curve and the transposed
    presentation matrix (shape ks x k(s+r)) restricted to it: the draw of
    matrix_iso_test(N+1, s, s+r, k) at RandomSource(seed)."""
    return _draw_series_matrix(spec.n_dim + 1, spec.s, spec.s + spec.r, spec.k, RandomSource(spec.seed), p)


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
            big = multiplication_matrix(entries, v.ambient, t, p)
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
    if n_dim < 2:
        raise ValueError("ambient dimension must be >= 2")
    # Rung n of the ladder a_(n+1) = (N+1)a_n - a_(n-1), a_(-1) = 0, a_0 = 1,
    # has rank a_n - a_(n-1) and c1 a_(n-1); the rungs rise from slope 0 to
    # the limit, so the first n whose next rung exceeds the slope (by
    # cross-multiplication) is the window.
    num, den = slope.as_integer_ratio()
    n, prev, cur = 0, 0, 1  # a_(n-1), a_n
    while True:
        nxt = (n_dim + 1) * cur - prev
        if num * (nxt - cur) < cur * den:
            break
        n, prev, cur = n + 1, cur, nxt
    # Cramer's rule on the two rungs; their determinant a_n^2 - a_(n+1)a_(n-1)
    # is invariant under the recurrence, so it is 1 on every rung
    k1 = k * (r * cur - (nxt - cur) * s)
    k2 = k * ((cur - prev) * s - r * prev)
    if k1 < 0 or k2 < 0:
        raise ArithmeticError("negative multiplicities: window mislocated")
    return Decomposition(n, k1, k2)


# ---------------------------------------------------------------------------
# interpolation on the plane


def _triangular(r: int) -> int:
    return r * (r + 1) // 2


def _plane_dim(d: int) -> int:
    return plane_space(d).dim if d >= 0 else 0


def _random_linear_matrix(rows: int, cols: int, rng: RandomSource, p: int) -> np.ndarray:
    """rows x cols x 3 coefficients of linear forms, drawn row-major."""
    return np.array(rng.integers(rows * cols * 3, p), dtype=np.int64).reshape(rows, cols, 3)


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


def _fibers(entries: np.ndarray, points: list[tuple[int, int, int]], p: int) -> np.ndarray:
    """The matrix of linear forms evaluated at every point: an
    (n, rows, cols) stack.  Each product is reduced before the sum over
    the three coordinates, so no term of (p-1)^2 can wrap int64."""
    vals = np.array([monomial_values(1, pt, p) for pt in points], dtype=np.int64)
    return (entries[None] * vals[:, None, None, :] % p).sum(-1) % p


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
        syz = multiplication_matrix(entries, plane_space(1), r - 2, p)
        if syz.rank() != width * dim_in:
            raise GenericityError("degenerate draw: syzygies not independent")
    if height * dim_out - width * dim_in != k * r * n:
        raise ArithmeticError("section count does not match rank * points")

    points = _random_points(n, rng, p)
    kernels = stacked_left_kernels(_fibers(entries, points, p), p)
    mono = np.array([monomial_values(r - 1, pt, p) for pt in points], dtype=np.int64)
    # row (point, q) is kron(q, mono(point)): q . (section value at the point)
    cond = (kernels[..., None] * mono[:, None, None, :] % p).reshape(-1, height * dim_out)
    conditions = FieldMatrix(cond, p, rows=cond.shape[0], cols=height * dim_out)
    fixed_sections = conditions.cols - conditions.rank()
    return fixed_sections == width * dim_in


def _kernel_trial(r: int, s: int, k: int, rng: RandomSource, p: int) -> bool:
    n = _triangular(r) + s
    width = k * (2 * r - s + 3)
    height = k * (r - s + 1)
    dim_r = _plane_dim(r)
    entries = _random_linear_matrix(height, width, rng, p)
    mult = multiplication_matrix(entries, plane_space(1), r, p, cols=width)
    # mult.cols - mult.rows = k(r+2)n, so h0 has that value iff mult is onto
    if mult.rank() != mult.rows:
        return False
    points = _random_points(n, rng, p)
    stacked_left_kernels(_fibers(entries, points, p).transpose(0, 2, 1), p)  # each fiber has rank height
    # a section vanishes at every point iff each coordinate form lies in
    # ker V, V the n x dim_r matrix of monomial values; so test that mult
    # is injective on (ker V)^width
    values = np.array([monomial_values(r, pt, p) for pt in points], dtype=np.int64)
    basis = np.array(FieldMatrix(values, p).kernel_basis(), dtype=np.int64).reshape(-1, dim_r).T
    blocks = mult.array.reshape(-1, dim_r)  # row (i, width block j), column c
    restricted = np.zeros((blocks.shape[0], basis.shape[1]), dtype=np.int64)
    mulmod_sub(restricted, blocks, (-basis) % p, p)  # 0 - blocks @ (-basis) = blocks @ basis
    cols = width * basis.shape[1]
    return FieldMatrix(restricted.reshape(mult.rows, cols), p, rows=mult.rows, cols=cols).rank() == cols


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
    the column span of the presentation matrix at that point: one row
    kron(q, monomial values) per vector q of the fiber's left kernel.  The
    left kernels of all n fibers come from one batched elimination, and
    the conditions are one rank.  Degenerate specializations (a dependent
    syzygy, a fiber of low rank, coincident points) are re-drawn a bounded
    number of times.
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
    vanishes on the whole point set.  The count is k(r+2)n exactly when the
    multiplication map is onto, one forward rank.  A section vanishes at
    every point exactly when each of its coordinate forms lies in ker V,
    V the matrix of degree-r monomial values at the points, so the second
    condition is one injectivity check: the map restricted to (ker V)^width.
    Degenerate specializations (a fiber of low rank, coincident points) are
    re-drawn a bounded number of times.
    """
    if r < 1 or s < 1 or k < 1:
        raise ValueError("need r >= 1, s >= 1, k >= 1")
    if s > r + 1:
        raise ValueError("presentation needs s <= r + 1")
    return _with_retries(lambda g: _kernel_trial(r, s, k, g, p), rng)

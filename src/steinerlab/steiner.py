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
from itertools import pairwise

import numpy as np

from .linalg import FieldMatrix, GenericityError, RandomSource, mulmod_sub, stacked_left_kernels
from .primes import DEFAULT_PRIME
from .series import _product_index, monomial_values, multiplication_matrix, random_series
from .slopes import _limit_sign, _rungs

MAX_MAP_DIM = 20000  # guard: at most as many cells as this square
POINT_RETRIES = 3  # re-draws per trial on degenerate specializations


@dataclass(frozen=True)
class SteinerSpec:
    """Presentation data: cokernel of a general k(s+r) x ks matrix of
    linear forms on projective N-space, of slope s/r."""

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

    def is_balanced(self) -> bool:
        return len(set(self.parts)) <= 1


@dataclass(frozen=True)
class Decomposition:
    """Multiplicities of two consecutive exceptional bundles whose direct
    sum matches the rank and first Chern class of a presentation."""

    n: int
    k1: int
    k2: int


def _draw_series_matrix(series_dim: int, a: int, b: int, k: int, rng: RandomSource, p: int) -> np.ndarray:
    """A random series of dimension series_dim in degree b-a, capped at the
    full space, then an ak x bk matrix of its elements drawn row-major: an
    (ak, bk, b-a+1) array of coefficient vectors of line polynomials of
    degree <= b-a.

    The coefficients of all entries are one draw, in the order of one
    draw of the series' basis coefficients per entry.  The iso and
    restriction engines both draw through here, so balanced_test on
    SteinerSpec(N, s, r, k, seed) sees the map of
    matrix_iso_test(N+1, s, s+r, k, RandomSource(seed)), and so does the
    first round of pullback_splitting.
    """
    width = b - a + 1
    # a series of more than b - a + 1 coordinates spans everything, so the
    # entries are then simply arbitrary polynomials of degree b - a
    basis = random_series(width, min(series_dim, width), rng, p).array
    coeffs = rng.integers((a * k, b * k, len(basis)), p)
    entries = np.zeros((a * k * b * k, width), dtype=np.int64)
    mulmod_sub(entries, coeffs.reshape(a * k * b * k, len(basis)), -basis % p, p)
    return entries.reshape(a * k, b * k, width)


def _check_map_shape(rows: int, cols: int) -> None:
    """The desk-scale guard, before any draw: the full multiplication map has at most MAX_MAP_DIM**2 cells."""
    if rows * cols > MAX_MAP_DIM**2:
        raise ValueError("map dimension exceeds the desk-scale guard")


def _schur_map(entries: np.ndarray, twist: int, p: int) -> tuple[FieldMatrix, int]:
    """g -> M g on blocks g of degree <= T = twist, M the (R, C, D+1) entries,
    as T+1 column blocks of a width w, the leading t+1 being the twist-t map:
    h(t) is (t+1) w minus their pivots.  g is fixed by its values at u_m = m,
    m <= T, in ker M(u_m) = row span of K_m; M g (degree T+D) is zero once it
    also vanishes at v_i = p-1-i, i < D.  Scaling out the Lagrange weights
    alpha_i beta_m / (v_i - u_m) keeps the column rank profile: blocks
    M(v_i) K_m^T / (u_m - v_i), (D R) x ((T+1)(C-R)), w = C-R (Gasca, Sauer).
    Below T+D+1 points, or at a fiber of rank < R, the full map by degree, w = C."""
    rows, cols, deg = entries.shape[0], entries.shape[1], entries.shape[2] - 1
    if p > twist + deg:
        points = np.r_[: twist + 1, p - 1 : p - 1 - deg : -1]
        vander = np.ones((deg + 1, len(points)), dtype=np.int64)
        for e in range(deg):
            vander[e + 1] = vander[e] * points % p
        values = np.zeros((rows, cols, len(points)), dtype=np.int64)
        mulmod_sub(values.reshape(rows * cols, -1), entries.reshape(rows * cols, -1), vander, p)  # -M at every point
        try:
            kernels = stacked_left_kernels(values[:, :, : twist + 1].transpose(2, 1, 0), p)  # (T+1, C-R, C)
        except GenericityError:  # a fiber M(u_m) of rank below R
            pass
        else:
            schur = np.zeros((deg, rows, twist + 1, cols - rows), dtype=np.int64)
            at_v = values[:, :, twist + 1 :].transpose(2, 0, 1).reshape(deg * rows, cols)
            mulmod_sub(schur.reshape(deg * rows, -1), at_v, kernels.transpose(2, 0, 1).reshape(cols, -1), p)
            inverses = np.array([pow(x, -1, p) for x in range(1, twist + deg + 1)], dtype=np.int64)
            weights = inverses[np.add.outer(np.arange(deg), np.arange(twist + 1))]  # 1/(u_m - v_i) = 1/(i+m+1)
            return FieldMatrix((schur * weights[:, None, :, None] % p).reshape(deg * rows, -1), p), cols - rows
    big = multiplication_matrix(entries, 1, deg, twist, p).array
    return FieldMatrix(big.reshape(-1, cols, twist + 1).transpose(0, 2, 1).reshape(big.shape), p), cols


def matrix_iso_test(
    series_dim: int, a: int, b: int, k: int, rng: RandomSource, p: int = DEFAULT_PRIME
) -> bool:
    """Whether a random ak x bk matrix over a random series of dimension
    series_dim in degree b-a multiplies the block space of degree a-1
    polynomials isomorphically onto the degree b-1 block space.

    Both sides have dimension abk, so _schur_map's a(b-a)k square decides.
    """
    if a < 1 or b <= a:
        raise ValueError("need 1 <= a < b")
    if k < 1 or series_dim < 1:
        raise ValueError("need k >= 1 and series_dim >= 1")
    _check_map_shape(a * b * k, a * b * k)
    schur, _ = _schur_map(_draw_series_matrix(series_dim, a, b, k, rng, p), a - 1, p)
    return schur.rank() == schur.cols


def pullback_splitting(spec: SteinerSpec, p: int = DEFAULT_PRIME) -> SplittingType:
    """Splitting type of the restriction to a general rational curve of
    degree r, from section counts of twisted duals: with h(t) the kernel
    dimension of the twist-t multiplication map, h(t) - 2h(t-1) + h(t-2)
    parts have degree t (a negative count signals an arithmetic bug).

    Each round eliminates the twist-T map of _schur_map once; its column
    blocks nest in the twist, so its pivots give h(t) for all t <= T.  The m
    parts above T sum to c1 minus those found, so each is at most
    bound = c1 - found - (T+1)(m-1): all are T+1 when bound = T+1 (balanced;
    in round one T = s-1), and otherwise the next round has T = min(bound, 2T+1).
    """
    kr, width = spec.rank, spec.k * (spec.s + spec.r)
    if spec.s == 0:
        return SplittingType((0,) * kr)
    twist = spec.s - 1
    _check_map_shape(width * spec.s, width * spec.s)
    # the transposed presentation matrix (ks x k(s+r)) restricted to the
    # curve's degree-r series, drawn at seed
    entries = _draw_series_matrix(spec.n_dim + 1, spec.s, spec.s + spec.r, spec.k, RandomSource(spec.seed), p)
    while True:
        schur, block = _schur_map(entries, twist, p)
        degrees = np.array(schur.pivots(), dtype=np.int64) // block
        h = block * np.arange(1, twist + 2) - np.bincount(degrees, minlength=twist + 1).cumsum()
        parts: list[int] = []
        for t, mult in enumerate(np.diff(h, 2, prepend=[0, 0]).tolist()):
            if mult < 0:
                raise ArithmeticError(f"negative multiplicity {mult} at twist {t}")
            parts.extend([t] * mult)
            if len(parts) > kr:
                raise ArithmeticError("recovered more summands than the rank")
            if len(parts) == kr:
                break
        else:
            missing = kr - len(parts)
            bound = spec.c1 - sum(parts) - (twist + 1) * (missing - 1)
            if bound > twist + 1:
                twist = min(bound, 2 * twist + 1)
                _check_map_shape(spec.k * spec.s * (twist + spec.r + 1), width * (twist + 1))
                continue
            parts.extend([twist + 1] * missing)  # a bound below T+1 overshoots c1 here
        if sum(parts) != spec.c1:
            raise ArithmeticError("splitting degrees do not sum to c1")
        return SplittingType(tuple(sorted(parts, reverse=True)))


def balanced_test(spec: SteinerSpec, p: int = DEFAULT_PRIME) -> bool:
    """Whether the restriction to a general degree-r rational curve is
    balanced, via a single injectivity check at twist s-1 (_schur_map).

    Equivalent to pullback_splitting(spec) having all parts equal to s,
    and, seed for seed, to matrix_iso_test(N+1, s, s+r, k), whose map is
    the first round's map of pullback_splitting.
    """
    return spec.s == 0 or matrix_iso_test(spec.n_dim + 1, spec.s, spec.s + spec.r, spec.k, RandomSource(spec.seed), p)


def predicted_decomposition(n_dim: int, s: int, r: int, k: int = 1) -> Decomposition:
    """For slope below the exceptional limit, the unique multiplicities
    (k1, k2) of consecutive ladder bundles matching rank kr and c1 ks."""
    if s < 0 or r < 1:
        raise ValueError("need s >= 0 and r >= 1")
    if _limit_sign(n_dim, s, r) > 0:
        raise ValueError("slope must lie below the exceptional limit")
    if n_dim < 2:
        raise ValueError("ambient dimension must be >= 2")
    # the rungs rise from slope 0 to the limit, so the first n whose next
    # rung exceeds s/r (by cross-multiplication) is the window
    for n, ((prev, cur), (_, nxt)) in enumerate(pairwise(_rungs(n_dim))):
        if s * (nxt - cur) < cur * r:
            break
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


def _random_points(n: int, rng: RandomSource, p: int) -> np.ndarray:
    """n distinct points (x, y, 1), x and y uniform in F_p, as an (n, 3) array;
    each attempt draws one pair, and attempt 20n + 101 raises."""
    limit = 20 * n + 100
    seen: dict[tuple[int, int], None] = {}  # insertion-ordered set
    attempts = 0
    while len(seen) < n:
        pair = rng.below(p), rng.below(p)
        attempts += 1
        if attempts > limit:
            raise GenericityError("could not draw distinct points")
        seen[pair] = None
    return np.array([(x, y, 1) for x, y in seen], dtype=np.int64).reshape(n, 3)


def _fibers(entries: np.ndarray, points: np.ndarray, p: int) -> np.ndarray:
    """The matrix of linear forms evaluated at every point: an
    (n, rows, cols) stack."""
    rows, cols = entries.shape[:2]
    fibers = np.zeros((len(points), rows * cols), dtype=np.int64)
    mulmod_sub(fibers, monomial_values(1, points, p), -entries.reshape(-1, 3).T % p, p)
    return fibers.reshape(len(points), rows, cols)


def _cokernel_trial(r: int, s: int, k: int, rng: RandomSource, p: int) -> bool:
    n = _triangular(r) + s
    height = k * (s + r)
    width = k * s
    dim_out = _triangular(r)
    entries = rng.integers((height, width, 3), p)  # coefficients of linear forms
    try:
        points = _random_points(n, rng, p)
        fibers = _fibers(entries, points, p)
        kernels = stacked_left_kernels(fibers, p)
    except GenericityError:
        # only names the failure: a syzygy M y = 0 drops every fiber's rank
        syz = multiplication_matrix(entries, 3, 1, r - 2, p)
        if syz.rank() != syz.cols:
            raise GenericityError("degenerate draw: syzygies not independent") from None
        raise
    values = FieldMatrix(monomial_values(r - 1, points, p).T, p)
    lam = -values.kernel_basis() % p  # lambda_ji = -v_j[b_i]
    basis = values.pivots()
    if len(basis) < dim_out:
        return False  # a degree r-1 curve through every point
    rows, cols = s * k * r, dim_out * width
    schur = np.zeros((rows, cols), dtype=np.int64)  # rows (free j, kernel row), columns (basis i, slot)
    basis_fibers = fibers[basis].transpose(1, 0, 2).reshape(height, cols)
    mulmod_sub(schur, np.delete(kernels, basis, axis=0).reshape(rows, height), -basis_fibers % p, p)  # Q_j F_i
    schur = schur.reshape(s, k * r, dim_out, width) * lam[:, None, basis, None] % p
    return FieldMatrix(schur.reshape(rows, cols), p).rank() == rows


def _kernel_trial(r: int, s: int, k: int, rng: RandomSource, p: int) -> bool:
    n = _triangular(r) + s
    width = k * (2 * r - s + 3)
    height = k * (r - s + 1)
    entries = rng.integers((height, width, 3), p)  # coefficients of linear forms
    try:
        points = _random_points(n, rng, p)
        stacked_left_kernels(_fibers(entries, points, p).transpose(0, 2, 1), p)  # each fiber has rank height
    except GenericityError:
        mult = multiplication_matrix(entries, 3, 1, r, p)
        if mult.rank() != mult.rows:
            return False  # more than k(r+2)n sections, whatever the points
        raise
    restricted = _restricted_kernel_map(entries, points, r, p)
    return restricted.rank() == restricted.cols


def _restricted_kernel_map(entries: np.ndarray, points: np.ndarray, r: int, p: int) -> FieldMatrix:
    """M on (ker V)^width, on the coordinates of interpolation_test_kernel:
    rho in (ax + by + cz) f has a f[rho/x] + b f[rho/y] + c f[rho/z]."""
    values = FieldMatrix(monomial_values(r, points, p), p)
    basis = values.kernel_basis()
    table = _product_index(3, 1, r)  # T[e, c]: the index of e times monomial c, e = x, y, z
    shifted = np.zeros((3, _triangular(r + 2), len(basis)), dtype=np.int64)  # [e, rho]: f[rho / e], or 0
    shifted[np.arange(3)[:, None], table] = basis.T
    # in graded-lex order x^a y^(r+1-a) is monomial _triangular(r+1-a)
    coords = [_triangular(t) for t in range(r + 2)] + table[2, np.delete(np.arange(values.cols), values.pivots())].tolist()
    gathered = shifted[:, coords].transpose(1, 2, 0)  # (coordinate, form, e)
    height, width = entries.shape[:2]
    restricted = np.zeros((height * width, len(coords) * len(basis)), dtype=np.int64)
    mulmod_sub(restricted, entries.reshape(-1, 3), -gathered.reshape(-1, 3).T % p, p)
    restricted = restricted.reshape(height, width, len(coords), len(basis)).transpose(0, 2, 1, 3)
    return FieldMatrix(restricted.reshape(height * len(coords), width * len(basis)), p)


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

    At a point P the section's value must lie in the span of the fiber F:
    Q x(P) = 0 for the kr rows Q of F's left kernel, all n in one batched
    elimination.  The pivots of V^T (V the monomial values) are basis points
    b_i, each other point j gets Lagrange coefficients lambda_ji, and the
    basis conditions leave x(b_i) = F_i c_i; so the test holds exactly when
    the Schur block [lambda_ji Q_j F_i], (s kr) x (dim(r-1) ks), has full row
    rank (Gasca and Sauer, "Polynomial interpolation in several variables").
    A singular V gives a degree r-1 curve f through all points and unforced
    vanishing sections v f: False, with no re-draw.  A syzygy M y = 0 drops
    every fiber's column rank, so the fiber check proves the syzygies
    independent; their rank runs only after a degenerate draw (a low-rank
    fiber, coincident points), to name it.  Such draws are re-drawn.
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
    vanishes on the whole point set.  A section vanishes at every point
    exactly when each of its coordinate forms lies in ker V, V the matrix
    of degree-r monomial values at the points, so the second condition is
    one injectivity check: the map restricted to (ker V)^width.  It implies
    the first: the count is at least cols - rows = k(r+2)n, and evaluation
    embeds the sections in the fiber kernels, of total dimension k(r+2)n
    once every fiber has full rank.  The onto rank of the whole map runs
    only after a degenerate draw (a fiber of low rank, coincident points):
    False if it fails, else a re-draw, a bounded number of times.  So a map
    that is not onto still draws its points and moves rng past them.

    Each entry of M f, f in (ker V)^width, vanishes at the points, so the
    rank is read on coordinates injective on such forms: x^a y^(r+1-a) and
    z m, m a free (non-pivot) column of V.  As every z = 1, such a form
    without x^a y^(r+1-a) terms is z h, h in ker V, and h is zero on the
    free columns, so h = 0.  That height (r+2+|free|) x width |free|
    matrix is square when V has rank n; the whole map is not built.
    """
    if r < 1 or s < 1 or k < 1:
        raise ValueError("need r >= 1, s >= 1, k >= 1")
    if s > r + 1:
        raise ValueError("presentation needs s <= r + 1")
    return _with_retries(lambda g: _kernel_trial(r, s, k, g, p), rng)

"""Exact linear algebra over a prime field, plus seeded randomness.

All public results are exact integers; matrices are dense with entries
reduced into [0, p).  The default modulus is a Mersenne prime near 2**31,
large enough that a random specialization of a Zariski-open condition
fails with probability on the order of degree/p.  Entries are kept below
2**31 so that numpy int64 products never overflow during elimination.

Matrix products mod p (mulmod_sub) run as float64 GEMMs, with float64
used only as a carrier of integers: one factor is split into 16-bit
limbs and the inner dimension into chunks of _PANEL, so every partial
sum is an integer below _PANEL * 2**31 * 2**16 = 2**52 < 2**53 and is
exact in any summation order.  The results are the same integers on
every BLAS and thread count.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

DEFAULT_PRIME = 2147483647  # 2**31 - 1
MAX_PRIME = 2147483647

# default number of independent trials used by genericity sweeps:
# an open ("general choice") claim is accepted if it holds for >= 1 of
# DEFAULT_TRIALS seeds; a closed ("never holds") claim must fail on all.
DEFAULT_TRIALS = 5

# Columns per elimination panel, and the inner chunk of mulmod_sub: a sum
# of _PANEL products of an entry below 2**31 and a 16-bit limb stays below
# 2**52, inside the 2**53 range where float64 holds every integer.
_PANEL = 32
# Rows per product strip, so no float64 temporary exceeds _STRIP x cols.
_STRIP = 64


class GenericityError(RuntimeError):
    """Raised when repeated random draws keep hitting a degenerate locus."""


@lru_cache(maxsize=64, typed=True)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10**24.

    Cached: every FieldMatrix checks its modulus, and a run uses few."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"modulus {p!r} is not prime")
    if p > MAX_PRIME:
        raise ValueError(f"modulus {p} exceeds the int64-safe bound {MAX_PRIME}")
    return p


class RandomSource:
    """Deterministic random stream; identical seeds give identical output.

    Streams for parallel or retried trials are derived from
    (base seed, index path) so every draw is reproducible from the base
    seed alone.  Internally this is the stdlib Mersenne Twister seeded by
    a stable string key.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(i) for i in path)
        key = ":".join(["steinerlab", str(self.seed), *map(str, self.path)])
        self._rng = random.Random(key)

    def derive(self, index: int) -> "RandomSource":
        """Independent child stream; used for retries and parallel tasks."""
        return RandomSource(self.seed, self.path + (int(index),))

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return self._rng.randrange(n)

    def integers(self, count: int, n: int) -> list[int]:
        rng = self._rng
        return [rng.randrange(n) for _ in range(count)]

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, path={self.path})"


class FieldMatrix:
    """Dense matrix over F_p with exact elimination.

    Immutable once constructed.  rank() is a forward-only blocked
    elimination mod p; kernel_basis(), left_kernel_basis() and
    row_space_basis() run the same forward elimination and then
    back-substitute over the pivot rows to the reduced row echelon form.
    Entries stay int64; float64 appears only inside mulmod_sub, as an exact
    carrier of integers below 2**53.  A stack of many small matrices goes
    through stacked_left_kernels() instead, in one pass.
    """

    __slots__ = ("rows", "cols", "p", "_data", "_rank")

    def __init__(self, data, p: int = DEFAULT_PRIME, *, rows: int | None = None, cols: int | None = None):
        self.p = check_prime(p)
        arr = np.array(data, dtype=np.int64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1) if arr.size else arr.reshape(0, 0)
        if arr.size == 0:
            r = rows if rows is not None else arr.shape[0]
            c = cols if cols is not None else (arr.shape[1] if arr.ndim == 2 else 0)
            arr = np.zeros((r, c), dtype=np.int64)
        arr = np.mod(arr, self.p)
        arr.flags.writeable = False
        self._data = arr
        self.rows, self.cols = arr.shape
        self._rank = None

    @property
    def array(self) -> np.ndarray:
        """Read-only int64 view of the entries."""
        return self._data

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self._data.T, self.p)

    def _forward(self) -> tuple[np.ndarray, list[int]]:
        """Forward elimination on a copy: row echelon form and pivot columns.

        Right-looking and blocked (Dumas, Giorgi and Pernet, "FFLAS and
        FFPACK", 2008).  Within a panel of _PANEL columns each pivot is the
        first nonzero entry at or below the current row; the pivot row is
        scaled so the pivot is 1 and the rows below are cleared, on the
        panel's columns only.  Whole rows are swapped, so each row keeps
        its multipliers (its stale entries in the pivot columns).  The
        panel's pivot rows are then solved against their unit lower
        triangle over the trailing columns, and the rows below get the
        trailing update A22 -= L21 U12 as one mulmod_sub.

        The pivots (the column rank profile) and the echelon rows from
        each pivot on are those of the unblocked elimination.  Entries left
        of each row's pivot are stale, and rows past the rank are
        meaningless; readers take row k from its pivot column on.
        """
        a = self._data.copy()
        p = self.p
        pivots: list[int] = []
        r = 0
        for start in range(0, self.cols, _PANEL):
            if r == self.rows:
                break
            stop = min(start + _PANEL, self.cols)
            top = r
            for c in range(start, stop):
                if r == self.rows:
                    break
                nz = np.flatnonzero(a[r:, c])
                if nz.size == 0:
                    continue
                i = r + int(nz[0])
                if i != r:
                    a[[r, i]] = a[[i, r]]
                tail = a[r, c + 1 : stop] * pow(int(a[r, c]), -1, p) % p
                a[r, c + 1 : stop] = tail
                below = r + 1 + np.flatnonzero(a[r + 1 :, c])
                if below.size:
                    a[below, c + 1 : stop] = (a[below, c + 1 : stop] - a[below, c, None] * tail) % p
                pivots.append(c)
                r += 1
            if r == top or stop == self.cols:
                continue
            panel = pivots[top - r :]
            u = a[top:r, stop:]
            for t, c in enumerate(panel):
                u[t] = u[t] * pow(int(a[top + t, c]), -1, p) % p
                u[t + 1 :] = (u[t + 1 :] - a[top + t + 1 : r, c, None] * u[t]) % p
            if r < self.rows:
                mulmod_sub(a[r:, stop:], a[r:, panel], u, p)
        self._rank = len(pivots)
        return a, pivots

    def _rref(self) -> tuple[np.ndarray, list[int]]:
        """Reduced basis of the row space (rank x cols) and the pivot
        columns: forward elimination, then back-substitution over the
        pivot rows from the last one up."""
        a, pivots = self._forward()
        p = self.p
        k = len(pivots)
        red = a[:k]
        piv = np.array(pivots, dtype=np.int64)
        red[np.arange(self.cols)[None, :] < piv[:, None]] = 0
        red[np.arange(k), piv] = 1
        for j in range(k - 1, 0, -1):
            c = pivots[j]
            hit = np.flatnonzero(red[:j, c])
            if hit.size:
                red[hit, c:] = (red[hit, c:] - red[hit, c, None] * red[j, c:]) % p
        return red, pivots

    def rank(self) -> int:
        if self._rank is None:
            self._forward()
        return self._rank

    def row_space_basis(self) -> "FieldMatrix":
        """Matrix whose rows are the reduced basis of the row space."""
        red, pivots = self._rref()
        return FieldMatrix(red, self.p, rows=len(pivots), cols=self.cols)

    def kernel_basis(self) -> list[list[int]]:
        """Basis of the right kernel, one vector per non-pivot column.

        The vector for free column f has a 1 in position f, so the basis
        is in the standard reduced form and len(result) = cols - rank.
        """
        red, pivots = self._rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [0] * self.cols
            v[f] = 1
            for r, c in enumerate(pivots):
                v[c] = (-int(red[r, f])) % self.p
            basis.append(v)
        return basis

    def left_kernel_basis(self) -> list[list[int]]:
        return self.transpose().kernel_basis()

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.p == other.p
            and self._data.shape == other._data.shape
            and bool(np.array_equal(self._data, other._data))
        )

    def __repr__(self):
        return f"FieldMatrix({self.rows}x{self.cols} mod {self.p})"


def mulmod_sub(c: np.ndarray, a: np.ndarray, b: np.ndarray, p: int) -> None:
    """c <- (c - a @ b) mod p in place, for int64 arrays with entries in
    [0, p) and p <= MAX_PRIME.

    The only limb-split product: b is split into 16-bit limbs and the inner
    dimension into chunks of _PANEL, so each chunk is two float64 GEMMs
    (low and high limb) whose sums are exact integers below 2**52, and c is
    updated in strips of _STRIP rows.
    """
    inner = min(a.shape[1], _PANEL)
    assert p <= MAX_PRIME and inner * (p - 1) * 0xFFFF < 2**53, "limb GEMM would not be exact"
    for j in range(0, a.shape[1], _PANEL):
        left = a[:, j : j + _PANEL].astype(np.float64)
        lo = (b[j : j + _PANEL] & 0xFFFF).astype(np.float64)
        hi = (b[j : j + _PANEL] >> 16).astype(np.float64)
        for i in range(0, c.shape[0], _STRIP):
            rows = left[i : i + _STRIP]
            prod = (((rows @ hi).astype(np.int64) % p) << 16) + (rows @ lo).astype(np.int64)
            c[i : i + _STRIP] = (c[i : i + _STRIP] - prod) % p


def stacked_left_kernels(stack: np.ndarray, p: int) -> np.ndarray:
    """Left kernel bases of a stack of n fibers (n, h, w) with entries in
    [0, p), each required to have rank w: an (n, h - w, h) stack.  A fiber
    of lower rank is a degenerate draw and raises GenericityError.

    The batched counterpart of left_kernel_basis: one forward elimination
    of [F | I_h] over the whole stack, with a row pivot per fiber for each
    of the w columns (its first nonzero entry on or below the diagonal).
    Lower rows are cleared fraction-free, as a_cc * row_i - a_ic * row_c,
    which keeps the identity block invertible; its rows w..h then span
    each fiber's left kernel.  The fiber bases differ from those of
    left_kernel_basis, but span the same spaces.
    """
    n, h, w = stack.shape
    a = np.concatenate([stack, np.broadcast_to(np.eye(h, dtype=np.int64), (n, h, h))], axis=2)
    at = np.arange(n)
    for c in range(w):
        nz = a[:, c:, c] != 0
        if not nz.any(axis=1).all():
            raise GenericityError("degenerate draw: fiber map dropped rank at a point")
        i = c + nz.argmax(axis=1)
        a[at, c], a[at, i] = a[at, i], a[at, c]
        piv, lower = a[:, c, c, None, None], a[:, c + 1 :, c, None]
        a[:, c + 1 :, c:] = (piv * a[:, c + 1 :, c:] - lower * a[:, c, None, c:]) % p
    return a[:, w:, w:]


def random_matrix(rows: int, cols: int, rng: RandomSource, p: int = DEFAULT_PRIME) -> FieldMatrix:
    """Matrix with independent uniform entries; deterministic in the seed."""
    check_prime(p)
    flat = rng.integers(rows * cols, p)
    arr = np.array(flat, dtype=np.int64).reshape(rows, cols)
    return FieldMatrix(arr, p)


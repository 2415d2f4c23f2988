"""Exact linear algebra over a prime field, plus seeded randomness.

All public results are exact integers; matrices are dense with entries
reduced into [0, p).  The default modulus is a Mersenne prime near 2**31,
large enough that a random specialization of a Zariski-open condition
fails with probability on the order of degree/p.  Entries are kept below
2**31 so that numpy int64 products never overflow during elimination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

DEFAULT_PRIME = 2147483647  # 2**31 - 1
MAX_PRIME = 2147483647

# default number of independent trials used by genericity sweeps:
# an open ("general choice") claim is accepted if it holds for >= 1 of
# DEFAULT_TRIALS seeds; a closed ("never holds") claim must fail on all.
DEFAULT_TRIALS = 5


class GenericityError(RuntimeError):
    """Raised when repeated random draws keep hitting a degenerate locus."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10**24."""
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


@dataclass(frozen=True)
class FieldElement:
    """An element of F_p, stored reduced into [0, p)."""

    value: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.p)

    def _check(self, other: "FieldElement") -> None:
        if self.p != other.p:
            raise ValueError("mixed moduli")

    def __add__(self, other):
        self._check(other)
        return FieldElement(self.value + other.value, self.p)

    def __sub__(self, other):
        self._check(other)
        return FieldElement(self.value - other.value, self.p)

    def __mul__(self, other):
        self._check(other)
        return FieldElement(self.value * other.value, self.p)

    def inverse(self) -> "FieldElement":
        if self.value == 0:
            raise ZeroDivisionError("0 is not invertible")
        return FieldElement(pow(self.value, -1, self.p), self.p)

    def __truediv__(self, other):
        return self * other.inverse()

    def __neg__(self):
        return FieldElement(-self.value, self.p)

    def __bool__(self):
        return self.value != 0


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

    Immutable once constructed.  rank() is a forward-only elimination
    mod p on the trailing submatrix; kernel_basis(), left_kernel_basis()
    and row_space_basis() run the same forward elimination and then
    back-substitute over the pivot rows to the reduced row echelon form.
    No floating point is involved anywhere.
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

    @classmethod
    def zeros(cls, rows: int, cols: int, p: int = DEFAULT_PRIME) -> "FieldMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @classmethod
    def identity(cls, n: int, p: int = DEFAULT_PRIME) -> "FieldMatrix":
        return cls(np.eye(n, dtype=np.int64), p)

    @property
    def array(self) -> np.ndarray:
        """Read-only int64 view of the entries."""
        return self._data

    def entry(self, i: int, j: int) -> FieldElement:
        return FieldElement(int(self._data[i, j]), self.p)

    def __getitem__(self, idx):
        return int(self._data[idx])

    def row(self, i: int) -> list[int]:
        return [int(v) for v in self._data[i]]

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self._data.T, self.p)

    def stack(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.p != other.p or self.cols != other.cols:
            raise ValueError("shape or modulus mismatch")
        return FieldMatrix(np.vstack([self._data, other._data]), self.p)

    def matmul(self, other: "FieldMatrix") -> "FieldMatrix":
        """Exact product; accumulates one rank-1 term at a time to stay in int64."""
        if self.p != other.p or self.cols != other.rows:
            raise ValueError("shape or modulus mismatch")
        out = np.zeros((self.rows, other.cols), dtype=np.int64)
        for k in range(self.cols):
            out = (out + self._data[:, k, None] * other._data[k, None, :]) % self.p
        return FieldMatrix(out, self.p)

    def mul_vec(self, v) -> list[int]:
        vec = np.mod(np.array(v, dtype=np.int64), self.p)
        if vec.shape != (self.cols,):
            raise ValueError("vector length mismatch")
        out = np.zeros(self.rows, dtype=np.int64)
        for k in range(self.cols):
            out = (out + self._data[:, k] * vec[k]) % self.p
        return [int(x) for x in out]

    def _forward(self) -> tuple[np.ndarray, list[int]]:
        """Forward elimination on a copy: row echelon form and pivot columns.

        Each step works on the trailing submatrix only: the pivot row's
        tail is scaled so the pivot is 1, and only the rows below it that
        are nonzero in the pivot column are updated.  Entries left of each
        row's pivot are stale (never cleared), and rows past the rank are
        meaningless; readers take row k from its pivot column on.
        """
        a = self._data.copy()
        p = self.p
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            if r == self.rows:
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


def random_matrix(rows: int, cols: int, rng: RandomSource, p: int = DEFAULT_PRIME) -> FieldMatrix:
    """Matrix with independent uniform entries; deterministic in the seed."""
    check_prime(p)
    flat = rng.integers(rows * cols, p)
    arr = np.array(flat, dtype=np.int64).reshape(rows, cols)
    return FieldMatrix(arr, p)


def random_invertible(n: int, rng: RandomSource, p: int = DEFAULT_PRIME, attempts: int = 100) -> FieldMatrix:
    for k in range(attempts):
        m = random_matrix(n, n, rng if k == 0 else rng.derive(k), p)
        if m.rank() == n:
            return m
    raise GenericityError(f"no invertible {n}x{n} matrix in {attempts} draws")

"""Exact linear algebra over a prime field, plus seeded randomness.

All public results are exact integers; matrices are dense with entries
reduced into [0, p).  Arrays cross this module's boundary in one format,
int64 ndarrays: RandomSource.integers draws into one of a given shape,
FieldMatrix takes any 2-D integer array-like, and a kernel basis comes
back with one row per basis vector, so an empty one keeps its width.

The default modulus is a Mersenne prime near 2**31, large enough that a
random specialization of a Zariski-open condition fails with probability
on the order of degree/p.  Entries are kept below 2**31 so that numpy
int64 products never overflow during elimination.
The modulus defaults, its bound and its primality check live in the
numpy-free module primes; every FieldMatrix checks its modulus with
primes.check_prime on construction.

Matrix products mod p (mulmod_sub) run as float64 GEMMs, with float64
used only as a carrier of integers: one factor is split into 16-bit
limbs and the inner dimension into chunks of _PANEL, so every partial
sum is an integer below _PANEL * 2**31 * 2**16 = 2**52 < 2**53 and is
exact in any summation order.  The results are the same integers on
every BLAS and thread count.
"""

from __future__ import annotations

import random

import numpy as np

from .primes import DEFAULT_PRIME, MAX_PRIME, check_prime

# Columns per elimination panel, and the inner chunk of mulmod_sub: a sum
# of _PANEL products of an entry below 2**31 and a 16-bit limb stays below
# 2**52, inside the 2**53 range where float64 holds every integer.
_PANEL = 32
# Rows per product strip, so no float64 temporary exceeds _STRIP x cols.
_STRIP = 64


class GenericityError(RuntimeError):
    """Raised when repeated random draws keep hitting a degenerate locus."""


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

    def integers(self, shape, n: int) -> np.ndarray:
        """An int64 array of the given shape holding, row-major, the values
        and leaving the end state of as many calls of below(n), drawn in
        bulk: each call takes 32-bit words until the top n.bit_length() bits
        of one are below n."""
        out = np.empty(shape, dtype=np.int64)
        if out.size and n < 1:
            self._rng.randrange(n)  # randrange's ValueError
        assert n < 2**32, "a draw below n takes more than one 32-bit word"
        flat, kept = out.reshape(-1), 0
        while kept < out.size:
            need = out.size - kept
            bits = self._rng.getrandbits(32 * need).to_bytes(4 * need, "little")
            words = np.frombuffer(bits, dtype="<u4") >> (32 - n.bit_length())
            words = words[words < n]
            flat[kept : kept + words.size] = words
            kept += words.size
        return out

    def __repr__(self):
        return f"RandomSource(seed={self.seed}, path={self.path})"


class FieldMatrix:
    """Dense matrix over F_p with exact elimination: a read-only int64
    copy of a 2-D array-like, reduced mod p.  A dtype that does not cast
    safely to int64 (float, object, uint64) raises TypeError.

    Immutable once constructed.  rank() and pivots() (the column rank
    profile) share one forward-only blocked elimination mod p, which
    eliminates each panel on a transposed copy and skips its dead columns;
    kernel_basis(), left_kernel_basis() and row_space_basis() run the
    same forward elimination and then back-substitute over the pivot rows
    to the reduced row echelon form.  Entries stay int64; float64 appears
    only inside mulmod_sub, as an exact carrier of integers below 2**53.
    A stack of many small matrices goes through stacked_left_kernels()
    instead, in one pass.
    """

    __slots__ = ("rows", "cols", "p", "_data", "_rank", "_pivots")

    def __init__(self, data, p: int = DEFAULT_PRIME):
        self.p = check_prime(p)
        arr = np.asarray(data)
        if not np.can_cast(arr.dtype, np.int64):
            raise TypeError(f"FieldMatrix entries must be integers within int64, not {arr.dtype}")
        arr = np.mod(arr.astype(np.int64, copy=False), self.p)
        arr.flags.writeable = False
        self._data = arr
        self.rows, self.cols = arr.shape
        self._rank = self._pivots = None

    @property
    def array(self) -> np.ndarray:
        """Read-only int64 view of the entries."""
        return self._data

    def _forward(self) -> tuple[np.ndarray, list[int]]:
        """Forward elimination on a copy: row echelon form and pivot columns.

        Right-looking and blocked (Dumas, Giorgi and Pernet, "FFLAS and
        FFPACK", 2008).  Within a panel of _PANEL columns each pivot is the
        first nonzero entry at or below the current row; the pivot row is
        scaled so the pivot is 1 and the rows below are cleared, on the
        panel's columns only, on a transposed copy of the panel from its top
        row down that skips columns zero there (row operations keep them
        zero).  A swap exchanges two rows there and in the trailing columns,
        so each row keeps its multipliers (its stale entries in the pivot
        columns).  The panel's pivot rows are then solved against their unit
        lower triangle over the trailing columns, and the rows below get the
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
            live = start + np.flatnonzero(a[top:, start:stop].any(axis=0))
            block = a[top:].T[live]  # a contiguous copy; row q is live column q from row top down
            inverses = []  # of the panel's pivots, for the U12 solve
            for q, c in enumerate(live.tolist()):
                if r == self.rows:
                    break
                j = r - top
                nz = block[q, j:].nonzero()[0]
                if nz.size == 0:
                    continue
                i = j + int(nz[0])
                if i != j:
                    block[:, [j, i]] = block[:, [i, j]]
                    a[[r, top + i], stop:] = a[[top + i, r], stop:]
                inverses.append(pow(int(block[q, j]), -1, p))
                tail = block[q + 1 :, j] * inverses[-1] % p
                block[q + 1 :, j] = tail
                block[q + 1 :, j + 1 :] -= tail[:, None] * block[q, j + 1 :]
                block[q + 1 :, j + 1 :] %= p
                pivots.append(c)
                r += 1
            a[top:, live] = block.T
            del block  # not alive through the trailing update
            if r == top or stop == self.cols:
                continue
            panel = pivots[top - r :]
            u = a[top:r, stop:]
            for t, (c, inverse) in enumerate(zip(panel, inverses)):
                u[t] = u[t] * inverse % p
                u[t + 1 :] = (u[t + 1 :] - a[top + t + 1 : r, c, None] * u[t]) % p
            if r < self.rows:
                mulmod_sub(a[r:, stop:], a[r:, panel], u, p)
        self._rank, self._pivots = len(pivots), tuple(pivots)
        return a, pivots

    def _rref(self) -> tuple[np.ndarray, list[int]]:
        """Reduced basis of the row space (rank x cols) and the pivot
        columns: forward elimination, then back-substitution over the
        pivot rows from the last one up, each a full-slice update."""
        a, pivots = self._forward()
        p = self.p
        k = len(pivots)
        red = a[:k]
        piv = np.array(pivots, dtype=np.int64)
        red[np.arange(self.cols)[None, :] < piv[:, None]] = 0
        red[np.arange(k), piv] = 1
        for j in range(k - 1, 0, -1):
            c = pivots[j]
            red[:j, c + 1 :] -= red[:j, c, None] * red[j, c + 1 :]
            red[:j, c + 1 :] %= p
            red[:j, c] = 0
        return red, pivots

    def rank(self) -> int:
        if self._rank is None:
            self._forward()
        return self._rank

    def pivots(self) -> list[int]:
        """Ascending pivot columns; those left of c number the rank of the first c."""
        self.rank()
        return list(self._pivots)

    def row_space_basis(self) -> "FieldMatrix":
        """Matrix whose rows are the reduced basis of the row space."""
        red, pivots = self._rref()
        return FieldMatrix(red, self.p)

    def kernel_basis(self) -> np.ndarray:
        """Basis of the right kernel as the rows of a (cols - rank) x cols
        int64 array, one per non-pivot column.

        The vector for free column f has a 1 in position f, so the basis
        is in the standard reduced form.
        """
        red, pivots = self._rref()
        free = np.delete(np.arange(self.cols), pivots)
        basis = np.zeros((free.size, self.cols), dtype=np.int64)
        basis[np.arange(free.size), free] = 1
        basis[:, pivots] = -red[:, free].T % self.p
        return basis

    def left_kernel_basis(self) -> np.ndarray:
        return FieldMatrix(self._data.T, self.p).kernel_basis()

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
        left = a[:, j : j + _PANEL].astype(np.float64, order="C")  # any layout in, C order to BLAS
        lo = (b[j : j + _PANEL] & 0xFFFF).astype(np.float64, order="C")
        hi = (b[j : j + _PANEL] >> 16).astype(np.float64, order="C")
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

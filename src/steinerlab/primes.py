"""The field modulus and the sweep size: defaults, bounds and the primality
check every command applies to --prime.

Pure Python and free of numpy, so that the CLI can validate its common
arguments without loading the F_p engines, which import these names from
here too.
"""

from __future__ import annotations

from functools import lru_cache

DEFAULT_PRIME = 2147483647  # 2**31 - 1
# entries stay below 2**31 so that numpy int64 products never overflow
MAX_PRIME = 2147483647

# default number of independent trials used by genericity sweeps:
# an open ("general choice") claim is accepted if it holds for >= 1 of
# DEFAULT_TRIALS seeds; a closed ("never holds") claim must fail on all.
DEFAULT_TRIALS = 5


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

"""steinerlab: exact-arithmetic experiments with bundle presentations on
projective space and divisor/curve cones of plane point configurations.

Everything is computed over a large prime field with seeded determinism.
Floating point enters no published result: float64 appears only inside
the limb-split matrix product mod p (linalg.mulmod_sub), as a carrier of
integers below 2**53, where it is exact.

The package root re-exports nothing; import from the submodules
(steinerlab.linalg, .series, .steiner, .hilbert, .secant, .slopes,
.acceptance, .cli).
"""

__version__ = "0.1.0"

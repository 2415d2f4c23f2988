"""steinerlab: exact-arithmetic experiments with bundle presentations on
projective space and divisor/curve cones of plane point configurations.

Everything is computed over a large prime field with seeded determinism;
no floating point enters any published result.

The package root re-exports nothing; import from the submodules
(steinerlab.linalg, .series, .steiner, .hilbert, .secant, .slopes,
.acceptance, .cli).
"""

__version__ = "0.1.0"

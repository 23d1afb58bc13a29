"""Contraction certification beyond the built-in norms.

The nilpotent matrix [[0, 2], [0, 0]] has spectral radius 0, yet its one,
inf, and Frobenius norms are all 2.  Gelfand iterates ||C^k||^(1/k) settle
this cheaply (C^2 = 0); alternatively, solving the Stein equation
P - C* P C = I yields a scaled norm under which C contracts directly.
"""

import numpy as np

from blockprod import (
    BUILTIN_NORMS,
    lyapunov_scaling,
    norm_value,
    spectral_certificate,
)

c = np.array([[0.0, 2.0], [0.0, 0.0]])

print("built-in norms of C:")
for kind in BUILTIN_NORMS:
    print(f"  {kind.kind}: {norm_value(c, kind):.6f}")

cert = spectral_certificate(c)
print(f"\nGelfand certificate: {cert.describe()}")

kind = lyapunov_scaling(c)
print("\nStein-equation scaling P:")
print(kind.scaling.real)
print(f"scaled norm of C: {norm_value(c, kind):.12f}  (= 2/sqrt(5))")

# a harder case: spectral radius 0.9, but a coupling so large that no
# built-in norm of any power up to 64 falls below 1, so the search falls
# back to the Stein equation
hard = np.array([[0.9, 30.0], [0.0, 0.9]])
cert = spectral_certificate(hard)
print(f"\nstrongly coupled Jordan block: {cert.describe()}")

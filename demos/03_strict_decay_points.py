"""Points of strict decay: constructive certificates via resolvent solves.

For any lam between the spectral radius and 1, z = (lam*I - T)^{-1} y is
an interior point with T z <= lam * z (componentwise).  Iterating the
inequality gives geometric decay T^k z <= lam^k z, which is the skeleton
of every Lyapunov-type argument for positive systems.
"""

import numpy as np

import posstab as ps

T = ps.dense([[0.5, 1.0], [0.0, 0.5]])
cone = ps.orthant(2, "linf")
est = ps.spectral_radius(T)
print("spectral bracket:", (est.lower, est.upper))

for lam in (0.6, 0.75, 0.9):
    cert = ps.strict_decay_point(T, cone, lam, np.ones(2))
    print(f"\nlam = {lam}: z = {np.round(cert.z, 6)}")
    print("  T z          =", np.round(ps.apply(T, cert.z), 6))
    print("  lam * z      =", np.round(lam * cert.z, 6))
    print(f"  realized contraction {cert.realized_lambda:.6f}, interior margin {cert.interior_margin:.4f}")

cert = ps.strict_decay_point(T, cone, 0.75, np.ones(2))
print("\niterated decay T^k z <= lam^k z:")
zk = cert.z.copy()
for k in (1, 5, 10, 20):
    w = cert.z.copy()
    for _ in range(k):
        w = ps.apply(T, w)
    print(f"  k={k:>2}  max_i (T^k z)_i / (lam^k z_i) = {np.max(w / (0.75**k * cert.z)):.6f}")

print("\napproximate positive eigenvectors (shifts descending to the bracket):")
for step in ps.approximate_positive_eigenvector(T, cone, n_steps=8):
    print(f"  r={step.r:.6f}  x={np.round(step.x, 5)}  residual={step.residual:.2e}")

"""Lyapunov certificates: Stein solutions and equivalent contraction norms.

The discrete Lyapunov (Stein) equation T^T Q T - Q = -I has a positive
semidefinite solution exactly for stable systems, and V(x) = x^T Q x then
decreases by exactly ||x||_2^2 per step.  Alternatively, the geometric
envelope ||T^k|| <= M a^k, a < 1, gives the equivalent norm
||x||_equ = max_{k<=K} ||T^k x|| / a^k in which T contracts by the certified
factor a = 1/s.  For a map that is
positive on the orthant the modulus is taken first, which keeps the norm
monotone (lattice variant); a signed map gets the plain variant, the only
one in which it contracts.
"""

import numpy as np

import posstab as ps

T = ps.dense([[0.5, 1.0], [0.0, 0.5]])
cert = ps.solve_stein(T)
print("Q =")
print(np.round(cert.Q, 6))
print("residual ||T'QT - Q + I||_inf =", cert.residual)
print("series terms used:", cert.n_terms, " tail bound:", cert.tail_bound)

rng = np.random.default_rng(0)
samples = rng.normal(size=(5, 2))
print("\nexact decrease V(Tx) - V(x) = -||x||_2^2 on samples:",
      ps.quadratic_decrease_check(cert.Q, T, samples))

for x in samples[:3]:
    v = float(x @ cert.Q @ x)
    tx = ps.apply(T, x)
    print(f"  V(x)={v:9.4f}  V(Tx)={float(tx @ cert.Q @ tx):9.4f}  ||x||^2={float(x @ x):7.4f}")

cone = ps.orthant(2, "linf")
norm_cert = ps.equivalent_norm(T, cone)
s = norm_cert.s
print(f"\nequivalent norm with s = {s:.4f} (so s * spr < 1):")
print(f"  truncation depth K = {norm_cert.K} (the envelope's first m with ||T^m|| <= s^-m)")
print(f"  certified contraction factor 1/s = {norm_cert.contraction_factor:.6f}")
worst = max(norm_cert(ps.apply(T, x)) / norm_cert(x) for x in samples)
print(f"  largest ||Tx||_equ / ||x||_equ on the samples = {worst:.6f}")

x = np.array([0.3, 0.2])
y = np.array([0.5, 0.8])
print("\nT is positive, so the lattice variant is used: 0 <= x <= y gives ||x||_equ <= ||y||_equ")
print(f"  lattice = {norm_cert.lattice}  ||x||_equ = {norm_cert(x):.6f}   ||y||_equ = {norm_cert(y):.6f}")

signed = ps.equivalent_norm(ps.dense([[0.5, -1.0], [0.0, 0.5]]), cone)
print("\nthe signed map [[0.5, -1], [0, 0.5]] gets the plain variant:")
print(f"  lattice = {signed.lattice}  contraction factor = {signed.contraction_factor:.6f}")

V = norm_cert
ok, _ = ps.verify_lyapunov(
    V,
    ps.KFunctionSpec("linear", 1.0),
    ps.KFunctionSpec("linear", 4.0),
    ps.KFunctionSpec("linear", (1.0 - 1.0 / s)),
    T,
    rng.normal(size=(50, 2)),
    norm="linf",
)
print("\nthe equivalent norm is itself a Lyapunov function:", ok)

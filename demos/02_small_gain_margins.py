"""Small-gain margins: certified lower bound vs the reported margin.

For a stable positive system the distance of (T - I)x to the cone is
bounded below by eta = 1/(c*M) where c is the monotone-bounded-
invertibility constant and M the cone decomposition constant.  With
R = (I - T)^{-1} positive, `uniform_small_gain_margin` returns the exact
margin 1/||R|| in closed form on both cones, attained at x = Rv/||Rv||.
On the orthant C = M = 1, so the two columns below are equal; on the
Lorentz cone M = 1 + sqrt(2), and the margin is M times the bound.
"""

import numpy as np

import posstab as ps

systems = {
    "diag(0.5, 0.9)": ps.diagonal([0.5, 0.9]),
    "jordan(0.5)": ps.dense([[0.5, 1.0], [0.0, 0.5]]),
    "random stable": None,
}
rng = np.random.default_rng(11)
a = rng.uniform(0.0, 1.0, size=(5, 5))
a *= 0.8 / ps.spectral_radius(ps.dense(a)).point
systems["random stable"] = ps.dense(a)

print(f"{'system':<16} {'c (MBI)':>9} {'eta certified':>14} {'eta reported':>14}")
for name, T in systems.items():
    cone = ps.orthant(T.dim, "linf")
    c, _ = ps.mbi_constant(T, cone)
    eta_cert = ps.small_gain_certificate(T, cone)
    eta_emp, verdict = ps.uniform_small_gain_margin(T, cone)
    print(f"{name:<16} {c:9.4f} {eta_cert:14.8f} {eta_emp:14.8f}  holds={verdict.holds}")

T, cone = ps.dense(0.5 * np.eye(3)), ps.lorentz(3, "l2")
eta_emp, _ = ps.uniform_small_gain_margin(T, cone)
print(f"\nLorentz cone, T = I/2: eta = {eta_emp:.8f} = M * {ps.small_gain_certificate(T, cone):.8f}")

print("\nunstable case: the margin collapses and a witness appears")
T = ps.diagonal([1.2, 0.5])
eta_emp, verdict = ps.uniform_small_gain_margin(T, ps.orthant(2, "linf"))
print("eta (no positive inverse):", eta_emp, "holds:", verdict.holds)
print("witness x:", verdict.witness.vector, "-> Tx >= x along this direction")

print("\nrobustness: perturbations below eta/2 are certified harmless;")
print("above that the verdict fails, with the rank-one destabilizer built from")
print("the growth vector where there is one, else with a flag")
T = ps.diagonal([0.5])
for eps in (0.2, 0.3):
    v = ps.robust_small_gain(T, ps.orthant(1, "linf"), eps=eps)
    how = "certified" if v.witness is None else v.witness.note
    print(f"  eps={eps}: holds={v.holds} (margin {v.margin:+.3f}, {how})")

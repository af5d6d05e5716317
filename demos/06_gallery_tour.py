"""Tour of the built-in example systems, including the truncation traps.

Two entries exist precisely because finite sections lie: the scaled right
shift is nilpotent after truncation although the full operator expands
every vector by 2^k, and the slow-diagonal example looks uniformly stable
at every finite dimension while the full operator is only strongly
stable.  Their reports therefore carry mandatory pathology notes.
"""

import numpy as np

import posstab as ps

for name in ps.gallery_names():
    entry = ps.gallery_build(name)
    est = ps.spectral_radius(entry.operator)
    print(f"\n=== {name}  (dim {entry.operator.dim}, cone {entry.cone.kind}/{entry.cone.norm})")
    print(f"  spectral bracket [{est.lower:.6f}, {est.upper:.6f}]")
    notes = (entry.pathology,) if entry.pathology else ()
    report = ps.cross_check(entry.operator, entry.cone, extra_notes=notes)
    print("  consensus:", report.consensus)
    for cid, expected, note in entry.expected:
        got = report.verdict(cid).holds
        marker = "ok" if got == expected else "MISMATCH"
        print(f"    {cid:<12} expected={expected} got={got} [{marker}]  ({note})")
    if entry.pathology:
        print("  !!", entry.pathology)

print("\n--- shift2R: the two coexisting facts ---")
entry = ps.gallery_build("shift2R", dim=8)
pn = ps.power_norms(entry.operator, 8, "linf")
print("power norms ||(2R)^k||:", pn.tolist(), "(2^k growth, then nilpotent)")
print("strong small gain over 1000 random (x, D) pairs:",
      ps.strong_small_gain_check(dim=8, trials=1000, rng=np.random.default_rng(0)))

print("\n--- multiplication: margin shrinks with the grid ---")
for n in (4, 6, 8, 12):
    mult = ps.gallery_build("multiplication", dim=n)
    eta, _ = ps.uniform_small_gain_margin(mult.operator, mult.cone)
    print(f"  grid size {n:>2}: eta = {eta:.8f}  (= e^-{n - 1})")

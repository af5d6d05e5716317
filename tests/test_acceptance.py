"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here exactly as stated; nothing is deferred to
later calibration.  The random sweep is module-scoped so that every
criterion exercises the same 200 matrices.
"""

import time

import numpy as np
import pytest

from posstab import (
    CrossCheckConfig,
    apply,
    cone_constants,
    cross_check,
    datko_test,
    dense,
    diagonal,
    equivalent_norm,
    gallery_build,
    is_interior,
    iss_constants,
    materialize,
    orthant,
    power_norms,
    rank_one_destabilizer,
    simulate,
    small_gain_certificate,
    solve_stein,
    spectral_radius,
    strict_decay_point,
    strong_small_gain_check,
    uniform_small_gain_margin,
    vec_norm,
    verify_iss_bound,
)
from posstab.iss import SIMULATE_CHECK_TOL

TARGETS = (0.3, 0.7, 0.9, 1.1, 1.5, 3.0)
N_SWEEP = 200


def _random_positive(rng, n):
    a = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.75)
    if not a.any():
        a[0, 0] = 1.0
    return a


@pytest.fixture(scope="module")
def sweep():
    """200 random orthant-positive matrices rescaled to the target radii."""
    rng = np.random.default_rng(20240601)
    items = []
    i = 0
    while len(items) < N_SWEEP:
        n = int(rng.integers(2, 9))
        a = _random_positive(rng, n)
        est0 = spectral_radius(dense(a))
        if est0.point < 1e-9:
            continue
        target = TARGETS[len(items) % len(TARGETS)]
        a = a * (target / est0.point)
        T = dense(a)
        items.append((T, target, spectral_radius(T), i))
        i += 1
    return items


@pytest.fixture(scope="module")
def stable_sweep(sweep):
    return [(T, t, est, i) for (T, t, est, i) in sweep if t < 1.0]


def test_acceptance_1_worked_2x2_example():
    t0 = time.perf_counter()
    T = dense([[0.5, 1.0], [0.0, 0.5]])
    cone = orthant(2, "linf")
    rep = cross_check(T, cone)
    assert abs(rep.spectral.point - 0.5) <= 1e-10
    assert rep.consensus == "STABLE"
    np.testing.assert_array_equal(apply(T, [6.0, 2.0]), [5.0, 1.0])
    np.testing.assert_array_equal(apply(T, [2.0, 2.0]), [3.0, 1.0])
    assert is_interior(cone, np.array([6.0, 2.0]) - np.array([5.0, 1.0]))[0]
    assert not is_interior(cone, np.array([2.0, 2.0]) - np.array([3.0, 1.0]))[0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[acceptance 1] PASS  2x2 example: spr=0.5, STABLE, images exact ({elapsed:.2f}s)")


def test_acceptance_2_equivalence_consensus_sweep(sweep):
    t0 = time.perf_counter()
    inconsistent = 0
    for T, target, est, i in sweep:
        rep = cross_check(
            dense(materialize(T)),
            orthant(T.dim, "linf"),
            CrossCheckConfig(seed=i),
        )
        expect = target < 1.0
        for v in rep.criteria:
            assert v.holds == expect, (i, target, v.id, v.margin)
        if rep.consensus == "INCONSISTENT":
            inconsistent += 1
        assert rep.consensus == ("STABLE" if expect else "UNSTABLE")
    elapsed = time.perf_counter() - t0
    assert inconsistent == 0
    assert elapsed < 30.0
    print(
        f"\n[acceptance 2] PASS  {len(sweep)} matrices, every verdict == (spr < 1), "
        f"0 INCONSISTENT ({elapsed:.1f}s)"
    )


def test_acceptance_3_strict_decay_on_stable_sweep(stable_sweep):
    for T, _target, est, _i in stable_sweep:
        lam = 0.5 * (est.upper + 1.0)
        y = np.ones(T.dim)
        cert = strict_decay_point(T, orthant(T.dim, "linf"), lam, y)
        a = materialize(T)
        assert np.all(a @ cert.z <= lam * cert.z + 1e-10)
        assert np.all(cert.z >= y / lam - 1e-10)
        zk = cert.z.copy()
        for k in range(1, 21):
            zk = a @ zk
            assert np.all(zk <= lam**k * cert.z + 1e-10)
    print(f"\n[acceptance 3] PASS  strict decay certificates on {len(stable_sweep)} stable matrices")


def test_acceptance_4_stein_certificates(stable_sweep):
    rng = np.random.default_rng(1)
    for T, _target, est, _i in stable_sweep:
        n = T.dim
        a = materialize(T)
        cert = solve_stein(T)
        assert cert.residual <= 1e-8
        if n <= 6:
            lhs = np.kron(a.T, a.T) - np.eye(n * n)
            oracle = np.linalg.solve(lhs, -np.eye(n).reshape(-1)).reshape(n, n)
            np.testing.assert_allclose(cert.Q, oracle, atol=1e-8)
        X = rng.normal(size=(100, n))
        for x in X:
            tx = a @ x
            lhs_v = float(tx @ cert.Q @ tx)
            rhs_v = float(x @ cert.Q @ x) - float(x @ x)
            assert abs(lhs_v - rhs_v) <= 1e-8 * (1.0 + float(x @ cert.Q @ x))
    print(f"\n[acceptance 4] PASS  Stein residual/oracle/decrease on {len(stable_sweep)} matrices")


def test_acceptance_5_equivalent_norm(stable_sweep):
    rng = np.random.default_rng(2)
    for T, _target, est, i in stable_sweep:
        s = float(np.sqrt(1.0 / est.upper))
        cone = orthant(T.dim, "linf")
        # T is positive on the orthant, so the certificate is the lattice variant
        cert = equivalent_norm(T, cone, s)
        assert cert.lattice
        assert cert.contraction_factor <= 1.0 / s + 1e-8
        X = rng.uniform(0.0, 1.0, size=(1000, T.dim))
        Y = X + rng.uniform(0.0, 1.0, size=(1000, T.dim))
        vx = cert(X)
        vy = cert(Y)
        assert np.all(vx <= vy + 1e-12)
    print(f"\n[acceptance 5] PASS  contraction factor <= 1/s and lattice monotonicity")


def test_acceptance_6_small_gain_chain(stable_sweep):
    for T, _target, _est, _i in stable_sweep:
        cone = orthant(T.dim, "linf")
        eta_cert = small_gain_certificate(T, cone)
        eta_emp, verdict = uniform_small_gain_margin(T, cone)
        assert eta_cert is not None and verdict.holds
        assert eta_cert <= eta_emp + 1e-8
        assert eta_emp == pytest.approx(eta_cert, rel=1e-12, abs=0.0)  # closed form on the orthant
    eta_emp, _ = uniform_small_gain_margin(diagonal([0.5, 0.9]), orthant(2, "linf"))
    assert abs(eta_emp - 0.1) <= 1e-9
    print("\n[acceptance 6] PASS  eta_cert = eta_emp on stable sweep; diag(0.5,0.9) eta = 0.1")


def test_acceptance_7_gallery():
    entry = gallery_build("shift2R", dim=8)
    pn = power_norms(entry.operator, 8, "linf")
    np.testing.assert_array_equal(
        pn, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 0.0]
    )
    assert strong_small_gain_check(dim=8, trials=1000, rng=np.random.default_rng(3))
    rep = cross_check(entry.operator, entry.cone, extra_notes=(entry.pathology,))
    assert any("TRUNCATION-PATHOLOGY" in note for note in rep.notes)
    etas = []
    for n in (4, 6, 8):
        mult = gallery_build("multiplication", dim=n)
        eta, _ = uniform_small_gain_margin(mult.operator, mult.cone)
        etas.append(eta)
    assert abs(etas[-1] - np.exp(-7.0)) <= 1e-12
    assert etas[0] > etas[1] > etas[2]
    print("\n[acceptance 7] PASS  shift2R powers (1,2,...,128,0)+pathology; eta = e^-7 decreasing")


def test_acceptance_8_iss(stable_sweep):
    est = iss_constants(diagonal([0.5]))
    assert abs(est.C - 2.0) <= 1e-9
    traj = simulate(diagonal([0.5]), [0.0], np.ones((100, 1)))
    assert abs(float(traj.norms.max()) - 2.0) <= 1e-9
    for T, _target, t_est, i in stable_sweep:
        t_iss = iss_constants(T, norm="linf")
        assert verify_iss_bound(T, t_iss, trials=100, rng=np.random.default_rng(i))
    # recurrence/convolution agreement is enforced inside simulate at 1e-10
    assert SIMULATE_CHECK_TOL == 1e-10
    rng = np.random.default_rng(4)
    for T, _target, t_est, _i in stable_sweep[:10]:
        simulate(T, rng.normal(size=T.dim), rng.normal(size=(40, T.dim)))
    print("\n[acceptance 8] PASS  C=2 tight bound; ISS bound on 100 trials/matrix; routes agree")


def test_acceptance_9_datko(sweep, stable_sweep):
    rng = np.random.default_rng(5)
    for T, _target, _est, _i in stable_sweep:
        for p in (1.0, 2.0):
            for _ in range(4):
                x = rng.uniform(0.0, 1.0, size=T.dim)
                res = datko_test(T, x, p, K=64)
                assert res.classification == "convergent"
    for T, target, est, _i in sweep:
        if target >= 1.0:
            res = datko_test(T, est.perron_vector, 2, K=64)
            assert res.classification == "divergent"
    # slow-modes example: strong per-start decay but no uniform rate below 1 - 1/65
    entry = gallery_build("diag_strong_stable", dim=64)
    res = datko_test(entry.operator, np.ones(64), 2, K=64, norm="l2")
    pn = power_norms(entry.operator, 64, "l2")
    rate = 1.0 - 1.0 / 65.0
    report = {
        "datko": res.to_dict(),
        "per_step_uniform_rate": [pn[k] ** (1.0 / k) for k in range(1, 65)],
    }
    assert report["datko"]["classification"] != "convergent"
    assert all(r >= rate - 1e-12 for r in report["per_step_uniform_rate"])
    x = np.ones(64)
    for _ in range(64):
        x = apply(entry.operator, x)
    assert np.all(x < np.ones(64))  # every start decays
    print("\n[acceptance 9] PASS  datko convergent/divergent split; slow-mode example dual facts")


def test_acceptance_10_destabilizer():
    rng = np.random.default_rng(6)
    count = 0
    while count < 50:
        n = int(rng.integers(2, 9))
        a = _random_positive(rng, n)
        est0 = spectral_radius(dense(a))
        if est0.point < 1e-9:
            continue
        target = rng.uniform(1.0, 1.2)
        a = a * (target / est0.point)
        T = dense(a)
        cone = orthant(n, "linf")
        cand = rank_one_destabilizer(T, cone)
        assert cand is not None
        lhs = a @ cand.x + cand.matrix @ cand.x - cand.x
        assert lhs.min() >= -1e-10
        mprime = cone_constants(cone).dual_M_prime
        assert cand.norm_p <= mprime * vec_norm(cand.z, "linf") + 1e-12
        count += 1
    print("\n[acceptance 10] PASS  50 destabilizers verified componentwise with posted norm bound")

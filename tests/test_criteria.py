import importlib.util
import os
import pathlib
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

import posstab
from posstab import (
    CrossCheckConfig,
    adjoint,
    approximate_positive_eigenvector,
    apply,
    check_resolvent_positivity,
    cone_constants,
    consensus_of,
    contains,
    cross_check,
    dense,
    diagonal,
    distance,
    dual_small_gain,
    gallery_build,
    gallery_names,
    geometric_envelope,
    interior_point,
    interior_small_gain,
    is_positive,
    lorentz,
    materialize,
    mbi_constant,
    orthant,
    power_norms,
    quasi_compact_suite,
    rank_one_destabilizer,
    reverify_witness,
    robust_small_gain,
    shift,
    small_gain_certificate,
    spectral_radius,
    strict_decay_point,
    uniform_small_gain_margin,
    vec_norm,
)
from posstab.cones import (
    DEFAULT_TOL, batch_distance, batch_vec_norm, decompose, margin, project, random_points,
)
from posstab.criteria import CriterionVerdict, Witness, _cone_unit_rows
from posstab.norms import UNIT_ROUNDOFF, induced_norm

UPPER2X2 = dense([[0.5, 1.0], [0.0, 0.5]])
CONE2 = orthant(2, "linf")


def grid_eta_oracle(T, cone, steps=101):
    """Brute-force min of dist((T-I)x, cone) over a 2-d unit-sphere grid."""
    a = materialize(T) - np.eye(2)
    best = np.inf
    for t in np.linspace(0.0, 1.0, steps):
        for x in (np.array([1.0, t]), np.array([t, 1.0])):
            best = min(best, distance(cone, a @ x))
    return best


# ------------------------------------------------- resolvent positivity

def test_resolvent_positivity_jordan():
    v = check_resolvent_positivity(UPPER2X2, CONE2)
    assert v.holds
    # oracle: hand inverse [[2, 4], [0, 2]] is entrywise nonnegative with min 0
    assert v.margin == pytest.approx(0.0, abs=1e-10)


def test_resolvent_positivity_scalar_failure():
    v = check_resolvent_positivity(diagonal([2.0]), orthant(1, "linf"))
    assert not v.holds
    # oracle: (1 - 2)^{-1} = -1
    np.testing.assert_allclose(v.witness.vector, [-1.0], atol=1e-10)


def test_resolvent_positivity_zero_operator():
    v = check_resolvent_positivity(dense(np.zeros((2, 2))), CONE2)
    assert v.holds and v.margin == pytest.approx(0.0, abs=1e-12)


def test_resolvent_positivity_spectral_proximity_flag():
    v = check_resolvent_positivity(diagonal([1.0]), orthant(1, "linf"))
    assert not v.holds
    assert v.witness.kind == "flag"
    assert "SPECTRAL_PROXIMITY" in v.witness.note


# ------------------------------------------------- MBI constant

@pytest.mark.parametrize(
    "T, cone, expected_c",
    [
        (diagonal([0.5]), orthant(1, "linf"), 2.0),
        (UPPER2X2, CONE2, 6.0),
        (dense(np.zeros((2, 2))), CONE2, 1.0),
    ],
)
def test_mbi_constant_values(T, cone, expected_c):
    c, v = mbi_constant(T, cone)
    assert v.holds
    assert c == pytest.approx(expected_c, abs=1e-9)


def test_mbi_propagates_resolvent_failure():
    c, v = mbi_constant(diagonal([2.0]), orthant(1, "linf"))
    assert not v.holds and not np.isfinite(c)


# ------------------------------------------------- uniform small gain

def test_uniform_small_gain_diagonal():
    T = diagonal([0.5, 0.9])
    eta, v = uniform_small_gain_margin(T, CONE2)
    # oracle: min_i (1 - d_i) attained at the second axis vector
    assert eta == pytest.approx(0.1, abs=1e-9)
    assert v.holds


def test_uniform_small_gain_identity_fails():
    eta, v = uniform_small_gain_margin(diagonal([1.0]), orthant(1, "linf"))
    assert eta == pytest.approx(0.0, abs=1e-12)
    assert not v.holds
    assert v.witness is not None


def test_uniform_small_gain_jordan_regression():
    # grid oracle pins the regression value; analytic minimum is 1/6 at (1, 1/3)
    eta, v = uniform_small_gain_margin(UPPER2X2, CONE2)
    oracle = grid_eta_oracle(UPPER2X2, CONE2)
    assert v.holds
    assert abs(eta - oracle) <= 5e-3  # grid resolution
    assert eta == pytest.approx(1.0 / 6.0, abs=1e-6)


def test_eta_chain_certified_below_empirical():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a *= rng.choice([0.3, 0.7, 0.9]) / max(float(np.max(np.abs(np.linalg.eigvals(a)))), 1e-9)
        T = dense(a)
        cone = orthant(n, "linf")
        eta_cert = small_gain_certificate(T, cone)
        eta_emp, _ = uniform_small_gain_margin(T, cone)
        assert eta_cert is not None
        assert eta_cert <= eta_emp + 1e-8
        assert eta_emp == pytest.approx(eta_cert, rel=1e-12, abs=0.0)  # closed form on the orthant


# ------------------------------------------------- robust small gain

def test_robust_small_gain_certified():
    v = robust_small_gain(diagonal([0.5]), orthant(1, "linf"), eps=0.2)
    assert v.holds  # eta = 0.5, eps <= 0.25


def test_robust_small_gain_identity_boundary_witness():
    v = robust_small_gain(diagonal([1.0]), orthant(1, "linf"), eps=0.1)
    assert not v.holds
    w = v.witness
    assert w.kind == "rank_one_perturbation"
    assert w.perturbation_norm == pytest.approx(0.0, abs=1e-12)  # P = 0 suffices
    np.testing.assert_allclose(w.vector, [1.0], atol=1e-12)


def test_robust_small_gain_uncertified_eps_fails_with_flag():
    # P = 0.5 I has ||P||_inf = 0.5 <= eps and (T + P) e1 = e1, so the verdict may not hold
    v = robust_small_gain(UPPER2X2, CONE2, eps=10.0)
    assert not v.holds
    assert v.margin < 0.0
    assert v.witness.kind == "flag"


def test_shift_plus_half_identity_no_violation():
    # single perturbation P = id/2 never produces (T+P)x >= x for the shift
    n = 8
    sh = materialize(shift(n, 2.0))
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.uniform(0.0, 1.0, size=n)
        lead = rng.integers(0, n)
        x[:lead] = 0.0
        if not x.any():
            x[0] = 1.0
        y = sh @ x + 0.5 * x
        i = int(np.nonzero(x > 0)[0][0])
        assert y[i] < x[i]  # first nonzero coordinate argument


# ------------------------------------------------- approximate eigenvector

def test_approx_eigenvector_diagonal():
    T = diagonal([0.9, 0.5])
    seq = approximate_positive_eigenvector(T, CONE2, n_steps=10)
    assert len(seq) == 10
    x_last = seq[-1].x
    np.testing.assert_allclose(x_last, [1.0, 0.0], atol=1e-2)
    assert seq[-1].residual < seq[0].residual
    # oracle: exact eigenvector e1
    assert vec_norm(apply(T, x_last) - 0.9 * x_last, "linf") == pytest.approx(
        seq[-1].residual, abs=1e-12
    )


def test_approx_eigenvector_jordan_residual_decays():
    seq = approximate_positive_eigenvector(UPPER2X2, CONE2, n_steps=16)
    residuals = [s.residual for s in seq]
    assert residuals[-1] < 1e-3
    assert residuals[-1] <= residuals[0]
    # trend: second half no worse than first half
    mid = len(residuals) // 2
    assert np.median(residuals[mid:]) <= np.median(residuals[:mid]) + 1e-12


def test_approx_eigenvector_zero_operator():
    seq = approximate_positive_eigenvector(dense(np.zeros((2, 2))), CONE2, n_steps=6)
    for step in seq:
        np.testing.assert_allclose(step.x, [1.0, 1.0], atol=1e-12)
        assert step.residual == pytest.approx(0.0, abs=1e-12)


def test_approx_eigenvector_schedule_decreases_to_bracket():
    est = spectral_radius(UPPER2X2)
    seq = approximate_positive_eigenvector(UPPER2X2, CONE2, n_steps=12)
    rs = [s.r for s in seq]
    assert all(rs[i] > rs[i + 1] for i in range(len(rs) - 1))
    assert all(r > est.upper for r in rs)


@pytest.mark.parametrize("cone_kind", ["orthant", "lorentz"])
def test_approx_eigenvector_factors_once_per_step(monkeypatch, cone_kind):
    # each shift costs one LU of r_k*I - T; no resolvent_apply (and so no
    # residual loop or Neumann check) runs
    import posstab.operators as ops

    if cone_kind == "orthant":
        T, cone = UPPER2X2, CONE2
    else:
        T, cone = dense(_lorentz_positive(np.random.default_rng(2), 8, 0.9)), lorentz(8, "l2")
    spectral_radius(T)  # the bracket's own factorizations are not counted
    factors, solves = [], []
    real_factor, real_solve = ops.lu_factor, ops.resolvent_apply
    monkeypatch.setattr(ops, "lu_factor", lambda *a, **k: factors.append(1) or real_factor(*a, **k))
    monkeypatch.setattr(ops, "resolvent_apply", lambda *a, **k: solves.append(1) or real_solve(*a, **k))
    seq = approximate_positive_eigenvector(T, cone, n_steps=12)
    assert len(seq) == 12
    assert solves == [] and len(factors) == len(seq)


def test_approx_eigenvector_lorentz_iterates_in_cone():
    T = dense(_lorentz_positive(np.random.default_rng(4), 8, 0.97))
    cone = lorentz(8, "l2")
    seq = approximate_positive_eigenvector(T, cone, n_steps=20)
    assert len(seq) == 20
    for step in seq:
        assert contains(cone, step.x)
        assert np.linalg.norm(step.x) == pytest.approx(1.0, abs=1e-12)
    assert seq[-1].residual < seq[0].residual


# ------------------------------------------------- rank-one destabilizer

def test_destabilizer_exact_fixed_vector():
    cand = rank_one_destabilizer(diagonal([1.0, 0.5]), CONE2)
    assert cand.norm_p == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(cand.x, [1.0, 0.0], atol=1e-12)


def test_destabilizer_super_fixed_vector():
    cand = rank_one_destabilizer(diagonal([1.1, 0.5]), CONE2)
    assert cand.norm_p == pytest.approx(0.0, abs=1e-12)
    lhs = apply(diagonal([1.1, 0.5]), cand.x) + cand.matrix @ cand.x
    assert np.all(lhs >= cand.x - 1e-12)


def test_destabilizer_perron_pair():
    T = dense([[1.0, 1.0], [1.0, 1.0]])
    cand = rank_one_destabilizer(T, CONE2)
    assert cand.norm_p == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(cand.x, [1.0, 1.0], atol=1e-8)


def test_destabilizer_none_when_stable():
    assert rank_one_destabilizer(diagonal([0.5]), orthant(1, "linf")) is None


def test_destabilizer_posted_bound():
    rng = np.random.default_rng(2)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a *= rng.uniform(1.0, 1.2) / max(float(np.max(np.abs(np.linalg.eigvals(a)))), 1e-9)
        cone = orthant(n, "linf")
        cand = rank_one_destabilizer(dense(a), cone)
        assert cand is not None
        lhs = a @ cand.x + cand.matrix @ cand.x - cand.x
        assert lhs.min() >= -1e-10
        mprime = cone_constants(cone).dual_M_prime
        assert cand.norm_p <= mprime * vec_norm(cand.z, "linf") + 1e-12


# ------------------------------------------------- dual small gain

def test_dual_small_gain_jordan():
    assert dual_small_gain(UPPER2X2, CONE2).holds


def test_dual_small_gain_identity_witness():
    v = dual_small_gain(diagonal([1.0]), orthant(1, "linf"))
    assert not v.holds
    np.testing.assert_allclose(v.witness.functional, [1.0], atol=1e-12)


def test_dual_small_gain_symmetric_perron():
    v = dual_small_gain(dense([[1.0, 1.0], [1.0, 1.0]]), CONE2)
    assert not v.holds
    np.testing.assert_allclose(v.witness.functional, [0.5, 0.5], atol=1e-8)


# ------------------------------------------------- interior small gain

def test_interior_small_gain_scalar():
    eta, v = interior_small_gain(diagonal([0.5]), orthant(1, "linf"), np.ones(1))
    assert eta == pytest.approx(0.5, abs=1e-6)
    assert v.holds


def test_interior_small_gain_identity():
    T = diagonal([1.0, 1.0])
    eta, v = interior_small_gain(T, CONE2, np.ones(2))
    assert eta == pytest.approx(0.0, abs=1e-9)
    assert not v.holds
    assert v.witness is not None
    assert reverify_witness(T, CONE2, v)


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_interior_small_gain_without_positive_inverse_gives_a_checkable_witness(norm):
    # a rotation has no Tx >= x on the orthant; the witness is the gate's column of (I-T)^{-1}
    T = dense([[0.0, -0.9], [0.9, 0.0]])
    cone = orthant(2, norm)
    eta, v = interior_small_gain(T, cone, np.ones(2))
    assert eta == 0.0
    assert not v.holds
    assert v.witness.kind == "column"
    assert reverify_witness(T, cone, v)


def test_interior_small_gain_jordan_grid_value():
    # brute-force threshold: eta* = 1/6 for z = (1, 1) under linf
    eta, v = interior_small_gain(UPPER2X2, CONE2, np.ones(2))
    assert v.holds
    assert eta == pytest.approx(1.0 / 6.0, abs=1e-6)


def test_interior_small_gain_requires_interior_z():
    with pytest.raises(ValueError):
        interior_small_gain(UPPER2X2, CONE2, np.array([1.0, 0.0]))


# ------------------------------------------------- strict decay

def test_strict_decay_jordan_hand_solve():
    # oracle: (0.75 I - T)^{-1} = 16 * [[0.25, 1], [0, 0.25]] applied to (1, 1)
    cert = strict_decay_point(UPPER2X2, CONE2, 0.75, np.ones(2))
    np.testing.assert_allclose(cert.z, [20.0, 4.0], atol=1e-8)
    tz = apply(UPPER2X2, cert.z)
    np.testing.assert_allclose(tz, [14.0, 2.0], atol=1e-8)
    assert np.all(tz <= 0.75 * cert.z + 1e-10)
    assert np.all(cert.z >= np.ones(2) / 0.75 - 1e-10)
    assert cert.realized_lambda == pytest.approx(0.7, abs=1e-9)


def test_strict_decay_scalar():
    cert = strict_decay_point(diagonal([0.5]), orthant(1, "linf"), 0.75, np.ones(1))
    np.testing.assert_allclose(cert.z, [4.0], atol=1e-10)
    assert cert.realized_lambda == pytest.approx(0.5, abs=1e-9)


def test_strict_decay_zero_operator():
    cert = strict_decay_point(dense(np.zeros((2, 2))), CONE2, 0.5, np.ones(2))
    np.testing.assert_allclose(cert.z, [2.0, 2.0], atol=1e-12)
    assert cert.interior_margin == pytest.approx(2.0)


def test_strict_decay_iterates():
    cert = strict_decay_point(UPPER2X2, CONE2, 0.75, np.ones(2))
    a = materialize(UPPER2X2)
    zk = cert.z.copy()
    for k in range(1, 21):
        zk = a @ zk
        assert np.all(zk <= cert.lam**k * cert.z + 1e-10)


def test_strict_decay_argument_errors():
    from posstab import DimensionMismatchError, SpectralProximityError

    with pytest.raises(ValueError):
        strict_decay_point(UPPER2X2, CONE2, 1.5, np.ones(2))
    with pytest.raises(SpectralProximityError):
        strict_decay_point(diagonal([0.9]), orthant(1, "linf"), 0.7, np.ones(1))
    with pytest.raises(ValueError):
        strict_decay_point(UPPER2X2, CONE2, 0.75, np.array([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        strict_decay_point(UPPER2X2, orthant(3), 0.75, np.ones(3))


@pytest.mark.parametrize(
    "T, cone",
    [
        (dense([[0.5, -1.0], [0.0, 0.5]]), CONE2),  # the solve gives z = (-12, 4)
        (dense([[0.5, 0.0, 0.0]] * 3), lorentz(3)),  # maps (1, 0, 0) to (0.5, 0.5, 0.5)
    ],
    ids=["orthant", "lorentz"],
)
def test_strict_decay_refuses_a_map_that_is_not_positive(T, cone):
    from posstab import DimensionMismatchError

    assert not is_positive(T, cone)[0]
    with pytest.raises(ValueError, match="T must be positive on the cone"):
        strict_decay_point(T, cone, 0.75, interior_point(cone))
    with pytest.raises(DimensionMismatchError):
        strict_decay_point(T, orthant(T.dim + 1), 0.75, np.ones(T.dim + 1))


def test_strict_decay_names_lam_when_the_solve_is_not_finite(monkeypatch):
    import posstab.criteria as crit
    from posstab import SpectralProximityError

    monkeypatch.setattr(crit, "_shifted_lu", lambda a, lam: (None, lambda y: np.full(len(y), np.nan)))
    with pytest.raises(SpectralProximityError, match="lam=0.75"):
        strict_decay_point(UPPER2X2, CONE2, 0.75, np.ones(2))


def test_strict_decay_lorentz():
    T = dense(np.diag([0.8, 0.4, 0.4]))
    cone = lorentz(3)
    y = np.array([1.0, 0.0, 0.0])
    cert = strict_decay_point(T, cone, 0.9, y)
    assert cert.realized_lambda <= 0.9 + 1e-10
    assert contains(cone, cert.z - y / 0.9, 1e-10)


@pytest.mark.parametrize(
    "T, cone, z",
    [
        (dense([[0.5, 0.2], [0.1, 0.5]]), orthant(2), [10.0, 2.0]),  # Tz = (5.4, 2)
        (dense(np.diag([0.8, 0.4, 0.4])), lorentz(3), [10.0, 5.0, 0.0]),  # Tz = (8, 2, 0)
    ],
    ids=["orthant", "lorentz"],
)
def test_strict_decay_catches_a_planted_solve(monkeypatch, T, cone, z):
    # z >= y/lam holds, but the least t with Tz <= t z is 1.0 (orthant) and 1.2 (Lorentz)
    import posstab.criteria as crit

    monkeypatch.setattr(crit, "_shifted_lu", lambda a, lam: (None, lambda y: np.array(z)))
    with pytest.raises(ArithmeticError, match=r"Tz <= lam\*z"):
        strict_decay_point(T, cone, 0.9, interior_point(cone))


def _exact_products(a, z):
    """a z in exact rational arithmetic."""
    return [sum(Fraction(v) * Fraction(w) for v, w in zip(row.tolist(), z.tolist())) for row in a]


def test_strict_decay_and_cw_bounds_hold_in_exact_arithmetic():
    # random T >= 0, n <= 8, entries spanning 1e-3 to 1e2, scaled to rho < 1:
    # realized * z >= T z and s z <= T z <= t z must hold exactly, not
    # only up to the rounding of fl(T z)
    from posstab.operators import _cw_bounds

    rng = np.random.default_rng(2024)
    for trial in range(300):
        n = int(rng.integers(2, 9))
        a = 10.0 ** rng.uniform(-3.0, 2.0, size=(n, n))
        a *= rng.uniform(0.05, 0.999) / float(np.max(np.abs(np.linalg.eigvals(a))))
        T, cone = dense(a), orthant(n)
        est = spectral_radius(T)
        cert = strict_decay_point(T, cone, 0.5 * (est.upper + 1.0), np.ones(n))
        tz = _exact_products(a, cert.z)
        assert all(Fraction(cert.realized_lambda) * Fraction(zi) >= v for zi, v in zip(cert.z.tolist(), tz)), trial
        for z in (cert.z, est.perron_vector, rng.uniform(0.1, 10.0, n)):
            s, t = _cw_bounds(a, z, cone)
            for zi, v in zip(z.tolist(), _exact_products(a, z)):
                assert Fraction(s) * Fraction(zi) <= v <= Fraction(t) * Fraction(zi), trial


# ------------------------------------------------- quasi-compact suite

def test_quasi_suite_jordan_all_hold():
    verdicts = quasi_compact_suite(UPPER2X2, CONE2)
    assert [v.id for v in verdicts] == ["SIMPLE_SG", "SUBFIXED_POS", "STRONG_STAB", "WEAK_ATTR"]
    assert all(v.holds for v in verdicts)


def test_quasi_suite_identity_fails_with_witness():
    verdicts = quasi_compact_suite(diagonal([1.0]), orthant(1, "linf"))
    simple = verdicts[0]
    assert not simple.holds
    np.testing.assert_allclose(simple.witness.vector, [1.0], atol=1e-12)
    sub = verdicts[1]
    assert not sub.holds
    # witness -x satisfies T(-x) <= -x but is not positive
    assert reverify_witness(diagonal([1.0]), orthant(1, "linf"), sub)


@pytest.mark.parametrize(
    "T, cone",
    [(gallery_build("multiplication").operator, orthant(8, "linf")), (diagonal([0.999]), orthant(1, "linf"))],
)
def test_quasi_suite_near_one_decays_past_the_old_horizon(T, cone):
    # rho = 1 - e^{-7} and 0.999: the certified horizon 2^J lies past 30,000 steps
    verdicts = {v.id: v for v in quasi_compact_suite(T, cone)}
    for cid in ("STRONG_STAB", "WEAK_ATTR"):
        assert verdicts[cid].holds and verdicts[cid].witness is None
        assert verdicts[cid].margin == pytest.approx(1.0, abs=1e-9)
    a_env = 0.5 * (spectral_radius(T).upper + 1.0)
    M, _ = geometric_envelope(T, a_env, "linf")
    assert np.log(1e-9 / M) / np.log(a_env) > 30000


def test_quasi_suite_catches_a_planted_envelope(monkeypatch):
    # a "certified" envelope for an unstable operator: the sampled starts do
    # not decay by the horizon it implies, which is an internal error
    import posstab.criteria as crit

    T = diagonal([1.2, 0.5])
    assert geometric_envelope(T, 1.1, "linf") is None
    monkeypatch.setattr(crit, "geometric_envelope", lambda T, a_env, norm: (1.0, 1))
    with pytest.raises(ArithmeticError, match="holds=True, but the worst sampled start"):
        quasi_compact_suite(T, orthant(2, "linf"))


def test_quasi_suite_catches_a_growth_vector_that_decays(monkeypatch):
    # the reverse fault: a verified growth vector while every start decays
    import posstab.criteria as crit

    T = diagonal([0.5, 0.25])
    monkeypatch.setattr(crit, "geometric_envelope", lambda T, a_env, norm: None)
    monkeypatch.setattr(crit, "_growth_vector", lambda T, cone: np.ones(2))
    with pytest.raises(ArithmeticError, match="holds=False, but the worst sampled start"):
        quasi_compact_suite(T, orthant(2, "linf"))


def test_quasi_suite_multiplication_margin_shrinks():
    margins = []
    for n in (4, 6, 8):
        d = diagonal(1.0 - np.exp(-np.arange(n, dtype=float)))
        verdicts = quasi_compact_suite(d, orthant(n, "linf"))
        assert verdicts[0].holds
        margins.append(verdicts[0].margin)
    assert margins[0] > margins[1] > margins[2] > 0.0


# ------------------------------------------------- consensus / cross_check

def test_consensus_rules():
    t = CriterionVerdict("SPR", True, 0.5)
    f = CriterionVerdict("MBI", False, -0.5)
    assert consensus_of([t, t], 0.5) == "STABLE"
    assert consensus_of([f, f], 1.5) == "UNSTABLE"
    assert consensus_of([t, f], 1.5) == "INCONSISTENT"
    assert consensus_of([t, f], 1.001) == "BOUNDARY"
    assert consensus_of([t, t], 0.999) == "BOUNDARY"


def test_cross_check_jordan_stable():
    rep = cross_check(UPPER2X2, CONE2)
    assert rep.consensus == "STABLE"
    assert len(rep.criteria) == 13
    assert all(v.holds for v in rep.criteria)
    assert rep.lyapunov is not None and rep.iss is not None
    assert rep.lyapunov["stein_residual"] <= 1e-8


def test_cross_check_unstable_witnesses_reverify():
    T = diagonal([1.5, 0.5])
    rep = cross_check(T, CONE2)
    assert rep.consensus == "UNSTABLE"
    for v in rep.criteria:
        assert not v.holds
        assert reverify_witness(T, CONE2, v)


def test_random_unstable_witnesses_reverify():
    rng = np.random.default_rng(9)
    for i in range(5):
        n = int(rng.integers(2, 6))
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a *= rng.choice([1.2, 2.0]) / max(float(np.max(np.abs(np.linalg.eigvals(a)))), 1e-9)
        T = dense(a)
        cone = orthant(n, "linf")
        rep = cross_check(T, cone, CrossCheckConfig(seed=i))
        assert rep.consensus == "UNSTABLE"
        for v in rep.criteria:
            assert v.witness is not None, v.id
            assert reverify_witness(T, cone, v), v.id
        # the growth witnesses are checked as x, not |x|: a negated one fails
        for cid in ("SPR", "SIMPLE_SG", "SUBFIXED_POS", "STRONG_STAB", "WEAK_ATTR"):
            v = rep.verdict(cid)
            assert v.witness.kind == "cone_vector", cid
            negated = replace(v, witness=replace(v.witness, vector=-v.witness.vector))
            assert not reverify_witness(T, cone, negated), cid


def test_cross_check_boundary_band():
    rep = cross_check(diagonal([0.999]), orthant(1, "linf"))
    assert rep.consensus == "BOUNDARY"


def test_cross_check_non_positive_operator_restricted():
    T = dense([[0.5, 0.0], [-0.1, 0.5]])
    rep = cross_check(T, CONE2)
    assert not rep.positive
    assert [v.id for v in rep.criteria] == ["SPR"]
    assert any("not positive" in note for note in rep.notes)
    assert rep.lyapunov is not None  # stable in spite of the sign pattern


def test_cross_check_equivalent_norm_variant_follows_positivity():
    # a signed stable map gets the plain variant, which contracts; the lattice one does not
    rep = cross_check(dense([[0.5, -1.0], [0.0, 0.5]]), CONE2)
    eq = rep.lyapunov["equivalent_norm"]
    assert not eq["lattice"]
    assert eq["contraction_factor"] <= 1.0 / eq["s"] + 1e-8
    eq = cross_check(UPPER2X2, CONE2).lyapunov["equivalent_norm"]
    assert eq["lattice"]
    assert eq["contraction_factor"] <= 1.0 / eq["s"] + 1e-8


@pytest.mark.parametrize(
    "kind, norm", [("orthant", "linf"), ("orthant", "l2"), ("lorentz", "l2")]
)
def test_cross_check_equivalent_norm_is_the_envelope_norm(kind, norm):
    # the factor is the certified 1/s, which bounds the Perron vector's ratio, and
    # K is the envelope's m at the rate 1/s
    from posstab import equivalent_norm

    n = 12
    T = dense(_stable_positive(kind, n, seed=4, rho=0.8))
    cone = orthant(n, norm) if kind == "orthant" else lorentz(n, norm)
    rep = cross_check(T, cone)
    assert rep.consensus == "STABLE"
    eq = rep.lyapunov["equivalent_norm"]
    assert eq["contraction_factor"] == 1.0 / eq["s"]
    assert eq["s"] == 1.0 / rep.iss["a"]
    assert eq["K"] == geometric_envelope(T, 1.0 / eq["s"], norm)[1]
    cert = equivalent_norm(T, cone)
    assert cert.to_dict() == eq
    v = rep.spectral.perron_vector
    ratio = cert(apply(T, v)) / cert(v)
    assert ratio == pytest.approx(rep.spectral.perron_value, rel=1e-6)
    assert ratio <= eq["contraction_factor"]


def test_cross_check_lorentz_cone():
    from posstab import gallery_build

    entry = gallery_build("lorentz_demo")
    rep = cross_check(entry.operator, entry.cone)
    assert rep.consensus == "STABLE"


def _boost(t):
    # hyperbolic rotation: maps the 2-d Lorentz cone onto itself, with
    # negative entries for t < 0 (positive but not entrywise nonnegative)
    c, s = np.cosh(t), np.sinh(t)
    return np.array([[c, s], [s, c]])


@pytest.mark.parametrize("scale, expect", [(0.3, "STABLE"), (0.5, "UNSTABLE")])
def test_cross_check_lorentz_boost(scale, expect):
    from posstab import is_positive, lorentz

    a = scale * _boost(-1.0)
    cone = lorentz(2, "l2")
    assert a.min() < 0  # exercises the no-Perron-pair code paths
    ok, _ = is_positive(dense(a), cone)
    assert ok
    spr_true = scale * np.e  # dominant boost eigenvalue e^{|t|}
    rep = cross_check(dense(a), cone)
    assert rep.spectral.lower - 1e-6 <= spr_true <= rep.spectral.upper + 1e-6
    assert rep.consensus == expect
    for v in rep.criteria:
        assert v.holds == (expect == "STABLE"), (v.id, v.margin)
        if not v.holds:
            assert v.witness is not None, v.id


def test_uniform_small_gain_lorentz_scaled_identity():
    # dist((0.5 I - I)x, cone) = dist(-x/2, cone) = 1/2 for every unit cone x
    cone = lorentz(3, "l2")
    eta, verdict = uniform_small_gain_margin(dense(0.5 * np.eye(3)), cone)
    assert verdict.holds
    assert eta == pytest.approx(0.5, abs=1e-9)


def _boost_rotation_maps():
    """(i, a, target): boosts composed with spatial rotations, Lorentz-positive,
    usually with negative entries, rescaled to both sides of the stability
    threshold."""
    rng = np.random.default_rng(12)
    for i in range(12):
        n = int(rng.integers(2, 5))
        t = rng.uniform(-1.5, 1.5)
        boost = np.eye(n)
        boost[0, 0] = np.cosh(t)
        boost[0, 1] = boost[1, 0] = np.sinh(t)
        boost[1, 1] = np.cosh(t)
        rot = np.eye(n)
        if n >= 3:
            th = rng.uniform(0, 2 * np.pi)
            rot[1, 1], rot[1, 2] = np.cos(th), -np.sin(th)
            rot[2, 1], rot[2, 2] = np.sin(th), np.cos(th)
        a = boost @ rot
        spr0 = float(np.max(np.abs(np.linalg.eigvals(a))))
        target = [0.5, 0.8, 1.3, 2.0][i % 4]
        yield i, a * (target / spr0), target


def test_lorentz_consensus_fuzz():
    from posstab import is_positive

    for i, a, target in _boost_rotation_maps():
        cone = lorentz(len(a), "l2")
        ok, _ = is_positive(dense(a), cone, rng=np.random.default_rng(i))
        assert ok
        rep = cross_check(dense(a), cone, CrossCheckConfig(seed=i))
        expect = target < 1.0
        assert rep.consensus != "INCONSISTENT"
        for v in rep.criteria:
            assert v.holds == expect, (i, target, v.id, v.margin)


def test_mbi_and_usg_read_one_resolvent_norm(monkeypatch):
    # map 5 has clustered singular values of (I - T)^{-1}; MBI's c and the closed-form
    # uniform margin 1/||R|| read one memoized norm, so c * eta is 1 up to one rounding
    import posstab.criteria as crit

    calls, real = [], crit.batch_induced_norm
    spy = lambda P, *a, **k: calls.append(np.array(P)) or real(P, *a, **k)
    monkeypatch.setattr(crit, "batch_induced_norm", spy)
    a = next(b for j, b, _ in _boost_rotation_maps() if j == 5)
    T, cone = dense(a), lorentz(len(a), "l2")
    rep = cross_check(T, cone, CrossCheckConfig(seed=5))
    c, eta = rep.verdict("MBI").margin, rep.verdict("UNIFORM_SG").margin
    assert c * eta == pytest.approx(1.0, rel=2.3e-16, abs=0.0)
    assert small_gain_certificate(T, cone) == 1.0 / (c * cone_constants(cone).decomposition_M)
    # one certified norm of R, the only norm call on it
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], crit._resolvent_inverse(T)[None])


@pytest.mark.parametrize("i", [3, 10])
def test_lorentz_fuzz_growth_witnesses_without_a_perron_pair(i):
    # rho = 2 and 1.3, with negative entries, so no orthant Perron pair and
    # (I - T)^{-1} is not positive: every growth witness is the Perron vector
    # of the Lorentz bracket, and it takes the uniform margin to 0
    a = next(b for j, b, _ in _boost_rotation_maps() if j == i)
    T, cone = dense(a), lorentz(len(a), "l2")
    rep = cross_check(T, cone, CrossCheckConfig(seed=i))
    assert rep.consensus == "UNSTABLE"
    usg = rep.verdict("UNIFORM_SG")
    assert not usg.holds and usg.margin <= 1e-12
    assert reverify_witness(T, cone, usg)
    for cid in ("SPR", "SIMPLE_SG", "SUBFIXED_POS", "STRONG_STAB", "WEAK_ATTR"):
        v = rep.verdict(cid)
        assert v.witness.kind == "cone_vector", cid
        assert reverify_witness(T, cone, v), cid


def test_scale_invariance_of_norm_free_verdicts():
    rng = np.random.default_rng(3)
    free = ("SIMPLE_SG", "SUBFIXED_POS", "RESOLVENT_POS", "DUAL_SG")
    for _ in range(6):
        n = int(rng.integers(2, 5))
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a *= rng.choice([0.7, 1.5]) / max(float(np.max(np.abs(np.linalg.eigvals(a)))), 1e-9)
        cone = orthant(n, "linf")
        base = cross_check(dense(a), cone)
        for scale in (0.5, 2.0):
            d = np.full(n, scale)
            d[0] = 1.0
            m = np.diag(d) @ a @ np.diag(1.0 / d)
            rep = cross_check(dense(m), cone)
            for cid in free:
                assert rep.verdict(cid).holds == base.verdict(cid).holds


def test_consensus_mini_sweep():
    rng = np.random.default_rng(4)
    targets = [0.3, 0.9, 1.1, 3.0]
    for i in range(24):
        n = int(rng.integers(2, 9))
        a = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.75)
        spr0 = float(np.max(np.abs(np.linalg.eigvals(a))))
        if spr0 < 1e-9:
            continue
        target = targets[i % len(targets)]
        a *= target / spr0
        rep = cross_check(dense(a), orthant(n, "linf"), CrossCheckConfig(seed=i))
        expect = target < 1.0
        assert rep.consensus == ("STABLE" if expect else "UNSTABLE")
        for v in rep.criteria:
            assert v.holds == expect, (v.id, target)


def test_cross_check_factors_i_minus_t_once(monkeypatch):
    # RESOLVENT_POS and MBI share one block solve: I - T is factorized once
    import posstab.operators as ops

    rng = np.random.default_rng(2)
    n = 32
    a = rng.uniform(0.0, 1.0, size=(n, n))
    a *= 0.7 / float(np.max(np.abs(np.linalg.eigvals(a))))
    real = ops.lu_factor
    shift_one = []

    def counting_lu_factor(m, *args, **kwargs):
        if np.array_equal(m, np.eye(n) - a):
            shift_one.append(m)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(ops, "lu_factor", counting_lu_factor)
    rep = cross_check(dense(a), orthant(n, "l2"), CrossCheckConfig(seed=0))
    assert rep.consensus == "STABLE"
    assert len(shift_one) == 1


def test_cross_check_leaves_derived_data_on_the_operator(monkeypatch):
    # after one cross_check, the bracket, (I - T)^{-1} and the power-norm
    # table are read from T: the routines that build them must not run again
    import posstab.operators as ops

    rng = np.random.default_rng(4)
    n = 12
    a = rng.uniform(0.0, 1.0, size=(n, n))
    a *= 0.8 / float(np.max(np.abs(np.linalg.eigvals(a))))
    T, cone = dense(a), orthant(n, "l2")
    rep = cross_check(T, cone, CrossCheckConfig(seed=0))
    assert rep.consensus == "STABLE"

    def recomputed(*args, **kwargs):
        raise AssertionError("derived data recomputed")

    for name in ("_noda", "lu_factor", "induced_norm"):
        monkeypatch.setattr(ops, name, recomputed)
    assert spectral_radius(T) is rep.spectral
    assert check_resolvent_positivity(T, cone).to_dict() == rep.verdict("RESOLVENT_POS").to_dict()
    c, verdict = mbi_constant(T, cone)
    assert verdict.holds and c == rep.verdict("MBI").margin
    assert small_gain_certificate(T, cone) == pytest.approx(1.0 / (c * cone_constants(cone).decomposition_M))
    assert geometric_envelope(T, rep.iss["a"], "l2") is not None
    assert len(power_norms(T, rep.iss["K"], "l2")) == rep.iss["K"] + 1


def test_rank1_sg_reports_robust_sg_result():
    rep = cross_check(diagonal([1.5, 0.5]), CONE2)
    robust, rank1 = rep.verdict("ROBUST_SG"), rep.verdict("RANK1_SG")
    assert robust.witness.kind == "rank_one_perturbation"
    assert rank1.to_dict() == {**robust.to_dict(), "id": "RANK1_SG"}


def test_reverify_checks_every_kind_and_rejects_the_rest():
    # a flag claims no violation and passes through its own branch; a strict
    # decay pair certifies decay, so on a failing verdict it is no witness;
    # a kind reverify_witness does not know is rejected, not accepted
    T, cone = UPPER2X2, CONE2
    flag = CriterionVerdict("ROBUST_SG", False, -1.0, Witness(kind="flag", note="no violation found"))
    assert reverify_witness(T, cone, flag)
    cert = strict_decay_point(T, cone, 0.75, np.ones(2))
    pair = Witness("strict_decay_pair", cert.z, lam=cert.realized_lambda)
    assert reverify_witness(T, cone, CriterionVerdict("STRICT_DECAY", True, 0.25, pair))
    assert not reverify_witness(T, cone, CriterionVerdict("STRICT_DECAY", False, 0.25, pair))
    unknown = Witness(kind="growth_ray", vector=np.ones(2))
    assert not reverify_witness(T, cone, CriterionVerdict("SPR", False, -0.1, unknown))


def test_reverify_column_witness_must_solve():
    T = diagonal([1.5, 0.5])  # (I - T)^{-1} = diag(-2, 2)
    cone = orthant(2, "linf")
    v = check_resolvent_positivity(T, cone)
    assert v.witness.kind == "column" and v.witness.column == 0
    assert reverify_witness(T, cone, v)
    # planted: outside the cone, but not a column of the inverse
    halved = replace(v, witness=replace(v.witness, vector=0.5 * v.witness.vector))
    assert not reverify_witness(T, cone, halved)
    other = replace(v, witness=replace(v.witness, column=1))
    assert not reverify_witness(T, cone, other)


def _lorentz_positive(rng, n, rho):
    """sum_i u_i v_i^T with u_i, v_i inside the Lorentz cone, rescaled to radius rho."""

    def points():
        d = rng.normal(size=(n, n - 1))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        r = rng.uniform(0.0, 0.95, size=(n, 1))
        scale = rng.uniform(0.5, 1.0, size=(n, 1))
        return np.hstack([np.ones((n, 1)), r * d]) * scale

    a = points().T @ points()
    return a * (rho / float(np.max(np.abs(np.linalg.eigvals(a)))))


def test_dual_small_gain_reads_the_adjoint_growth_vector():
    # the witness is the adjoint's Perron functional, checked as T'x' >= x'
    T = dense(_lorentz_positive(np.random.default_rng(0), 16, 1.05))
    cone = lorentz(16, "l2")
    v = dual_small_gain(T, cone)
    est = spectral_radius(adjoint(T))
    assert est.perron_vector is not None and 1.0 < est.lower
    assert not v.holds and v.witness.kind == "dual_functional"
    assert v.witness.note == "Perron functional of the adjoint: T'x' >= x'"
    assert np.sum(np.abs(v.witness.functional)) == pytest.approx(1.0, abs=1e-12)
    assert reverify_witness(T, cone, v)
    negated = replace(v, witness=replace(v.witness, functional=-v.witness.functional))
    assert not reverify_witness(T, cone, negated)


@pytest.mark.parametrize("n", [16, 32])
def test_lorentz_cone_vector_witnesses_reverify(n):
    # the Lorentz cone has no lattice: witnesses are checked as x, not |x|
    T = dense(_lorentz_positive(np.random.default_rng(0), n, 1.05))
    cone = lorentz(n, "l2")
    rep = cross_check(T, cone)
    ids = {"SPR", "UNIFORM_SG", "INTERIOR_SG", "SIMPLE_SG", "SUBFIXED_POS", "STRONG_STAB", "WEAK_ATTR"}
    assert spectral_radius(T).perron_vector is not None
    found = [v for v in rep.criteria if v.id in ids and v.witness.kind == "cone_vector"]
    assert {v.id for v in found} == ids
    for v in found:
        assert reverify_witness(T, cone, v), v.id
        negated = replace(v, witness=replace(v.witness, vector=-v.witness.vector))
        assert not reverify_witness(T, cone, negated), v.id


def test_lorentz_resolvent_witness_reverify():
    # the image v of a cone ray under (I - T)^{-1}: v outside K, (I - T)v inside
    T = dense(_lorentz_positive(np.random.default_rng(0), 16, 1.5))
    cone = lorentz(16, "l2")
    v = check_resolvent_positivity(T, cone)
    assert not v.holds and v.witness.kind == "cone_vector"
    assert reverify_witness(T, cone, v)
    image = v.witness.vector
    for planted in (-image, image - apply(T, image), 0.5 * image + np.eye(16)[1]):
        wrong = replace(v, witness=replace(v.witness, vector=planted))
        assert not reverify_witness(T, cone, wrong)


def test_lorentz_usg_and_isg_witness_the_unit_growth_vector(monkeypatch):
    # without a positive inverse USG and ISG take eta = 0 and one witness: the
    # Lorentz Perron vector of the spectral bracket, projected and scaled to unit
    # norm; no approximate eigenvector is searched for, on either side of rho = 1
    eig_calls = _count_calls(monkeypatch, "approximate_positive_eigenvector")
    for n in (8, 32):
        stable = dense(_lorentz_positive(np.random.default_rng(1), n, 0.9))
        assert cross_check(stable, lorentz(n, "l2")).consensus == "STABLE"
        T = dense(_lorentz_positive(np.random.default_rng(1), n, 1.05))
        cone = lorentz(n, "l2")
        rep = cross_check(T, cone)
        assert rep.consensus == "UNSTABLE" and not rep.verdict("RESOLVENT_POS").holds
        x = project(cone, spectral_radius(T).perron_vector)
        x /= vec_norm(x, "l2")
        for cid in ("UNIFORM_SG", "INTERIOR_SG"):
            v = rep.verdict(cid)
            assert not v.holds and v.margin == 0.0 and v.witness.kind == "cone_vector", cid
            np.testing.assert_array_equal(v.witness.vector, x)
            assert reverify_witness(T, cone, v), cid
    assert eig_calls == []


def _count_calls(monkeypatch, name):
    """Patch posstab.criteria.<name> to record the operator of every call."""
    import posstab.criteria as crit

    real, seen = getattr(crit, name), []

    def counting(T, *args, **kwargs):
        seen.append(T)
        return real(T, *args, **kwargs)

    monkeypatch.setattr(crit, name, counting)
    return seen


def _count_brackets(monkeypatch):
    """Patch posstab.operators._spectral_bracket to record the operator of every run."""
    import posstab.operators as ops

    real, seen = ops._spectral_bracket, []
    monkeypatch.setattr(ops, "_spectral_bracket", lambda T: seen.append(T) or real(T))
    return seen


def test_unstable_cross_check_runs_no_private_eigenvector_search(monkeypatch):
    # every criterion that fails reads the memoized growth vector: on the
    # orthant it is the Perron vector, so no resolvent schedule runs
    eig_calls = _count_calls(monkeypatch, "approximate_positive_eigenvector")
    solves = _count_calls(monkeypatch, "_shifted_lu")
    T = dense(_stable_positive("orthant", 16, seed=5, rho=1.05))
    rep = cross_check(T, orthant(16, "l2"))
    assert rep.consensus == "UNSTABLE"
    assert eig_calls == [] and solves == []


@pytest.mark.parametrize("n", [8, 16])
def test_lorentz_cross_check_searches_once_per_operator(monkeypatch, n):
    # one spectral bracket for T, whose Perron vector every growth witness
    # reads; T' (DUAL_SG) shares it, and no eigenvector search runs
    eig_calls = _count_calls(monkeypatch, "approximate_positive_eigenvector")
    brackets = _count_brackets(monkeypatch)
    T = dense(_lorentz_positive(np.random.default_rng(1), n, 1.5))
    rep = cross_check(T, lorentz(n, "l2"))
    assert rep.consensus == "UNSTABLE"
    assert eig_calls == [] and brackets == [T]


def test_lorentz_cross_check_samples_positivity_once(monkeypatch):
    # the bracket and cross_check both ask is_positive(T, lorentz) on the
    # fixed rays: one sampled test answers both, with a read-only witness
    import posstab.operators as ops

    real, seen = ops._positivity, []
    monkeypatch.setattr(ops, "_positivity", lambda T, cone, rng: seen.append(T) or real(T, cone, rng))
    T = dense(_lorentz_positive(np.random.default_rng(1), 8, 0.9))
    rep = cross_check(T, lorentz(8, "l2"))
    assert rep.positive and sum(t is T for t in seen) == 1
    signed = dense([[0.5, 0.0], [-0.1, 0.5]])
    positive, w = is_positive(signed, lorentz(2, "l2"))
    assert not positive and not w.flags.writeable
    assert is_positive(signed, lorentz(2, "l2"))[1] is w
    assert sum(t is signed for t in seen) == 1


def test_lorentz_maps_above_one_report_unstable():
    # the Lorentz bisection closes the bracket around rho = 1.05, and the
    # consensus reads rho from the Perron value, outside the boundary band
    for seed in range(10):
        rep = cross_check(dense(_lorentz_positive(np.random.default_rng(seed), 8, 1.05)), lorentz(8, "l2"))
        assert rep.consensus == "UNSTABLE", seed


@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize("rho", [0.5, 0.9, 1.05, 1.5])
def test_lorentz_bracket_contains_rho_at_target_width(n, rho):
    a = _lorentz_positive(np.random.default_rng(n), n, rho)
    est = spectral_radius(dense(a))
    true = float(np.max(np.abs(np.linalg.eigvals(a))))  # test-only oracle
    assert est.lower <= true <= est.upper
    assert est.converged and est.width <= 1e-8 * max(1.0, est.upper)
    v = est.perron_vector
    assert contains(lorentz(n, "l2"), v, 0.0) and est.residual <= 1e-12
    assert np.max(np.abs(a @ v - est.perron_value * v)) <= 1e-12


def test_signed_maps_off_the_lorentz_cone_keep_the_trace_gelfand_bracket():
    from posstab.operators import _gelfand_upper, _power_lower

    theta = np.pi / 8
    rotation = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    for rows in ([[0.5, 0.0], [-0.1, 0.5]], rotation):
        a = np.array(rows)
        est = spectral_radius(dense(a))
        upper = _gelfand_upper(a)
        lower = min(_power_lower(a, lambda p: abs(float(np.trace(p))) / len(p), 16), upper)
        assert (est.lower, est.upper, est.iterations) == (lower, upper, 0)
        assert est.perron_value is None and est.perron_vector is None
        # the report's positivity samples the rays that gate the bracket
        assert not cross_check(dense(a), lorentz(2, "l2")).positive


def _adjoint_cases():
    yield dense(_stable_positive("orthant", 16, seed=5, rho=1.05)), orthant(16, "l2")
    yield dense(_lorentz_positive(np.random.default_rng(3), 16, 1.05)), lorentz(16, "l2")


def test_adjoint_is_built_once_and_shares_the_bracket():
    for T, _ in _adjoint_cases():
        adj = adjoint(T)
        assert adj is adjoint(T)
        est, est_adj = spectral_radius(T), spectral_radius(adj)
        assert (est_adj.lower, est_adj.upper) == (est.lower, est.upper)
        v = est_adj.perron_vector
        assert est_adj.residual <= 1e-12
        assert np.max(np.abs(T.matrix.T @ v - est_adj.perron_value * v)) <= 1e-12


def test_cross_check_computes_one_spectral_bracket(monkeypatch):
    brackets = _count_brackets(monkeypatch)
    for T, cone in _adjoint_cases():
        brackets.clear()
        rep = cross_check(T, cone)
        assert rep.consensus == "UNSTABLE" and rep.positive
        assert brackets == [T]


def _unstable_witness_cases():
    for name in gallery_names():
        entry = gallery_build(name)
        yield f"gallery/{name}", entry.operator, entry.cone, 0
    for norm in ("l1", "l2", "linf"):
        yield f"orthant/{norm}", dense(_stable_positive("orthant", 8, 3, 1.05)), orthant(8, norm), 0
    for n in (8, 16):
        for rho in (1.05, 1.5):
            a = _lorentz_positive(np.random.default_rng(n), n, rho)
            yield f"lorentz/n{n}/rho{rho}", dense(a), lorentz(n, "l2"), 0
    for i, a, _ in _boost_rotation_maps():
        if i in (3, 7, 10):
            yield f"lorentz-fuzz/i{i}", dense(a), lorentz(len(a), "l2"), i


def test_failing_witnesses_reverify_and_dual_sg_carries_no_flag():
    checked = 0
    for name, T, cone, seed in _unstable_witness_cases():
        rep = cross_check(T, cone, CrossCheckConfig(seed=seed))
        for v in rep.criteria:
            if v.holds or v.witness is None:
                continue
            assert not (v.id == "DUAL_SG" and v.witness.kind == "flag"), name
            if v.witness.kind != "flag":
                assert reverify_witness(T, cone, v), (name, v.id)
                checked += 1
    assert checked >= 100


# ------------------------------------------------- closed-form small-gain margins

_ORD = {"l1": 1, "l2": 2, "linf": np.inf}
_CLOSED_FORM_CONES = [("orthant", "l1"), ("orthant", "l2"), ("orthant", "linf"), ("lorentz", "l2")]


def _stable_positive(kind, n, seed, rho=0.9):
    rng = np.random.default_rng(seed)
    if kind == "lorentz":
        return _lorentz_positive(rng, n, rho)
    a = rng.uniform(0.0, 1.0, size=(n, n))
    return a * (rho / float(np.max(np.abs(np.linalg.eigvals(a)))))


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("kind,norm", _CLOSED_FORM_CONES)
def test_interior_small_gain_equals_resolvent_image_oracle(kind, norm, n):
    # eta_ISG = 1/||(I - T)^{-1} z|| with numpy's inverse as the oracle
    a = _stable_positive(kind, n, seed=n)
    cone = orthant(n, norm) if kind == "orthant" else lorentz(n, norm)
    z = np.ones(n) if kind == "orthant" else np.eye(n)[0]
    eta, v = interior_small_gain(dense(a), cone, z)
    oracle = 1.0 / np.linalg.norm(np.linalg.inv(np.eye(n) - a) @ z, _ORD[norm])
    assert v.holds
    assert eta == pytest.approx(oracle, rel=1e-12, abs=0.0)


# orthant ids are the bare norm, so that the orthant cases keep their test ids
_USG_CONES = [
    pytest.param(kind, norm, id=norm if kind == "orthant" else f"{kind}-{norm}")
    for kind, norm in _CLOSED_FORM_CONES
]


@pytest.mark.parametrize("n", [4, 16, 64])
@pytest.mark.parametrize("kind,norm", _USG_CONES)
def test_orthant_uniform_small_gain_equals_inverse_norm_oracle(kind, norm, n):
    # eta_USG = 1/||(I - T)^{-1}|| on both cones; l1/linf norms are exact
    # sums, l2 is a certified upper bound (1e-12)
    a = _stable_positive(kind, n, seed=100 + n)
    cone = orthant(n, norm) if kind == "orthant" else lorentz(n, norm)
    T = dense(a)
    eta, v = uniform_small_gain_margin(T, cone)
    oracle = 1.0 / np.linalg.norm(np.linalg.inv(np.eye(n) - a), _ORD[norm])
    assert v.holds
    assert eta == pytest.approx(oracle, rel=1e-12, abs=0.0)
    # small_gain_certificate is 1/(c*M): M = 1 on the orthant, 1 + sqrt(2) on the Lorentz cone
    cert = small_gain_certificate(T, cone)
    if kind == "orthant":
        assert eta == cert
    else:
        assert cert < eta
        assert eta == pytest.approx((1.0 + np.sqrt(2.0)) * cert, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("name", ["upper2x2", "shift2R", "multiplication", "diag_strong_stable", "lorentz_demo"])
def test_interior_small_gain_gallery_oracle(name):
    # shift2R and diag_strong_stable converge slowly under the 90-step
    # feasibility iteration, so a search over eta would land high there
    from posstab import gallery_build, interior_point

    entry = gallery_build(name)
    a = materialize(entry.operator)
    z = interior_point(entry.cone)
    eta, _ = interior_small_gain(entry.operator, entry.cone, z)
    oracle = 1.0 / np.linalg.norm(np.linalg.inv(np.eye(len(a)) - a) @ z, _ORD[entry.cone.norm])
    assert eta == pytest.approx(oracle, rel=1e-12, abs=0.0)


def _with_planted_inverse(a, factor):
    T = dense(a)
    planted = np.linalg.inv(np.eye(len(a)) - a) * factor
    planted.setflags(write=False)
    vars(T).setdefault("_memo", {})["inverse"] = planted
    return T


@pytest.mark.parametrize("kind,norm", [("orthant", "linf"), ("orthant", "l2"), ("lorentz", "l2")])
@pytest.mark.parametrize(
    "factor,caught_by",
    [
        (0.99, "falls short of eta z"),
        (0.9999, "falls short of eta z"),
        (0.99999, "falls short of eta z"),
        (1.01, "is not feasible at"),
    ],
)
def test_interior_small_gain_catches_planted_inverse(kind, norm, factor, caught_by):
    # x = eta R z is the true Rz/||Rz|| for every factor, so (I - T)x = eta_true z.
    # R*0.99 puts eta 1% high: (I - T)x falls short of eta z, and so it does
    # with eta 1e-4 and 1e-5 high, beyond the 1e-6 relative slack.
    # R*1.01 puts eta 1% low: x = Rz/||Rz|| is not feasible there.
    n = 16
    a = _stable_positive(kind, n, seed=3)
    cone = orthant(n, norm) if kind == "orthant" else lorentz(n, norm)
    z = np.ones(n) if kind == "orthant" else np.eye(n)[0]
    T = _with_planted_inverse(a, factor)
    assert check_resolvent_positivity(T, cone).holds
    with pytest.raises(ArithmeticError, match=caught_by):
        interior_small_gain(T, cone, z)


@pytest.mark.parametrize("kind,norm", _USG_CONES)
@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_orthant_uniform_small_gain_catches_planted_inverse(kind, norm, factor):
    # the objective at x = Rv/||Rv|| is 1/||R_true||, not the planted 1/||R||
    n = 16
    T = _with_planted_inverse(_stable_positive(kind, n, seed=5), factor)
    cone = orthant(n, norm) if kind == "orthant" else lorentz(n, norm)
    assert check_resolvent_positivity(T, cone).holds
    with pytest.raises(ArithmeticError, match="is not attained"):
        uniform_small_gain_margin(T, cone)


def _usg_seeds(T, cone, rng, n_starts):
    """Seed rows of a search oracle for the uniform margin: the ones vector, the
    e_i (orthant) or the interior point and the rays e_0 +- e_i (Lorentz), the
    projected Perron vector and n_starts random cone points."""
    n = cone.dim
    seeds = [np.ones(n)]
    if cone.kind == "orthant":
        seeds.extend(np.eye(n))
    else:
        seeds.append(interior_point(cone))
        for i in range(1, n):
            for s in (1.0, -1.0):
                ray = np.zeros(n)
                ray[0] = 1.0
                ray[i] = s
                seeds.append(ray)
    v = spectral_radius(T).perron_vector
    if v is not None:
        seeds.append(project(cone, v))
    return np.vstack([np.array(seeds), random_points(cone, rng, n_starts)])


def _usg_seed_cases():
    for kind, norm in _CLOSED_FORM_CONES:
        for n in (4, 16, 64):
            cone = orthant(n, norm) if kind == "orthant" else lorentz(n, norm)
            yield pytest.param(dense(_stable_positive(kind, n, seed=n)), cone, id=f"{kind}-{norm}-n{n}")
    entry = gallery_build("diag_strong_stable")
    yield pytest.param(entry.operator, entry.cone, id="gallery-diag_strong_stable")


@pytest.mark.parametrize("T, cone", _usg_seed_cases())
def test_usg_search_seeds_find_nothing_below_the_closed_form(T, cone):
    # the seeds that UNIFORM_SG searched on every call before its closed form
    # 1/||R|| was taken as certified wherever R = (I - T)^{-1} is positive
    assert check_resolvent_positivity(T, cone).holds
    eta, v = uniform_small_gain_margin(T, cone)
    assert v.holds
    X = _cone_unit_rows(cone, _usg_seeds(T, cone, np.random.default_rng(0), 64))
    vals = batch_distance(cone, X @ (materialize(T) - np.eye(cone.dim)).T)
    assert vals.min() >= eta * (1.0 - 1e-9)


@pytest.mark.parametrize("kind", ["orthant", "lorentz"])
def test_uniform_small_gain_catches_an_understated_l2_bound(monkeypatch, kind):
    # ||Rv|| above the certified ||R||: a bound 1e-6 low fails the check at x = Rv/||Rv||
    import posstab.criteria as crit

    real = crit.batch_induced_norm

    def understated(*args):
        norms, v = real(*args)
        return 0.999999 * norms, v

    monkeypatch.setattr(crit, "batch_induced_norm", understated)
    n = 16
    T = dense(_stable_positive(kind, n, seed=5))
    cone = orthant(n, "l2") if kind == "orthant" else lorentz(n, "l2")
    assert check_resolvent_positivity(T, cone).holds
    with pytest.raises(ArithmeticError, match="is not attained"):
        uniform_small_gain_margin(T, cone)


def _sweep_cases():
    """(name, operator, cone) of `tools/identity_sweep.py`'s case set."""
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("identity_sweep", root / "tools" / "identity_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the sweep pins BLAS threads for its own process
        spec.loader.exec_module(sweep)
    return [(name, T, cone) for name, T, cone, _, _ in sweep.cases(np, _certbench_inputs(), posstab)]


def _certbench_inputs():
    path = pathlib.Path(__file__).resolve().parents[1] / "certbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("certbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def test_l2_uniform_margin_is_certified_on_the_sweep():
    # under l2 eta = 1/||R|| from a certified upper bound on ||R||: never above
    # numpy's 1/||R||_2, and within 1e-10 of it, on every sweep case with a positive R
    families = set()
    for name, T, cone in _sweep_cases():
        if cone.norm != "l2" or not check_resolvent_positivity(T, cone).holds:
            continue
        eta, _ = uniform_small_gain_margin(T, cone)
        oracle = 1.0 / np.linalg.norm(np.linalg.inv(np.eye(cone.dim) - materialize(T)), 2)
        assert oracle * (1.0 - 1e-10) <= eta <= oracle, name
        families.add(name.split("/")[0])
    assert families == {
        "gallery", "orthant", "lorentz", "diagonal", "shift", "certbench-lorentz", "lorentz-fuzz",
        "near1", "lorentz-nilpotent",
    }


def test_usg_without_a_positive_inverse_takes_isg_rule_on_the_sweep():
    # one rule for both margins where (I - T)^{-1} is not positive: eta = 0, and
    # the unit growth vector or else the RESOLVENT_POS gate's witness
    failing = []
    for name, T, cone in _sweep_cases():
        if check_resolvent_positivity(T, cone).holds:
            continue
        eta, usg = uniform_small_gain_margin(T, cone)
        _, isg = interior_small_gain(T, cone, interior_point(cone))
        assert eta == 0.0 and usg.margin == 0.0 and not usg.holds, name
        assert usg.witness.kind == isg.witness.kind, name
        if isg.witness.vector is None:
            assert usg.witness.vector is None, name
        else:
            np.testing.assert_array_equal(usg.witness.vector, isg.witness.vector, err_msg=name)
        failing.append(name)
    assert len(failing) >= 50 and "jordan/n16/rho0.9" in failing


def _jordan16():
    """0.9 (I + 0.5 N) on orthant-linf, N the superdiagonal shift: sweep case jordan/n16/rho0.9."""
    a = 0.9 * (np.eye(16) + 0.5 * np.eye(16, k=1))
    return dense(a), orthant(16, "linf")


def test_jordan16_usg_robust_and_rank1_fail_where_the_seed_search_overstated_eta():
    # R = (I - T)^{-1} >= 0 exactly, but ||R||_inf = 8.1e10 puts eta = 1/||R||_inf
    # below DEFAULT_TOL, and the resolvent solve is refused, so USG, ROBUST_SG and
    # RANK1_SG fail.  A seed search overstates eta here by more than 1e8.
    T, cone = _jordan16()
    a = materialize(T)
    rep = cross_check(T, cone)
    gate = rep.verdict("RESOLVENT_POS")
    assert not gate.holds and gate.witness.note.startswith("SPECTRAL_PROXIMITY")
    usg = rep.verdict("UNIFORM_SG")
    assert not usg.holds and usg.margin == 0.0 and usg.witness == gate.witness
    for cid in ("ROBUST_SG", "RANK1_SG"):
        v = rep.verdict(cid)
        assert not v.holds and v.margin == -1e-3 and v.witness.note == "no violation found", cid
    assert rep.consensus == "INCONSISTENT"
    # (I - T)x = 1 by back substitution, exact: R >= 0, so ||R||_inf = max x = x_0
    d, s = 1 - Fraction(a[0, 0]), Fraction(a[0, 1])
    x = Fraction(0)
    for _ in range(16):
        x = (1 + s * x) / d
    eta = float(1 / x)
    assert 1.2e-11 < eta < 1.3e-11 < DEFAULT_TOL
    X = _cone_unit_rows(cone, _usg_seeds(T, cone, np.random.default_rng(0), 64))
    assert batch_distance(cone, X @ (a - np.eye(16)).T).min() > 1e8 * eta


def _benchmark_maps():
    """Each certify op with n <= 64 of the certbench workloads at seed 0, and jordan/n16/rho0.9."""
    inputs = _certbench_inputs()
    for workload in ("dense-orthant", "near-boundary", "lorentz"):
        for op in inputs.build_ops(workload, 0):
            if op.dim <= 64:
                cone = orthant(op.dim, op.norm) if op.cone == "orthant" else lorentz(op.dim, op.norm)
                yield op.matrix, cone
    T, cone = _jordan16()
    yield materialize(T), cone


def test_cross_check_seed_moves_only_the_quasi_compact_margins():
    # the seed feeds only the quasi-compact starts: two seeds give the same
    # report except for the sampled STRONG_STAB and WEAK_ATTR margins
    def report(a, cone, seed):
        d = cross_check(dense(a), cone, CrossCheckConfig(seed=seed)).to_dict()
        for v in d["criteria"]:
            if v["id"] in ("STRONG_STAB", "WEAK_ATTR"):
                v["margin"] = None
        return d

    maps = list(_benchmark_maps())
    assert len(maps) == 39
    for a, cone in maps:
        assert report(a, cone, 0) == report(a, cone, 1)


def test_diag_strong_stable_mbi_constant_is_not_understated():
    # ||(I - T)^{-1}||_2 = 65 exactly (slowest mode 1 - 1/65); C = 1 on the l2 orthant
    entry = gallery_build("diag_strong_stable")
    c, v = mbi_constant(entry.operator, entry.cone)
    assert v.holds
    assert 65.0 <= c <= 65.0 * (1.0 + 1e-10)


def test_lorentz_uniform_small_gain_makes_one_distance_call(monkeypatch):
    # one distance, at x = Rv/||Rv||, where `_resolvent_norm` checks the closed form:
    # no seed is searched, and criteria imports no batch distance to search with
    import posstab.criteria as crit

    n = 16
    calls, real = [], crit.distance
    monkeypatch.setattr(crit, "distance", lambda cone, X: calls.append(np.shape(X)) or real(cone, X))
    T, cone = dense(_stable_positive("lorentz", n, seed=5)), lorentz(n, "l2")
    assert check_resolvent_positivity(T, cone).holds
    eta, v = uniform_small_gain_margin(T, cone)
    assert v.holds
    assert calls == [(n,)] and not hasattr(crit, "batch_distance")


@pytest.mark.parametrize("kind", ["orthant", "lorentz"])
def test_mbi_falsification_pair_reverifies(kind):
    # R*0.2 makes c five times too small: MBI reads the norm that `_resolvent_norm`
    # checks at its attaining vector, so it raises before issuing c; against that c
    # the sampled search `_falsification_pair` finds a pair (x, y) with x, y and
    # y - (I - T)x in K and ||x|| > c ||y||
    n = 16
    a = _stable_positive(kind, n, seed=7)
    T = _with_planted_inverse(a, 0.2)
    cone = orthant(n, "l2") if kind == "orthant" else lorentz(n, "l2")
    assert check_resolvent_positivity(T, cone).holds
    with pytest.raises(ArithmeticError, match="is not attained"):
        mbi_constant(T, cone)
    c = induced_norm(0.2 * np.linalg.inv(np.eye(n) - a), "l2")  # C = 1 on both cones under l2
    pair = _falsification_pair(T, cone, c)
    assert pair is not None
    x, y = pair
    assert all(contains(cone, v, 1e-12) for v in (x, y, y - x + apply(T, x)))
    assert vec_norm(x, "l2") > c * vec_norm(y, "l2")


def _falsification_pair(T, cone, c):
    """First of 1000 random cone pairs (x, y) with (I - T)x <= y and ||x|| > c ||y|| + 1e-9,
    or None: a sampled search for a violation of MBI's bound c."""
    rng = np.random.default_rng(0)
    X = random_points(cone, rng, 1000)
    # rows y = w + z + s r over w = (I - T) x: w + z is the positive part of w
    # (decompose), r is cone noise, so y >= w and y is in the cone
    Y = X - apply(T, X.T).T
    Y += decompose(cone, Y)[1]
    Y += rng.uniform(0.0, 1.0, size=(len(X), 1)) * random_points(cone, rng, len(X))
    bad = np.nonzero(batch_vec_norm(X, cone.norm) > c * batch_vec_norm(Y, cone.norm) + 1e-9)[0]
    return (X[bad[0]], Y[bad[0]]) if bad.size else None


def _monotone_point(a, cone, X, w):
    """First row x with ax + w - x in the cone (within 1e-12) of up to 90 steps of
    x <- normalize(project(ax + w)) on the unit cone rows X, or None: a sampled
    search for a point that is feasible for INTERIOR_SG at the eta of w = eta z.

    None also comes early, once a step leaves the rows unchanged to rounding
    (every entry within 16 ulps of the largest) while every margin is below
    -1e-12 - g, g = L (16 + 4 (n + 2)) u s, s = ||a||_inf + ||w||_inf + 1, L = 1
    on the orthant and 1 + sqrt(n - 1) on the Lorentz cone: g bounds how far
    rounding moves a margin, so each later step would repeat this step's
    failed hit test.
    """
    n = cone.dim
    lip = 1.0 if cone.kind == "orthant" else 1.0 + np.sqrt(n - 1)
    s = float(np.max(np.abs(a).sum(axis=1))) + float(np.max(np.abs(w))) + 1.0
    g = lip * (16.0 + 4.0 * (n + 2)) * UNIT_ROUNDOFF * s
    for _ in range(90):
        W = X @ a.T + w
        m = margin(cone, W - X)
        hit = np.nonzero(m >= -1e-12)[0]
        if hit.size:
            return X[int(hit[0])].copy()
        Y = _cone_unit_rows(cone, W)
        if Y.size == 0:
            return None
        if Y.shape == X.shape and np.max(m) < -1e-12 - g:
            if np.max(np.abs(Y - X)) <= 16.0 * UNIT_ROUNDOFF * np.max(np.abs(Y)):
                return None
        X = Y
    return None


def _feasible_below(T, cone, z, eta):
    """`_monotone_point` just below eta from the `_usg_seeds` rows: the ones vector, the
    e_i or the rays e_0 +- e_i and the interior point, the Perron vector and 16 random points."""
    mz = float(margin(cone, z))
    slack = 1e-6 * eta * mz + 1e-12
    seeds = _cone_unit_rows(cone, _usg_seeds(T, cone, np.random.default_rng(0), 16))
    return _monotone_point(materialize(T), cone, seeds, (eta - slack / mz) * z)


def _oracle_cases():
    for name in gallery_names():
        entry = gallery_build(name)
        yield pytest.param(entry.operator, entry.cone, id=f"gallery-{name}")
    for rho in (0.5, 0.97):
        for n in (8, 16, 64):
            for norm in ("linf", "l2"):
                a = np.random.default_rng(n).uniform(0.0, 1.0, size=(n, n))
                a *= rho / float(np.max(np.abs(np.linalg.eigvals(a))))
                yield pytest.param(dense(a), orthant(n, norm), id=f"orthant-{norm}-n{n}-rho{rho}")
        for n in (8, 16):
            a = _lorentz_positive(np.random.default_rng(n), n, rho)
            yield pytest.param(dense(a), lorentz(n, "l2"), id=f"lorentz-n{n}-rho{rho}")


@pytest.mark.parametrize("T, cone", _oracle_cases())
def test_sampling_oracles_find_nothing_against_the_closed_forms(T, cone):
    # the searches that MBI and INTERIOR_SG ran on every call before their
    # closed forms were checked at the attaining vectors
    if not check_resolvent_positivity(T, cone).holds:
        pytest.skip("no positive inverse: MBI and INTERIOR_SG fail with RESOLVENT_POS")
    c, mbi = mbi_constant(T, cone)
    z = interior_point(cone)
    eta, isg = interior_small_gain(T, cone, z)
    assert mbi.holds and isg.holds
    assert _falsification_pair(T, cone, c) is None
    assert _feasible_below(T, cone, z, eta) is None


@pytest.mark.parametrize("kind,norm", [("orthant", "linf"), ("orthant", "l2"), ("lorentz", "l2")])
def test_sampling_oracles_fire_on_planted_inverses(kind, norm):
    # R*0.99 puts ISG's eta 1% high and R*0.2 MBI's c five times too low
    n = 16
    a = _stable_positive(kind, n, seed=3)
    cone = orthant(n, norm) if kind == "orthant" else lorentz(n, norm)
    z = interior_point(cone)
    inv = np.linalg.inv(np.eye(n) - a)
    T = dense(a)
    eta = 1.0 / vec_norm(0.99 * inv @ z, norm)
    assert _feasible_below(T, cone, z, eta) is not None
    assert _falsification_pair(T, cone, 0.2 * induced_norm(inv, norm)) is not None


def test_interior_small_gain_makes_at_most_one_probe(monkeypatch):
    # the closed form runs no feasibility probe: `margin` is called for
    # margin(z), the positivity gate and the two sides of the check at x = eta Rz
    import posstab.criteria as crit

    n = 64
    calls = []
    real = crit.margin

    def counting(cone, x):
        calls.append(np.shape(x))
        return real(cone, x)

    monkeypatch.setattr(crit, "margin", counting)
    T, cone = dense(_stable_positive("orthant", n, seed=9, rho=0.97)), orthant(n, "l2")
    eta, v = interior_small_gain(T, cone, np.ones(n))
    assert v.holds
    assert calls == [(n,), (n, n), (n,), (n,)]


def test_resolvent_positivity_checked_once_per_cone(monkeypatch):
    # RESOLVENT_POS, MBI, UNIFORM_SG and INTERIOR_SG share one memoized check
    import posstab.criteria as crit

    real = crit._resolvent_positivity
    seen = []

    def counting(T, cone, tol):
        seen.append((cone, tol))
        return real(T, cone, tol)

    monkeypatch.setattr(crit, "_resolvent_positivity", counting)
    n = 12
    T = dense(_stable_positive("orthant", n, seed=2))
    rep = cross_check(T, orthant(n, "linf"))
    assert rep.consensus == "STABLE"
    assert seen == [(orthant(n, "linf"), 1e-10)]
    assert check_resolvent_positivity(T, orthant(n, "linf")) is rep.verdict("RESOLVENT_POS")
    check_resolvent_positivity(T, orthant(n, "l1"))
    assert len(seen) == 2


def test_cross_check_searches_the_envelope_once(monkeypatch):
    # STRONG_STAB/WEAK_ATTR, the ISS M and the Lyapunov norm read one memoized envelope search
    import posstab.operators as ops

    real, calls = ops._envelope, []
    monkeypatch.setattr(ops, "_envelope", lambda *args: calls.append(args[1:]) or real(*args))
    n = 12
    T = dense(_stable_positive("orthant", n, seed=2))
    rep = cross_check(T, orthant(n, "linf"))
    assert rep.consensus == "STABLE"
    assert calls == [(0.5 * (rep.spectral.upper + 1.0), "linf")]
    assert geometric_envelope(T, rep.iss["a"], "linf")[0] <= rep.iss["M"]
    eq = rep.lyapunov["equivalent_norm"]
    assert eq["s"] == 1.0 / rep.iss["a"]
    assert eq["K"] == geometric_envelope(T, rep.iss["a"], "linf")[1]
    assert len(calls) == 1


def _dense_positive(n, rho):
    """certbench's inputs.dense_positive(default_rng(0), n, rho)."""
    a = np.random.default_rng(0).uniform(0.0, 1.0, size=(n, n))
    return a * (rho / float(np.max(np.abs(np.linalg.eigvals(a)))))


def _count_chains(monkeypatch):
    """Record the squarings of every `_doubling` chain, wherever it is called from."""
    import posstab.criteria as crit
    import posstab.lyapunov as lyap
    import posstab.operators as ops

    real, chains = ops._doubling, []

    def counting(p, consumers):
        chains.append(real(p, consumers))
        return chains[-1]

    for mod in (crit, lyap, ops):
        monkeypatch.setattr(mod, "_doubling", counting)
    return chains


@pytest.mark.parametrize("rho, squarings", [(0.97, 11), (0.5, 7), (1.05, 8)])
def test_cross_check_squares_t_on_one_chain(monkeypatch, rho, squarings):
    # the quasi-compact samples, Stein's doubling (upper < 1) and the inverse's
    # Neumann probe (upper <= 0.995) read one chain T, T^2, T^4, ...
    chains = _count_chains(monkeypatch)
    n = 64
    rep = cross_check(dense(_dense_positive(n, rho)), orthant(n, "l2"))
    assert rep.consensus == ("STABLE" if rho < 1.0 else "UNSTABLE")
    assert chains == [squarings]


@pytest.mark.parametrize("rho, alone", [(0.97, (11, 11, 10)), (0.5, (7, 6, 5))])
def test_shared_chain_gives_the_results_of_the_chains_alone(monkeypatch, rho, alone):
    # quasi-compact samples, Neumann probe and Stein each on their own chain
    # (squarings: quasi, Neumann, Stein) against the one chain they share
    from posstab import resolvent_apply, solve_stein
    from posstab.operators import _neumann_resolvent, _probe, _taken

    chains = _count_chains(monkeypatch)
    n = 64
    a, cone = _dense_positive(n, rho), orthant(n, "l2")
    shared, own = dense(a), dense(a)
    fused = quasi_compact_suite(shared, cone)
    # the riders stay on `shared` until they are read, so this chain runs alone
    quasi = quasi_compact_suite(shared, cone)
    assert [v.to_dict() for v in quasi] == [v.to_dict() for v in fused]
    probe = vars(shared)["_memo"][("neumann", 1.0)].result
    inv = resolvent_apply(shared, 1.0, np.eye(n))
    assert _taken(shared, ("neumann", 1.0)) is None  # read once, then dropped
    stein = solve_stein(shared)
    assert chains == [alone[0], alone[0]]
    assert _neumann_resolvent(own, 1.0, _probe(n)).tobytes() == probe.tobytes()
    assert resolvent_apply(own, 1.0, np.eye(n)).tobytes() == inv.tobytes()
    ref = solve_stein(own)
    assert chains == [alone[0], alone[0], alone[1], alone[1], alone[2]]
    assert ref.Q.tobytes() == stein.Q.tobytes()
    assert (ref.n_terms, ref.tail_bound, ref.residual) == (stein.n_terms, stein.tail_bound, stein.residual)


# ------------------------------------------------- serialization

def test_report_dict_holds_builtins_equal_to_elementwise_floats():
    import copy
    import json

    from posstab import solve_stein

    T = dense(_stable_positive("orthant", 8, seed=3))
    rep = cross_check(T, orthant(8, "l2"))
    d = rep.to_dict()

    def builtin(x):
        if type(x) is dict:
            return all(type(k) is str and builtin(v) for k, v in x.items())
        if type(x) is list:
            return all(builtin(v) for v in x)
        return x is None or type(x) in (str, int, float, bool)

    assert builtin(d)
    # the same dict with every array rebuilt one float(v) at a time
    ref = copy.deepcopy(d)
    ref["operator"]["rows"] = [[float(v) for v in row] for row in materialize(T)]
    ref["spectral"]["perron_vector"] = [float(v) for v in rep.spectral.perron_vector]
    for r, v in zip(ref["criteria"], rep.criteria):
        for name in ("vector", "functional", "z_prime", "z"):
            arr = getattr(v.witness, name) if v.witness is not None else None
            if arr is not None:
                r["witness"][name] = [float(t) for t in np.asarray(arr)]
    ref["lyapunov"]["Q"] = [[float(v) for v in row] for row in solve_stein(T).Q]
    assert json.dumps(d) == json.dumps(ref)


def test_integer_arrays_serialize_as_floats():
    from posstab import StrictDecayCertificate, Witness

    w = Witness("flag", vector=np.array([1, 0, 2]), z=np.array([3])).to_dict()
    cert = StrictDecayCertificate(np.array([3, 4]), 0.5, 0.4, 3.0).to_dict()
    for got, want in ((w["vector"], [1.0, 0.0, 2.0]), (w["z"], [3.0]), (cert["z"], [3.0, 4.0])):
        assert got == want and all(type(v) is float for v in got)

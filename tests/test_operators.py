from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posstab import (
    DimensionMismatchError,
    SpectralProximityError,
    adjoint,
    apply,
    dense,
    diagonal,
    geometric_envelope,
    is_positive,
    lorentz,
    materialize,
    operator_from_csv,
    operator_from_dict,
    operator_to_dict,
    orthant,
    power_norms,
    resolvent_apply,
    shift,
    spectral_radius,
)

UPPER2X2 = dense([[0.5, 1.0], [0.0, 0.5]])


# ---------------------------------------------------------------- apply

def test_apply_worked_example():
    np.testing.assert_array_equal(apply(UPPER2X2, [6.0, 2.0]), [5.0, 1.0])
    np.testing.assert_array_equal(apply(UPPER2X2, [2.0, 2.0]), [3.0, 1.0])


def test_apply_shift():
    np.testing.assert_array_equal(apply(shift(4, 2.0), [1.0, 0.0, 0.0, 0.0]), [0.0, 2.0, 0.0, 0.0])


def test_apply_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        apply(UPPER2X2, [1.0, 2.0, 3.0])


# ---------------------------------------------------------------- adjoint

def test_adjoint_diagonal_self():
    d = diagonal([0.5, 0.9])
    np.testing.assert_array_equal(materialize(adjoint(d)), materialize(d))


def test_adjoint_dense_transpose():
    np.testing.assert_array_equal(materialize(adjoint(UPPER2X2)), [[0.5, 0.0], [1.0, 0.5]])


def test_adjoint_shift_materialize_oracle():
    sh = shift(3, 2.0)
    np.testing.assert_array_equal(materialize(adjoint(sh)), materialize(sh).T)


def test_adjoint_involution():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 4))
    np.testing.assert_array_equal(materialize(adjoint(adjoint(dense(a)))), a)


# ---------------------------------------------------------------- positivity

def test_is_positive_nonnegative_matrix():
    ok, wit = is_positive(UPPER2X2, orthant(2, "linf"))
    assert ok and wit is None


def test_is_positive_negative_entry_witness():
    ok, wit = is_positive(dense([[1.0, 0.0], [-0.1, 1.0]]), orthant(2, "linf"))
    assert not ok
    np.testing.assert_array_equal(wit, [1.0, 0.0])
    # witness maps out of the cone
    assert apply(dense([[1.0, 0.0], [-0.1, 1.0]]), wit).min() < 0


def test_is_positive_rotation_vs_lorentz():
    theta = np.pi / 8
    rot = dense([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    ok, wit = is_positive(rot, lorentz(2))
    assert not ok
    # oracle: the boundary ray (1, 1) maps outside the cone
    y = apply(rot, np.array([1.0, 1.0]))
    assert y[0] < abs(y[1])
    # returned witness reproduces a violation
    z = apply(rot, wit)
    assert z[0] < np.linalg.norm(z[1:])


def test_is_positive_scaled_identity_lorentz():
    ok, _ = is_positive(dense(0.5 * np.eye(3)), lorentz(3))
    assert ok


# ---------------------------------------------------------------- spectral radius

def test_spectral_radius_jordan_block():
    est = spectral_radius(UPPER2X2)
    assert est.lower <= 0.5 <= est.upper
    assert est.upper - est.lower <= 1e-8
    assert est.perron_value == pytest.approx(0.5, abs=1e-10)


def test_spectral_radius_diagonal_exact():
    d = diagonal([1 - np.exp(0.0), 1 - np.exp(-1.0), 1 - np.exp(-2.0)])
    est = spectral_radius(d)
    assert est.lower == est.upper == pytest.approx(1 - np.exp(-2.0), abs=0)
    assert est.perron_value == pytest.approx(0.8646647167633873)


def test_spectral_radius_nilpotent_shift():
    est = spectral_radius(shift(8, 2.0))
    assert est.lower == est.upper == 0.0
    # oracle: the materialized 8th power vanishes
    m = np.linalg.matrix_power(materialize(shift(8, 2.0)), 8)
    assert not m.any()


def test_spectral_radius_bracket_width_and_agreement():
    # routes must agree within the bracket on 500 random nonnegative matrices
    rng = np.random.default_rng(1)
    for i in range(500):
        n = int(rng.integers(1, 9))
        a = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.random((n, n)) < 0.8)
        est = spectral_radius(dense(a))
        assert est.lower <= est.upper
        assert est.width <= 1e-8 * max(1.0, est.upper) + 1e-15
        true = float(np.max(np.abs(np.linalg.eigvals(a))))  # test-only oracle
        assert est.lower - 1e-9 <= true <= est.upper + 1e-9


def test_perron_pair_residual():
    rng = np.random.default_rng(2)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        a = rng.uniform(0.0, 1.0, size=(n, n))
        est = spectral_radius(dense(a))
        v = est.perron_vector
        assert v is not None and np.all(v >= 0)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
        assert est.residual <= 1e-8
        assert est.lower - 1e-12 <= est.perron_value <= est.upper + 1e-12


def test_spectral_estimate_is_frozen_and_shared():
    # one memoized instance reaches every caller, so none may change it
    est = spectral_radius(dense([[0.2, 0.5], [0.3, 0.4]]))
    with pytest.raises(FrozenInstanceError):
        est.upper = 2.0
    with pytest.raises(ValueError, match="read-only"):
        est.perron_vector[0] = 1.0


def test_spectral_radius_is_memoized_per_operator():
    T = dense([[0.2, 0.5], [0.3, 0.4]])
    assert spectral_radius(T) is spectral_radius(T)
    assert spectral_radius(dense(T.matrix)) is not spectral_radius(T)


def test_spectral_radius_non_positive_matrix_gelfand_only():
    a = np.array([[0.0, 1.0], [-0.25, 0.0]])  # spectrum +-0.5i
    est = spectral_radius(dense(a))
    assert est.perron_value is None
    assert est.lower <= 0.5 <= est.upper + 1e-8


# ---------------------------------------------------------------- resolvent

def test_resolvent_jordan_example():
    # oracle: hand 2x2 inverse of (I - T) is [[2, 4], [0, 2]]
    z = resolvent_apply(UPPER2X2, 1.0, [1.0, 0.0])
    np.testing.assert_allclose(z, [2.0, 0.0], atol=1e-10)
    z = resolvent_apply(UPPER2X2, 1.0, [0.0, 1.0])
    np.testing.assert_allclose(z, [4.0, 2.0], atol=1e-10)


def test_resolvent_scalar():
    z = resolvent_apply(diagonal([0.5]), 1.0, [1.0])
    np.testing.assert_allclose(z, [2.0], atol=1e-12)


def test_resolvent_zero_operator_identity():
    rng = np.random.default_rng(3)
    y = rng.normal(size=3)
    z = resolvent_apply(dense(np.zeros((3, 3))), 1.0, y)
    np.testing.assert_allclose(z, y, atol=1e-12)


def test_resolvent_spectral_proximity():
    with pytest.raises(SpectralProximityError):
        resolvent_apply(diagonal([1.0]), 1.0, [1.0])


def test_resolvent_residual_and_positivity():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a *= 0.8 / max(float(np.max(np.abs(np.linalg.eigvals(a)))), 1e-9)
        T = dense(a)
        est = spectral_radius(T)
        y = rng.uniform(0.0, 1.0, size=n)
        lam = est.upper + rng.uniform(0.05, 1.0)
        z = resolvent_apply(T, lam, y)
        resid = np.linalg.norm((lam * np.eye(n) - a) @ z - y)
        assert resid <= 1e-10 * np.linalg.norm(y)
        assert z.min() >= -1e-12  # resolvent positivity above the bracket


def test_resolvent_block_matches_columns():
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 1.0, size=(7, 7))
    a *= 0.6 / float(np.max(np.abs(np.linalg.eigvals(a))))
    T = dense(a)
    Y = rng.uniform(0.0, 1.0, size=(7, 3))
    Z = resolvent_apply(T, 1.0, Y)
    assert Z.shape == (7, 3)
    for j in range(3):
        np.testing.assert_allclose(Z[:, j], resolvent_apply(T, 1.0, Y[:, j]),
                                   rtol=1e-12, atol=1e-14)
    # oracle: numpy's inverse of I - T
    inv = resolvent_apply(T, 1.0, np.eye(7))
    np.testing.assert_allclose(inv, np.linalg.inv(np.eye(7) - a), rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 2, 1)])
def test_resolvent_rejects_bad_shapes(shape):
    with pytest.raises(DimensionMismatchError):
        resolvent_apply(UPPER2X2, 3.0, np.ones(shape))


def _stable_positive(n=6, rho=0.5, seed=8):
    a = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, n))
    a *= rho / float(np.max(np.abs(np.linalg.eigvals(a))))
    return dense(a)


RHS = {"vector": lambda n: np.ones(n), "block": lambda n: np.eye(n)}


@pytest.mark.parametrize("rhs", sorted(RHS))
def test_resolvent_planted_solve_offset_fails_residual(monkeypatch, rhs):
    # planted fault: every solve returns one column shifted by a fixed offset
    import posstab.operators as ops

    T = _stable_positive()
    spectral_radius(T)  # memoized before the solver is patched
    real = ops.lu_solve

    def offset_solve(lu, b, *args, **kwargs):
        out = np.array(real(lu, b, *args, **kwargs))
        if out.ndim == 1:
            out += 1e-3
        else:
            out[:, 0] += 1e-3
        return out

    monkeypatch.setattr(ops, "lu_solve", offset_solve)
    with pytest.raises(SpectralProximityError, match="residual"):
        resolvent_apply(T, 1.0, RHS[rhs](T.dim))


@pytest.mark.parametrize("rhs", sorted(RHS))
def test_resolvent_planted_wrong_matrix_caught_by_neumann(monkeypatch, rhs):
    # planted fault: the LU route factors and checks against a matrix that
    # differs from T in one entry.  Its residual is consistent, so only the
    # Neumann series, which applies T itself, can see it.
    import posstab.operators as ops

    T = _stable_positive()
    spectral_radius(T)  # the memoized bracket comes from the real matrix
    y = RHS[rhs](T.dim)
    resolvent_apply(T, 1.0, y)  # the unpatched solve passes both checks
    wrong = np.array(T.matrix)
    wrong[0, 1] += 0.05
    monkeypatch.setattr(ops, "materialize", lambda _: wrong)
    with pytest.raises(ArithmeticError, match="Neumann"):
        resolvent_apply(T, 1.0, y)


# ---------------------------------------------------------------- power norms

def test_power_norms_diagonal():
    pn = power_norms(diagonal([0.5]), 3, "linf")
    np.testing.assert_allclose(pn.values, [1.0, 0.5, 0.25, 0.125])


def test_power_norms_shift_growth_then_nilpotent():
    pn = power_norms(shift(4, 2.0), 4, "linf")
    np.testing.assert_array_equal(pn.values, [1.0, 2.0, 4.0, 8.0, 0.0])


def test_power_norms_identity_l1():
    pn = power_norms(dense(np.eye(2)), 2, "l1")
    np.testing.assert_array_equal(pn.values, [1.0, 1.0, 1.0])


def test_power_norms_overflow_flag():
    pn = power_norms(diagonal([1e200]), 3, "linf")
    assert pn.overflow_at == 2
    np.testing.assert_array_equal(pn.values, [1.0, 1e200])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4))
def test_power_norm_submultiplicativity(j, k):
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 1.0, size=(4, 4))
    pn = power_norms(dense(a), 8, "linf").values
    assert pn[j + k] <= pn[j] * pn[k] + 1e-10


def test_gelfand_within_bracket():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.uniform(0.0, 1.0, size=(5, 5))
        T = dense(a)
        est = spectral_radius(T)
        pn = power_norms(T, 24, "linf").values
        k = len(pn) - 1
        assert pn[k] ** (1.0 / k) >= est.lower - 1e-9


CLOSED_FORMS = {"diagonal": diagonal([0.93, -0.41, 0.77]), "shift": shift(7, 1.3)}


def dense_oracle_norms(T, K, norm):
    """||T^k|| for k <= K from numpy matrix powers and exact induced norms."""
    a = materialize(T)
    order = {"linf": np.inf, "l2": 2}[norm]
    return [float(np.linalg.norm(np.linalg.matrix_power(a, k), order)) for k in range(K + 1)]


@pytest.mark.parametrize("norm", ["linf", "l2"])
@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_power_norms_and_envelope_match_dense_oracle(name, norm):
    T = CLOSED_FORMS[name]
    oracle = dense_oracle_norms(T, 40, norm)
    np.testing.assert_allclose(power_norms(T, 40, norm).values, oracle, rtol=1e-12, atol=0)
    a_env = 0.5 * (spectral_radius(T).upper + 1.0)
    m = next(k for k in range(1, 41) if oracle[k] <= a_env**k)
    M = max(oracle[r] / a_env**r for r in range(m))
    env_M, env_m = geometric_envelope(T, a_env, norm)
    assert env_m == m
    assert env_M == pytest.approx(M, rel=1e-12)


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_closed_form_power_norms_reject_unknown_norm(name):
    with pytest.raises(ValueError, match="unknown norm"):
        geometric_envelope(CLOSED_FORMS[name], 0.9, "bogus")


def test_power_table_survives_a_failed_extension(monkeypatch):
    # a norm routine that raises midway must not leave the power ahead of the table
    import posstab.operators as ops

    T = dense([[0.5, 0.25], [0.125, 0.5]])
    real = ops.induced_norm
    monkeypatch.setattr(ops, "induced_norm", lambda *a, **k: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        power_norms(T, 3, "linf")
    monkeypatch.setattr(ops, "induced_norm", real)
    np.testing.assert_allclose(power_norms(T, 6, "linf").values, dense_oracle_norms(T, 6, "linf"))


def test_geometric_envelope_certifies():
    T = UPPER2X2
    est = spectral_radius(T)
    a_env = 0.5 * (est.upper + 1.0)
    M, m = geometric_envelope(T, a_env, "linf")
    pn = power_norms(T, 60, "linf").values
    for k, v in enumerate(pn):
        assert v <= M * a_env**k + 1e-10


# ---------------------------------------------------------------- serialization

def test_operator_json_roundtrip():
    for T in (UPPER2X2, diagonal([0.1, 0.2]), shift(5, 2.0)):
        d = operator_to_dict(T)
        T2 = operator_from_dict(d)
        np.testing.assert_array_equal(materialize(T), materialize(T2))
        assert operator_to_dict(T2) == d


def test_operator_csv():
    T = operator_from_csv("0.5, 1.0\n0.0, 0.5\n")
    np.testing.assert_array_equal(materialize(T), materialize(UPPER2X2))
    with pytest.raises(ValueError):
        operator_from_csv("1.0, 2.0\n3.0\n")


def test_operator_validation():
    with pytest.raises(ValueError):
        dense([[1.0, 2.0]])
    with pytest.raises(ValueError):
        diagonal([np.inf])
    with pytest.raises(ValueError):
        shift(3, -1.0)

import os
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posstab import (
    DimensionMismatchError,
    NoISSEstimateError,
    SpectralProximityError,
    adjoint,
    apply,
    contains,
    cross_check,
    dense,
    diagonal,
    equivalent_norm,
    geometric_envelope,
    iss_constants,
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
from posstab.operators import _ray_test

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
    with pytest.raises(DimensionMismatchError):
        apply(UPPER2X2, np.ones((2, 2, 1)))


@pytest.mark.parametrize("T", [dense(np.arange(16.0).reshape(4, 4) - 5.0),
                               diagonal([0.5, -2.0, 3.0, 0.0]), shift(4, 1.5)],
                         ids=["dense", "diagonal", "shift"])
def test_apply_block_matches_columns(T):
    X = np.random.default_rng(2).integers(-5, 6, size=(4, 3)).astype(float)  # exact products
    np.testing.assert_array_equal(apply(T, X), np.column_stack([apply(T, x) for x in X.T]))


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


def _rays_in_order(n, n_samples, rng):
    """The sampled rays of the Lorentz positivity test, in the order they are tried."""
    m = n - 1
    dirs = [np.eye(m)[i] * s for i in range(m) for s in (1.0, -1.0)]
    extra = rng.normal(size=(max(n_samples - len(dirs), 0), m))
    extra /= np.maximum(np.linalg.norm(extra, axis=1, keepdims=True), 1e-300)
    rays = [np.concatenate(([1.0], u)) for u in [*dirs, *extra]]
    return rays + [np.concatenate(([1.0], np.zeros(m)))]


def test_is_positive_lorentz_returns_first_violating_ray():
    # diag(1, 1, 2) sends e0 + e2 and e0 - e2 out of the cone; the witness
    # is the first of them in the sampled order
    ok, wit = is_positive(dense(np.diag([1.0, 1.0, 2.0])), lorentz(3))
    assert not ok
    np.testing.assert_array_equal(wit, [1.0, 0.0, 1.0])
    # random non-positive maps: the ray a per-ray loop finds first, on the rays
    # of each seed's rng, and on the fixed rays of is_positive (rng seed 0)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 3 + seed % 4
        a = np.eye(n) + 0.6 * rng.normal(size=(n, n))
        for ray_seed in (seed, 0):
            violating = []
            for x in _rays_in_order(n, 256, np.random.default_rng(ray_seed)):
                y = a @ x
                if y[0] - np.linalg.norm(y[1:]) < -1e-10 * max(1.0, np.linalg.norm(y)):
                    violating.append(x)
            assert len(violating) > 1
            rays, _, bad = _ray_test(a, lorentz(n), np.random.default_rng(ray_seed))
            np.testing.assert_array_equal(rays[bad[0]], violating[0])
        ok, wit = is_positive(dense(a), lorentz(n))
        assert not ok
        np.testing.assert_array_equal(wit, violating[0])


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


def jordan(n, rho, c=0.5):
    """rho * (I + c N), N the superdiagonal shift: spectral radius rho, far from normal."""
    return dense(rho * (np.eye(n) + c * np.eye(n, k=1)))


@pytest.mark.parametrize("n", [16, 24])
@pytest.mark.parametrize("rho", [0.9, 1.1])
def test_gelfand_bracket_survives_underflowing_squares(n, rho):
    # the normalized squares of a large Jordan-like block flush their
    # diagonal to 0 and turn exactly nilpotent; that is no proof that T is
    T = jordan(n, rho)
    est = spectral_radius(T)
    assert est.lower - 1e-15 <= rho <= est.upper <= rho * (1.0 + 1e-6)
    report = cross_check(T, orthant(n, "linf"))
    if rho < 1.0:
        assert report.verdict("SPR").holds
    else:
        assert report.consensus == "UNSTABLE"


@pytest.mark.parametrize("n", [16, 24])
def test_adjoint_perron_vector_survives_an_overflowing_norm(n):
    # inverse iteration on the adjoint of a large Jordan-like block reaches an
    # iterate whose l2 norm overflows; it is scaled first, not normalized to 0
    from posstab import reverify_witness

    T = jordan(n, 1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = spectral_radius(adjoint(T)).perron_vector
        report = cross_check(T, orthant(n, "linf"))
    assert np.all(np.isfinite(v)) and np.any(v != 0.0)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    dual = report.verdict("DUAL_SG")
    assert dual.witness.kind == "dual_functional"
    assert reverify_witness(T, orthant(n, "linf"), dual)


def test_singular_resolvent_leaves_the_lorentz_bisection_ambiguous():
    # T is nilpotent and Lorentz-positive: lam I - T is numerically singular
    # near lam = 0, which proves nothing about rho, so the bracket keeps 0
    T = dense([[1.0, 1.0], [-1.0, -1.0]])
    est = spectral_radius(T)
    assert est.lower == 0.0 < est.upper <= 1.5e-8
    assert not est.converged
    assert cross_check(T, lorentz(2)).consensus == "STABLE"


@pytest.mark.parametrize("n", [6, 24])
def test_materialized_nilpotent_shift_keeps_zero_bracket(n):
    est = spectral_radius(dense(materialize(shift(n, 1.3))))
    assert est.lower == est.upper == 0.0


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


def _bracket_case(kind, seed, n):
    """(a, cone, rho): a positive map of the named kind and its spectral radius from
    numpy (for block-triangular maps, the larger of the two blocks' radii)."""
    rng = np.random.default_rng(seed)
    if kind == "lorentz":
        a = _lorentz_positive(rng, n + 1, 1.0) * rng.uniform(0.1, 2.0)
        return a, lorentz(n + 1), float(np.max(np.abs(np.linalg.eigvals(a))))
    if kind == "cycle":
        a = np.roll(np.diag(rng.uniform(0.1, 2.0, size=n)), 1, axis=0)  # x_i -> w_i x_(i+1 mod n)
    else:
        a = rng.uniform(0.0, 1.0, size=(n, n))
    if kind == "sparse":
        a *= rng.random((n, n)) >= 0.3
    if kind == "reducible" and n > 1:
        k = int(rng.integers(1, n))
        a[k:, :k] = 0.0
        rho = max(float(np.max(np.abs(np.linalg.eigvals(b)))) for b in (a[:k, :k], a[k:, k:]))
        return a, orthant(n), rho
    return a, orthant(n), float(np.max(np.abs(np.linalg.eigvals(a))))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["dense", "sparse", "reducible", "cycle", "lorentz"]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
)
def test_bracket_holds_the_spectral_radius(kind, seed, n):
    # numpy's eigvals is itself off by up to about 10 u rho on these maps (a
    # 50-digit radius lies inside the orthant brackets where numpy's does not),
    # so the radius may sit that far outside
    a, cone, rho = _bracket_case(kind, seed, n)
    est = spectral_radius(dense(a))
    slack = 16.0 * len(a) * 2.0**-53 * max(1.0, rho)
    assert est.lower - slack <= rho <= est.upper + slack
    if est.converged:
        assert est.width <= 1e-8 * max(1.0, est.upper)
    assert contains(cone, est.perron_vector, 0.0)


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


@pytest.mark.parametrize("rhs", ["vector", "block"])
def test_resolvent_singular_below_bracket_raises(monkeypatch, rhs):
    # lam = -2 lies below this signed map's bracket around 2, but it is an
    # eigenvalue: lam*I - T is exactly singular there, and the solve helper
    # answers with NaN instead of raising
    T = dense([[-2.0, 0.0], [0.0, 1.0]])
    spectral_radius(T)
    outputs = _spy_solves(monkeypatch)
    with pytest.raises(SpectralProximityError, match="not finite"):
        resolvent_apply(T, -2.0, RHS[rhs](2))
    assert len(outputs) == 1 and np.isnan(outputs[0][1]).all()


@pytest.mark.parametrize("shape", [(2,), (2, 3)])
def test_lu_factor_singular_gives_nan_without_raising(shape):
    from posstab.operators import lu_factor

    m, b = np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(shape)  # gesv meets an exactly zero pivot
    z = lu_factor(m, b)
    assert z.shape == shape and not np.isfinite(z).any()
    np.testing.assert_allclose(lu_factor(m + np.eye(2), b), np.linalg.solve(m + np.eye(2), b))


def test_import_and_cross_check_load_no_scipy():
    # a fresh interpreter: posstab and its CLI analyze a 2 x 2 map on numpy alone
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys, posstab, posstab.cli\n"
        "rep = posstab.cross_check(posstab.dense([[0.5, 0.2], [0.1, 0.5]]), posstab.orthant(2))\n"
        "assert rep.consensus == 'STABLE', rep.consensus\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


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


def _spy_solves(monkeypatch, offset=None, first_only=False):
    """Patch posstab.operators.lu_factor to record every (b, z) it returns;
    `offset`, when given, is added to z's first column (z itself for a vector)
    on every call, or on the first call only."""
    import posstab.operators as ops

    real, calls = ops.lu_factor, []

    def spy(m, b):
        z = np.array(real(m, b))
        if offset is not None and not (first_only and calls):
            (z if z.ndim == 1 else z[:, 0])[...] += offset
        calls.append((np.array(b), z))
        return z

    monkeypatch.setattr(ops, "lu_factor", spy)
    return calls


@pytest.mark.parametrize("rhs", sorted(RHS))
def test_resolvent_planted_solve_offset_fails_residual(monkeypatch, rhs):
    # planted fault: every solve, the refinement's too, returns one column
    # shifted by a fixed offset
    T = _stable_positive()
    spectral_radius(T)  # memoized before the solver is patched
    calls = _spy_solves(monkeypatch, offset=1e-3)
    with pytest.raises(SpectralProximityError, match="residual"):
        resolvent_apply(T, 1.0, RHS[rhs](T.dim))
    assert len(calls) == 2


def test_resolvent_refines_only_the_failing_column(monkeypatch):
    # planted fault on the first solve only: column 0 fails the residual test
    # and is refined alone, in one more solve, to the unpatched answer
    T = _stable_positive()
    y = np.eye(T.dim)
    expect = resolvent_apply(T, 1.0, y)
    calls = _spy_solves(monkeypatch)
    resolvent_apply(T, 1.0, y)
    assert len(calls) == 1
    calls = _spy_solves(monkeypatch, offset=1e-3, first_only=True)
    z = resolvent_apply(T, 1.0, y)
    assert len(calls) == 2 and calls[1][0].shape == (T.dim, 1)
    np.testing.assert_allclose(z, expect, rtol=1e-12, atol=1e-15)


def test_semipositivity_refines_only_a_failing_solve(monkeypatch):
    # lam = 0.6 lies above rho = 0.5, so z = (lam I - T)^{-1} e is positive.
    # A planted offset that pushes z_0 below 0 on the first solve only is
    # refined away; planted on every solve, its residual widens the error
    # allowance, and the test certifies nothing either way
    from posstab.operators import _semipositivity

    T, cone = _stable_positive(), orthant(6)
    spectral_radius(T)
    z = np.linalg.solve(0.6 * np.eye(6) - T.matrix, np.ones(6))
    calls = _spy_solves(monkeypatch)
    assert _semipositivity(T.matrix, 0.6, cone) is True and len(calls) == 1
    offset = -(np.max(z) + 1.0) * np.eye(6)[0]
    calls = _spy_solves(monkeypatch, offset=offset, first_only=True)
    assert _semipositivity(T.matrix, 0.6, cone) is True and len(calls) == 2
    calls = _spy_solves(monkeypatch, offset=offset)
    assert _semipositivity(T.matrix, 0.6, cone) is None and len(calls) == 2


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


def _signed(n=6, rho=0.7, seed=9):
    a = np.random.default_rng(seed).normal(size=(n, n))
    return dense(a * rho / float(np.max(np.abs(np.linalg.eigvals(a)))))


NEUMANN_OPERATORS = {
    "positive": _stable_positive(),
    "signed": _signed(),
    "jordan": jordan(4, 0.9),  # larger blocks fail the LU residual test at 0.995
    "diagonal": diagonal([0.93, -0.41, 0.77]),
    "shift": shift(7, 1.3),
}


@pytest.mark.parametrize("ratio", [0.5, 0.9, 0.99, 0.995])
@pytest.mark.parametrize("name", sorted(NEUMANN_OPERATORS))
def test_doubling_neumann_matches_lu(name, ratio):
    from posstab.operators import _neumann_resolvent

    T = NEUMANN_OPERATORS[name]
    # the shift's bracket is [0, 0]; its factor sets the scale instead
    scale = spectral_radius(T).upper or T.factor
    lam = scale / ratio
    y = np.random.default_rng(1).uniform(0.5, 1.5, size=(T.dim, 2))
    z = resolvent_apply(T, lam, y)
    zn = _neumann_resolvent(T, lam, y)
    assert zn is not None
    assert np.all(np.linalg.norm(zn - z, axis=0) <= 1e-10 * np.linalg.norm(z, axis=0))


def test_doubling_neumann_gives_up_after_2_16_terms_or_on_overflow():
    from posstab.operators import _neumann_resolvent

    y = np.ones((1, 1))
    np.testing.assert_allclose(_neumann_resolvent(diagonal([0.99]), 1.0, y), [[100.0]])
    assert _neumann_resolvent(diagonal([0.9999]), 1.0, y) is None  # ~3e5 terms needed
    with np.errstate(over="ignore", invalid="ignore"):
        assert _neumann_resolvent(diagonal([2.0]), 1.0, y) is None


def test_resolvent_planted_entry_seen_by_second_probe_column_only(monkeypatch):
    # the wrong entry (0, j) changes (I - T)^{-1} b c only through entry j of
    # X c, X = (I - T)^{-1} b; row j of X is (1, -1), so the all-ones probe
    # column misses the fault and only the seeded one can raise
    import posstab.operators as ops

    T, j = _stable_positive(), 2
    spectral_radius(T)
    X = np.random.default_rng(3).uniform(0.5, 1.5, size=(T.dim, 2))
    X[j] = [1.0, -1.0]
    b = (np.eye(T.dim) - T.matrix) @ X
    wrong = np.array(T.matrix)
    wrong[0, j] += 0.05
    c = ops._probe(2)
    gaps = np.linalg.norm(np.linalg.solve(np.eye(T.dim) - wrong, b) @ c - X @ c, axis=0)
    assert gaps[0] < 1e-12 < 1e-3 < gaps[1]
    resolvent_apply(T, 1.0, b)
    monkeypatch.setattr(ops, "materialize", lambda _: wrong)
    with pytest.raises(ArithmeticError, match="Neumann"):
        resolvent_apply(T, 1.0, b)


class _SquaringCounter:
    """numpy, with a count of the matmuls of an array with itself."""

    def __init__(self):
        self.squarings = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, x1, x2, *args, **kwargs):
        self.squarings += x1 is x2
        return np.matmul(x1, x2, *args, **kwargs)


@pytest.mark.parametrize("rhs", sorted(RHS))
def test_neumann_check_is_one_apply_and_few_squarings(monkeypatch, rhs):
    # upper/lam = 0.99 needs about 3,000 series terms: one apply builds
    # T/lam, and doubling reaches them in 12 squarings (the cap is 16)
    import posstab.operators as ops

    T = _stable_positive(n=16, rho=0.99)
    assert spectral_radius(T).upper <= 0.995
    applies, counter = [], _SquaringCounter()
    real_apply = ops.apply
    monkeypatch.setattr(ops, "apply", lambda *a: applies.append(1) or real_apply(*a))
    monkeypatch.setattr(ops, "np", counter)
    resolvent_apply(T, 1.0, RHS[rhs](T.dim))
    assert len(applies) == 1
    assert 1 <= counter.squarings <= 16


# ---------------------------------------------------------------- power norms

def test_power_norms_diagonal():
    pn = power_norms(diagonal([0.5]), 3, "linf")
    np.testing.assert_allclose(pn, [1.0, 0.5, 0.25, 0.125])


def test_power_norms_shift_growth_then_nilpotent():
    pn = power_norms(shift(4, 2.0), 4, "linf")
    np.testing.assert_array_equal(pn, [1.0, 2.0, 4.0, 8.0, 0.0])


def test_power_norms_identity_l1():
    pn = power_norms(dense(np.eye(2)), 2, "l1")
    np.testing.assert_array_equal(pn, [1.0, 1.0, 1.0])


def test_power_norms_overflow_flag():
    pn = power_norms(diagonal([1e200]), 3, "linf")
    assert len(pn) == 2
    np.testing.assert_array_equal(pn, [1.0, 1e200])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4))
def test_power_norm_submultiplicativity(j, k):
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 1.0, size=(4, 4))
    pn = power_norms(dense(a), 8, "linf")
    assert pn[j + k] <= pn[j] * pn[k] + 1e-10


def test_gelfand_within_bracket():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.uniform(0.0, 1.0, size=(5, 5))
        T = dense(a)
        est = spectral_radius(T)
        pn = power_norms(T, 24, "linf")
        k = len(pn) - 1
        assert pn[k] ** (1.0 / k) >= est.lower - 1e-9


def _gelfand_every_squaring(a):
    """(bound, squarings) of the 46-squaring loop that `_gelfand_upper` finishes early."""
    from posstab.norms import induced_norm
    from posstab.operators import _nilpotent_pattern

    best = min(induced_norm(a, "linf"), induced_norm(a, "l1"))
    b, logc = a / best, np.log(best)
    for j in range(1, 47):
        b2 = b @ b
        nu = induced_norm(b2, "linf")
        if nu == 0.0:
            return (0.0 if _nilpotent_pattern(a) else best), j
        logc = 2.0 * logc + np.log(nu)
        b = b2 / nu
        k = float(2**j)
        best = min(best, float(np.exp(logc / k)))
        n1 = induced_norm(b, "l1")
        if n1 > 0.0:
            best = min(best, float(np.exp((logc + np.log(n1)) / k)))
    return best, 46


def _gelfand_squarings(monkeypatch, a):
    """(bound, squarings) of `_gelfand_upper`: it takes two norms of a, then two per squaring."""
    import posstab.operators as ops

    calls = []
    real = ops.induced_norm

    def counting(m, norm):
        calls.append(norm)
        return real(m, norm)

    monkeypatch.setattr(ops, "induced_norm", counting)
    return ops._gelfand_upper(a), (len(calls) - 1) // 2


@pytest.mark.parametrize(
    "a",
    [np.array([[0.5, -1.0], [0.0, 0.5]]), np.array([[0.9, -0.3], [0.2, 0.1]]), jordan(16, 0.9).matrix],
    ids=["signed", "signed-settling", "jordan16"],
)
def test_gelfand_squares_signed_and_unsettled_maps_every_time(monkeypatch, a):
    # a signed map whose normalized square settles (a simple dominant
    # eigenvalue 0.82 against 0.18) still takes all 46 squarings; a Jordan
    # block's square underflows to an exact 0 at j = 45, ending the loop
    ref, ref_squarings = _gelfand_every_squaring(a)
    assert _gelfand_squarings(monkeypatch, a) == (ref, ref_squarings)


def _rescaled(a, rho):
    return a * (rho / np.max(np.abs(np.linalg.eigvals(a))))


def _lorentz_positive(rng, n, rho):
    """certbench's inputs.lorentz_positive: sum_i u_i v_i' with u_i, v_i inside the cone."""

    def points():
        d = rng.normal(size=(n, n - 1))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        r = rng.uniform(0.0, 0.95, size=(n, 1))
        return np.hstack([np.ones((n, 1)), r * d]) * rng.uniform(0.5, 1.0, size=(n, 1))

    return _rescaled(points().T @ points(), rho)


def _fallback_cases():
    """(a, stalls): certbench's dense_positive and lorentz_positive maps and weighted
    cycles, on which Noda closes; then a Jordan block, the reducible upper2x2 and
    the nilpotent Lorentz-positive [[1, 1], [-1, -1]], on which it stalls."""
    for n in (16, 64, 256):
        for rho in (0.5, 0.97, 1.05):
            a = np.random.default_rng(0).uniform(0.0, 1.0, size=(n, n))
            yield pytest.param(_rescaled(a, rho), False, id=f"dense-n{n}-rho{rho}")
    for n in (8, 16, 64):
        yield pytest.param(_lorentz_positive(np.random.default_rng(n), n, 0.9), False, id=f"lorentz-n{n}")
    rng = np.random.default_rng(9)
    for n, rho in ((3, 0.9), (5, 0.97), (8, 1.05)):
        a = np.roll(np.diag(rng.uniform(0.5, 1.5, size=n)), 1, axis=0)  # x_i -> x_(i+1 mod n)
        yield pytest.param(_rescaled(a, rho), False, id=f"cycle-n{n}-rho{rho}")
    a = np.kron(np.roll(np.eye(3), 1, axis=0), np.ones((2, 2))) * rng.uniform(0.5, 1.5, size=(6, 6))
    yield pytest.param(_rescaled(a, 0.9), False, id="block-cycle6")
    yield pytest.param(jordan(16, 0.9).matrix, True, id="jordan16")
    yield pytest.param(UPPER2X2.matrix, True, id="upper2x2")
    yield pytest.param(np.array([[1.0, 1.0], [-1.0, -1.0]]), True, id="lorentz-nilpotent")


@pytest.mark.parametrize("a, stalls", list(_fallback_cases()))
def test_fallback_runs_only_where_noda_stalls(monkeypatch, a, stalls):
    # Gelfand and the resolvent bisection run only after Noda stalls short
    # of the target width; either way the bracket holds numpy's radius
    import posstab.operators as ops

    calls = []
    for name in ("_gelfand_upper", "_bisect_bracket"):
        real = getattr(ops, name)
        monkeypatch.setattr(ops, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    est = spectral_radius(dense(a))
    assert bool(calls) == stalls
    assert not stalls or calls == ["_gelfand_upper", "_bisect_bracket"]
    true = float(np.max(np.abs(np.linalg.eigvals(a))))  # test-only oracle
    assert est.lower <= true <= est.upper


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
    np.testing.assert_allclose(power_norms(T, 40, norm), oracle, rtol=1e-12, atol=0)
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
    # a norm routine that raises part-way through a block must not leave the power ahead
    import posstab.operators as ops

    T = dense([[0.5, 0.25], [0.125, 0.5]])
    power_norms(T, 2, "linf")  # powers 0..2 stored; the next block holds 3..6
    real = ops.batch_induced_norm
    monkeypatch.setattr(ops, "batch_induced_norm", lambda *a, **k: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        power_norms(T, 5, "linf")
    assert len(ops._power_table(T, "linf").values) == 3
    monkeypatch.setattr(ops, "batch_induced_norm", real)
    np.testing.assert_allclose(power_norms(T, 9, "linf"), dense_oracle_norms(T, 9, "linf"))


@pytest.mark.parametrize("norm", ["l1", "linf", "l2"])
def test_dense_power_table_overflows_in_the_middle_of_a_block(norm):
    # entries of T^k are 2^(k-1) 1e10^k, so T^30 is the first power above 1e300;
    # the doubling blocks hold powers 16..31, so the overflow falls inside one
    a = 1e10 * np.ones((2, 2))
    p, first_bad = np.eye(2), None
    with np.errstate(over="ignore"):
        for k in range(1, 64):
            p = p @ a
            if not np.max(np.abs(p)) <= 1e300:
                first_bad = k
                break
    assert first_bad == 30
    pn = power_norms(dense(a), 40, norm)
    assert len(pn) == first_bad
    assert np.all(np.isfinite(pn))
    # a second request does not extend past the overflow
    assert len(power_norms(dense(a), 40, norm)) == first_bad


@pytest.mark.parametrize("norm", ["l1", "linf"])
@pytest.mark.parametrize("n", [1, 3, 8, 40, 64])
def test_blocked_table_is_bitwise_equal_to_the_per_power_chain(n, norm):
    from posstab import induced_norm

    rng = np.random.default_rng(n)
    for signed in (False, True):
        a = rng.uniform(-1.0 if signed else 0.0, 1.0, size=(n, n))
        a *= 0.97 / float(np.max(np.abs(np.linalg.eigvals(a))))
        K = 150
        p, chain = np.eye(n), [1.0]
        for _ in range(K):
            p = p @ a
            chain.append(induced_norm(p, norm))
        np.testing.assert_array_equal(power_norms(dense(a), K, norm), chain)


def test_geometric_envelope_rejects_nan_before_any_power():
    # NaN passes every comparison with a_env; unchecked, it builds the whole table for a None
    T = dense([[0.5, 0.25], [0.125, 0.5]])
    with pytest.raises(ValueError, match="a_env must be positive"):
        geometric_envelope(T, float("nan"), "linf")
    assert ("powers", "linf") not in vars(T).get("_memo", {})


def test_geometric_envelope_certifies():
    T = UPPER2X2
    est = spectral_radius(T)
    a_env = 0.5 * (est.upper + 1.0)
    M, m = geometric_envelope(T, a_env, "linf")
    pn = power_norms(T, 60, "linf")
    for k, v in enumerate(pn):
        assert v <= M * a_env**k + 1e-10


def test_one_horizon_bounds_every_power_search(monkeypatch):
    # the table ends past POWER_HORIZON, and the envelope, the ISS sum and the
    # equivalent-norm depth all stop there; operators are fresh, so nothing is memoized
    import posstab.operators as ops

    monkeypatch.setattr(ops, "POWER_HORIZON", 20)
    a = [[0.9, 1.0], [0.0, 0.9]]  # ||T^k||_inf = 0.9^k + k 0.9^(k-1)
    pn = power_norms(dense(a), 100, "linf")
    assert len(pn) == 21
    assert geometric_envelope(dense(a), 0.95, "linf") is None  # m = 85 without the cap
    with pytest.raises(ValueError, match="truncation depth"):
        equivalent_norm(dense(a), orthant(2, "linf"), 1.05)  # K = 80 without the cap
    with pytest.raises(NoISSEstimateError, match=r"with m <= 20$"):
        iss_constants(diagonal([0.99]))  # 0.99^m <= 1/2 first at m = 69
    # blocks of m = 7 powers (0.9^7 <= 1/2): the third and last one ends at k = 20
    assert iss_constants(diagonal([0.9])).K == 20
    monkeypatch.undo()
    assert iss_constants(diagonal([0.9])).K > 20
    assert geometric_envelope(dense(a), 0.95, "linf")[1] > 20


# ---------------------------------------------------------------- serialization

def test_operator_json_roundtrip():
    for T in (UPPER2X2, diagonal([0.1, 0.2]), shift(5, 2.0)):
        d = operator_to_dict(T)
        T2 = operator_from_dict(d)
        np.testing.assert_array_equal(materialize(T), materialize(T2))
        assert operator_to_dict(T2) == d


@pytest.mark.parametrize("variant", ["dense", "diagonal"])
def test_operator_dict_roundtrips_bit_for_bit(variant):
    values = [-0.0, 5e-324, 1.7976931348623157e308, 0.1]
    T = dense(np.diag(values)) if variant == "dense" else diagonal(values)
    d = operator_to_dict(T)
    leaves = d["rows"] if variant == "dense" else [d["entries"]]
    assert all(type(v) is float for row in leaves for v in row)
    T2 = operator_from_dict(d)
    assert materialize(T2).tobytes() == materialize(T).tobytes()
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

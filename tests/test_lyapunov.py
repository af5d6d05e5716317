import numpy as np
import pytest

from posstab import (
    DivergenceError,
    KFunctionSpec,
    NotALatticeError,
    dense,
    diagonal,
    equivalent_norm,
    lorentz,
    materialize,
    orthant,
    quadratic_decrease_check,
    shift,
    solve_stein,
    vec_norm,
    verify_lyapunov,
)

UPPER2X2 = dense([[0.5, 1.0], [0.0, 0.5]])


def kron_stein_oracle(a):
    """Independent vectorized solve of T^T Q T - Q = -I."""
    n = a.shape[0]
    lhs = np.kron(a.T, a.T) - np.eye(n * n)
    q = np.linalg.solve(lhs, -np.eye(n).reshape(-1))
    return q.reshape(n, n)


# ---------------------------------------------------------------- stein

def test_stein_scalar_geometric_series():
    cert = solve_stein(diagonal([0.5]))
    np.testing.assert_allclose(cert.Q, [[4.0 / 3.0]], atol=1e-12)
    assert cert.residual <= 1e-12


def test_stein_zero_operator():
    cert = solve_stein(dense(np.zeros((3, 3))))
    np.testing.assert_array_equal(cert.Q, np.eye(3))


def test_stein_jordan_kronecker_oracle():
    cert = solve_stein(UPPER2X2)
    oracle = kron_stein_oracle(materialize(UPPER2X2))
    np.testing.assert_allclose(cert.Q, oracle, atol=1e-8)
    np.testing.assert_allclose(
        cert.Q, [[4.0 / 3.0, 8.0 / 9.0], [8.0 / 9.0, 116.0 / 27.0]], atol=1e-10
    )
    assert cert.residual <= 1e-8


def test_stein_random_matches_kronecker():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a *= 0.8 / max(float(np.max(np.abs(np.linalg.eigvals(a)))), 1e-9)
        cert = solve_stein(dense(a))
        np.testing.assert_allclose(cert.Q, kron_stein_oracle(a), atol=1e-8)
        assert cert.residual <= 1e-8
        # Q is symmetric and bounds ||x||^2 from below
        np.testing.assert_allclose(cert.Q, cert.Q.T, atol=1e-12)
        for _ in range(20):
            x = rng.normal(size=n)
            assert x @ cert.Q @ x >= x @ x - 1e-8


def test_stein_divergence_for_unstable():
    with pytest.raises(DivergenceError):
        solve_stein(diagonal([1.5]))


# ---------------------------------------------------------------- decrease

def test_quadratic_decrease_scalar_identity():
    cert = solve_stein(diagonal([0.5]))
    # V(Tx) = 1/3, V(x) = 4/3, ||x||^2 = 1
    assert quadratic_decrease_check(cert.Q, diagonal([0.5]), [[1.0]])
    q = float(cert.Q[0, 0])
    assert 0.25 * q == pytest.approx(q - 1.0, abs=1e-12)


def test_quadratic_decrease_zero_vector():
    cert = solve_stein(UPPER2X2)
    assert quadratic_decrease_check(cert.Q, UPPER2X2, np.zeros((1, 2)))


def test_quadratic_decrease_random_samples():
    rng = np.random.default_rng(1)
    cert = solve_stein(UPPER2X2)
    samples = rng.normal(size=(100, 2)) * 3.0
    assert quadratic_decrease_check(cert.Q, UPPER2X2, samples)


def test_quadratic_decrease_detects_wrong_q():
    assert not quadratic_decrease_check(np.eye(2), UPPER2X2, [[1.0, 1.0]])


# ---------------------------------------------------------------- equivalent norm

def test_equivalent_norm_scalar():
    cert = equivalent_norm(diagonal([0.5]), 1.5, norm="linf")
    assert cert.K == 1
    # sup attained at k = 0 since 0.75 < 1
    assert cert(np.array([2.0])) == pytest.approx(2.0)
    assert cert.contraction_factor <= 1.0 / 1.5 + 1e-8
    assert cert.contraction_factor == pytest.approx(0.5, abs=1e-12)


def test_equivalent_norm_jordan():
    cert = equivalent_norm(UPPER2X2, 1.2, norm="linf")
    assert cert.contraction_factor <= 1.0 / 1.2 + 1e-8
    # oracle: enumerate k well past the certified depth
    rng = np.random.default_rng(2)
    a = materialize(UPPER2X2)
    for _ in range(20):
        x = rng.normal(size=2)
        vals = []
        w = x.copy()
        for _ in range(cert.K + 40):
            vals.append(vec_norm(w, "linf"))
            w = 1.2 * (a @ w)
        assert cert(x) == pytest.approx(max(vals), rel=1e-12)


def test_equivalent_norm_homogeneous_zero():
    cert = equivalent_norm(UPPER2X2, 1.2, norm="linf")
    assert cert(np.zeros(2)) == 0.0


def test_equivalent_norm_bounds_base_norm():
    from posstab import induced_norm

    cert = equivalent_norm(UPPER2X2, 1.2, norm="linf")
    rng = np.random.default_rng(3)
    upper_const = max(
        (1.2**k) * induced_norm(np.linalg.matrix_power(materialize(UPPER2X2), k), "linf")
        for k in range(cert.K + 1)
    )
    for _ in range(50):
        x = rng.normal(size=2)
        v = cert(x)
        assert v >= vec_norm(x, "linf") - 1e-12
        assert v <= upper_const * vec_norm(x, "linf") + 1e-12


def test_equivalent_norm_lattice_monotone():
    cert = equivalent_norm(UPPER2X2, 1.2, lattice=True, cone=orthant(2, "linf"), norm="linf")
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = rng.uniform(0.0, 1.0, size=2)
        y = x + rng.uniform(0.0, 1.0, size=2)
        assert cert(x) <= cert(y) + 1e-12


@pytest.mark.parametrize("norm", ["linf", "l2"])
@pytest.mark.parametrize(
    "T, s",
    [(diagonal([0.93, -0.41, 0.77]), 1.07), (shift(7, 1.3), 1.5), (shift(5, 0.5), 3.0)],
    ids=["diagonal", "shift", "shift-contractive"],
)
def test_equivalent_norm_closed_form_depth_matches_dense_oracle(T, s, norm):
    # oracle: first k with s^k ||T^k|| < 1 from numpy matrix powers and exact norms
    a = materialize(T)
    order = {"linf": np.inf, "l2": 2}[norm]
    K = next(
        k for k in range(1, 200)
        if s**k * np.linalg.norm(np.linalg.matrix_power(a, k), order) < 1.0
    )
    assert equivalent_norm(T, s, norm=norm).K == K


def test_equivalent_norm_rejects_bad_s():
    with pytest.raises(ValueError):
        equivalent_norm(diagonal([0.9]), 1.2)  # 1.08 >= 1
    with pytest.raises(ValueError):
        equivalent_norm(diagonal([0.5]), 0.9)


def test_equivalent_norm_lattice_lorentz_rejected():
    with pytest.raises(NotALatticeError):
        equivalent_norm(dense(0.5 * np.eye(3)), 1.2, lattice=True, cone=lorentz(3))


# ---------------------------------------------------------------- lyapunov verify

def test_verify_lyapunov_quadratic():
    cert = solve_stein(diagonal([0.5]))
    V = lambda x: float(np.asarray(x) @ cert.Q @ np.asarray(x))
    ok, _ = verify_lyapunov(
        V,
        KFunctionSpec("power", 1.0, 2.0),
        KFunctionSpec("power", 2.0, 2.0),
        KFunctionSpec("power", 1.0, 2.0),
        diagonal([0.5]),
        np.linspace(-2, 2, 21).reshape(-1, 1),
    )
    assert ok


def test_verify_lyapunov_norm_based():
    cert = equivalent_norm(diagonal([0.5]), 1.5, norm="linf")
    ok, _ = verify_lyapunov(
        cert,
        KFunctionSpec("linear", 1.0),
        KFunctionSpec("linear", 1.0),
        KFunctionSpec("linear", 1.0 / 3.0),
        diagonal([0.5]),
        np.linspace(-3, 3, 13).reshape(-1, 1),
        norm="linf",
    )
    assert ok


def test_verify_lyapunov_isometric_direction_fails():
    T = diagonal([1.0])
    V = lambda x: float(np.abs(np.asarray(x)).max())
    ok, bad = verify_lyapunov(
        V,
        KFunctionSpec("linear", 1.0),
        KFunctionSpec("linear", 1.0),
        KFunctionSpec("linear", 0.1),
        T,
        np.array([[1.0]]),
        norm="linf",
    )
    assert not ok
    np.testing.assert_array_equal(bad, [1.0])


def test_telescoping_sum_bounded_by_v():
    # sum_k alpha(||T^k x||) <= V(x) for a passing certificate
    T = diagonal([0.5])
    cert = solve_stein(T)
    Q = cert.Q
    alpha = KFunctionSpec("power", 1.0, 2.0)
    rng = np.random.default_rng(5)
    a = materialize(T)
    for _ in range(20):
        x = rng.normal(size=1) * 2.0
        total = 0.0
        w = x.copy()
        for _ in range(50):
            total += alpha(vec_norm(w, "l2"))
            w = a @ w
        assert total <= float(x @ Q @ x) + 1e-8


def test_kfunction_validation():
    with pytest.raises(ValueError):
        KFunctionSpec("power", -1.0, 2.0)
    with pytest.raises(ValueError):
        KFunctionSpec("power", 1.0, 0.5)
    with pytest.raises(ValueError):
        KFunctionSpec("cubic", 1.0)
    f = KFunctionSpec("linear", 2.0)
    assert f(0.0) == 0.0 and f(2.0) == 4.0

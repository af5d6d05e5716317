import numpy as np
import pytest

from posstab import (
    DimensionMismatchError,
    DivergenceError,
    KFunctionSpec,
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
from posstab.norms import UNIT_ROUNDOFF, l2_upper_bounds

UPPER2X2 = dense([[0.5, 1.0], [0.0, 0.5]])
SIGNED2X2 = dense([[0.5, -1.0], [0.0, 0.5]])  # stable, not positive on the orthant


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


def test_stein_matches_kronecker_near_the_boundary():
    rng = np.random.default_rng(4)
    a = rng.uniform(0.0, 1.0, size=(6, 6))
    a *= 0.999 / float(np.max(np.abs(np.linalg.eigvals(a))))
    cert = solve_stein(dense(a))
    oracle = kron_stein_oracle(a)
    assert np.max(np.abs(cert.Q - oracle)) <= 1e-9 * np.max(np.abs(oracle))
    # 2^J terms with ||T^(2^J)||^2 below the unit roundoff: J = 15 squarings at this radius
    assert cert.n_terms <= 2**16
    assert cert.tail_bound <= 1e-15 * np.max(np.abs(cert.Q))


def _stein_with_every_stop_test(a):
    """(Q, tail_bound, n_terms, stop tests): Smith's doubling with the l2 stop test at every step."""
    import posstab.lyapunov as lyap

    q, p = np.eye(a.shape[0]), a
    for j in range(1, lyap.STEIN_MAX_SQUARINGS + 1):
        q, p = q + p.T @ q @ p, p @ p
        (p_norm, q_norm), _ = l2_upper_bounds(np.stack([p, q]), max_steps=0)
        if p_norm**2 <= UNIT_ROUNDOFF * (1.0 - p_norm**2):
            return 0.5 * (q + q.T), p_norm**2 * q_norm / (1.0 - p_norm**2), 2**j, j
    raise AssertionError("reference loop did not stop")


def _dense_at_radius(n, rho, seed):
    a = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, n))
    return dense(a * (rho / float(np.max(np.abs(np.linalg.eigvals(a))))))


@pytest.mark.parametrize(
    "T, stop_tests",
    [
        (_dense_at_radius(8, 0.5, 1), 1),
        (_dense_at_radius(8, 0.97, 2), 1),
        (_dense_at_radius(64, 0.5, 3), 1),
        (_dense_at_radius(64, 0.97, 4), 2),
        # entries 0.97^512/64 < 2 sqrt(u) at J = 9, but the norm 0.97^512 fails the test there
        (dense(np.full((64, 64), 0.97 / 64)), 2),
        (dense(np.random.default_rng(5).normal(size=(6, 6)) / 6.0), 1),
        (diagonal([0.9, -0.5, 0.0, 0.3]), 1),
        (shift(5, 3.0), 1),
    ],
    ids=["n8-rho0.5", "n8-rho0.97", "n64-rho0.5", "n64-rho0.97", "flat64", "signed", "diagonal", "shift"],
)
def test_stein_gate_skips_only_stop_tests_that_cannot_pass(monkeypatch, T, stop_tests):
    import posstab.lyapunov as lyap

    q_ref, tail_ref, terms_ref, tests_ref = _stein_with_every_stop_test(materialize(T))
    tests = []
    monkeypatch.setattr(lyap, "l2_upper_bounds", lambda *a, **k: tests.append(1) or l2_upper_bounds(*a, **k))
    cert = solve_stein(T)
    assert cert.n_terms == terms_ref
    assert cert.tail_bound == tail_ref
    assert cert.Q.tobytes() == q_ref.tobytes()
    assert len(tests) == stop_tests < tests_ref


def test_stein_stop_test_never_runs_the_l2_certificate(monkeypatch):
    # the stop test asks for max_steps=0: no power steps and no O(n^3) Cholesky,
    # even on a stack whose singular values all agree
    import posstab.lyapunov as lyap
    import posstab.norms as norms

    q, _ = np.linalg.qr(np.random.default_rng(6).normal(size=(6, 6)))
    tests, certified = [], []
    real = norms._cholesky_upper
    monkeypatch.setattr(norms, "_cholesky_upper", lambda *a: certified.append(1) or real(*a))
    monkeypatch.setattr(lyap, "l2_upper_bounds", lambda *a, **k: tests.append(k) or l2_upper_bounds(*a, **k))
    for T in (dense(0.5 * q), _dense_at_radius(8, 0.97, 2), dense(np.full((64, 64), 0.97 / 64))):
        solve_stein(T)
    assert tests and all(k == {"max_steps": 0} for k in tests)
    assert not certified


@pytest.mark.parametrize("step", [1, 2, 5])
def test_stein_residual_catches_a_corrupted_doubling_step(monkeypatch, step):
    import posstab.lyapunov as lyap

    rng = np.random.default_rng(2)
    a = rng.uniform(0.0, 1.0, size=(5, 5))
    a *= 0.95 / float(np.max(np.abs(np.linalg.eigvals(a))))
    T = dense(a)
    real = lyap._Stein.__call__

    def corrupted(self, j, p):
        more = real(self, j, p)
        if more and j + 1 == step:  # Q now holds 2^step terms
            self.q = self.q.copy()
            self.q[0, 1] += 1e-6 * float(np.max(np.abs(self.q)))
        return more

    monkeypatch.setattr(lyap._Stein, "__call__", corrupted)
    with pytest.raises(ArithmeticError, match="Stein residual"):
        solve_stein(T)
    monkeypatch.setattr(lyap._Stein, "__call__", real)
    assert solve_stein(T).residual <= 1e-12


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
    cert = equivalent_norm(diagonal([0.5]), orthant(1, "linf"), 1.5)
    assert cert.K == 1
    # sup attained at k = 0 since 0.75 < 1
    assert cert(np.array([2.0])) == pytest.approx(2.0)
    # the certified factor 1/s, not the factor 0.5 that T attains
    assert cert.contraction_factor == 1.0 / 1.5


def _assert_matches_enumeration(cert, T, s, lattice):
    # oracle: enumerate k well past the certified depth, from |x| for the lattice variant
    assert cert.lattice == lattice
    assert cert.contraction_factor <= 1.0 / s + 1e-8
    rng = np.random.default_rng(2)
    a = materialize(T)
    for _ in range(20):
        x = rng.normal(size=2)
        vals = []
        w = np.abs(x) if lattice else x.copy()
        for _ in range(cert.K + 40):
            vals.append(vec_norm(w, "linf"))
            w = s * (a @ w)
        assert cert(x) == pytest.approx(max(vals), rel=1e-12)


def test_equivalent_norm_jordan():
    cert = equivalent_norm(UPPER2X2, orthant(2, "linf"), 1.2)
    _assert_matches_enumeration(cert, UPPER2X2, 1.2, lattice=True)


def test_equivalent_norm_signed_jordan():
    cert = equivalent_norm(SIGNED2X2, orthant(2, "linf"), 1.2)
    _assert_matches_enumeration(cert, SIGNED2X2, 1.2, lattice=False)


def test_equivalent_norm_homogeneous_zero():
    cert = equivalent_norm(UPPER2X2, orthant(2, "linf"), 1.2)
    assert cert(np.zeros(2)) == 0.0


def test_equivalent_norm_bounds_base_norm():
    from posstab import induced_norm

    cert = equivalent_norm(UPPER2X2, orthant(2, "linf"), 1.2)
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
    cert = equivalent_norm(UPPER2X2, orthant(2, "linf"), 1.2)
    assert cert.lattice
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
    assert equivalent_norm(T, orthant(T.dim, norm), s).K == K


def test_equivalent_norm_rejects_bad_s():
    with pytest.raises(ValueError):
        equivalent_norm(diagonal([0.9]), orthant(1), 1.2)  # 1.08 >= 1
    with pytest.raises(ValueError):
        equivalent_norm(diagonal([0.5]), orthant(1), 0.9)


@pytest.mark.parametrize("s", [float("nan"), float("inf"), -float("inf")])
def test_equivalent_norm_rejects_a_non_finite_s_before_any_power(s):
    # NaN passes every comparison with s; unchecked, it builds the whole power table first
    T = dense([[0.5, 0.25], [0.125, 0.5]])
    with pytest.raises(ValueError, match="s must be finite"):
        equivalent_norm(T, orthant(2, "linf"), s)
    assert ("powers", "linf") not in vars(T).get("_memo", {})


def test_equivalent_norm_rejects_a_cone_of_another_dimension():
    with pytest.raises(DimensionMismatchError):
        equivalent_norm(UPPER2X2, orthant(3))


def test_equivalent_norm_defaults_and_variants():
    # s defaults to 1/a, a = (upper + 1)/2 the envelope rate; lattice exactly for
    # maps positive on the orthant
    cert = equivalent_norm(UPPER2X2, orthant(2, "linf"))
    assert cert.s == pytest.approx(4.0 / 3.0, rel=1e-7)
    assert cert.lattice and cert.norm == "linf"
    T = dense(0.5 * np.eye(3))
    cert = equivalent_norm(T, lorentz(3))
    assert not cert.lattice and cert.norm == "l2"
    assert cert.contraction_factor <= 1.0 / cert.s + 1e-8
    assert cert.to_dict() == {
        "s": cert.s, "K": cert.K, "contraction_factor": cert.contraction_factor, "lattice": False
    }


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
    cert = equivalent_norm(diagonal([0.5]), orthant(1, "linf"), 1.5)
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

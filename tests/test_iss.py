import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import posstab.iss as iss
from posstab import (
    InputSignal,
    ISSEstimate,
    NoISSEstimateError,
    datko_test,
    dense,
    diagonal,
    gallery_build,
    input_from_dict,
    iss_constants,
    materialize,
    orthant,
    power_norms,
    response_class_check,
    simulate,
    spectral_radius,
    verify_iss_bound,
)
from posstab import operators
from posstab.iss import _convolution_states
from posstab.norms import _gamma, batch_vec_norm

UPPER2X2 = dense([[0.5, 1.0], [0.0, 0.5]])


# ---------------------------------------------------------------- simulate

def test_simulate_geometric_accumulation():
    # oracle: x(k) = 2 (1 - 0.5^k) for u == 1, x0 = 0
    traj = simulate(diagonal([0.5]), [0.0], np.ones((30, 1)))
    for k in range(31):
        assert traj.states[k, 0] == pytest.approx(2.0 * (1.0 - 0.5**k), abs=1e-12)


def test_simulate_homogeneous_is_powers():
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=2)
    traj = simulate(UPPER2X2, x0, np.zeros((10, 2)))
    a = materialize(UPPER2X2)
    for k in range(11):
        np.testing.assert_allclose(traj.states[k], np.linalg.matrix_power(a, k) @ x0, atol=1e-10)


def test_simulate_memoryless():
    traj = simulate(diagonal([0.0]), [5.0], np.array([[1.0], [2.0], [3.0]]))
    np.testing.assert_array_equal(traj.states.ravel(), [5.0, 1.0, 2.0, 3.0])


def test_simulate_causality():
    rng = np.random.default_rng(1)
    u = rng.normal(size=(12, 2))
    t1 = simulate(UPPER2X2, np.zeros(2), u, K=8)
    u2 = u.copy()
    u2[9:] = 99.0  # changes after step 8 cannot matter
    t2 = simulate(UPPER2X2, np.zeros(2), u2, K=8)
    np.testing.assert_array_equal(t1.states, t2.states)


def test_simulate_linearity_in_inputs():
    rng = np.random.default_rng(2)
    u1 = rng.normal(size=(10, 2))
    u2 = rng.normal(size=(10, 2))
    s1 = simulate(UPPER2X2, np.zeros(2), u1).states
    s2 = simulate(UPPER2X2, np.zeros(2), u2).states
    s12 = simulate(UPPER2X2, np.zeros(2), u1 + u2).states
    np.testing.assert_allclose(s12, s1 + s2, atol=1e-12)


def test_simulate_dimension_checks():
    from posstab import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        simulate(UPPER2X2, [1.0], np.ones((3, 2)))
    with pytest.raises(DimensionMismatchError):
        simulate(UPPER2X2, [1.0, 2.0], np.ones((3, 1)))
    with pytest.raises(ValueError):
        simulate(UPPER2X2, np.zeros(2), np.ones((3, 2)), K=5)


def _scaled(a, rho):
    return a * (rho / float(np.max(np.abs(np.linalg.eigvals(a)))))


def _route_operators():
    rng = np.random.default_rng(8)
    n = 6
    return {
        "positive": _scaled(rng.uniform(0.0, 1.0, size=(n, n)), 0.95),
        "signed": _scaled(rng.normal(size=(n, n)), 1.02),
        "jordan": 0.9 * np.eye(n) + np.diag(np.ones(n - 1), 1),
    }


def _solution_formula(a, x0, uv, K):
    """Reference: x(k) = T^k x0 + sum_{j<k} T^{k-1-j} u(j), O(K^2) matvecs."""
    powers = [np.eye(len(x0))]
    for _ in range(K):
        powers.append(a @ powers[-1])
    out = [x0]
    for k in range(1, K + 1):
        x = powers[k] @ x0
        for j in range(k):
            x = x + powers[k - 1 - j] @ uv[j]
        out.append(x)
    return np.array(out)


@pytest.mark.parametrize("kind", ["positive", "signed", "jordan"])
@pytest.mark.parametrize("K", [0, 1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 97, 200])
def test_convolution_route_matches_the_explicit_solution_formula(kind, K):
    a = _route_operators()[kind]
    rng = np.random.default_rng(K)
    x0 = rng.normal(size=a.shape[0])
    uv = rng.normal(size=(K + 3, a.shape[0]))  # rows past K must not be read
    got = _convolution_states(a, x0, uv, K)
    ref = _solution_formula(a, x0, uv, K)
    assert got.shape == (K + 1, a.shape[0])
    gaps = np.linalg.norm(got - ref, axis=1)
    assert np.all(gaps <= 1e-12 * (1.0 + np.linalg.norm(ref, axis=1)))


def _simulate_case(n=16, K=100):
    rng = np.random.default_rng(9)
    a = _scaled(rng.uniform(0.0, 1.0, size=(n, n)), 0.95)
    return dense(a), rng.uniform(0.0, 1.0, size=n), rng.uniform(-1.0, 1.0, size=(K, n))


@pytest.mark.parametrize("j", [0, 7, 8, 31, 32, 70])
def test_simulate_catches_a_corrupted_convolution_term(monkeypatch, j):
    # u(j) perturbed where only the convolution route sees it: first seen at step j + 1
    T, x0, u = _simulate_case()
    real = iss._convolution_states

    def planted(a, x0, uv, K):
        uv = uv.copy()
        uv[j, 0] += 1e-8
        return real(a, x0, uv, K)

    monkeypatch.setattr(iss, "_convolution_states", planted)
    with pytest.raises(ArithmeticError, match=rf"at step {j + 1} \("):
        simulate(T, x0, u)


@pytest.mark.parametrize("k", [1, 8, 9, 32, 33, 100])
def test_simulate_catches_a_corrupted_state(monkeypatch, k):
    T, x0, u = _simulate_case()
    real = iss._convolution_states

    def planted(a, x0, uv, K):
        out = real(a, x0, uv, K).copy()
        out[k] *= 1.0 + 1e-8
        return out

    monkeypatch.setattr(iss, "_convolution_states", planted)
    with pytest.raises(ArithmeticError, match=rf"at step {k} \("):
        simulate(T, x0, u)


def test_simulate_rejects_a_negative_horizon():
    with pytest.raises(ValueError, match="K must be >= 0, got -1"):
        simulate(UPPER2X2, np.zeros(2), np.ones((3, 2)), K=-1)
    assert len(simulate(UPPER2X2, np.ones(2), np.ones((3, 2)), K=0)) == 1


def test_simulate_memory_is_bounded_at_long_horizons():
    # the K + 1 stored dense powers of an unblocked route take 52 MB here
    T, x0, u = _simulate_case(n=64, K=1600)
    tracemalloc.start()
    try:
        simulate(T, x0, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


# ---------------------------------------------------------------- iss constants

def test_iss_constants_scalar():
    est = iss_constants(diagonal([0.5]))
    assert est.C == pytest.approx(2.0, abs=1e-9)
    assert est.a == pytest.approx(0.75)
    assert est.M >= 1.0


def test_iss_constants_zero_operator():
    est = iss_constants(dense(np.zeros((2, 2))))
    assert est.M == pytest.approx(1.0)
    assert est.C == pytest.approx(1.0, abs=1e-9)


def test_iss_constants_jordan_partial_sum_oracle():
    # direct summation: sum_k ||T^k||_inf = sum 0.5^k (1 + 2k) = 6
    est = iss_constants(UPPER2X2)
    pn = power_norms(UPPER2X2, 200, "linf")
    assert est.C == pytest.approx(float(np.sum(pn)), abs=1e-6)
    assert est.C == pytest.approx(6.0, abs=1e-6)


def test_iss_constants_envelope_bounds_powers():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a *= 0.85 / max(float(np.max(np.abs(np.linalg.eigvals(a)))), 1e-9)
        T = dense(a)
        est = iss_constants(T)
        pn = power_norms(T, 100, "linf")
        for k, v in enumerate(pn):
            assert v <= est.M * est.a**k + 1e-10


def _numpy_norm_sum(a, norm, powers=256):
    """sum_k ||a^k|| with numpy norms of the chain a^k = a^(k-1) a, in blocks
    of `powers` powers, until a block ends on a term below 1e-17 of the total."""
    order = {"l1": 1, "l2": 2, "linf": np.inf}[norm]
    p, total, block = np.eye(len(a)), 1.0, np.empty((powers,) + a.shape)
    while True:
        for j in range(len(block)):
            p = block[j] = p @ a
        terms = np.linalg.norm(block, order, axis=(1, 2))
        total += float(np.sum(terms))
        if terms[-1] <= 1e-17 * total:
            return total


@pytest.mark.parametrize("norm", ["linf", "l2"])
def test_iss_constant_bounds_the_numpy_sum_past_its_horizon(norm):
    # C covers sum_k ||T^k|| summed to convergence, far past the powers it read
    rng = np.random.default_rng(11)
    for n in (3, 5, 8):
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a *= 0.99 / float(np.max(np.abs(np.linalg.eigvals(a))))
        est = iss_constants(dense(a), norm=norm)
        total = _numpy_norm_sum(a, norm)
        assert est.C >= total
        assert est.C <= total * (1.0 + 1e-6)


def test_iss_constant_of_the_l2_power_method_counterexample():
    # T = 0.9 diag(1, sqrt(1.01)) Q^T: the power-method norm made C = 10.236036,
    # below sum_{k <= 520} ||T^k||_2 = 10.249890
    q = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    a = 0.9 * np.diag([1.0, np.sqrt(1.01)]) @ q.T
    est = iss_constants(dense(a), norm="l2")
    exact = sum(float(np.linalg.norm(np.linalg.matrix_power(a, k), 2)) for k in range(521))
    assert exact == pytest.approx(10.249890, abs=1e-6)
    assert exact <= est.C <= exact * (1.0 + 1e-9)
    # every ||T^k||_2 <= 0.9045 < a: the envelope's only binding ratio is ||T^0|| = 1
    assert est.M <= 1.0 + 1e-9


def test_iss_constants_block_tail_is_submultiplicative():
    # T >= 0: ||T^k|| <= g ||P_k|| for the computed powers P_k, g = 1 + gamma_{(K+3)(n+1)};
    # a signed map's table is summed as it is (g = 1)
    for T, g in ((UPPER2X2, None), (dense([[0.5, -1.0], [0.0, 0.5]]), 1.0)):
        est = iss_constants(T)
        assert est.tail_rule == "block"
        pn = power_norms(T, est.K, "linf")
        m = next(k for k in range(1, len(pn)) if pn[k] <= 0.5)
        assert (est.K + 1) % m == 0
        g = 1.0 + _gamma((est.K + 3) * 3) if g is None else g
        theta = g * pn[m]
        assert est.tail_bound == theta / (1.0 - theta) * g * float(np.sum(pn[-m:]))
        assert est.tail_bound <= 1e-10
        assert est.C == g * float(np.sum(pn)) + est.tail_bound


def _weighted_cycle(n, rho):
    """x_i -> w_i x_(i+1 mod n): imprimitive, every power a weighted permutation."""
    w = np.linspace(0.5, 1.5, n)
    a = np.roll(np.diag(w), 1, axis=1)
    return a * (rho / np.prod(w) ** (1.0 / n))


def _decay_route_cases():
    rng = np.random.default_rng(19)
    for i, rho in enumerate((0.5, 0.9, 0.97, 0.99, 0.999, 0.999)):
        n = int(rng.integers(2, 13))
        a = rng.uniform(0.0, 1.0, size=(n, n)) * (rng.uniform(size=(n, n)) < 0.7)
        a += np.diag(np.full(n, 0.01))  # no zero row or column
        a *= rho / float(np.max(np.abs(np.linalg.eigvals(a))))
        yield pytest.param(a, id=f"random{i}-n{n}-rho{rho}")
    upper = np.array([[0.6, 0.3, 0.9, 0.2], [0.3, 0.5, 0.4, 0.8], [0.0, 0.0, 0.4, 0.3], [0.0, 0.0, 0.2, 0.5]])
    upper *= 0.95 / float(np.max(np.abs(np.linalg.eigvals(upper))))
    yield pytest.param(upper, id="block-triangular")
    yield pytest.param(_weighted_cycle(5, 0.97), id="weighted-cycle")
    yield pytest.param(0.9 * (np.eye(16) + 0.5 * np.eye(16, k=1)), id="jordan-n16")


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
@pytest.mark.parametrize("a", list(_decay_route_cases()))
def test_iss_constant_brackets_the_converged_numpy_sum(a, norm):
    # nonnegative maps close on either tail rule; both must stay above the
    # whole sum and within 1e-6 of it
    est = iss_constants(dense(a), norm=norm)
    total = _numpy_norm_sum(a, norm)
    assert total <= est.C <= total * (1.0 + 1e-6)


def test_decay_vector_route_stops_the_table_early():
    # without the decay vector the l2 table runs to 30,720 powers here
    rng = np.random.default_rng(0)
    a = rng.uniform(0.0, 1.0, size=(16, 16))
    T = dense(a * (0.999 / float(np.max(np.abs(np.linalg.eigvals(a))))))
    est = iss_constants(T, norm="l2")
    assert est.tail_rule == "decay_vector"
    assert est.to_dict()["tail_rule"] == "decay_vector"
    assert est.K <= 127
    assert len(operators._power_table(T, "l2").values) <= 128


def _dense_positive(n, rho):
    """certbench's inputs.dense_positive(default_rng(0), n, rho)."""
    a = np.random.default_rng(0).uniform(0.0, 1.0, size=(n, n))
    return a * (rho / float(np.max(np.abs(np.linalg.eigvals(a)))))


def test_decay_vector_closes_within_the_first_table_blocks():
    # T^K is close to the rank-one z c' after a few powers of a dense T > 0;
    # the rule is tried from the first table block end on
    a = _dense_positive(256, 0.97)
    T = dense(a)
    est = iss_constants(T, norm="l2")
    assert est.tail_rule == "decay_vector"
    assert est.K <= 15
    assert len(operators._power_table(T, "l2").values) <= 16
    total = _numpy_norm_sum(a, "l2", powers=64)
    assert total <= est.C <= total * (1.0 + 1e-6)


def test_decay_vector_closes_before_the_block_rule(monkeypatch):
    a = _dense_positive(16, 0.5)
    est = iss_constants(dense(a), norm="l1")
    monkeypatch.setattr(iss, "_cw_bounds", lambda a, z, cone: (-np.inf, np.inf))
    block = iss_constants(dense(a), norm="l1")
    assert (est.tail_rule, block.tail_rule) == ("decay_vector", "block")
    assert est.K < block.K
    total = _numpy_norm_sum(a, "l1")
    for e in (est, block):
        assert total <= e.C <= total * (1.0 + 1e-6)


@pytest.mark.parametrize("plant", ["zero_entry", "negative_entry", "not_decaying"])
def test_a_bad_decay_vector_leaves_the_block_rule(monkeypatch, plant):
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 1.0, size=(6, 6))
    a *= 0.95 / float(np.max(np.abs(np.linalg.eigvals(a))))
    assert iss_constants(dense(a)).tail_rule == "decay_vector"
    z = np.ones(6)
    if plant == "zero_entry":
        z[2] = 0.0
    elif plant == "negative_entry":
        z[2] = -1.0  # every ratio (T z)_i / z_i is below 1, but z is not interior
    else:
        z[2] = 1e-3  # (T z)_2 / z_2 is far above 1
    assert not iss._cw_bounds(a, z, orthant(6))[1] < 1.0
    real = iss.spectral_radius
    monkeypatch.setattr(iss, "spectral_radius", lambda T: replace(real(T), perron_vector=z))
    est = iss_constants(dense(a))
    assert est.tail_rule == "block"
    pn = power_norms(dense(a), est.K, "linf")
    m = next(k for k in range(1, len(pn)) if pn[k] <= 0.5)
    assert (est.K + 1) % m == 0
    assert est.tail_bound <= 1e-10
    total = _numpy_norm_sum(a, "linf")
    assert total <= est.C <= total * (1.0 + 1e-9)


def test_decay_vector_closes_near_one():
    # rho = 1 - 1e-5: the Perron vector's decay rate is within rounding of
    # rho and the bracket's lower end within 1e-14 of it, so the rule closes
    # once T^K is near rank one, not once the tail is negligible (K = 174,335
    # when the decay vector came from a solve at a shift above the bracket)
    a = _dense_positive(16, 1.0 - 1e-5)
    est = iss_constants(dense(a), norm="l2")
    assert est.tail_rule == "decay_vector"
    assert est.K <= 4096
    p, total = np.eye(16), 1.0
    for _ in range(est.K):
        p = p @ a
        total += float(np.linalg.norm(p, 2))
    assert est.C >= total


def test_iss_constants_unstable_raises():
    with pytest.raises(NoISSEstimateError):
        iss_constants(diagonal([1.5]))


# ---------------------------------------------------------------- iss bound

def test_verify_iss_bound_tight_scalar():
    est = iss_constants(diagonal([0.5]))
    traj = simulate(diagonal([0.5]), [0.0], np.ones((100, 1)))
    assert float(traj.norms.max()) == pytest.approx(2.0, abs=1e-9)
    assert float(traj.norms.max()) <= est.C + 1e-9  # the bound is attained
    assert verify_iss_bound(diagonal([0.5]), est, trials=50)


def test_verify_iss_bound_homogeneous_decay():
    est = iss_constants(UPPER2X2)
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=2)
    traj = simulate(UPPER2X2, x0, np.zeros((100, 2)))
    x0n = float(np.abs(x0).max())
    for k in range(101):
        assert traj.norms[k] <= est.M * est.a**k * x0n + 1e-8


def test_verify_iss_bound_random_trials():
    est = iss_constants(UPPER2X2)
    assert verify_iss_bound(UPPER2X2, est, trials=100, rng=np.random.default_rng(5))


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_verify_iss_bound_input_norms_match_the_per_trial_values(norm):
    rng = np.random.default_rng(6)
    K, trials, n = 100, 100, 7
    U = rng.uniform(-1.0, 1.0, size=(K, trials, n))
    per_trial = np.array([np.max(batch_vec_norm(U[:, t, :], norm)) for t in range(trials)])
    assert np.array_equal(batch_vec_norm(U, norm).max(axis=0), per_trial)
    # T = 0 makes x(k) = u(k-1) exactly, so with C = 1 and tol = 0 the bound
    # holds only if ||u||_inf per trial is the exact maximum of those norms
    est = ISSEstimate(M=1e6, a=1e-200, C=1.0, tail_bound=0.0, norm=norm, K=0)
    assert verify_iss_bound(diagonal(np.zeros(n)), est, rng=np.random.default_rng(6), tol=0.0)
    low = replace(est, C=1.0 - 1e-15)
    assert not verify_iss_bound(diagonal(np.zeros(n)), low, rng=np.random.default_rng(6), tol=0.0)


def _verify_iss_bound_one_shot(T, est, trials=100, rng=None, tol=1e-8):
    """Reference: every input drawn up front as one (100, trials, n) block."""
    rng = np.random.default_rng(0) if rng is None else rng
    a = materialize(T)
    n = T.dim
    X = rng.normal(size=(trials, n))
    K = 100
    U = rng.uniform(-1.0, 1.0, size=(K, trials, n))
    x0n = batch_vec_norm(X, est.norm)
    un = batch_vec_norm(U, est.norm).max(axis=0)
    cur = X.copy()
    for k in range(K + 1):
        xn = batch_vec_norm(cur, est.norm)
        bound = est.M * est.a**k * x0n + est.C * un + tol
        if np.any(xn > bound):
            return False
        if k < K:
            cur = cur @ a.T + U[k]
    return True


def _assert_matches_the_one_shot_loop(T, est, seed, expected, **kw):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert verify_iss_bound(T, est, rng=rng, **kw) is expected
    assert _verify_iss_bound_one_shot(T, est, rng=ref_rng, **kw) is expected
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
@pytest.mark.parametrize("n", [7, 16, 64])
def test_verify_iss_bound_matches_the_one_shot_loop(n, norm):
    rng = np.random.default_rng(n)
    T = dense(_scaled(rng.uniform(0.0, 1.0, size=(n, n)), 0.95))
    _assert_matches_the_one_shot_loop(T, iss_constants(T, norm=norm), n, True)


def test_verify_iss_bound_matches_the_one_shot_loop_on_planted_constants():
    est = iss_constants(UPPER2X2)
    # M has room on these trials, C has none
    _assert_matches_the_one_shot_loop(UPPER2X2, replace(est, M=est.M / 2), 5, True)
    _assert_matches_the_one_shot_loop(UPPER2X2, replace(est, C=est.C / 2), 5, False)
    for norm in ("l1", "l2", "linf"):
        exact = ISSEstimate(M=1e6, a=1e-200, C=1.0, tail_bound=0.0, norm=norm, K=0)
        zero = diagonal(np.zeros(7))
        _assert_matches_the_one_shot_loop(zero, exact, 6, True, tol=0.0)
        _assert_matches_the_one_shot_loop(zero, replace(exact, C=1.0 - 1e-15), 6, False, tol=0.0)
    made_up = ISSEstimate(M=1.0, a=0.5, C=1.0, tail_bound=0.0, norm="linf", K=0)
    _assert_matches_the_one_shot_loop(diagonal(2.0 * np.ones(3)), made_up, 7, False)


def test_verify_iss_bound_stops_at_a_non_finite_state():
    # the states overflow at step 2, where an infinite C would leave every bound unbroken
    est = ISSEstimate(M=1.0, a=0.5, C=np.inf, tail_bound=0.0, norm="linf", K=0)
    rng = np.random.default_rng(8)
    with np.errstate(over="ignore"):
        assert not verify_iss_bound(diagonal([1e200]), est, rng=rng)
    ref = np.random.default_rng(8)
    ref.normal(size=(100, 1))
    ref.uniform(-1.0, 1.0, size=(2, 100, 1))  # the draws of steps 0 and 1 only
    assert rng.bit_generator.state == ref.bit_generator.state


def test_verify_iss_bound_memory_does_not_hold_the_input_block():
    # the (100, 100, 64) input block and its |U| temporary take 10 MiB
    rng = np.random.default_rng(64)
    T = dense(_scaled(rng.uniform(0.0, 1.0, size=(64, 64)), 0.95))
    est = iss_constants(T)
    tracemalloc.start()
    try:
        assert verify_iss_bound(T, est, trials=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


# ---------------------------------------------------------------- response classes

def test_response_lp_convergent():
    u = InputSignal(values=np.array([[1.0]] + [[0.0]] * 7), declared_class="lp", p=1.0)
    res = response_class_check(diagonal([0.5]), u, "lp")
    assert res.verdict == "convergent"
    # oracle: state sums to the geometric series total 2
    assert res.detail["partial_sum"] == pytest.approx(2.0, abs=1e-6)


def test_response_lp_divergent():
    u = InputSignal(values=np.array([[1.0]] + [[0.0]] * 7), declared_class="lp", p=1.0)
    res = response_class_check(diagonal([1.0]), u, "lp")
    assert res.verdict == "divergent"


def test_response_c0():
    vals = (1.0 / (np.arange(256) + 1.0)).reshape(-1, 1)
    u = InputSignal(values=vals, declared_class="c0")
    res = response_class_check(diagonal([0.5]), u, "c0")
    assert res.verdict == "converges_to_zero"


def test_response_linf_bounded_vs_growing():
    u = InputSignal(values=np.ones((64, 1)))
    assert response_class_check(diagonal([0.5]), u, "linf").verdict == "bounded"
    assert response_class_check(diagonal([1.2]), u, "linf").verdict == "growing"


def test_response_ag_finite_time():
    rng = np.random.default_rng(6)
    u = InputSignal(values=rng.uniform(-1, 1, size=(64, 2)))
    for eps in (1e-1, 1e-3):
        res = response_class_check(UPPER2X2, u, "ag", ag_eps=eps)
        assert res.verdict == "satisfied"
        assert res.detail["T_eps"] is not None


# ---------------------------------------------------------------- datko

@pytest.mark.parametrize("K", [0, -1])
def test_datko_rejects_a_horizon_below_one(K):
    with pytest.raises(ValueError, match=rf"K must be >= 1, got {K}"):
        datko_test(dense([[2.0]]), [1.0], 1.0, K=K)


def test_datko_scalar_convergent():
    res = datko_test(diagonal([0.5]), [1.0], 2, K=64)
    assert res.classification == "convergent"
    assert res.total == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_datko_constant_divergent():
    res = datko_test(diagonal([1.0]), [1.0], 2, K=64)
    assert res.classification == "divergent"


def test_datko_growth_divergent():
    res = datko_test(diagonal([1.3]), [1.0], 1, K=32)
    assert res.classification == "divergent"


def test_datko_slow_modes_not_convergent():
    entry = gallery_build("diag_strong_stable")
    res = datko_test(entry.operator, np.ones(64), 2, K=64, norm="l2")
    assert res.classification != "convergent"
    # yet every mode decays: the final term is below the first
    assert res.dyadic_sums[-1] > 0


def test_datko_stable_sweep_convergent():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        a = rng.uniform(0.0, 1.0, size=(n, n))
        a *= rng.choice([0.3, 0.7, 0.9]) / max(float(np.max(np.abs(np.linalg.eigvals(a)))), 1e-9)
        for p in (1.0, 2.0):
            for _ in range(4):
                x = rng.uniform(0.0, 1.0, size=n)
                res = datko_test(dense(a), x, p, K=64)
                assert res.classification == "convergent"


def test_datko_32_random_cone_starts():
    rng = np.random.default_rng(9)
    a = rng.uniform(0.0, 1.0, size=(5, 5))
    a *= 0.7 / max(float(np.max(np.abs(np.linalg.eigvals(a)))), 1e-9)
    for p in (1.0, 2.0):
        for _ in range(32):
            x = rng.uniform(0.0, 1.0, size=5)
            assert datko_test(dense(a), x, p, K=64).classification == "convergent"


def test_datko_perron_start_divergent():
    rng = np.random.default_rng(8)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        a = rng.uniform(0.1, 1.0, size=(n, n))
        a *= rng.choice([1.0, 1.3]) / max(float(np.max(np.abs(np.linalg.eigvals(a)))), 1e-9)
        est = spectral_radius(dense(a))
        res = datko_test(dense(a), est.perron_vector, 2, K=64)
        assert res.classification == "divergent"


# ---------------------------------------------------------------- serialization

def test_input_signal_roundtrip():
    u = InputSignal(values=np.ones((3, 2)), declared_class="lp", p=2.0)
    d = u.to_dict()
    u2 = input_from_dict(d)
    np.testing.assert_array_equal(u.values, u2.values)
    assert u2.declared_class == "lp" and u2.p == 2.0
    assert d["class"] == "lp"


def test_input_signal_validation():
    with pytest.raises(ValueError):
        InputSignal(values=np.ones((3, 2)), declared_class="lp")  # missing p
    with pytest.raises(ValueError):
        InputSignal(values=np.ones((3, 2)), declared_class="l7")

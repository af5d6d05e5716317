import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import posstab.norms as norms
import posstab.operators as ops
from posstab import cross_check, dense, lorentz, orthant
from posstab.norms import L2_RESIDUAL_RTOL, _gamma, batch_induced_norm, induced_norm, l2_upper_bounds

_Q = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)

#: diag(1, sqrt(1.01)) Q^T: two singular values 0.5% apart, where the power method stops low
COUNTEREXAMPLE = np.diag([1.0, np.sqrt(1.01)]) @ _Q.T


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _matrix(kind, rng, n):
    if kind == "dense positive":
        return rng.uniform(0.0, 1.0, size=(n, n))
    if kind == "clustered":
        gap = float(rng.choice([0.0, 1e-12, 1e-8, 1e-3, 5e-3]))
        s = 1.0 - gap * np.arange(n)
        return _orthogonal(rng, n) @ np.diag(s) @ _orthogonal(rng, n).T
    if kind == "orthogonal":
        return _orthogonal(rng, n)
    if kind == "rank deficient":
        k = int(rng.integers(0, n)) if n > 1 else 0
        a = rng.normal(size=(n, k)) @ rng.normal(size=(k, n))
        a[:, int(rng.integers(0, n))] = 0.0
        return a
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "1x1":
        return rng.normal(size=(1, 1)) * 10.0 ** rng.uniform(-5, 5)
    return COUNTEREXAMPLE * rng.uniform(0.5, 2.0)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(
        ["dense positive", "clustered", "orthogonal", "rank deficient", "zero", "1x1",
         "counterexample"]
    ),
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.booleans(),
)
def test_l2_bound_is_never_below_the_numpy_norm(kind, seed, n, warm):
    rng = np.random.default_rng(seed)
    a = _matrix(kind, rng, n)
    start = rng.normal(size=a.shape[1]) if warm else None
    (bound,), _ = l2_upper_bounds(a[None], start)
    oracle = float(np.linalg.norm(a, 2))
    assert oracle <= bound <= oracle * (1.0 + 1e-10)


def test_l2_bound_of_an_orthogonal_matrix_is_tight():
    # all singular values equal: theta + r is unusable, and the Cholesky certificate is tight
    q = _orthogonal(np.random.default_rng(3), 12)
    (bound,), _ = l2_upper_bounds(q[None])
    assert 1.0 <= np.linalg.norm(q, 2) <= bound <= 1.0 + 1e-10


def _top_eigenvalue(a):
    return float(np.linalg.eigvalsh(a.T @ a)[-1])


@pytest.mark.parametrize("kind", ["counterexample", "orthogonal"])
def test_cholesky_refuses_a_candidate_below_the_top_eigenvalue(monkeypatch, kind):
    a = COUNTEREXAMPLE if kind == "counterexample" else _orthogonal(np.random.default_rng(4), 12)
    lam = _top_eigenvalue(a)
    e = np.array([_gamma(len(a) + 1) * float(np.sum(a * a))])
    assert norms._cholesky_upper((a.T @ a)[None], e, np.array([lam]))[0] >= lam
    assert norms._cholesky_upper((a.T @ a)[None], e, np.array([0.999 * lam]))[0] == np.inf
    # planted in the eigvalsh candidate, the old bound stands and stays above the norm
    real = norms._cholesky_upper
    monkeypatch.setattr(norms, "_cholesky_upper", lambda B, e, lam: real(B, e, 0.999 * lam))
    (bound,), _ = l2_upper_bounds(a[None])
    assert bound >= np.linalg.norm(a, 2)


def test_cholesky_bound_on_zero_and_1x1_matrices():
    # a zero matrix has no positive definite shift at t = 0, so it is refused (and
    # l2_upper_bounds never asks: its power step is converged and usable)
    assert norms._cholesky_upper(np.zeros((1, 3, 3)), np.zeros(1), np.zeros(1))[0] == np.inf
    (bound,), _ = l2_upper_bounds(np.zeros((1, 3, 3)))
    assert bound == 0.0
    p = np.array([[[0.75]]])
    (s,) = norms._cholesky_upper(p * p, np.array([_gamma(2) * 0.5625]), np.array([0.5625]))
    assert 0.5625 <= s <= 0.5625 * (1.0 + 1e-14)


def test_l2_bound_of_an_orthogonal_stack_with_a_zero_matrix():
    q = _orthogonal(np.random.default_rng(5), 4)
    bounds, _ = l2_upper_bounds(np.stack([q, np.zeros((4, 4)), 3.0 * q]))
    assert bounds[1] == 0.0
    for b, s in zip(bounds[::2], (1.0, 3.0)):
        assert s * np.linalg.norm(q, 2) <= b <= s * (1.0 + 1e-10)


def test_l2_bound_of_a_stack_matches_bounds_one_at_a_time():
    rng = np.random.default_rng(1)
    stack = rng.uniform(0.0, 1.0, size=(5, 6, 6))
    bounds, vectors = l2_upper_bounds(stack)
    for p, b in zip(stack, bounds):
        assert b >= np.linalg.norm(p, 2)
        assert b == pytest.approx(np.linalg.norm(p, 2), rel=1e-10)
    np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0)


def test_l2_bound_catches_the_power_method_counterexample():
    # a power method stops low here; induced_norm is the certified bound, which does not
    exact = np.linalg.norm(COUNTEREXAMPLE, 2)
    assert exact <= induced_norm(COUNTEREXAMPLE, "l2") <= exact + 1e-10
    (bound,), _ = l2_upper_bounds(COUNTEREXAMPLE[None])
    assert bound >= exact


def test_l2_bound_scales_without_overflow():
    a = np.array([[1e300, 1e300], [1e300, -1e300]])
    (bound,), _ = l2_upper_bounds(a[None])
    assert np.isfinite(bound)
    # both singular values are sqrt(2) 1e300: the bound comes from the Cholesky certificate
    assert np.sqrt(2.0) * 1e300 <= bound <= np.sqrt(2.0) * 1e300 * (1.0 + 1e-10)


@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_batch_induced_norm_is_bitwise_induced_norm(norm):
    stack = np.random.default_rng(2).normal(size=(7, 9, 9))
    values, start = batch_induced_norm(stack, norm)
    assert start is None
    assert list(values) == [induced_norm(p, norm) for p in stack]


def test_batch_induced_norm_rejects_unknown_norm():
    with pytest.raises(ValueError, match="unknown norm"):
        batch_induced_norm(np.zeros((1, 2, 2)), "l3")


class _StepCounter:
    """numpy as seen from posstab.norms, counting the power steps of l2_upper_bounds
    (one P v product each)."""

    def __init__(self):
        self.steps = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def einsum(self, subscripts, *operands, **kwargs):
        self.steps += subscripts == "bij,bj->bi"
        return np.einsum(subscripts, *operands, **kwargs)


def _record_l2_calls(monkeypatch):
    """(calls, certified): every l2_upper_bounds call of the power-norm table as
    (P, start, steps, (bounds, vectors)), and one entry per `_cholesky_upper` call
    made for it; other callers, such as the resolvent norm of the criteria, are not
    recorded."""
    counter, calls, certified, in_table = _StepCounter(), [], [], []
    monkeypatch.setattr(norms, "np", counter)
    real_cholesky, real_bounds = norms._cholesky_upper, norms.l2_upper_bounds
    real_batch = ops.batch_induced_norm

    def table_norms(*args):
        in_table.append(True)
        try:
            return real_batch(*args)
        finally:
            in_table.pop()

    def cholesky(*args):
        if in_table:
            certified.append(1)
        return real_cholesky(*args)

    def recording(P, start=None, max_steps=64):
        counter.steps = 0
        out = real_bounds(P, start, max_steps)
        if in_table:
            calls.append((np.array(P), None if start is None else np.array(start), counter.steps, out))
        return out

    monkeypatch.setattr(ops, "batch_induced_norm", table_norms)
    monkeypatch.setattr(norms, "_cholesky_upper", cholesky)
    monkeypatch.setattr(norms, "l2_upper_bounds", recording)
    return calls, certified


def _convergence_only(P, start, max_steps=64):
    """(bounds, vectors, steps): the power-step bound with no stall rule and no
    certificate, stopping only once every residual is below L2_RESIDUAL_RTOL * theta."""
    b, m, n = P.shape
    _, exponent = np.frexp(np.abs(P).max(axis=(1, 2), initial=0.0))
    P = np.ldexp(P, -exponent[:, None, None])
    fro2 = np.einsum("bij,bij->b", P, P) * (1.0 + _gamma(2 * m * n + 2))
    absP = np.abs(P)
    one_inf = absP.sum(axis=1).max(axis=1) * absP.sum(axis=2).max(axis=1)
    best = np.minimum(fro2, one_inf * (1.0 + _gamma(2 * (m + n) + 4)))
    slack = _gamma(2 * (m + n) + 8) * fro2
    v = 1.0 + 1e-3 * np.arange(n) if start is None else np.asarray(start, dtype=float)
    v = np.tile(v / np.linalg.norm(v), (b, 1))
    steps = 0
    for steps in range(1, max_steps + 1):
        w = np.einsum("bij,bj->bi", P, v)
        theta = np.einsum("bi,bi->b", w, w)
        g = np.einsum("bij,bi->bj", P, w)
        r = np.linalg.norm(g - theta[:, None] * v, axis=1)
        r_up = r * (1.0 + _gamma(2 * n + 4)) / np.sqrt(np.einsum("bi,bi->b", v, v)) + slack
        usable = fro2 <= 2.0 * theta
        best = np.where(usable, np.minimum(best, (theta + r_up) * (1.0 + _gamma(1))), best)
        gn = np.linalg.norm(g, axis=1)
        if not np.any(gn > 0.0):
            break
        v = np.where(gn[:, None] > 0.0, g / np.where(gn > 0.0, gn, 1.0)[:, None], v)
        if np.all(r <= L2_RESIDUAL_RTOL * theta):
            break
    return np.ldexp(np.sqrt(best * (1.0 + _gamma(8))), exponent), v, steps


def _certbench_ops(workload, seed=0):
    path = pathlib.Path(__file__).resolve().parents[1] / "certbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("certbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.build_ops(workload, seed)


@pytest.mark.parametrize("workload", ["dense-orthant", "lorentz"])
def test_converging_table_blocks_take_the_same_steps_and_no_certificate(monkeypatch, workload):
    # the top singular values of these powers are well apart: the power steps
    # converge, the bounds are usable, and nothing changes
    ops = [op for op in _certbench_ops(workload) if op.norm == "l2"]
    calls, certified = _record_l2_calls(monkeypatch)
    for op in ops:
        cone = orthant(op.dim, "l2") if op.cone == "orthant" else lorentz(op.dim, "l2")
        cross_check(dense(op.matrix), cone)
    monkeypatch.undo()
    assert calls and not certified
    for P, start, steps, (bounds, vectors) in calls:
        ref_bounds, ref_vectors, ref_steps = _convergence_only(P, start)
        assert steps == ref_steps <= 13
        assert bounds.tobytes() == ref_bounds.tobytes()
        assert vectors.tobytes() == ref_vectors.tobytes()


def test_stalled_table_blocks_stop_after_three_steps(monkeypatch):
    # the counterexample's powers keep two singular values close: each block
    # ran all 64 steps before; it now stalls at once and is certified
    calls, certified = _record_l2_calls(monkeypatch)
    cross_check(dense(0.9 * COUNTEREXAMPLE), orthant(2, "l2"))
    monkeypatch.undo()
    assert len(calls) == 8 and certified
    for P, _, steps, (bounds, _) in calls:
        assert steps <= 3
        exact = np.array([np.linalg.norm(p, 2) for p in P])
        assert np.all(exact <= bounds) and np.all(bounds <= exact * (1.0 + 1e-12))


def test_a_converged_matrix_keeps_stepping_beside_a_stalled_one(monkeypatch):
    # the stall rule stops a stack only when none of its matrices has converged, so a
    # converged matrix takes every step it would take without that rule
    a = np.diag([1.0, 0.5, 0.25]) + 0.01
    q = _orthogonal(np.random.default_rng(7), 3)
    counter = _StepCounter()
    monkeypatch.setattr(norms, "np", counter)
    (alone,), _ = l2_upper_bounds(a[None])
    counter.steps = 0
    (beside, bound_q), _ = l2_upper_bounds(np.stack([a, q]))
    assert counter.steps == 64
    counter.steps = 0
    l2_upper_bounds(np.stack([q, 2.0 * q]))
    assert counter.steps <= 3
    monkeypatch.undo()
    assert np.linalg.norm(a, 2) <= beside <= alone
    assert np.linalg.norm(q, 2) <= bound_q <= 1.0 + 1e-10


def test_no_power_step_runs_where_no_matrix_can_be_usable(monkeypatch):
    # ||P||_F^2 = 4 ||P||_1 ||P||_inf for P = I and 2I (n = 4): theta <= ||P||_2^2 can
    # never reach ||P||_F^2 / 2, so the stack goes straight to the Cholesky certificate
    counter, certified = _StepCounter(), []
    monkeypatch.setattr(norms, "np", counter)
    real = norms._cholesky_upper
    monkeypatch.setattr(norms, "_cholesky_upper", lambda *a: certified.append(len(a[0])) or real(*a))
    stack = np.stack([np.eye(4), 2.0 * np.eye(4)])
    bounds, _ = l2_upper_bounds(stack)
    (one,), start = batch_induced_norm(stack[:1], "l2", np.arange(1.0, 5.0))
    monkeypatch.undo()
    assert counter.steps == 0 and certified == [2, 1]
    for b, s in zip(bounds, (1.0, 2.0)):
        assert s <= b <= s * (1.0 + 1e-10)
    assert 1.0 <= one <= 1.0 + 1e-10
    np.testing.assert_array_equal(start, np.arange(1.0, 5.0) / np.linalg.norm(np.arange(1.0, 5.0)))


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_vec_norm_is_batch_vec_norm_bit_for_bit(norm):
    # one implementation: a vector's norm has the bits of its row in a batch
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 7, 16, 64, 257):
        X = rng.normal(size=(8, n)) * 10.0 ** rng.uniform(-8, 8, size=(8, 1))
        batch = norms.batch_vec_norm(X, norm)
        for x, b in zip(X, batch):
            got = norms.vec_norm(x, norm)
            assert type(got) is float
            assert got == float(norms.batch_vec_norm(x, norm)) == float(b)

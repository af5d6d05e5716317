import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posstab.norms import batch_induced_norm, induced_norm, l2_upper_bounds

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
    assert bound >= oracle
    if kind == "dense positive":
        assert bound <= oracle * (1.0 + 1e-6)


def test_l2_bound_of_a_stack_matches_bounds_one_at_a_time():
    rng = np.random.default_rng(1)
    stack = rng.uniform(0.0, 1.0, size=(5, 6, 6))
    bounds, vectors = l2_upper_bounds(stack)
    for p, b in zip(stack, bounds):
        assert b >= np.linalg.norm(p, 2)
        assert b == pytest.approx(np.linalg.norm(p, 2), rel=1e-10)
    np.testing.assert_allclose(np.linalg.norm(vectors, axis=1), 1.0)


def test_l2_bound_catches_the_power_method_counterexample():
    # the power-method estimate stops low; the certified bound does not
    assert induced_norm(COUNTEREXAMPLE, "l2") < np.linalg.norm(COUNTEREXAMPLE, 2)
    (bound,), _ = l2_upper_bounds(COUNTEREXAMPLE[None])
    assert bound >= np.linalg.norm(COUNTEREXAMPLE, 2)


def test_l2_bound_scales_without_overflow():
    a = np.array([[1e300, 1e300], [1e300, -1e300]])
    (bound,), _ = l2_upper_bounds(a[None])
    assert np.isfinite(bound)
    assert bound >= np.sqrt(2.0) * 1e300


@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_batch_induced_norm_is_bitwise_induced_norm(norm):
    stack = np.random.default_rng(2).normal(size=(7, 9, 9))
    values, start = batch_induced_norm(stack, norm)
    assert start is None
    assert list(values) == [induced_norm(p, norm) for p in stack]


def test_batch_induced_norm_rejects_unknown_norm():
    with pytest.raises(ValueError, match="unknown norm"):
        batch_induced_norm(np.zeros((1, 2, 2)), "l3")

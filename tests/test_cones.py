from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posstab import (
    ConeSpec,
    DimensionMismatchError,
    NotALatticeError,
    UnsupportedConeNormError,
    cone_constants,
    contains,
    decompose,
    distance,
    is_interior,
    lattice_parts,
    lorentz,
    orthant,
    project,
    vec_norm,
)
from posstab.cones import batch_distance, cone_from_dict, margin, max_ratio, random_points


# ---------------------------------------------------------------- oracles

def grid_distance_oracle(cone, x, half_width=3.0, steps=241):
    """Dense grid minimization of ||x - y|| over cone points y (2-d only)."""
    axis = np.linspace(-half_width, half_width, steps)
    best = np.inf
    for t in axis:
        for s in axis:
            y = np.array([t, s])
            if contains(cone, y, 0.0):
                best = min(best, vec_norm(x - y, cone.norm))
    return best


def ball_margin_oracle(cone, x, rng, n_dirs=4000):
    """Largest ball radius via sampled directions: min over unit u of slack."""
    n = cone.dim
    dirs = rng.normal(size=(n_dirs, n))
    if cone.norm == "linf":
        dirs /= np.abs(dirs).max(axis=1, keepdims=True)
    elif cone.norm == "l1":
        dirs /= np.abs(dirs).sum(axis=1, keepdims=True)
    else:
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    dirs = np.vstack([dirs, -np.eye(n), np.eye(n)])
    lo, hi = 0.0, 10.0 + vec_norm(x, cone.norm)
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if all(contains(cone, x + mid * u, 0.0) for u in dirs):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------- contains

def test_contains_apex():
    assert contains(orthant(2, "linf"), [0.0, 0.0], 0.0)


def test_contains_negative_entry():
    assert not contains(orthant(2, "linf"), [1.0, -2.0], 1e-12)


def test_contains_lorentz():
    assert contains(lorentz(2), [1.0, 0.5], 0.0)
    assert not contains(lorentz(2), [0.4, 0.5], 0.0)


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        contains(orthant(3, "l1"), [1.0, 2.0])


# ---------------------------------------------------------------- distance

def test_distance_orthant_clipping_oracle():
    cone = orthant(2, "linf")
    x = np.array([1.0, -2.0])
    clipped = np.maximum(x, 0.0)
    assert distance(cone, x) == pytest.approx(vec_norm(x - clipped, "linf"))
    assert distance(cone, x) == 2.0


def test_distance_already_inside():
    assert distance(orthant(3, "l1"), [5.0, 0.0, 1.0]) == 0.0


def test_distance_lorentz_grid_oracle():
    cone = lorentz(2)
    x = np.array([0.0, 1.0])
    oracle = grid_distance_oracle(cone, x)
    d = distance(cone, x)
    assert d == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert abs(d - oracle) < 2e-2  # grid resolution


def test_distance_lorentz_unsupported_norm():
    with pytest.raises(UnsupportedConeNormError):
        distance(lorentz(3, "linf"), [1.0, 0.0, 0.0])


def test_distance_matches_projection():
    rng = np.random.default_rng(0)
    for cone in (orthant(4, "l1"), orthant(4, "l2"), orthant(4, "linf"), lorentz(4)):
        for _ in range(50):
            x = rng.normal(size=4)
            p = project(cone, x)
            assert contains(cone, p, 1e-12)
            assert distance(cone, x) <= vec_norm(x - p, cone.norm) + 1e-12


def test_distance_zero_iff_contains():
    rng = np.random.default_rng(1)
    for cone in (orthant(3, "linf"), lorentz(3)):
        for _ in range(200):
            x = rng.normal(size=3)
            assert (distance(cone, x) <= 1e-12) == contains(cone, x, 0.0) or (
                distance(cone, x) <= 1e-12
            ) == contains(cone, x, 1e-12)


def test_batch_distance_matches_scalar():
    # a block and its rows go through the same arithmetic, so they agree exactly
    rng = np.random.default_rng(2)
    cones = [orthant(5, norm) for norm in ("l1", "l2", "linf")]
    cones += [lorentz(5, norm) for norm in ("l1", "l2", "linf")]
    for cone in cones:
        X = rng.normal(size=(40, 5))
        X[:3] = [[1.0, 0.6, 0.8, 0.0, 0.0], [-1.0, 0.6, 0.8, 0.0, 0.0], np.zeros(5)]
        ops = [margin, decompose]
        if cone.kind == "orthant" or cone.norm == "l2":
            ops += [project, distance, batch_distance]
        for op in ops:
            block = op(cone, X)
            rows = [op(cone, x) for x in X]
            if op is decompose:
                for part, row_parts in zip(block, zip(*rows)):
                    np.testing.assert_array_equal(part, np.array(row_parts))
            else:
                np.testing.assert_array_equal(block, np.array(rows), err_msg=f"{op.__name__} {cone}")
        np.testing.assert_array_equal(contains(cone, X, 0.0), margin(cone, X) >= 0.0)
        inside, m = is_interior(cone, X)
        np.testing.assert_array_equal(inside, [is_interior(cone, x)[0] for x in X])
        np.testing.assert_array_equal(m, [is_interior(cone, x)[1] for x in X])


@pytest.mark.parametrize("cone", [orthant(3, "l2"), lorentz(3, "l2")])
def test_block_of_wrong_width_rejected(cone):
    bad = np.ones((4, cone.dim + 1))
    for op in (margin, contains, is_interior, project, decompose, distance, batch_distance):
        with pytest.raises(DimensionMismatchError):
            op(cone, bad)
    with pytest.raises(DimensionMismatchError):
        margin(cone, np.ones((2, 2, cone.dim)))


def test_margin_values():
    assert margin(orthant(3, "l1"), [2.0, -0.5, 1.0]) == -0.5
    assert margin(lorentz(3, "linf"), [2.0, 0.6, 0.8]) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(margin(lorentz(2), [[1.0, 0.5], [0.4, -0.5]]), [0.5, -0.1])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    st.lists(st.floats(-5, 5), min_size=3, max_size=3),
    st.floats(0.0, 4.0),
)
def test_distance_subadditive_homogeneous(xs, ys, alpha):
    cone = orthant(3, "l2")
    x, y = np.array(xs), np.array(ys)
    assert distance(cone, x + y) <= distance(cone, x) + distance(cone, y) + 1e-10
    assert distance(cone, alpha * x) == pytest.approx(alpha * distance(cone, x), abs=1e-10)


# ---------------------------------------------------------------- interior

def test_interior_margin_orthant():
    inside, margin = is_interior(orthant(2, "linf"), [6.0, 2.0])
    assert inside and margin == 2.0


def test_interior_boundary_point():
    inside, margin = is_interior(orthant(2, "linf"), [1.0, 0.0])
    assert not inside and margin == 0.0


def test_interior_lorentz_axis():
    inside, margin = is_interior(lorentz(3), [1.0, 0.0, 0.0])
    assert inside
    assert margin == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_interior_margin_ball_oracle():
    # the sampled oracle upper-bounds the exact margin (finitely many directions)
    rng = np.random.default_rng(3)
    cone = orthant(3, "linf")
    x = np.array([6.0, 2.0, 3.5])
    _, margin = is_interior(cone, x)
    assert margin == pytest.approx(ball_margin_oracle(cone, x, rng), abs=1e-6)
    cone2 = lorentz(3)
    x2 = np.array([2.0, 0.3, -0.4])
    _, margin2 = is_interior(cone2, x2)
    oracle2 = ball_margin_oracle(cone2, x2, rng)
    assert margin2 <= oracle2 + 1e-9
    assert margin2 == pytest.approx(oracle2, rel=1e-2)


def test_interior_margin_stays_inside():
    rng = np.random.default_rng(4)
    cone = orthant(4, "linf")
    x = np.array([1.0, 0.5, 2.0, 0.25])
    _, m = is_interior(cone, x)
    for _ in range(100):
        u = rng.normal(size=4)
        u /= np.abs(u).max()
        assert contains(cone, x - m * u, 1e-12)


# ---------------------------------------------------------------- lattice

@pytest.mark.parametrize(
    "x, plus, minus, absval",
    [
        ([1.0, -2.0], [1.0, 0.0], [0.0, 2.0], [1.0, 2.0]),
        ([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]),
        ([-3.0, 4.0, -0.5], [0.0, 4.0, 0.0], [3.0, 0.0, 0.5], [3.0, 4.0, 0.5]),
    ],
)
def test_lattice_parts(x, plus, minus, absval):
    cone = orthant(len(x), "linf")
    p, m, a = lattice_parts(cone, x)
    np.testing.assert_array_equal(p, plus)
    np.testing.assert_array_equal(m, minus)
    np.testing.assert_array_equal(a, absval)
    np.testing.assert_array_equal(p - m, np.asarray(x, dtype=float))


def test_lattice_parts_lorentz_rejected():
    with pytest.raises(NotALatticeError):
        lattice_parts(lorentz(3), [1.0, 0.0, 0.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=4, max_size=4))
def test_lattice_reconstruction(xs):
    cone = orthant(4, "l1")
    x = np.array(xs)
    p, m, a = lattice_parts(cone, x)
    np.testing.assert_allclose(p - m, x, atol=1e-12)
    np.testing.assert_allclose(p + m, a, atol=1e-12)


# ---------------------------------------------------------------- decompose

def test_decompose_orthant():
    y, z = decompose(orthant(2, "linf"), [1.0, -2.0])
    np.testing.assert_array_equal(y, [1.0, 0.0])
    np.testing.assert_array_equal(z, [0.0, 2.0])


def test_decompose_lorentz_example():
    cone = lorentz(2)
    x = np.array([0.0, 1.0])
    y, z = decompose(cone, x)
    np.testing.assert_allclose(y, [1.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(z, [1.0, 0.0], atol=1e-15)
    assert contains(cone, y, 0.0) and contains(cone, z, 0.0)
    np.testing.assert_allclose(y - z, x, atol=1e-15)


def test_decompose_zero():
    y, z = decompose(orthant(2, "l1"), [0.0, 0.0])
    assert not y.any() and not z.any()


@pytest.mark.parametrize(
    "cone",
    [orthant(4, "l1"), orthant(4, "l2"), orthant(4, "linf"), lorentz(4), lorentz(2)],
)
def test_decompose_bounded_parts(cone):
    rng = np.random.default_rng(5)
    m = cone_constants(cone).decomposition_M
    for _ in range(400):
        x = rng.normal(size=cone.dim) * rng.uniform(0.1, 10.0)
        y, z = decompose(cone, x)
        assert contains(cone, y, 1e-12) and contains(cone, z, 1e-12)
        assert vec_norm(x - (y - z), cone.norm) <= 1e-12 * max(1.0, vec_norm(x, cone.norm))
        assert vec_norm(y, cone.norm) <= m * vec_norm(x, cone.norm) + 1e-12
        assert vec_norm(z, cone.norm) <= m * vec_norm(x, cone.norm) + 1e-12


# ---------------------------------------------------------------- constants

@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_orthant_constants_unit(norm):
    consts = cone_constants(orthant(4, norm))
    assert consts.normality_C == 1.0
    assert consts.decomposition_M == 1.0
    assert consts.dual_M_prime == 1.0


@pytest.mark.parametrize("norm", ["l1", "l2", "linf"])
def test_normality_randomized_search(norm):
    # 10^4 ordered pairs 0 <= x <= y must satisfy ||x|| <= C ||y||
    cone = orthant(4, norm)
    c = cone_constants(cone).normality_C
    rng = np.random.default_rng(6)
    X = rng.uniform(0.0, 1.0, size=(10000, 4))
    Y = X + rng.uniform(0.0, 1.0, size=(10000, 4))
    for norm_fn in (lambda v: vec_norm(v, norm),):
        for i in range(0, 10000, 500):
            assert norm_fn(X[i]) <= c * norm_fn(Y[i]) + 1e-12
    nx = np.array([vec_norm(v, norm) for v in X])
    ny = np.array([vec_norm(v, norm) for v in Y])
    assert np.all(nx <= c * ny + 1e-12)


def test_lorentz_normality_randomized():
    cone = lorentz(4)
    c = cone_constants(cone).normality_C
    rng = np.random.default_rng(7)
    X = random_points(cone, rng, 10000)
    D = random_points(cone, rng, 10000)
    Y = X + D  # 0 <= x <= y in the Lorentz order
    nx = np.linalg.norm(X, axis=1)
    ny = np.linalg.norm(Y, axis=1)
    assert np.all(nx <= c * ny + 1e-12)


def test_lorentz_decomposition_constant_reported_from_construction():
    cone = lorentz(2)
    consts = cone_constants(cone)
    assert consts.decomposition_M <= 3.0
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(5000):
        x = rng.normal(size=2) * rng.uniform(0.5, 2.0)
        y, z = decompose(cone, x)
        nx = vec_norm(x, "l2")
        if nx > 1e-12:
            worst = max(worst, vec_norm(y, "l2") / nx, vec_norm(z, "l2") / nx)
    assert worst <= consts.decomposition_M + 1e-9


# ---------------------------------------------------------------- misc

def test_cone_spec_validation():
    with pytest.raises(ValueError):
        ConeSpec("orthant", 0, "l2")
    with pytest.raises(ValueError):
        ConeSpec("lorentz", 1, "l2")
    with pytest.raises(ValueError):
        ConeSpec("orthant", 3, "l3")
    with pytest.raises(ValueError):
        ConeSpec("simplex", 3, "l2")


def test_cone_serialization_roundtrip():
    cone = lorentz(5, "l2")
    assert cone_from_dict(cone.to_dict()) == cone
    assert cone.to_dict() == {"kind": "lorentz", "dim": 5, "norm": "l2"}


# ---------------------------------------------------------------- max_ratio

def _lorentz_ratio_oracle(w, z):
    """Least t with t z - w in the Lorentz cone: t z0 >= w0 and the larger root of
    <t z - w, t z - w>_J = 0, J = diag(1, -1, ..., -1), in 60-digit decimal
    arithmetic: in floats the root cancels when w is close to a multiple of z."""
    with localcontext() as ctx:
        ctx.prec = 60
        z, w = [Decimal(float(v)) for v in z], [Decimal(float(v)) for v in w]

        def form(x, y):
            return x[0] * y[0] - sum(a * b for a, b in zip(x[1:], y[1:]))

        A, B, C = form(z, z), form(z, w), form(w, w)
        root = (B + max(B * B - A * C, Decimal(0)).sqrt()) / A
        return float(max(w[0] / z[0], root))


def test_max_ratio_closed_forms():
    assert max_ratio(orthant(2), np.array([5.4, 2.0]), np.array([10.0, 2.0])) == 1.0
    # (10t - 8) >= |5t - 2| first at t = 1.2
    assert max_ratio(lorentz(3), [8.0, 2.0, 0.0], [10.0, 5.0, 0.0]) == pytest.approx(1.2, rel=1e-15)
    assert max_ratio(lorentz(3), np.zeros(3), [1.0, 0.5, 0.0]) == 0.0
    rng = np.random.default_rng(0)
    cone = lorentz(4)
    for z, w in zip(random_points(cone, rng, 50, interior=True), rng.normal(size=(50, 4))):
        t = max_ratio(cone, w, z)
        assert t == pytest.approx(_lorentz_ratio_oracle(w, z), rel=1e-12, abs=1e-15)
        assert margin(cone, t * z - w) >= 0.0


def _max_ratio_cases():
    rng = np.random.default_rng(3)
    points = random_points(lorentz(5), rng, 8, interior=True)
    # the Noda iterates: w = lambda z to rounding, where the textbook root cancels
    for i, z in enumerate(points):
        yield f"noda{i}", 0.9 * z + 1e-15 * rng.normal(size=5), z
    z = points[0]
    # margin(z) = 1e-8: t ~ ||w|| / margin(z)
    thin = np.array([1.0, 1.0 - 1e-8, 0.0, 0.0, 0.0])
    yield "thin", rng.normal(size=5), thin
    yield "minus-z", -z, z
    ray = rng.normal(size=4)
    yield "boundary-w", np.concatenate(([1.0], ray / np.linalg.norm(ray))), z


@pytest.mark.parametrize("name, w, z", [pytest.param(*c, id=c[0]) for c in _max_ratio_cases()])
def test_max_ratio_near_cancellation_and_boundaries(name, w, z):
    cone = lorentz(5)
    t = max_ratio(cone, w, z)
    assert margin(cone, t * z - w) >= 0.0
    # margin(t z - w) rounds by about u ||t z||, which moves the least t that
    # passes it by that much over margin(z)
    rel = 64 * 2.0**-53 * (z[0] + np.linalg.norm(z[1:])) / margin(cone, z)
    assert t == pytest.approx(_lorentz_ratio_oracle(w, z), rel=rel)
    if name == "minus-z":
        assert t == -1.0


def test_max_ratio_needs_an_interior_z():
    with pytest.raises(ValueError, match="interior"):
        max_ratio(lorentz(3), [1.0, 0.0, 0.0], [1.0, 1.0, 0.0])
    with pytest.raises(ValueError, match="interior"):
        max_ratio(orthant(2), [1.0, 1.0], [1.0, 0.0])

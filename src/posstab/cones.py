"""Finite-dimensional ordered cones with norm context.

Two cone families are supported: the nonnegative orthant and the Lorentz
(second-order) cone.  Every operation here is a pure function and works
along the last axis: a vector of shape (n,) and a block of m row vectors
of shape (m, n) go through the same arithmetic, one result per row.  The
membership margin, projection, distance and decomposition formulas live
here only; callers pass blocks instead of looping over rows.  The module
also exposes the normality constant C, the decomposition constant M and
the dual decomposition constant M' that the stability criteria consume.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotALatticeError,
    UnsupportedConeNormError,
)
from .norms import NORMS, batch_vec_norm

DEFAULT_TOL = 1e-9

_SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class ConeSpec:
    """An ordered cone in R^n together with the ambient norm.

    kind : "orthant" (componentwise order) or "lorentz"
           ({x : x0 >= ||(x1..x_{n-1})||_2}).
    dim  : ambient dimension, >= 1 (>= 2 for the Lorentz cone).
    norm : "l1" | "l2" | "linf"; governs distances and margins.
    """

    kind: str
    dim: int
    norm: str

    def __post_init__(self):
        if self.kind not in ("orthant", "lorentz"):
            raise ValueError(f"unknown cone kind {self.kind!r}")
        if self.norm not in NORMS:
            raise ValueError(f"unknown norm {self.norm!r}")
        if self.dim < 1:
            raise ValueError("cone dimension must be >= 1")
        if self.kind == "lorentz" and self.dim < 2:
            raise ValueError("Lorentz cone needs dimension >= 2")

    def to_dict(self):
        return {"kind": self.kind, "dim": int(self.dim), "norm": self.norm}


def cone_from_dict(d):
    return ConeSpec(kind=d["kind"], dim=int(d["dim"]), norm=d["norm"])


def orthant(dim, norm="linf"):
    return ConeSpec("orthant", dim, norm)


def lorentz(dim, norm="l2"):
    return ConeSpec("lorentz", dim, norm)


@dataclass(frozen=True)
class ConeConstants:
    """Constants of the cone/norm pair.

    normality_C      : ||x|| <= C ||y|| whenever 0 <= x <= y.
    decomposition_M  : every x splits as x = y - z with y, z in the cone
                       and ||y||, ||z|| <= M ||x||.
    dual_M_prime     : the same decomposition constant for the dual cone,
                       so that a positive functional z' with <z', x> >= 1
                       and ||z'|| <= M' exists for every unit x >= 0.
    """

    normality_C: float
    decomposition_M: float
    dual_M_prime: float


def _rows(cone, x):
    """x as a float array whose last axis has the cone's dimension: (n,) or (m, n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != cone.dim:
        raise DimensionMismatchError(
            f"expected shape ({cone.dim},) or (m, {cone.dim}), got {x.shape}"
        )
    return x


def _require_l2(cone, what):
    if cone.norm != "l2":
        raise UnsupportedConeNormError(
            f"Lorentz-cone {what} is only certified under the l2 norm"
        )


def margin(cone, x):
    """Signed membership margin, >= 0 exactly on the cone.

    Orthant: min_i x_i.  Lorentz: x0 - ||(x1..x_{n-1})||_2.
    """
    x = _rows(cone, x)
    if cone.kind == "orthant":
        return x.min(axis=-1)
    return x[..., 0] - batch_vec_norm(x[..., 1:], "l2")


def max_ratio(cone, w, z):
    """Least t with t z - w in the cone, z interior (else ValueError).

    Orthant: max_i w_i / z_i.  Lorentz: bisection to float resolution on
    [w0/z0, 2 (|w0| + ||w1:||) / margin(z)]; `margin` is superadditive and
    positively homogeneous, so the upper end lies in the cone.
    """
    w, z = _rows(cone, w), _rows(cone, z)
    mz = float(margin(cone, z))
    if not mz > 0.0:
        raise ValueError("z must lie in the interior of the cone")
    if cone.kind == "orthant":
        return float(np.max(w / z))
    lo, hi = w[0] / z[0], 2.0 * (abs(w[0]) + float(batch_vec_norm(w[1:], "l2"))) / mz
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if margin(cone, mid * z - w) >= 0.0 else (mid, hi)
    return float(hi)


def contains(cone, x, tol=DEFAULT_TOL):
    """Membership within an absolute slack `tol`."""
    return margin(cone, x) >= -tol


def project(cone, x):
    """Nearest cone point.

    For the orthant, clipping the negative entries minimises the distance
    in all three supported norms.  For the Lorentz cone the closed-form l2
    projection is used; other norms are rejected.
    """
    x = _rows(cone, x)
    if cone.kind == "orthant":
        return np.maximum(x, 0.0)
    _require_l2(cone, "projection")
    t = x[..., :1]
    r = batch_vec_norm(x[..., 1:], "l2")[..., None]
    alpha = 0.5 * (t + r)
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = np.concatenate([alpha, (alpha / r) * x[..., 1:]], axis=-1)
    return np.where(r <= t, x, np.where(r <= -t, 0.0, cut))


def distance(cone, x):
    """Distance from x to the cone in the cone's norm.

    Orthant: ||x^-||.  Lorentz: closed-form l2 projection distance; the
    l1/linf pairings have no implemented closed form and are rejected.
    """
    x = _rows(cone, x)
    if cone.kind == "orthant":
        return batch_vec_norm(np.minimum(x, 0.0), cone.norm)
    _require_l2(cone, "distance")
    t = x[..., 0]
    r = batch_vec_norm(x[..., 1:], "l2")
    full = batch_vec_norm(x, "l2")
    # [()] makes the 0-d result of a vector a scalar, as on the orthant
    return np.where(r <= t, 0.0, np.where(r <= -t, full, (r - t) / _SQRT2))[()]


def batch_distance(cone, X):
    """`distance` of each row of X; a separate name because certbench/tracer.py times it."""
    return distance(cone, X)


def is_interior(cone, x):
    """(inside, margin): margin is the largest ball radius around x inside the cone.

    Orthant: min_i x_i, exact for l1, l2 and linf alike because each
    coordinate functional has dual norm one.  Lorentz: (x0 - ||rest||)/sqrt(2),
    the l2 ball radius (reported in the l2 metric for every norm context;
    the sign, hence the boolean, is norm independent).
    """
    m = margin(cone, x)
    if cone.kind == "lorentz":
        m = m / _SQRT2
    return m > 0.0, m


def interior_point(cone):
    """A canonical interior vector: all-ones (orthant) or the cone axis."""
    if cone.kind == "orthant":
        return np.ones(cone.dim)
    z = np.zeros(cone.dim)
    z[0] = 1.0
    return z


def lattice_parts(cone, x):
    """(x^+, x^-, |x|) componentwise; only the orthant is a lattice."""
    x = _rows(cone, x)
    if cone.kind != "orthant":
        raise NotALatticeError("the Lorentz cone does not order R^n as a lattice")
    plus = np.maximum(x, 0.0)
    minus = np.maximum(-x, 0.0)
    return plus, minus, np.abs(x)


def decompose(cone, x):
    """Split x = y - z with y, z in the cone and ||y||, ||z|| <= M ||x||.

    Orthant: the lattice parts (x^+, x^-).  Lorentz: y = x + t e0 and
    z = t e0 with t = max(0, ||rest|| - x0).
    """
    x = _rows(cone, x)
    if cone.kind == "orthant":
        y = np.maximum(x, 0.0)
        return y, y - x  # equals max(-x, 0) exactly, without a -x temporary
    z = np.zeros_like(x)
    z[..., 0] = np.maximum(0.0, -margin(cone, x))
    return x + z, z


def cone_constants(cone):
    """Valid (not necessarily optimal) constants for the cone/norm pair.

    The orthant is a Banach lattice under every monotone norm, so C = M =
    M' = 1.  For the Lorentz cone under l2: self-duality gives C = 1, and
    the `decompose` construction realises M = M' = 1 + sqrt(2) (the worst
    ratio max(0, ||rest|| - x0)/||x|| equals sqrt(2), attained near
    x = -e0); the value is constructive, no optimality is claimed.
    """
    if cone.kind == "orthant":
        return ConeConstants(1.0, 1.0, 1.0)
    m = 1.0 + _SQRT2
    return ConeConstants(1.0, m, m)


def random_points(cone, rng, count, interior=False):
    """Sample `count` cone points (rows); crude but adequate for searches."""
    if cone.kind == "orthant":
        pts = rng.uniform(0.0, 1.0, size=(count, cone.dim))
        if interior:
            pts += 0.05
        return pts
    # rows (1, radius * u) * scale, filled in one array: the draws keep their order
    pts = np.empty((count, cone.dim))
    u = pts[:, 1:]
    u[...] = rng.normal(size=(count, cone.dim - 1))
    u /= np.maximum(np.linalg.norm(u, axis=1, keepdims=True), 1e-300)
    u *= rng.uniform(0.0, 0.95 if interior else 1.0, size=(count, 1))
    pts[:, 0] = 1.0
    pts *= rng.uniform(0.1, 1.0, size=(count, 1))
    return pts

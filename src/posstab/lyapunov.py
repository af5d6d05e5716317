"""Lyapunov certificates: Stein-equation solutions and equivalent contraction norms."""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NotALatticeError
from .norms import batch_vec_norm, vec_norm
from .operators import _power_table, materialize, spectral_radius

STEIN_TERM_TOL = 1e-14


@dataclass
class QuadraticCertificate:
    """Symmetric Q >= I with T^T Q T - Q = -I; V(x) = x^T Q x decreases by ||x||_2^2."""

    Q: np.ndarray
    residual: float
    tail_bound: float
    n_terms: int


def solve_stein(T, term_tol=STEIN_TERM_TOL, max_terms=200000):
    """Solve T^T Q T - Q = -I by the convergent series Q = sum_k (T^T)^k T^k.

    The series is truncated once the term norm drops below `term_tol`, and
    the recorded tail bound extrapolates the observed geometric decay.
    Growth of the terms raises DivergenceError (spectral radius >= 1).
    """
    est = spectral_radius(T)
    if est.upper >= 1.0:
        raise DivergenceError(
            f"Stein series requires a spectral upper bound < 1 (got {est.upper})"
        )
    a = materialize(T)
    n = a.shape[0]
    q = np.eye(n)
    p = np.eye(n)  # T^k
    prev_norm = 1.0
    grow_streak = 0
    tail_bound = 0.0
    k = 0
    for k in range(1, max_terms + 1):
        p = p @ a
        term = p.T @ p
        tn = float(np.max(np.abs(term)))
        if not np.isfinite(tn) or tn > 1e12:
            raise DivergenceError("Stein series terms are diverging")
        q += term
        if tn > prev_norm:
            grow_streak += 1
            if grow_streak > 200:
                raise DivergenceError("Stein series terms failed to decay")
        else:
            grow_streak = 0
        if tn < term_tol:
            rho = min(max(tn / max(prev_norm, 1e-300), 0.0), 0.999999)
            tail_bound = tn * rho / (1.0 - rho) if rho > 0.0 else 0.0
            prev_norm = tn
            break
        prev_norm = tn
    q = 0.5 * (q + q.T)
    residual = float(np.max(np.abs(a.T @ q @ a - q + np.eye(n))))
    return QuadraticCertificate(Q=q, residual=residual, tail_bound=tail_bound, n_terms=k)


def quadratic_decrease_check(Q, T, samples, tol=1e-8):
    """Check the exact decrease identity V(Tx) = V(x) - ||x||_2^2 on samples."""
    a = materialize(T)
    Q = np.asarray(Q, dtype=float)
    for x in np.atleast_2d(np.asarray(samples, dtype=float)):
        tx = a @ x
        lhs = float(tx @ Q @ tx)
        rhs = float(x @ Q @ x) - float(x @ x)
        if abs(lhs - rhs) > tol * (1.0 + float(x @ Q @ x)):
            return False
    return True


@dataclass
class EquivalentNorm:
    """Evaluator of ||x||_equ = max_{0<=k<=K} ||(sT)^k x|| with certificate data.

    With lattice=True the modulus |x| is taken first (orthant context
    only), which keeps the new norm monotone for positive operators.
    The contraction factor is the sampled maximum of ||Tx||_equ/||x||_equ
    and is guaranteed <= 1/s.
    """

    s: float
    K: int
    contraction_factor: float
    lattice: bool
    norm: str
    _matrix: np.ndarray

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.lattice:
            x = np.abs(x)
        return float(self._batch(x[None, :])[0])

    def _batch(self, X):
        X = np.asarray(X, dtype=float)
        if self.lattice:
            X = np.abs(X)
        best = batch_vec_norm(X, self.norm)
        W = X
        for _ in range(self.K):
            W = self.s * (W @ self._matrix.T)
            best = np.maximum(best, batch_vec_norm(W, self.norm))
        return best


def equivalent_norm(
    T,
    s,
    lattice=False,
    cone=None,
    n_check=1000,
    rng=None,
    norm="linf",
    max_k=200000,
):
    """Equivalent norm that turns T into a strict contraction.

    Requires s * (spectral upper bound) < 1.  The truncation depth K is
    the first index with s^K ||T^K|| < 1: past it, no term can attain the
    supremum, so the infinite sup collapses to a certified finite max.
    The norms ||T^k|| come from T's memoized power-norm table.
    """
    if s <= 1.0:
        raise ValueError("s must be > 1")
    if lattice and cone is not None and cone.kind != "orthant":
        raise NotALatticeError("lattice norm variant requires the orthant cone")
    est = spectral_radius(T)
    if s * est.upper >= 1.0:
        raise ValueError(
            f"s * spectral_upper = {s * est.upper} >= 1: the equivalent norm sup may diverge"
        )
    table = _power_table(T, norm)
    for K in range(1, max_k + 1):
        if (s**K) * table.at(K) < 1.0:
            break
    else:
        raise ValueError("failed to certify a truncation depth; s too close to 1/spr")
    a = materialize(T)
    cert = EquivalentNorm(
        s=float(s), K=K, contraction_factor=0.0, lattice=lattice, norm=norm, _matrix=a
    )
    rng = np.random.default_rng(0) if rng is None else rng
    X = rng.normal(size=(n_check, a.shape[0]))
    base = cert._batch(X)
    mapped = cert._batch(X @ a.T)
    ratio = mapped / np.maximum(base, 1e-300)
    cert.contraction_factor = float(ratio.max())
    return cert


@dataclass(frozen=True)
class KFunctionSpec:
    """Comparison function kappa * r^q (q = 1: linear), vanishing at 0, strictly increasing."""

    form: str
    coefficient: float
    exponent: float = 1.0

    def __post_init__(self):
        if self.form not in ("linear", "power"):
            raise ValueError("form must be 'linear' or 'power'")
        if self.coefficient <= 0.0:
            raise ValueError("coefficient must be > 0")
        q = 1.0 if self.form == "linear" else self.exponent
        if q < 1.0:
            raise ValueError("exponent must be >= 1")

    def __call__(self, r):
        q = 1.0 if self.form == "linear" else self.exponent
        return self.coefficient * float(r) ** q


def verify_lyapunov(V, psi1, psi2, alpha, T, samples, norm="l2", tol=1e-10):
    """Check the sandwich and decrease inequalities of a Lyapunov function.

    psi1(||x||) <= V(x) <= psi2(||x||) and V(Tx) - V(x) <= -alpha(||x||)
    on every sample, within `tol` slack.  Returns (ok, first_violation).
    """
    a = materialize(T)
    for x in np.atleast_2d(np.asarray(samples, dtype=float)):
        r = vec_norm(x, norm)
        v = float(V(x))
        if not (psi1(r) - tol <= v <= psi2(r) + tol):
            return False, x
        if float(V(a @ x)) - v > -alpha(r) + tol:
            return False, x
    return True, None

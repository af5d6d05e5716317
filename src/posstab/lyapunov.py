"""Lyapunov certificates: Stein-equation solutions and equivalent contraction norms."""

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, NotALatticeError
from .norms import UNIT_ROUNDOFF, batch_vec_norm, l2_upper_bounds, vec_norm
from .operators import _first_power, materialize, spectral_radius

#: squarings after which solve_stein gives up: 2^64 series terms
STEIN_MAX_SQUARINGS = 64

#: solve_stein raises when max|T^T Q T - Q + I| exceeds this times n u (1 + max|Q|)^2
STEIN_RESIDUAL_FACTOR = 1e3


@dataclass
class QuadraticCertificate:
    """Symmetric Q >= I with T^T Q T - Q = -I; V(x) = x^T Q x decreases by ||x||_2^2.

    `n_terms` counts the series terms summed and `tail_bound` bounds the
    l2 norm of the terms left out.
    """

    Q: np.ndarray
    residual: float
    tail_bound: float
    n_terms: int


def solve_stein(T):
    """Solve T^T Q T - Q = -I by squared Smith iteration (Smith, SIAM J. Appl. Math. 16, 1968).

    Q = sum_k (T^T)^k T^k is summed by doubling: Q <- Q + A^T Q A, A <- A^2
    from Q = I, A = T, so after J steps Q holds the first 2^J terms and
    A = T^(2^J).  The rest of the series is A^T Q A, whose l2 norm is at
    most ||A||^2 ||Q|| / (1 - ||A||^2) by submultiplicativity; both norms
    are bounded by min(||.||_F, sqrt(||.||_1 ||.||_inf)), and the iteration
    stops once that tail is below u ||Q||.  A spectral upper bound >= 1, or
    no convergence within STEIN_MAX_SQUARINGS, raises DivergenceError.  A
    residual max|T^T Q T - Q + I| above STEIN_RESIDUAL_FACTOR n u
    (1 + max|Q|)^2 raises ArithmeticError: it is an internal error.
    """
    est = spectral_radius(T)
    if est.upper >= 1.0:
        raise DivergenceError(
            f"Stein series requires a spectral upper bound < 1 (got {est.upper})"
        )
    a = materialize(T)
    n = a.shape[0]
    q, p = np.eye(n), a
    for j in range(1, STEIN_MAX_SQUARINGS + 1):
        q, p = _smith_step(q, p)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise DivergenceError("Stein series terms are diverging")
        (p_norm, q_norm), _ = l2_upper_bounds(np.stack([p, q]), max_steps=0)
        if p_norm**2 <= UNIT_ROUNDOFF * (1.0 - p_norm**2):
            tail_bound = p_norm**2 * q_norm / (1.0 - p_norm**2)
            break
    else:
        raise DivergenceError(f"Stein series did not converge in {STEIN_MAX_SQUARINGS} squarings")
    q = 0.5 * (q + q.T)
    residual = float(np.max(np.abs(a.T @ q @ a - q + np.eye(n))))
    bound = STEIN_RESIDUAL_FACTOR * n * UNIT_ROUNDOFF * (1.0 + float(np.max(np.abs(q)))) ** 2
    if not residual <= bound:
        raise ArithmeticError(
            f"Stein residual {residual:.3e} exceeds {bound:.3e}; this is an internal error"
        )
    return QuadraticCertificate(Q=q, residual=residual, tail_bound=tail_bound, n_terms=2**j)


def _smith_step(q, p):
    """One doubling: Q holds 2^(J+1) terms instead of 2^J, and A = T^(2^J) is squared."""
    return q + p.T @ q @ p, p @ p


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
):
    """Equivalent norm that turns T into a strict contraction.

    Requires s * (spectral upper bound) < 1.  The truncation depth K is
    the first index with s^K ||T^K|| < 1: past it, no term can attain the
    supremum, so the infinite sup collapses to a certified finite max.
    The norms ||T^k|| come from T's memoized power-norm table; under l2
    they are certified upper bounds, so K is never below the exact depth.
    Raises ValueError when the table ends before such a K.
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
    K, _ = _first_power(T, norm, lambda k, nm: (s**k) * nm < 1.0)
    if K is None:
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

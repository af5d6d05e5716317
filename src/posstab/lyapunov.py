"""Lyapunov certificates: Stein-equation solutions and equivalent contraction norms."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, DivergenceError
from .norms import UNIT_ROUNDOFF, batch_vec_norm, l2_upper_bounds, vec_norm
from .operators import (
    _decay_rate, _doubling, _rider, _taken, apply, geometric_envelope, is_positive, materialize,
    spectral_radius,
)

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
    A = T^(2^J), on a `_doubling` chain of T's squares, or read, bit for bit
    the same, from the chain that `criteria.quasi_compact_suite` ran with a
    `_stein_rider`.  The rest of the series is A^T Q A, whose l2 norm is at
    most ||A||^2 ||Q|| / (1 - ||A||^2) by submultiplicativity; both norms
    are bounded by min(||.||_F, sqrt(||.||_1 ||.||_inf)), and the iteration
    stops once that tail is below u ||Q||.  That test can pass only when
    ||A||_2 <= sqrt(u / (1 + u)), and ||A||_2 >= max|a_ij|, so it is
    skipped while max|a_ij| > 2 sqrt(u); the 2 covers rounding in the
    bound.  A spectral upper bound >= 1, or no convergence within
    STEIN_MAX_SQUARINGS, raises DivergenceError.  A residual
    max|T^T Q T - Q + I| above STEIN_RESIDUAL_FACTOR n u (1 + max|Q|)^2
    raises ArithmeticError: it is an internal error.
    """
    est = spectral_radius(T)
    if est.upper >= 1.0:
        raise DivergenceError(
            f"Stein series requires a spectral upper bound < 1 (got {est.upper})"
        )
    series = _taken(T, "stein")
    if series is None:
        series = _Stein(T.dim)
        _doubling(apply(T, np.eye(T.dim)), [series])
    if isinstance(series.result, Exception):
        raise series.result
    q, tail_bound, n_terms = series.result
    a, n = materialize(T), T.dim
    q = 0.5 * (q + q.T)
    residual = float(np.max(np.abs(a.T @ q @ a - q + np.eye(n))))
    bound = STEIN_RESIDUAL_FACTOR * n * UNIT_ROUNDOFF * (1.0 + float(np.max(np.abs(q)))) ** 2
    if not residual <= bound:
        raise ArithmeticError(
            f"Stein residual {residual:.3e} exceeds {bound:.3e}; this is an internal error"
        )
    return QuadraticCertificate(Q=q, residual=residual, tail_bound=tail_bound, n_terms=n_terms)


def _stein_rider(T):
    """A `_Stein` left on T for a chain of T's squares, or None (upper >= 1, or one is there)."""
    return _rider(T, "stein", lambda: _Stein(T.dim)) if spectral_radius(T).upper < 1.0 else None


class _Stein:
    """`_doubling` consumer for `solve_stein`: at A = T^(2^J) the stop test on Q (2^J
    terms), then Q += A^T Q A; `result` becomes (Q, tail_bound, n_terms) or an error."""

    def __init__(self, n):
        self.q, self.result = np.eye(n), None

    def __call__(self, j, p):
        if j:
            p_max = np.max(np.abs(p))
            if not (np.isfinite(p_max) and np.all(np.isfinite(self.q))):
                self.result = DivergenceError("Stein series terms are diverging")
                return False
            # ||A||_2 >= max|a_ij|: the stop test cannot pass while the gate is shut
            if p_max <= 2.0 * np.sqrt(UNIT_ROUNDOFF):
                (p_norm, q_norm), _ = l2_upper_bounds(np.stack([p, self.q]), max_steps=0)
                if p_norm**2 <= UNIT_ROUNDOFF * (1.0 - p_norm**2):
                    self.result = (self.q, p_norm**2 * q_norm / (1.0 - p_norm**2), 2**j)
                    return False
            if j == STEIN_MAX_SQUARINGS:
                self.result = DivergenceError(f"Stein series did not converge in {j} squarings")
                return False
        self.q = self.q + p.T @ self.q @ p
        return True


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
    """Evaluator of ||x||_equ = max_{0<=k<=K} ||(sT)^k x||, a norm in which T contracts.

    (M, K) is the geometric envelope at the rate 1/s: ||T^K|| <= s^-K gives
    ||Tx||_equ <= ||x||_equ / s, the certified `contraction_factor`, and
    ||x|| <= ||x||_equ <= M ||x||.  With lattice=True the modulus |x| is
    taken first, which keeps the norm monotone; as |Tx| <= T|x| for T
    positive on the orthant, it contracts by the same factor.
    """

    s: float
    K: int
    lattice: bool
    norm: str
    _matrix: np.ndarray

    @property
    def contraction_factor(self):
        return 1.0 / self.s

    def __call__(self, x):
        """||x||_equ of a vector, or of each row of a block."""
        W = np.asarray(x, dtype=float)
        W = np.abs(W) if self.lattice else W
        best = batch_vec_norm(W, self.norm)
        for _ in range(self.K):
            W = self.s * (W @ self._matrix.T)
            best = np.maximum(best, batch_vec_norm(W, self.norm))
        return best

    def to_dict(self):
        return {
            "s": float(self.s),
            "K": int(self.K),
            "contraction_factor": float(self.contraction_factor),
            "lattice": bool(self.lattice),
        }


def equivalent_norm(T, cone, s=None):
    """Equivalent norm, in the cone's norm, in which T contracts by the factor 1/s.

    K is the m of `geometric_envelope(T, 1/s, cone.norm)`.  s defaults to
    1/`_decay_rate(T)`, the rate of the STRONG_STAB/WEAK_ATTR and ISS
    envelopes, so all three read one memoized search; a finite s > 1 with
    s * upper < 1 is required.  The lattice variant is used exactly when T
    is positive on the orthant.  Raises ValueError when the power-norm table
    ends before the envelope's m, DimensionMismatchError for a cone of
    another dimension.
    """
    if cone.dim != T.dim:
        raise DimensionMismatchError("cone and operator dimensions differ")
    if s is not None and not np.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    upper = spectral_radius(T).upper
    # the default rate itself, not 1/(1/a), keys the envelope search that cross_check shares
    a = _decay_rate(T) if s is None else None
    s = 1.0 / a if s is None else s
    if s <= 1.0:
        raise ValueError("s must be > 1")
    if s * upper >= 1.0:
        raise ValueError(f"s * spectral_upper = {s * upper} >= 1: the equivalent norm sup may diverge")
    env = geometric_envelope(T, 1.0 / s if a is None else a, cone.norm)
    if env is None:
        raise ValueError("failed to certify a truncation depth; s too close to 1/spr")
    lattice = cone.kind == "orthant" and is_positive(T, cone)[0]
    return EquivalentNorm(
        s=float(s), K=env[1], lattice=lattice, norm=cone.norm, _matrix=materialize(T)
    )


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

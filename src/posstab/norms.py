"""Vector norms and induced operator norms (l1, l2, linf)."""

import numpy as np

NORMS = ("l1", "l2", "linf")

_ORD = {"l1": 1, "l2": 2, "linf": np.inf}


def vec_norm(x, norm="l2"):
    return float(np.linalg.norm(np.asarray(x, dtype=float), ord=_ORD[norm]))


def batch_vec_norm(X, norm="l2"):
    """Norms along the last axis: one per row of a 2-d array, a scalar for a vector."""
    X = np.asarray(X, dtype=float)
    if norm == "l1":
        return np.abs(X).sum(axis=-1)
    if norm == "linf":
        return np.abs(X).max(axis=-1)
    if norm == "l2":
        return np.sqrt((X * X).sum(axis=-1))
    raise ValueError(f"unknown norm {norm!r}")


def dual_norm(norm):
    return {"l1": "linf", "l2": "l2", "linf": "l1"}[norm]


#: unit roundoff of IEEE double precision
UNIT_ROUNDOFF = 2.0**-53

#: l2_upper_bounds stops its power steps once every residual is below this times theta
L2_RESIDUAL_RTOL = 1e-12


def _gamma(k):
    """Higham's gamma_k = k u / (1 - k u): relative error bound of a k-term sum or dot product."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def induced_norm(a, norm="linf"):
    """Operator norm of a dense matrix induced by the given vector norm.

    l1 is the maximal absolute column sum, linf the maximal absolute row
    sum.  l2 is a lower estimate: a 200-step power method on A^T A with a
    Rayleigh-quotient convergence test at relative tolerance 1e-12, which
    can stop low on clustered singular values.  Certified l2 upper bounds
    come from `batch_induced_norm`.
    """
    a = np.asarray(a, dtype=float)
    if norm == "l1":
        return float(np.abs(a).sum(axis=0).max())
    if norm == "linf":
        return float(np.abs(a).sum(axis=1).max())
    if norm == "l2":
        return _l2_induced(a)[0]
    raise ValueError(f"unknown norm {norm!r}")


def batch_induced_norm(P, norm="linf", start=None):
    """(norms, start): the induced norm of every matrix of a stack P of shape (b, m, n).

    l1 and linf are the exact column and row sums, in the same arithmetic as
    `induced_norm`.  l2 entries are certified upper bounds from
    `l2_upper_bounds`, whose power steps begin at `start` (a unit vector of
    length n, or None); the returned start is the last matrix's refined
    vector, for the next stack of a sequence (None for l1 and linf).
    """
    P = np.asarray(P, dtype=float)
    if norm == "l1":
        return np.abs(P).sum(axis=1).max(axis=1), None
    if norm == "linf":
        return np.abs(P).sum(axis=2).max(axis=1), None
    if norm == "l2":
        bounds, vectors = l2_upper_bounds(P, start)
        return bounds, vectors[-1] if len(vectors) else start
    raise ValueError(f"unknown norm {norm!r}")


def l2_upper_bounds(P, start=None, max_steps=64):
    """(bounds, vectors): certified upper bounds on ||P_i||_2 for a stack of shape (b, m, n).

    Each bound is sqrt(min(||P||_F^2, ||P||_1 ||P||_inf, theta + r)), every
    term rounded up by a gamma_k margin for the k operations behind it
    (Higham, Accuracy and Stability, 3.1; Rump, Acta Numerica 19, 2010).
    theta and r are the Rayleigh quotient and residual norm of a power step
    on B = P^T P: some eigenvalue of B lies within r of theta, the others
    sum to at most trace(B) - theta + r, so theta + r bounds the largest
    one when ||P||_F^2 = trace(B) <= 2 theta.  The power steps start at
    `start` (default: a graded positive vector) and run on the whole stack
    until every residual is below L2_RESIDUAL_RTOL * theta or max_steps is
    reached; each step's bound is kept when it is the smallest so far.
    Each matrix is first scaled by a power of two, which is exact.
    `vectors` holds the refined unit vectors, one per matrix.
    """
    P = np.asarray(P, dtype=float)
    b, m, n = P.shape
    # exact power-of-two scaling to a largest entry in [1/2, 1): no overflow in the squares
    _, exponent = np.frexp(np.abs(P).max(axis=(1, 2), initial=0.0))
    P = np.ldexp(P, -exponent[:, None, None])
    fro2 = np.einsum("bij,bij->b", P, P) * (1.0 + _gamma(2 * m * n + 2))
    absP = np.abs(P)
    one_inf = absP.sum(axis=1).max(axis=1) * absP.sum(axis=2).max(axis=1)
    best = np.minimum(fro2, one_inf * (1.0 + _gamma(2 * (m + n) + 4)))
    # |fl(P^T (P v)) - P^T P v| <= gamma |P|^T |P| |v|, whose norm is at most ||P||_F^2 ||v||
    slack = _gamma(2 * (m + n) + 8) * fro2
    v = 1.0 + 1e-3 * np.arange(n) if start is None else np.asarray(start, dtype=float)
    v = np.tile(v / np.linalg.norm(v), (b, 1))
    for _ in range(max_steps):
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
    return np.ldexp(np.sqrt(best * (1.0 + _gamma(8))), exponent), v


def _l2_induced(a, start=None):
    """(estimate of ||A||_2, the unit power-method vector v with ||Av||_2 equal to it),
    the larger over a graded and a flat positive start, or from `start` alone."""
    n = a.shape[1]
    if not np.any(a):
        return 0.0, np.ones(n) / np.sqrt(n)
    b = a.T @ a
    # graded deterministic start; generic against symmetric invariant subspaces
    best, best_v = 0.0, None
    starts = (1.0 + 1e-3 * np.arange(n), np.ones(n)) if start is None else (start,)
    for v in starts:
        v = v / np.linalg.norm(v)
        lam = 0.0
        for _ in range(200):
            w = b @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                lam = 0.0
                break
            v = w / nw
            new_lam = float(v @ (b @ v))
            if abs(new_lam - lam) <= 1e-12 * max(1.0, abs(new_lam)):
                lam = new_lam
                break
            lam = new_lam
        if best_v is None or lam > best:
            best, best_v = max(lam, 0.0), v
    return float(np.sqrt(best)), best_v

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


def induced_norm(a, norm="linf"):
    """Operator norm of a dense matrix induced by the given vector norm.

    l1 is the maximal absolute column sum, linf the maximal absolute row
    sum; l2 is estimated by a 200-step power method on A^T A with a
    Rayleigh-quotient convergence test at relative tolerance 1e-12.
    """
    a = np.asarray(a, dtype=float)
    if norm == "l1":
        return float(np.abs(a).sum(axis=0).max())
    if norm == "linf":
        return float(np.abs(a).sum(axis=1).max())
    if norm == "l2":
        return _l2_induced(a)[0]
    raise ValueError(f"unknown norm {norm!r}")


def _l2_induced(a, iters=200, rtol=1e-12):
    """(estimate of ||A||_2, the unit power-method vector v with ||Av||_2 equal to it)."""
    n = a.shape[1]
    if not np.any(a):
        return 0.0, np.ones(n) / np.sqrt(n)
    b = a.T @ a
    # graded deterministic start; generic against symmetric invariant subspaces
    best, best_v = 0.0, None
    for v in (1.0 + 1e-3 * np.arange(n), np.ones(n)):
        v = v / np.linalg.norm(v)
        lam = 0.0
        for _ in range(iters):
            w = b @ v
            nw = np.linalg.norm(w)
            if nw == 0.0:
                lam = 0.0
                break
            v = w / nw
            new_lam = float(v @ (b @ v))
            if abs(new_lam - lam) <= rtol * max(1.0, abs(new_lam)):
                lam = new_lam
                break
            lam = new_lam
        if best_v is None or lam > best:
            best, best_v = max(lam, 0.0), v
    return float(np.sqrt(best)), best_v

"""Vector norms and induced operator norms (l1, l2, linf)."""

import numpy as np

NORMS = ("l1", "l2", "linf")


def vec_norm(x, norm="l2"):
    """The norm of one vector, as a float: `batch_vec_norm` of it."""
    return float(batch_vec_norm(x, norm))


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
    """Operator norm of a dense matrix induced by the given vector norm: the
    one-matrix case of `batch_induced_norm`.

    l1 is the maximal absolute column sum, linf the maximal absolute row
    sum, both in floating point; l2 is the certified upper bound of
    `l2_upper_bounds`.
    """
    return float(batch_induced_norm(np.asarray(a, dtype=float)[None], norm)[0][0])


def batch_induced_norm(P, norm="linf", start=None):
    """(norms, start): the induced norm of every matrix of a stack P of shape (b, m, n).

    l1 and linf are the floating-point column and row sums.  l2 entries
    are certified upper bounds from `l2_upper_bounds`, whose power steps
    begin at `start` (a unit vector of length n, or None) and stop once
    every matrix is converged and usable or, with none converged, all have
    stalled; none runs when no matrix can become usable.  A matrix left
    unconverged or unusable (top two singular values close) is certified
    by one eigvalsh and one floating-point Cholesky, O(n^3) each.  The
    returned start is the last matrix's refined vector, for the next stack
    of a sequence (None for l1 and linf).
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

    Each bound is sqrt(min(||P||_F^2, ||P||_1 ||P||_inf, theta + r, s)), every
    term rounded up by a gamma_k margin for the k operations behind it
    (Higham, Accuracy and Stability, 3.1; Rump, Acta Numerica 19, 2010).
    theta and r are the Rayleigh quotient and residual norm of a power step
    on B = P^T P: some eigenvalue of B lies within r of theta, the others
    sum to at most trace(B) - theta + r, so theta + r bounds the largest
    one when ||P||_F^2 = trace(B) <= 2 theta.  The power steps start at
    `start` (default: a graded positive vector) and run on the whole stack
    for at most max_steps; each step's bound is kept when it is the
    smallest so far.  They stop once every matrix is converged (r <=
    L2_RESIDUAL_RTOL * theta) and usable (||P||_F^2 <= 2 theta), or once
    none is converged and every one has stalled: r/theta fell by less than
    half over the last two steps, or r = 0, as when the top two singular
    values are close and theta + r is unusable or loose.  While one matrix
    is converged, the stack takes the steps it would take without the stall
    rule, so a converged matrix gets the bound it would get without it.
    No step runs when ||P||_F^2 > 2 best for every matrix, best the bound
    before any step: theta <= best then keeps every matrix unusable.
    When max_steps > 0, each matrix that is not converged and usable then
    gets s from `_cholesky_upper`: a floating-point Cholesky that
    certifies lambda_max(P^T P) <= s at the top eigenvalue of fl(P^T P)
    from `numpy.linalg.eigvalsh`.  That costs O(m n^2 + n^3) per such
    matrix; with max_steps = 0 neither the steps nor the certificate run.
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
    done, seen = np.full(b, max_steps == 0), []
    for _ in range(max_steps if np.any(fro2 <= 2.0 * best) else 0):
        w = np.einsum("bij,bj->bi", P, v)
        theta = np.einsum("bi,bi->b", w, w)
        g = np.einsum("bij,bi->bj", P, w)
        r = np.linalg.norm(g - theta[:, None] * v, axis=1)
        r_up = r * (1.0 + _gamma(2 * n + 4)) / np.sqrt(np.einsum("bi,bi->b", v, v)) + slack
        usable = fro2 <= 2.0 * theta
        best = np.where(usable, np.minimum(best, (theta + r_up) * (1.0 + _gamma(1))), best)
        done = usable & (r <= L2_RESIDUAL_RTOL * theta)
        gn = np.linalg.norm(g, axis=1)
        if not np.any(gn > 0.0):
            break
        v = np.where(gn[:, None] > 0.0, g / np.where(gn > 0.0, gn, 1.0)[:, None], v)
        if np.all(done):
            break
        seen.append((r, theta))
        if len(seen) > 2:
            # none converged and all stalled: r/theta fell by less than half since two steps
            # back, or r = 0; while one is converged, the stack steps on as without this rule
            r2, theta2 = seen[-3]
            if np.all(~done & ((r * theta2 >= 0.5 * r2 * theta) | (r == 0.0))):
                break
    if not np.all(done):
        todo = np.flatnonzero(~done)
        Q = P if len(todo) == b else P[todo]
        # numpy's cholesky and eigvalsh read only the lower triangle, so the matrix they see is
        # symmetric, and each entry a computed dot product within gamma_m (|P|^T |P|)_ij of P^T P
        B = np.matmul(np.swapaxes(Q, 1, 2), Q)
        e = _gamma(m + 1) * fro2[todo]  # ||fl(P^T P) - P^T P||_2 <= gamma_m || |P| ||_2^2
        best[todo] = np.minimum(best[todo], _cholesky_upper(B, e, np.linalg.eigvalsh(B)[:, -1]))
    return np.ldexp(np.sqrt(best * (1.0 + _gamma(8))), exponent), v


def _cholesky_upper(B, e, lam):
    """Certified upper bounds on lambda_max(B + E) for ||E||_2 <= e, one per matrix of a
    symmetric stack B of shape (k, n, n), from estimates lam of lambda_max(B); inf where
    the certificate fails.

    The candidate is t = lam (1 + 4 n gamma_(n+2)) + 2 e, which covers an
    error of about 4 n^2 u in lam.  The proof is Higham's (Accuracy and
    Stability, Thm 10.3): a floating-point Cholesky of A = fl(t I - B) that
    runs to completion gives R^T R = A + D with |D| <= gamma_(n+2) |R^T| |R|,
    one rounding more than the theorem's gamma_(n+1) for the reciprocal of
    the pivot by which LAPACK scales a column.  As ||R e_j||^2 <= A_jj /
    (1 - gamma_(n+2)), ||D||_2 <= gamma_(n+2) / (1 - gamma_(n+2)) trace(A),
    so (t + c) I - B is positive definite for c that multiple of trace(A),
    plus u max_i A_ii for the rounding of A's diagonal and a term for
    underflow.  This follows the approach of Rump ("Verification of
    positive definiteness", BIT 46, 2006), but c has not been compared with
    the constant of Rump's corollary.
    The bound is t + c + e, rounded up.  A candidate t below
    lambda_max(B) leaves A indefinite, and its Cholesky fails.  Costs one
    batched O(n^3) Cholesky, plus one per matrix when any of them fails.
    """
    k, n, _ = B.shape
    g = _gamma(n + 2)
    t = lam * (1.0 + 4 * n * g) + 2.0 * e
    A = -B
    diag = A.reshape(k, n * n)[:, :: n + 1]  # a view of the diagonals
    diag += t[:, None]
    try:
        ok = np.isfinite(np.linalg.cholesky(A)).all(axis=(1, 2))
    except np.linalg.LinAlgError:  # raised for the whole stack when one matrix fails
        ok = np.zeros(k, dtype=bool)
        for i, a in enumerate(A):
            try:
                ok[i] = np.isfinite(np.linalg.cholesky(a)).all()
            except np.linalg.LinAlgError:
                pass
    # a sum of n positive terms, rounded up; max_i A_ii <= trace(A); 2^-1000 (n+1)^2 (1 + trace)
    # exceeds every underflow term of the factorization, each a few n^2 (1 + max A_ii) 2^-1074
    tr = diag.sum(axis=1) * (1.0 + _gamma(n))
    c = (g / (1.0 - g) + UNIT_ROUNDOFF) * tr + 2.0**-1000 * (n + 1) ** 2 * (1.0 + tr)
    return np.where(ok, (t + c * (1.0 + _gamma(4)) + e) * (1.0 + _gamma(3)), np.inf)


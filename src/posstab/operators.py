"""Positive-operator representations and their spectral machinery.

Operators come in three variants (dense matrix, diagonal, truncated right
shift).  Spectral radii are certified by bracketing: Collatz-Wielandt
bounds from a Perron power iteration, Gelfand bounds from log-scaled
repeated squaring, and (for entrywise-nonnegative matrices) a bisection
on the resolvent-positivity test that tightens the bracket to the target
width.  No general eigensolver is used anywhere.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, lu_factor, lu_solve

from .errors import DimensionMismatchError, SpectralProximityError
from .norms import induced_norm

#: additive shift that breaks periodicity of the Perron power iteration
PERRON_SHIFT = 1e-12

#: target relative bracket width for spectral_radius
BRACKET_WIDTH = 1e-8


@dataclass(frozen=True)
class DenseOperator:
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("dense operator needs a square matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DiagonalOperator:
    entries: np.ndarray

    def __post_init__(self):
        d = np.array(self.entries, dtype=float).reshape(-1)
        if d.size < 1 or not np.all(np.isfinite(d)):
            raise ValueError("diagonal entries must be a non-empty finite vector")
        d.setflags(write=False)
        object.__setattr__(self, "entries", d)

    @property
    def dim(self):
        return self.entries.shape[0]


@dataclass(frozen=True)
class TruncatedShift:
    """x -> factor * (0, x_0, ..., x_{n-2}); the finite section of the right shift."""

    dim: int
    factor: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("shift dimension must be >= 1")
        if not (np.isfinite(self.factor) and self.factor >= 0.0):
            raise ValueError("shift factor must be finite and >= 0")


OperatorSpec = DenseOperator | DiagonalOperator | TruncatedShift


def dense(rows):
    return DenseOperator(np.asarray(rows, dtype=float))


def diagonal(entries):
    return DiagonalOperator(np.asarray(entries, dtype=float))


def shift(dim, factor):
    return TruncatedShift(int(dim), float(factor))


def materialize(T):
    """Dense matrix of the operator (read-only view where possible)."""
    if isinstance(T, DenseOperator):
        return T.matrix
    if isinstance(T, DiagonalOperator):
        return np.diag(T.entries)
    m = np.zeros((T.dim, T.dim))
    idx = np.arange(T.dim - 1)
    m[idx + 1, idx] = T.factor
    return m


def apply(T, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (T.dim,):
        raise DimensionMismatchError(f"expected vector of shape ({T.dim},)")
    if isinstance(T, DenseOperator):
        return T.matrix @ x
    if isinstance(T, DiagonalOperator):
        return T.entries * x
    out = np.zeros_like(x)
    out[1:] = T.factor * x[:-1]
    return out


def adjoint(T):
    """Transpose representation; adjoint(adjoint(T)) acts like T."""
    if isinstance(T, DenseOperator):
        return DenseOperator(T.matrix.T.copy())
    if isinstance(T, DiagonalOperator):
        return T
    return DenseOperator(materialize(T).T.copy())


def operator_to_dict(T):
    if isinstance(T, DenseOperator):
        return {"variant": "dense", "rows": [[float(v) for v in row] for row in T.matrix]}
    if isinstance(T, DiagonalOperator):
        return {"variant": "diagonal", "entries": [float(v) for v in T.entries]}
    return {"variant": "shift", "dim": int(T.dim), "factor": float(T.factor)}


def operator_from_dict(d):
    variant = d.get("variant")
    if variant == "dense":
        return dense(d["rows"])
    if variant == "diagonal":
        return diagonal(d["entries"])
    if variant == "shift":
        return shift(d["dim"], d["factor"])
    raise ValueError(f"unknown operator variant {variant!r}")


def operator_from_csv(text):
    """Dense matrix from CSV text, one row per line."""
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([float(tok) for tok in line.replace(";", ",").split(",") if tok.strip()])
    if not rows:
        raise ValueError("empty CSV matrix")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged CSV matrix")
    return dense(rows)


def is_positive(T, cone, n_samples=256, tol=1e-10, rng=None):
    """(positive, witness): does T map the cone into itself?

    Orthant: exact entrywise test on the materialized matrix; the witness
    is the basis vector of a column with a negative entry.  Lorentz:
    randomized certificate on boundary rays (axis-aligned rays are always
    included); a violating ray is returned as witness.
    """
    if cone.dim != T.dim:
        raise DimensionMismatchError("cone and operator dimensions differ")
    a = materialize(T)
    if cone.kind == "orthant":
        bad = np.argwhere(a < 0.0)
        if bad.size == 0:
            return True, None
        j = int(bad[0][1])
        w = np.zeros(cone.dim)
        w[j] = 1.0
        return False, w
    rng = np.random.default_rng(0) if rng is None else rng
    m = cone.dim - 1
    dirs = [np.eye(m)[i] * s for i in range(m) for s in (1.0, -1.0)]
    extra = rng.normal(size=(max(n_samples - len(dirs), 0), m))
    extra /= np.maximum(np.linalg.norm(extra, axis=1, keepdims=True), 1e-300)
    rays = [np.concatenate(([1.0], u)) for u in [*dirs, *extra]]
    rays.append(np.concatenate(([1.0], np.zeros(m))))
    for x in rays:
        y = a @ x
        margin = y[0] - np.linalg.norm(y[1:])
        if margin < -tol * max(1.0, float(np.linalg.norm(y))):
            return False, x
    return True, None


@dataclass
class SpectralEstimate:
    """Certified bracket [lower, upper] for the spectral radius.

    perron_value/perron_vector are present when the operator is
    entrywise nonnegative; `residual` is ||T v - perron_value v||_inf for
    the reported vector.  `converged` is False when the iteration caps
    were reached before the bracket hit the target width.
    """

    lower: float
    upper: float
    perron_value: float | None = None
    perron_vector: np.ndarray | None = None
    iterations: int = 0
    converged: bool = True
    residual: float = float("inf")

    @property
    def width(self):
        return self.upper - self.lower

    @property
    def point(self):
        """Best point estimate of the spectral radius."""
        if self.perron_value is not None:
            return self.perron_value
        return 0.5 * (self.lower + self.upper)

    def to_dict(self):
        d = {
            "lower": self.lower,
            "upper": self.upper,
            "iterations": int(self.iterations),
            "converged": bool(self.converged),
        }
        if self.perron_value is not None:
            d["perron_value"] = float(self.perron_value)
            d["perron_vector"] = [float(v) for v in self.perron_vector]
            d["residual"] = float(self.residual)
        return d


def _gelfand_upper(a, max_squarings=46):
    """min_j ||T^(2^j)||^(1/2^j) with row/column-sum norms, log-scaled."""
    best = min(induced_norm(a, "linf"), induced_norm(a, "l1"))
    if best == 0.0:
        return 0.0
    b = a / best
    logc = np.log(best)
    for j in range(1, max_squarings + 1):
        b2 = b @ b
        nu = induced_norm(b2, "linf")
        if nu == 0.0:
            return 0.0
        logc = 2.0 * logc + np.log(nu)
        b = b2 / nu
        k = float(2**j)
        best = min(best, float(np.exp(logc / k)))
        n1 = induced_norm(b, "l1")
        if n1 > 0.0:
            best = min(best, float(np.exp((logc + np.log(n1)) / k)))
    return best


def _diag_power_lower(a, k_max=24):
    """Certified lower bound max_{k,i} ((T^k)_ii)^(1/k) for nonnegative T."""
    best = float(np.max(np.diag(a)))
    p = a
    for k in range(2, min(k_max, 2 * a.shape[0]) + 1):
        p = p @ a
        if not np.all(np.isfinite(p)):
            break
        d = float(np.max(np.diag(p)))
        if d > 0.0:
            best = max(best, d ** (1.0 / k))
    return max(best, 0.0)


def _trace_lower(a, k_max=16):
    """Certified lower bound (|tr T^k| / n)^(1/k) for arbitrary T."""
    n = a.shape[0]
    best = abs(float(np.trace(a))) / n
    p = a
    for k in range(2, k_max + 1):
        p = p @ a
        if not np.all(np.isfinite(p)):
            break
        t = abs(float(np.trace(p))) / n
        if t > 0.0:
            best = max(best, t ** (1.0 / k))
    return best


def _collatz_wielandt(a, max_iter, rel_width):
    """Power iteration on T + delta*I: certified CW bounds plus the iterate."""
    n = a.shape[0]
    delta = PERRON_SHIFT
    v = np.ones(n) / n
    lo, hi = 0.0, np.inf
    it = 0
    stall = 0
    last_width = np.inf
    for it in range(1, max_iter + 1):
        w = a @ v + delta * v
        ratios = w / v  # v stays strictly positive
        # 4-ulp safety margins keep the bounds certified under fp roundoff
        rmin, rmax = float(ratios.min()), float(ratios.max())
        lo = max(lo, rmin - delta - 4e-16 * max(1.0, abs(rmin)))
        hi = min(hi, rmax - delta + 4e-16 * max(1.0, abs(rmax)))
        mx = float(w.max())
        if mx == 0.0:
            return 0.0, 0.0, v, it
        # floor keeps the iterate strictly positive under underflow; the
        # CW bounds above were computed from a consistent (v, w) pair
        v = np.maximum(w / mx, 1e-280)
        width = hi - lo
        if width <= 0.25 * rel_width * max(1.0, hi):
            break
        # the bisection route takes over once the CW bracket stops improving
        if width > 0.999 * last_width:
            stall += 1
            if stall > 80:
                break
        else:
            stall = 0
        last_width = width
    # thresholded candidates certify reducible faces: A u >= alpha u
    for theta in (1e-2, 1e-5, 1e-9, 1e-13):
        u = np.where(v > theta * v.max(), v, 0.0)
        if not u.any():
            continue
        au = a @ u
        mask = u > 0.0
        alpha = float(np.min(au[mask] / u[mask]))
        lo = max(lo, alpha)
    return lo, hi, v, it


def _semipositivity(a, lam):
    """M-matrix test for lam*I - T, T nonnegative.

    Returns True when a vector z >= 0 with (lam*I - T) z = 1 is found
    (certifies lam > spr), False when the solve is singular or z has a
    clearly negative entry (certifies lam <= spr), None when ambiguous.
    """
    n = a.shape[0]
    m = lam * np.eye(n) - a
    try:
        lu = lu_factor(m)
    except LinAlgError:
        return False
    ones = np.ones(n)
    with np.errstate(all="ignore"):
        z = lu_solve(lu, ones)
        if not np.all(np.isfinite(z)):
            return False
        z = z + lu_solve(lu, ones - m @ z)
    if not np.all(np.isfinite(z)):
        return False
    resid = float(np.max(np.abs(m @ z - ones)))
    err = 10.0 * max(resid, 1e-14 * n * float(np.max(np.abs(z))))
    zmin = float(z.min())
    if zmin > err:
        return True
    if zmin < -err:
        return False
    return None


def _bisect_bracket(a, lo, hi, rel_width, max_steps=120):
    steps = 0
    while hi - lo > rel_width * max(1.0, hi) and steps < max_steps:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        verdict = _semipositivity(a, mid)
        if verdict is True:
            hi = mid
        elif verdict is False:
            lo = mid
        else:
            break
        steps += 1
    return lo, hi, steps


def _polish_perron(a, v, lam_shift, rounds=4):
    """Inverse iteration at a shift just above the bracket."""
    n = a.shape[0]
    m = lam_shift * np.eye(n) - a
    try:
        lu = lu_factor(m)
    except LinAlgError:
        return v
    for _ in range(rounds):
        with np.errstate(all="ignore"):
            w = lu_solve(lu, v)
            w = w + lu_solve(lu, v - m @ w)
        if not np.all(np.isfinite(w)):
            break
        w = np.maximum(w, 0.0)
        nw = float(np.linalg.norm(w))
        if nw == 0.0:
            break
        v = w / nw
    return v


def _perron_residual(a, v, lam):
    return float(np.max(np.abs(a @ v - lam * v)))


def spectral_radius(T, rel_width=BRACKET_WIDTH, max_power_iter=20000):
    """Certified spectral-radius bracket (and Perron pair when available).

    For entrywise-nonnegative operators three independent routes are
    combined and must agree: (a) a Perron power iteration on T + delta*I
    started from the all-ones vector, harvesting Collatz-Wielandt bounds
    (min and max of (Tv)_i / v_i certify the radius from both sides for
    strictly positive v); (b) Gelfand bracketing ||T^(2^j)||^(1/2^j) with
    row/column-sum norms; (c) a bisection on the resolvent-positivity
    test, which solves (lam*I - T) z = 1 and accepts lam as an upper bound
    exactly when z >= 0 -- this closes the bracket to the target width even
    for reducible or periodic matrices where the power iteration stalls.
    For operators that are not entrywise nonnegative only route (b) plus a
    trace-based lower bound is available and no Perron pair is reported.
    """
    if isinstance(T, DiagonalOperator):
        d = T.entries
        r = float(np.max(np.abs(d)))
        est = SpectralEstimate(r, r)
        if np.all(d >= 0.0):
            i = int(np.argmax(d))
            v = np.zeros(T.dim)
            v[i] = 1.0
            est.perron_value = r
            est.perron_vector = v
            est.residual = 0.0
        return est
    if isinstance(T, TruncatedShift):
        v = np.zeros(T.dim)
        v[T.dim - 1] = 1.0
        return SpectralEstimate(0.0, 0.0, perron_value=0.0, perron_vector=v, residual=0.0)

    a = materialize(T)
    nonneg = bool(np.all(a >= 0.0))
    upper = _gelfand_upper(a)
    iterations = 0
    if not nonneg:
        lower = min(_trace_lower(a), upper)
        est = SpectralEstimate(lower, upper)
        est.converged = upper - lower <= rel_width * max(1.0, upper)
        return est

    lower = _diag_power_lower(a)
    cw_lo, cw_hi, v, iterations = _collatz_wielandt(a, max_power_iter, rel_width)
    lower = max(lower, cw_lo)
    upper = min(upper, cw_hi)
    lower = min(lower, upper)  # guards fp dust in the certified bounds
    lower, upper, bis_steps = _bisect_bracket(a, lower, upper, rel_width)
    iterations += bis_steps

    shift_gap = max((upper - lower), 1e-12 * max(1.0, upper), 1e-300)
    v_best, res_best = v, _perron_residual(a, v, min(max(0.5 * (lower + upper), lower), upper))
    v_pol = _polish_perron(a, v, upper + shift_gap)
    lam_pol = min(max(float(v_pol @ (a @ v_pol)) if v_pol @ v_pol > 0 else lower, lower), upper)
    res_pol = _perron_residual(a, v_pol, lam_pol)
    if res_pol < res_best:
        v_best, res_best = v_pol, res_pol
    nv = float(np.linalg.norm(v_best))
    v_best = v_best / nv if nv > 0 else v_best
    lam = float(v_best @ (a @ v_best))
    lam = min(max(lam, lower), upper)
    est = SpectralEstimate(lower, upper, perron_value=lam, perron_vector=v_best)
    est.iterations = iterations
    est.residual = _perron_residual(a, v_best, lam)
    est.converged = upper - lower <= rel_width * max(1.0, upper)
    return est


def resolvent_apply(T, lam, y, rtol=1e-10, estimate=None, cross_check=True):
    """Solve (lam*I - T) z = y by LU with partial pivoting.

    y is one right-hand side of shape (n,) or a block of shape (n, k); a
    block shares one factorization and one iterative refinement, and each
    column must meet the residual test ||(lam*I - T) z_j - y_j|| <=
    rtol*||y_j||.  Requires lam outside the certified spectral bracket; for
    lam above the bracket the solution is cross-checked against a truncated
    Neumann series built from `apply` (skipped when upper/lam > 0.995, where
    the series is too slow).  A vector is checked on y itself, a block on a
    fixed probe: the all-ones and one seeded positive combination of its
    columns, pushed through the assembled solution.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[0] != T.dim:
        raise DimensionMismatchError(f"expected shape ({T.dim},) or ({T.dim}, k)")
    est = spectral_radius(T) if estimate is None else estimate
    # solvability is guaranteed for any lam strictly above the bracket, no
    # matter how wide it is, so the guard band is absolute, not width-scaled
    guard = 1e-12 * max(1.0, abs(est.upper))
    if est.lower - guard <= lam <= est.upper + guard:
        raise SpectralProximityError(
            f"lam={lam} lies inside the spectral bracket [{est.lower}, {est.upper}]"
        )
    a = materialize(T)
    n = a.shape[0]
    m = np.negative(a)  # lam*I - a without n x n identity temporaries
    m[np.diag_indices(n)] += lam
    try:
        lu = lu_factor(m)
    except LinAlgError as exc:
        raise SpectralProximityError(f"singular system at lam={lam}") from exc
    b = y.reshape(n, -1)
    z = lu_solve(lu, b)
    bound = rtol * np.maximum(np.linalg.norm(b, axis=0), 1e-300)
    for refinements in range(4):
        r = np.matmul(m, z)
        np.subtract(b, r, out=r)
        bad = np.linalg.norm(r, axis=0) > bound
        if not bad.any() or refinements == 3:
            break
        z[:, bad] += lu_solve(lu, r[:, bad])
    if bad.any():
        raise SpectralProximityError(
            "resolvent solve residual exceeds tolerance at lam="
            f"{lam} in {int(bad.sum())} of {b.shape[1]} columns"
        )
    if cross_check and lam > est.upper + guard and est.upper / lam <= 0.995:
        c = _probe(b.shape[1]) if y.ndim == 2 else np.ones((1, 1))
        for yp, zp in zip((b @ c).T, (z @ c).T):
            zn = _neumann_resolvent(T, lam, yp)
            if zn is not None:
                gap = float(np.linalg.norm(zp - zn))
                if gap > 1e-7 * (1.0 + float(np.linalg.norm(zp))):
                    raise ArithmeticError(
                        "LU and Neumann resolvent routes disagree "
                        f"(gap {gap:.3e}); this is an internal error"
                    )
    return z.reshape(y.shape)


def _probe(k):
    """(k, 2) probe combinations: all-ones and a seeded positive vector."""
    return np.column_stack([np.ones(k), np.random.default_rng(0).uniform(0.5, 1.5, k)])


def _neumann_resolvent(T, lam, y, max_terms=60000):
    """sum_k T^k y / lam^(k+1), with T applied through `apply`, not the LU's matrix."""
    term = y / lam
    total = term.copy()
    tol = 1e-13 * max(float(np.linalg.norm(y)), 1e-300)
    for _ in range(max_terms):
        term = apply(T, term) / lam
        total += term
        if not np.all(np.isfinite(total)):
            return None
        if float(np.linalg.norm(term)) <= tol:
            return total
    return None


@dataclass
class PowerNormSequence:
    """Induced norms ||T^0||..||T^K||; truncated at `overflow_at` on overflow."""

    values: np.ndarray
    norm: str
    overflow_at: int | None = None

    def __iter__(self):
        return iter(self.values)

    def __len__(self):
        return len(self.values)


def power_norms(T, K, norm="linf"):
    """Induced norms of successive powers, by repeated multiplication.

    Diagonal and truncated-shift operators use exact closed forms (the
    power method on clustered spectra would otherwise bias the l2 norms
    low); dense powers use the induced-norm routines.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    if isinstance(T, (DiagonalOperator, TruncatedShift)):
        if isinstance(T, DiagonalOperator):
            r = float(np.max(np.abs(T.entries)))
            with np.errstate(over="ignore"):
                vals = r ** np.arange(K + 1, dtype=float)
        else:
            with np.errstate(over="ignore"):
                vals = float(T.factor) ** np.arange(K + 1, dtype=float)
            vals[T.dim :] = 0.0
        bad = np.nonzero(~np.isfinite(vals) | (vals > 1e300))[0]
        if bad.size:
            return PowerNormSequence(vals[: bad[0]], norm, int(bad[0]))
        return PowerNormSequence(vals, norm, None)
    a = materialize(T)
    vals = [1.0]
    p = np.eye(a.shape[0])
    overflow_at = None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, K + 1):
            p = p @ a
            if not np.all(np.isfinite(p)) or float(np.max(np.abs(p))) > 1e300:
                overflow_at = k
                break
            vals.append(induced_norm(p, norm))
    return PowerNormSequence(np.array(vals), norm, overflow_at)


def geometric_envelope(T, a_env, norm="linf", max_m=4096):
    """Certified (M, m) with ||T^k|| <= M * a_env^k for every k >= 0.

    Searches for the first m with ||T^m|| <= a_env^m; submultiplicativity
    over blocks of length m then gives M = max_{r<m} ||T^r|| / a_env^r.
    Returns None when no such m exists within the cap (a_env below the
    spectral radius).
    """
    if a_env <= 0.0:
        raise ValueError("a_env must be positive")
    a = materialize(T)
    p = np.eye(a.shape[0])
    best_ratio = 1.0  # k = 0 term
    for m in range(1, max_m + 1):
        p = p @ a
        if not np.all(np.isfinite(p)):
            return None
        nm = induced_norm(p, norm)
        if nm <= a_env**m:
            return max(best_ratio, 1.0), m
        best_ratio = max(best_ratio, nm / a_env**m)
    return None

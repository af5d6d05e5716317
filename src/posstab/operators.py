"""Positive-operator representations and their spectral machinery.

Operators come in three variants (dense matrix, diagonal, truncated right
shift).  Spectral radii are certified by bracketing, with no general
eigensolver: Collatz-Wielandt bounds from a Perron power iteration (where it
stalls, as on cyclic maps, the powers' diagonal may raise the lower end),
Gelfand bounds from log-scaled repeated squaring (for T >= 0 it stops at the
fixed point of the normalized square and runs its last steps on two
scalars), and (for maps positive on the orthant or the Lorentz cone) a
resolvent-positivity bisection that closes the bracket to the target width.
"""

from array import array
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .cones import interior_point, lorentz, margin, orthant, project
from .errors import DimensionMismatchError, SpectralProximityError
from .norms import NORMS, UNIT_ROUNDOFF, batch_induced_norm, batch_vec_norm, induced_norm

#: additive shift that breaks periodicity of the Perron power iteration
PERRON_SHIFT = 1e-12

#: target relative bracket width for spectral_radius
BRACKET_WIDTH = 1e-8

#: step cap of the Perron power iteration inside spectral_radius
PERRON_MAX_ITER = 20000

#: largest power k that the ||T^k|| table holds, and so every search over it reads
POWER_HORIZON = 200000

#: cone-membership slack of `is_positive` (times max(1, ||Tx||)) and of RESOLVENT_POS
POSITIVITY_TOL = 1e-10


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


def _memo(T, key, make):
    """make(), computed once per operator and kept on it; operators are immutable.

    Store nothing that refers back to T: the cycle would delay its release.
    """
    memo = vars(T).setdefault("_memo", {})
    if key not in memo:
        memo[key] = make()
    return memo[key]


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
    """T x for a vector of shape (n,), or column by column for a block (n, k)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[0] != T.dim:
        raise DimensionMismatchError(f"expected shape ({T.dim},) or ({T.dim}, k)")
    if isinstance(T, DenseOperator):
        return T.matrix @ x
    if isinstance(T, DiagonalOperator):
        return (T.entries * x.T).T
    out = np.zeros_like(x)
    out[1:] = T.factor * x[:-1]
    return out


def adjoint(T):
    """Transpose representation, built once per T; adjoint(adjoint(T)) acts like T.

    It shares T's spectral bracket (rho(T') = rho(T)), with a Perron pair of
    its own from `_perron_pair` on T' when T has one.
    """
    if isinstance(T, DiagonalOperator):
        return T
    return _memo(T, "adjoint", lambda: _transpose(T))


def _transpose(T):
    adj = DenseOperator(materialize(T).T.copy())
    est = spectral_radius(T)
    if est.perron_vector is not None:
        # both cones are self-dual, so T' is positive on the cone that T is
        cone = orthant(T.dim) if np.all(adj.matrix >= 0.0) else lorentz(T.dim)
        est = _perron_pair(adj.matrix, interior_point(cone), est, cone)
    # the estimate, not T: the memo must not refer back to T
    _memo(adj, "spectral", lambda: est)
    return adj


def operator_to_dict(T):
    if isinstance(T, DenseOperator):
        return {"variant": "dense", "rows": [[float(v) for v in row] for row in T.matrix]}
    if isinstance(T, DiagonalOperator):
        return {"variant": "diagonal", "entries": [float(v) for v in T.entries]}
    return {"variant": "shift", "dim": int(T.dim), "factor": float(T.factor)}


def operator_from_dict(d):
    """Inverse of `operator_to_dict`; a malformed dict raises ValueError naming the problem."""
    if not isinstance(d, dict):
        raise ValueError(f"operator must be a JSON object, not {type(d).__name__}")
    variant = d.get("variant")
    try:
        if variant == "dense":
            return dense(d["rows"])
        if variant == "diagonal":
            return diagonal(d["entries"])
        if variant == "shift":
            return shift(d["dim"], d["factor"])
    except KeyError as exc:
        raise ValueError(f"{variant} operator needs the key {exc}") from None
    except TypeError as exc:  # e.g. rows that are not a list, or a dim of null
        raise ValueError(f"malformed {variant} operator: {exc}") from None
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


def is_positive(T, cone, rng=None):
    """(positive, witness): does T map the cone into itself?

    Orthant: exact entrywise test on the materialized matrix; the witness
    is the basis vector of a column with a negative entry.  Lorentz:
    randomized certificate on 256 boundary rays (axis-aligned rays are
    always included); a violating ray is returned as witness.
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
    eye = np.eye(m)
    dirs = np.stack([eye, -eye], axis=1).reshape(2 * m, m)  # e1, -e1, e2, -e2, ...
    extra = rng.normal(size=(max(256 - 2 * m, 0), m))
    extra /= np.maximum(np.linalg.norm(extra, axis=1, keepdims=True), 1e-300)
    rest = np.vstack([dirs, extra, np.zeros((1, m))])
    rays = np.hstack([np.ones((rest.shape[0], 1)), rest])
    Y = rays @ a.T
    bad = np.nonzero(margin(cone, Y) < -POSITIVITY_TOL * np.maximum(1.0, batch_vec_norm(Y, "l2")))[0]
    if bad.size:
        return False, rays[bad[0]]
    return True, None


@dataclass(frozen=True)
class SpectralEstimate:
    """Certified bracket [lower, upper] for the spectral radius.

    perron_value/perron_vector are present when the operator is
    entrywise nonnegative, or dense with n >= 2 and positive on the Lorentz
    cone by `is_positive`; the vector then lies in that cone.  `residual`
    is ||T v - perron_value v||_inf for the reported vector.  Frozen, with a
    read-only vector: one instance per operator is shared by every caller.
    """

    lower: float
    upper: float
    perron_value: float | None = None
    perron_vector: np.ndarray | None = None
    iterations: int = 0
    residual: float = float("inf")

    def __post_init__(self):
        if self.perron_vector is not None:
            object.__setattr__(self, "perron_vector", np.array(self.perron_vector, dtype=float))
            self.perron_vector.setflags(write=False)

    @property
    def width(self):
        return self.upper - self.lower

    @property
    def converged(self):
        """False when the iteration caps were reached before the bracket hit the target width."""
        return self.width <= BRACKET_WIDTH * max(1.0, self.upper)

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


def _gelfand_upper(a):
    """min_j ||T^(2^j)||^(1/2^j), j <= 46, with row/column-sum norms, log-scaled.

    T^(2^j) = exp(logc) b with ||b||_inf = 1.  For T >= 0, once a squaring
    leaves b unchanged to 8 ulps of its largest entry, b is a fixed point of
    b <- b^2 / ||b^2||_inf: every later squaring would see the same nu and
    the same l1 norm n1, so the rest of the 46 steps run on the scalars alone.
    Signed maps, and maps whose b never settles (Jordan blocks, cycles),
    go on squaring to j = 46 or to an underflow."""
    best = min(induced_norm(a, "linf"), induced_norm(a, "l1"))
    if best == 0.0:
        return 0.0
    b = a / best
    logc = np.log(best)
    settled, nonnegative = False, bool(np.all(a >= 0.0))
    for j in range(1, 47):
        if not settled:
            b2 = b @ b
            nu = induced_norm(b2, "linf")
            if nu == 0.0:
                # b2 may be 0 only because b's small entries underflowed: trust
                # nilpotency only from the pattern, whose powers cannot underflow
                return 0.0 if _nilpotent_pattern(a) else best
            b2 /= nu
            settled = nonnegative and np.max(np.abs(b2 - b)) <= 8.0 * UNIT_ROUNDOFF * b2.max()
            b = b2
            n1 = induced_norm(b, "l1")
        logc = 2.0 * logc + np.log(nu)
        k = float(2**j)
        best = min(best, float(np.exp(logc / k)))
        if n1 > 0.0:
            best = min(best, float(np.exp((logc + np.log(n1)) / k)))
    return best


def _nilpotent_pattern(a):
    """True when the zero pattern of a forces a^n = 0, from 0/1 pattern squarings."""
    p = (a != 0.0).astype(float)
    for _ in range(max(1, (len(a) - 1).bit_length())):
        p = np.minimum(p @ p, 1.0)
    return not p.any()


def _power_lower(a, stat, k_max):
    """Certified spectral-radius lower bound max_{k <= k_max} stat(T^k)^(1/k)."""
    best = stat(a)
    p = a
    for k in range(2, k_max + 1):
        p = p @ a
        if not np.all(np.isfinite(p)):
            break
        t = stat(p)
        if t > 0.0:
            best = max(best, t ** (1.0 / k))
    return best


def _collatz_wielandt(a):
    """Power iteration on T + delta*I: certified CW bounds plus the iterate."""
    n = a.shape[0]
    delta = PERRON_SHIFT
    v = np.ones(n) / n
    lo, hi = 0.0, np.inf
    it = 0
    stall = 0
    last_width = np.inf
    for it in range(1, PERRON_MAX_ITER + 1):
        w = a @ v + delta * v
        ratios = w / v  # v stays strictly positive
        # the 4-ulp margins cover the rounding of w / v and of subtracting delta,
        # not that of fl(a @ v), which can be off by gamma_n relative (2.8e-14
        # at n = 256): to that order the CW bounds are heuristic
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
        if width <= 0.25 * BRACKET_WIDTH * max(1.0, hi):
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


def _shifted_lu(a, lam):
    """(m, lu, solve): m = lam*I - a, its LU, and solve(b), one LU solve plus
    exactly one refinement step.  A singular m only warns; solve then returns
    non-finite entries instead of raising."""
    m = np.negative(a)  # no n x n identity temporaries
    m[np.diag_indices(len(a))] += lam
    lu = lu_factor(m)

    def solve(b):
        with np.errstate(all="ignore"):
            z = lu_solve(lu, b)
            return z + lu_solve(lu, b - m @ z, check_finite=False)

    return m, lu, solve


def _semipositivity(a, lam, cone):
    """Resolvent-positivity test for lam*I - T, T positive on `cone`.

    Returns True when z in the cone with (lam*I - T) z = e, e the cone's
    interior point, is found (certifies lam > spr), False when z is clearly
    outside the cone (certifies lam <= spr), None when ambiguous: a
    numerically singular lam*I - T proves nothing either way.
    """
    n, e = a.shape[0], interior_point(cone)
    m, _, solve = _shifted_lu(a, lam)
    z = solve(e)
    if not np.all(np.isfinite(z)):
        return None
    resid = float(np.max(np.abs(m @ z - e)))
    err = 10.0 * max(resid, 1e-14 * n * float(np.max(np.abs(z))))
    if cone.kind == "lorentz":
        err *= 1.0 + np.sqrt(n - 1)  # an entrywise error err moves x0 - ||x_rest|| this far
    zmin = float(margin(cone, z))
    if zmin > err:
        return True
    if zmin < -err:
        return False
    return None


def _bisect_bracket(a, lo, hi, cone):
    steps = 0
    while hi - lo > BRACKET_WIDTH * max(1.0, hi) and steps < 120:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        verdict = _semipositivity(a, mid, cone)
        if verdict is True:
            hi = mid
        elif verdict is False:
            lo = mid
        else:
            break
        steps += 1
    return lo, hi, steps


def _polish_perron(a, v, lam_shift, cone):
    """Four inverse-iteration steps at a shift just above the bracket, projected onto the
    cone; an iterate whose l2 norm overflows is first scaled by its largest entry."""
    solve = _shifted_lu(a, lam_shift)[2]
    for _ in range(4):
        w = solve(v)
        if not np.all(np.isfinite(w)):
            break
        w = project(cone, w)
        with np.errstate(over="ignore"):
            nw = float(np.linalg.norm(w))
        if not np.isfinite(nw):
            w = w / np.max(np.abs(w))
            nw = float(np.linalg.norm(w))
        if nw == 0.0:
            break
        v = w / nw
    return v


def _perron_residual(a, v, lam):
    return float(np.max(np.abs(a @ v - lam * v)))


def spectral_radius(T):
    """Certified spectral-radius bracket (and Perron pair when available).

    For entrywise-nonnegative operators three independent routes are
    combined and must agree: (a) a Perron power iteration on T + delta*I
    started from the all-ones vector, harvesting Collatz-Wielandt bounds
    (min and max of (Tv)_i / v_i certify the radius from both sides for
    strictly positive v); (b) Gelfand bracketing ||T^(2^j)||^(1/2^j) with
    row/column-sum norms; (c) a bisection on the resolvent-positivity
    test, which solves (lam*I - T) z = e, e interior, and accepts lam as an
    upper bound exactly when z lies in the cone -- this closes the bracket
    to the target width even where the power iteration stalls.  Only where
    (a) has not closed (cyclic maps, Jordan blocks) does the power diagonal
    max_i (T^k)_ii^(1/k), k <= min(24, 2n), raise the lower end.  A signed
    map that `is_positive` finds positive on the Lorentz cone (a randomized
    certificate) runs (c) on that cone from (b) and a trace lower bound;
    on both cones inverse iteration above the bracket gives a Perron pair.
    Any other signed map gets (b) and the trace bound, no Perron pair.
    The bracket is computed once per operator and shared by every caller.
    """
    return _memo(T, "spectral", lambda: _spectral_bracket(T))


def _spectral_bracket(T):
    if isinstance(T, DiagonalOperator):
        d = T.entries
        r = float(np.max(np.abs(d)))
        if np.any(d < 0.0):
            return SpectralEstimate(r, r)
        v = np.zeros(T.dim)
        v[int(np.argmax(d))] = 1.0
        return SpectralEstimate(r, r, perron_value=r, perron_vector=v, residual=0.0)
    if isinstance(T, TruncatedShift):
        v = np.zeros(T.dim)
        v[T.dim - 1] = 1.0
        return SpectralEstimate(0.0, 0.0, perron_value=0.0, perron_vector=v, residual=0.0)

    a = materialize(T)
    n = a.shape[0]
    upper = _gelfand_upper(a)
    if np.all(a >= 0.0):
        cone = orthant(n)
        lower, cw_hi, v, iterations = _collatz_wielandt(a)
        if cw_hi - lower > 0.25 * BRACKET_WIDTH * max(1.0, cw_hi):  # CW has not closed
            lower = max(_power_lower(a, lambda p: float(np.max(np.diag(p))), min(24, 2 * n)), lower)
        upper = min(upper, cw_hi)
    else:
        cone = lorentz(n) if n >= 2 and is_positive(T, lorentz(n))[0] else None
        lower = _power_lower(a, lambda p: abs(float(np.trace(p))) / len(p), 16)
        v, iterations = (None if cone is None else interior_point(cone)), 0
    lower = min(lower, upper)  # guards fp dust in the certified bounds
    if cone is None:
        return SpectralEstimate(lower, upper)
    lower, upper, bis_steps = _bisect_bracket(a, lower, upper, cone)
    return _perron_pair(a, v, SpectralEstimate(lower, upper, iterations=iterations + bis_steps), cone)


def _perron_pair(a, v, est, cone):
    """`est` with a Perron pair of `a`: the better of the cone vector v and its
    `_polish_perron` iterate, l2-normalized, its value clamped into the bracket."""
    lower, upper = est.lower, est.upper
    shift_gap = max((upper - lower), 1e-12 * max(1.0, upper), 1e-300)
    v_best, res_best = v, _perron_residual(a, v, min(max(0.5 * (lower + upper), lower), upper))
    v_pol = _polish_perron(a, v, upper + shift_gap, cone)
    lam_pol = min(max(float(v_pol @ (a @ v_pol)) if v_pol @ v_pol > 0 else lower, lower), upper)
    res_pol = _perron_residual(a, v_pol, lam_pol)
    if res_pol < res_best:
        v_best, res_best = v_pol, res_pol
    nv = float(np.linalg.norm(v_best))
    v_best = v_best / nv if nv > 0 else v_best
    lam = float(v_best @ (a @ v_best))
    lam = min(max(lam, lower), upper)
    residual = _perron_residual(a, v_best, lam)
    return replace(est, perron_value=lam, perron_vector=v_best, residual=residual)


def resolvent_apply(T, lam, y):
    """Solve (lam*I - T) z = y by LU with partial pivoting.

    y is one right-hand side of shape (n,) or a block of shape (n, k); a
    block shares one factorization and one iterative refinement, and each
    column must meet the residual test ||(lam*I - T) z_j - y_j|| <=
    1e-10*||y_j||.  Requires lam outside the certified spectral bracket; a
    column whose solve is not finite (a signed map may have an eigenvalue
    below the bracket) raises SpectralProximityError.  For lam above the
    bracket the solution is checked against the Neumann series from
    `apply`, summed by doubling (skipped at upper/lam > 0.995, where it may
    not converge within 2^16 terms).  A vector is checked on y itself, a
    block in one series on a probe: all-ones and a seeded positive mix.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[0] != T.dim:
        raise DimensionMismatchError(f"expected shape ({T.dim},) or ({T.dim}, k)")
    est = spectral_radius(T)
    # solvability is guaranteed for any lam strictly above the bracket, no
    # matter how wide it is, so the guard band is absolute, not width-scaled
    guard = 1e-12 * max(1.0, abs(est.upper))
    if est.lower - guard <= lam <= est.upper + guard:
        raise SpectralProximityError(
            f"lam={lam} lies inside the spectral bracket [{est.lower}, {est.upper}]"
        )
    a = materialize(T)
    m, lu, _ = _shifted_lu(a, lam)
    b = y.reshape(a.shape[0], -1)
    z = lu_solve(lu, b)
    lost = np.flatnonzero(~np.all(np.isfinite(z), axis=0)).tolist()
    if lost:
        raise SpectralProximityError(f"resolvent solve at lam={lam} is not finite in columns {lost}")
    bound = 1e-10 * np.maximum(np.linalg.norm(b, axis=0), 1e-300)
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
    if lam > est.upper + guard and est.upper / lam <= 0.995:
        c = _probe(b.shape[1]) if y.ndim == 2 else np.ones((1, 1))
        zp, zn = z @ c, _neumann_resolvent(T, lam, b @ c)
        gap = 0.0 if zn is None else np.linalg.norm(zp - zn, axis=0)
        if np.any(gap > 1e-7 * (1.0 + np.linalg.norm(zp, axis=0))):
            raise ArithmeticError(
                "LU and Neumann resolvent routes disagree "
                f"(gap {np.max(gap):.3e}); this is an internal error"
            )
    return z.reshape(y.shape)


def _resolvent_inverse(T):
    """Read-only (I - T)^{-1} from one block solve, or its SpectralProximityError; once per T."""

    def solve():
        try:
            inv = resolvent_apply(T, 1.0, np.eye(T.dim))
        except SpectralProximityError as exc:
            return exc
        inv.setflags(write=False)
        return inv

    return _memo(T, "inverse", solve)


def _probe(k):
    """(k, 2) probe combinations: all-ones and a seeded positive vector."""
    return np.column_stack([np.ones(k), np.random.default_rng(0).uniform(0.5, 1.5, k)])


def _neumann_resolvent(T, lam, y):
    """sum_k T^k y / lam^(k+1) for a block y; None if not finite within 2^16 terms.

    Doubling from s = y/lam, P = T/lam (`apply`, not the LU's matrix): s += P s, P = P^2."""
    p, total = apply(T, np.eye(T.dim)) / lam, y / lam
    tol = 1e-13 * np.maximum(np.linalg.norm(y, axis=0), 1e-300)
    for _ in range(16):
        chunk = np.matmul(p, total)
        total = total + chunk
        if not np.all(np.isfinite(total)):
            return None
        if np.all(np.linalg.norm(chunk, axis=0) <= tol):
            return total
        p = np.matmul(p, p)
    return None


#: entries of the (b, n, n) buffer that extends a dense power table by b powers
TABLE_BLOCK_ENTRIES = 2**16


class _PowerNormTable:
    """||T^0||, ||T^1||, ... in one norm, extended on demand.

    Dense operators keep the newest power and extend the table in blocks:
    the next b powers come from the same prev @ T chain, written into one
    buffer of b * n^2 <= TABLE_BLOCK_ENTRIES entries (b doubles with the
    table up to that cap), and their norms from one `batch_induced_norm`
    call.  The entries are norms of the computed powers P_k, not of the
    exact T^k: l1/linf entries are the floating-point column and row sums
    of |P_k|, and l2 entries are certified upper bounds on ||P_k||_2 whose
    power steps start from the previous block's vector (`iss` bounds the
    gap to T^k for T >= 0 entrywise).  `newest` is (k, P_k) for the last
    entry.  Diagonal and shift operators use closed forms.  The table ends
    past POWER_HORIZON, or at `overflow_at`, the first power whose entries
    (dense) or norm (closed form) exceed 1e300 or are not finite.
    """

    def __init__(self, T, norm):
        if norm not in NORMS:
            raise ValueError(f"unknown norm {norm!r}")
        self.norm, self.values, self.overflow_at = norm, array("d", [1.0]), None
        self._matrix = T.matrix if isinstance(T, DenseOperator) else None
        if self._matrix is not None:
            self._power, self._start, self._buffer = np.eye(T.dim), None, None
        elif isinstance(T, DiagonalOperator):
            self._base, self._zero_from = np.max(np.abs(T.entries)), np.inf
        else:
            self._base, self._zero_from = np.float64(T.factor), T.dim

    @property
    def newest(self):
        """(k, P_k): the index of the last entry and the computed power behind it (dense only)."""
        return len(self.values) - 1, self._power

    def at(self, k):
        """||T^k||, or inf when the table ends before k."""
        with np.errstate(over="ignore", invalid="ignore"):
            while len(self.values) <= min(k, POWER_HORIZON) and self.overflow_at is None:
                j = len(self.values)
                if self._matrix is not None:
                    self._extend(min(max(j, k + 1 - j), POWER_HORIZON + 1 - j))
                    continue
                nm = float(self._base**j) if j < self._zero_from else 0.0
                if nm <= 1e300:  # False for inf and nan
                    self.values.append(nm)
                else:
                    self.overflow_at = j
        return self.values[k] if k < len(self.values) else np.inf

    def _extend(self, count):
        """Append the norms of the next min(count, cap) powers, stopping at the first bad one."""
        n = self._matrix.shape[0]
        cap = max(1, TABLE_BLOCK_ENTRIES // (n * n))
        if self._buffer is None:
            self._buffer = np.empty((cap, n, n))
        block = self._buffer[: min(count, cap)]
        prev = self._power
        for p in block:
            prev = np.matmul(prev, self._matrix, out=p)
        ok = np.abs(block).max(axis=(1, 2)) <= 1e300  # False for inf and nan
        good = len(block) if ok.all() else int(np.argmin(ok))
        # may raise: nothing below runs, so the power and the table stay in step
        nms, start = batch_induced_norm(block[:good], self.norm, self._start)
        if good:
            self._power, self._start = block[good - 1].copy(), start
            self.values.frombytes(nms.tobytes())
        if good < len(block):
            self.overflow_at = len(self.values)


def _power_table(T, norm):
    """T's power-norm table in `norm`, built once per operator and norm."""
    return _memo(T, ("powers", norm), lambda: _PowerNormTable(T, norm))


def power_norms(T, K, norm="linf"):
    """Induced norms ||T^0||..||T^K|| as an array, read from T's memoized power-norm table.

    The array is shorter than K + 1 when the table ends first (see
    `_PowerNormTable`).  Dense values are norms of the computed powers:
    l1/linf the floating-point row and column sums, l2 certified upper
    bounds.  Diagonal and shift values come from closed forms.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    table = _power_table(T, norm)
    table.at(K)
    return np.array(table.values[: K + 1])


def _first_power(T, norm, passes, start=1):
    """(k, norms): the first k >= start with passes(k, norms), and ||T^0||..||T^k||.

    `passes` gets the table itself, whose entries 0..k are ||T^0||..||T^k||
    (it may hold more), so a predicate can read any prefix; it is called
    for k = start, start + 1, ... in order.  k is None when the table ends
    first; norms then holds the whole table.
    """
    table, k = _power_table(T, norm), start
    while k < len(table.values) or table.at(k) < np.inf:
        if passes(k, table.values):
            return k, np.array(table.values[: k + 1])
        k += 1
    return None, np.array(table.values)


def _decay_rate(T):
    """(upper + 1)/2: the rate of the envelope, ISS, equivalent-norm and STRICT_DECAY bounds."""
    return 0.5 * (spectral_radius(T).upper + 1.0)


def geometric_envelope(T, a_env, norm="linf"):
    """Certified (M, m) with ||T^k|| <= M * a_env^k for every k >= 0.

    m is the first power with ||T^m|| <= a_env^m; submultiplicativity over
    blocks of length m then gives M = max_{r<m} ||T^r|| / a_env^r >= 1 (the
    r = 0 ratio is 1), both from one `_first_power` search.  Returns None
    when the power-norm table ends before such an m (a_env below the
    spectral radius, overflow, or POWER_HORIZON), and for a_env >= 1, which
    certifies no decay.  Searched once per operator, a_env and norm.
    """
    if a_env <= 0.0:
        raise ValueError("a_env must be positive")
    if a_env >= 1.0:
        return None
    return _memo(T, ("envelope", a_env, norm), lambda: _envelope(T, a_env, norm))


def _envelope(T, a_env, norm):
    m, norms = _first_power(T, norm, lambda k, nms: nms[k] <= a_env**k)
    return None if m is None else (max(float(norms[r]) / a_env**r for r in range(m)), m)

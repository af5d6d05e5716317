"""Positive-operator representations and their spectral machinery.

Operators come in three variants (dense matrix, diagonal, truncated right
shift).  Spectral radii are certified by bracketing, with no general
eigensolver: maps positive on the orthant or the Lorentz cone run Noda's
shifted inverse iteration, whose iterates give Collatz-Wielandt bounds on
both sides and the Perron vector; where it stalls (reducible and defective
maps), Gelfand bounds from log-scaled repeated squaring, the powers'
diagonal or trace and a resolvent-positivity bisection close the bracket.
Other signed maps get the Gelfand and trace bounds.  Each shifted solve is
one LAPACK gesv (`lu_factor`), refined only where a residual test fails.
"""

from array import array
from dataclasses import dataclass, replace

import numpy as np

from .cones import interior_point, lorentz, margin, max_ratio, orthant, project
from .errors import DimensionMismatchError, SpectralProximityError
from .norms import NORMS, UNIT_ROUNDOFF, _gamma, batch_induced_norm, batch_vec_norm, induced_norm

#: target relative bracket width for spectral_radius
BRACKET_WIDTH = 1e-8

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


def _rider(T, key, make):
    """make(), a `_doubling` consumer left on T for one `_taken`, or None if one is there."""
    memo = vars(T).setdefault("_memo", {})
    return None if key in memo else memo.setdefault(key, make())


def _taken(T, key):
    """The consumer that `_rider` left on T under `key`, removed from T, or None."""
    return vars(T).get("_memo", {}).pop(key, None)


def _doubling(p, consumers):
    """Feed S_0 = p, S_1 = S_0 S_0, ... to each consumer as consumer(j, S_j) until it
    returns False, squaring only while one still wants the next square and keeping
    only the current one; consumers test what they read for overflow.  Returns
    the number of squarings."""
    j = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while consumers := [c for c in consumers if c(j, p)]:
            p, j = np.matmul(p, p), j + 1
    return j


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

    It shares T's spectral bracket (rho(T') = rho(T)); when T has a Perron
    pair, `_transpose` runs `_noda` on T' from that bracket for its own.
    """
    if isinstance(T, DiagonalOperator):
        return T
    return _memo(T, "adjoint", lambda: _transpose(T))


def _transpose(T):
    """T' with T's bracket and, when T has one, the Perron pair of the last
    `_noda` iterate on T' (its bounds are dropped: T's bracket is kept)."""
    adj = DenseOperator(materialize(T).T.copy())
    est = spectral_radius(T)
    if est.perron_vector is not None:
        # both cones are self-dual, so T' is positive on the cone that T is
        cone = orthant(T.dim) if is_positive(T, orthant(T.dim))[0] else lorentz(T.dim)
        v = _noda(adj.matrix, est.lower, est.upper, interior_point(cone), cone)[2]
        est = _perron_pair(adj.matrix, v, est)
    # the estimate, not T: the memo must not refer back to T
    _memo(adj, "spectral", lambda: est)
    return adj


def operator_to_dict(T):
    if isinstance(T, DenseOperator):
        return {"variant": "dense", "rows": np.asarray(T.matrix, dtype=float).tolist()}
    if isinstance(T, DiagonalOperator):
        return {"variant": "diagonal", "entries": np.asarray(T.entries, dtype=float).tolist()}
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


def is_positive(T, cone):
    """(positive, witness): does T map the cone into itself?

    Orthant: exact entrywise test on the materialized matrix; the witness
    is the basis vector of a column with a negative entry.  Lorentz: a test
    on 256 fixed boundary rays (`_ray_test`), so a sampled certificate; the
    first violating ray is the witness.  The answer is memoized per operator
    and cone kind, and the witness is read-only.
    """
    if cone.dim != T.dim:
        raise DimensionMismatchError("cone and operator dimensions differ")
    return _memo(T, ("positive", cone.kind), lambda: _positivity(T, cone))


def _positivity(T, cone):
    a = materialize(T)
    if cone.kind == "orthant":
        bad = np.argwhere(a < 0.0)
        w = np.eye(1, cone.dim, int(bad[0][1]))[0] if bad.size else None
    else:
        rays, _, bad = _ray_test(a, cone)
        w = rays[bad[0]].copy() if bad.size else None
    if w is not None:
        w.setflags(write=False)
    return w is None, w


def _ray_test(a, cone, rng=None):
    """(rays, margins, bad): the matrix a on the Lorentz cone's test rays.

    The rays (1, u), in the order tried, take u = +-e_1, ..., +-e_{n-1}, then
    unit normal directions from `rng` (default_rng(0), so fixed) up to 256
    rays, then u = 0, the axis.  margins[i] = margin(a rays[i]); ray i fails,
    and is listed in `bad`, when margins[i] < -POSITIVITY_TOL max(1, ||a rays[i]||_2).
    `is_positive` and RESOLVENT_POS, on (I - T)^{-1}, both read this test.
    """
    m = cone.dim - 1
    rng = np.random.default_rng(0) if rng is None else rng
    eye = np.eye(m)
    dirs = np.stack([eye, -eye], axis=1).reshape(2 * m, m)  # e1, -e1, e2, -e2, ...
    extra = rng.normal(size=(max(256 - 2 * m, 0), m))
    extra /= np.maximum(np.linalg.norm(extra, axis=1, keepdims=True), 1e-300)
    rest = np.vstack([dirs, extra, np.zeros((1, m))])
    rays = np.hstack([np.ones((rest.shape[0], 1)), rest])
    Y = rays @ a.T
    margins = margin(cone, Y)
    bad = np.nonzero(margins < -POSITIVITY_TOL * np.maximum(1.0, batch_vec_norm(Y, "l2")))[0]
    return rays, margins, bad


@dataclass(frozen=True)
class SpectralEstimate:
    """Certified bracket [lower, upper] for the spectral radius.

    perron_value/perron_vector are present when the operator is
    entrywise nonnegative, or dense with n >= 2 and positive on the Lorentz
    cone by `is_positive`; the vector then lies in that cone.  `residual`
    is ||T v - perron_value v||_inf for the reported vector.  `iterations`
    counts the Noda steps plus the fallback's bisection steps.  Frozen, with
    a read-only vector: one instance per operator is shared by every caller.
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
        """False when the bracket is wider than the target width (Noda and its fallback stalled)."""
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
            d["perron_vector"] = np.asarray(self.perron_vector, dtype=float).tolist()
            d["residual"] = float(self.residual)
        return d


def _gelfand_upper(a):
    """min_j ||T^(2^j)||^(1/2^j), j <= 46, with row/column-sum norms, log-scaled.

    T^(2^j) = exp(logc) b with ||b||_inf = 1; the loop also ends at an
    underflow of b's square to 0."""
    best = min(induced_norm(a, "linf"), induced_norm(a, "l1"))
    if best == 0.0:
        return 0.0
    b = a / best
    logc = np.log(best)
    for j in range(1, 47):
        b = b @ b
        nu = induced_norm(b, "linf")
        if nu == 0.0:
            # b may be 0 only because its small entries underflowed: trust
            # nilpotency only from the pattern, whose powers cannot underflow
            return 0.0 if _nilpotent_pattern(a) else best
        b /= nu
        logc = 2.0 * logc + np.log(nu)
        k = float(2**j)
        best = min(best, float(np.exp(logc / k)))
        n1 = induced_norm(b, "l1")
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


def lu_factor(m, b):
    """Solve m z = b, b of shape (n,) or (n, k), by one LAPACK gesv (LU with partial
    pivoting) in `np.linalg.solve`; an exactly singular m gives NaN, not an error."""
    try:
        return np.linalg.solve(m, b)
    except np.linalg.LinAlgError:
        return np.full(np.shape(b), np.nan)


def _shifted_lu(a, lam):
    """(m, solve): m = lam*I - a and solve(b), one `lu_factor` factorization per call."""
    m = np.negative(a)  # no n x n identity temporaries
    m[np.diag_indices(len(a))] += lam
    return m, lambda b: lu_factor(m, b)


def _semipositivity(a, lam, cone):
    """Resolvent-positivity test for lam*I - T, T positive on `cone`.

    Returns True when z in the cone with (lam*I - T) z = e, e the cone's
    interior point, is found (certifies lam > spr), False when z is clearly
    outside the cone (certifies lam <= spr), None when ambiguous: a
    numerically singular lam*I - T proves nothing either way.
    """
    n, e = a.shape[0], interior_point(cone)
    m, solve = _shifted_lu(a, lam)
    z = solve(e)
    r = e - m @ z
    if np.max(np.abs(r)) > 1e-14 * n * np.max(np.abs(z)):  # refine once; False for a NaN z
        z += solve(r)
        r = e - m @ z
    if not np.all(np.isfinite(z)):
        return None
    err = 10.0 * max(float(np.max(np.abs(r))), 1e-14 * n * float(np.max(np.abs(z))))
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


def _noda(a, lo, hi, x, cone):
    """(lo, hi, x, steps): Noda's shifted inverse iteration (T. Noda, Numer.
    Math. 17, 1971; quadratic for irreducible T >= 0: L. Elsner, Numer. Math.
    26, 1976) on a map positive on `cone`, from [lo, hi] and the cone vector
    x.  Each step solves (mu I - a) y = x at mu = hi + max(1e-3 (hi - lo),
    4 u hi), projects y onto the cone, scales it by max_i |y_i| and narrows
    the bracket by its `_cw_bounds`.  It stops at the first step that does
    not halve the width once that is at most BRACKET_WIDTH max(1, hi), at the
    third such step in a row (a stall), or at a non-finite or zero y; it
    takes at least one step, none at hi = 0.  The last x approximates the
    Perron vector.
    """
    width, stalls, steps = hi - lo, 0, 0
    while hi > 0.0:  # the bracket [0, 0] would give mu = 0, a singular shift
        mu = hi + max(1e-3 * (hi - lo), 4.0 * UNIT_ROUNDOFF * hi)
        y = project(cone, _shifted_lu(a, mu)[1](x))
        scale = float(np.max(np.abs(y)))
        if not (np.isfinite(scale) and scale > 0.0):
            break
        x, steps = y / scale, steps + 1
        s, t = _cw_bounds(a, x, cone)
        lo, hi = max(lo, s), min(hi, t)
        last, width = width, hi - lo
        halved = width <= 0.5 * last
        if width <= 0.0 or not halved and (width <= BRACKET_WIDTH * max(1.0, hi) or stalls == 2):
            break
        stalls = 0 if halved else stalls + 1
    return lo, hi, x, steps


def _cw_bounds(a, x, cone):
    """(s, t) with s x <= a x <= t x, so s <= rho(a) <= t, for a cone vector x;
    `_noda`, the ISS decay vector and `criteria.strict_decay_point` read it.

    Orthant (x >= 0, x != 0): the min of fl(a x)_i / x_i over the x_i > 0
    and the max over all i (inf unless every x_i > 0), divided by 1 + g and
    1 - g, g = gamma_(n+4).  For a >= 0 each fl(a x)_i sums terms >= 0, so
    it is (a x)_i (1 + theta), |theta| <= gamma_n (Higham, Accuracy and
    Stability, 3.1 and 3.4); the quotient, 1 +- g and the last division add
    three roundings, which g covers.  So, for a >= 0 and barring underflow,
    both inequalities hold exactly; for a signed a they are not certified.
    Lorentz: t = `max_ratio`(a x, x) + d and
    s = -`max_ratio`(-a x, x) - d, d = (1 + sqrt(n - 1)) gamma_(n+2)
    || |a| |x| ||_inf / margin(x), a heuristic allowance for the rounding
    of fl(a x); (-inf, inf) for x on the boundary.
    """
    n, y = len(x), a @ x
    if cone.kind == "orthant":
        g = _gamma(n + 4)
        pos = x > 0.0
        ratios = y[pos] / x[pos]
        t = float(ratios.max()) / (1.0 - g) if pos.all() else np.inf
        return float(ratios.min()) / (1.0 + g), t
    mx = float(margin(cone, x))
    if not mx > 0.0:
        return -np.inf, np.inf
    d = (1.0 + np.sqrt(n - 1)) * _gamma(n + 2) * float(np.max(np.abs(a) @ np.abs(x))) / mx
    return -max_ratio(cone, -y, x) - d, max_ratio(cone, y, x) + d


def spectral_radius(T):
    """Certified spectral-radius bracket (and Perron pair when available).

    A map that `is_positive` accepts on the orthant (T >= 0), or on the
    Lorentz cone by its sampled test, runs `_noda` from [max_i a_ii (orthant)
    or 0, min(||T||_inf, ||T||_1)] and the cone's interior point; its last
    iterate is the Perron vector.  Where Noda stalls (reducible and
    defective maps), the upper end falls to the Gelfand bound, the lower
    end rises to the power diagonal (orthant) or the trace bound (Lorentz),
    `_bisect_bracket` narrows the result on the resolvent-positivity test
    and a second `_noda` run from there gives the Perron vector.  Converged
    orthant brackets are rigorous in floating point (`_cw_bounds`), Lorentz
    ones heuristic.  Any other signed map gets the Gelfand and trace bounds
    and no Perron pair.  Computed once per operator and shared by every caller.
    """
    return _memo(T, "spectral", lambda: _spectral_bracket(T))


def _spectral_bracket(T):
    """`spectral_radius`, not memoized.  A dense map's cone is the first one that
    `is_positive` accepts, orthant then Lorentz, so its memoized answer serves
    every later positivity question about T on that cone kind."""
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
    if is_positive(T, orthant(n))[0]:
        cone, lower = orthant(n), float(np.max(np.diag(a)))
        stat, k_max = (lambda p: float(np.max(np.diag(p)))), min(24, 2 * n)
    else:
        cone, lower = (lorentz(n) if n >= 2 and is_positive(T, lorentz(n))[0] else None), 0.0
        stat, k_max = (lambda p: abs(float(np.trace(p))) / len(p)), 16
    if cone is None:
        upper = _gelfand_upper(a)
        return SpectralEstimate(min(_power_lower(a, stat, k_max), upper), upper)
    upper = min(induced_norm(a, "linf"), induced_norm(a, "l1"))
    lower, upper, v, steps = _noda(a, lower, upper, interior_point(cone), cone)
    if upper - lower > BRACKET_WIDTH * max(1.0, upper):
        upper = min(upper, _gelfand_upper(a))
        lower = min(max(lower, _power_lower(a, stat, k_max)), upper)  # guards fp dust
        lower, upper, bis_steps = _bisect_bracket(a, lower, upper, cone)
        lower, upper, v, more = _noda(a, lower, upper, v, cone)
        steps += bis_steps + more
    return _perron_pair(a, v, SpectralEstimate(min(lower, upper), upper, iterations=steps))


def _perron_pair(a, v, est):
    """`est` with the Perron pair of `a` from the cone vector v: v l2-normalized,
    its Rayleigh quotient clamped into the bracket."""
    v = v / np.linalg.norm(v)
    lam = min(max(float(v @ (a @ v)), est.lower), est.upper)
    residual = float(np.max(np.abs(a @ v - lam * v)))
    return replace(est, perron_value=lam, perron_vector=v, residual=residual)


def resolvent_apply(T, lam, y):
    """Solve (lam*I - T) z = y by LU with partial pivoting.

    y is one right-hand side of shape (n,) or a block of shape (n, k); a
    block shares one `lu_factor` call, the columns that miss the residual test
    ||(lam*I - T) z_j - y_j|| <= 1e-10*||y_j|| share one refinement call, and a
    column that still misses it, or whose solve is not finite (a signed map may
    have an eigenvalue below the bracket), raises SpectralProximityError.
    Requires lam outside the certified spectral bracket.  For lam above the
    bracket the solution is checked against the Neumann series from
    `apply`, summed on a `_doubling` chain of the squares of T/lam (skipped
    at upper/lam > 0.995, where it may not converge within 2^16 terms).  A
    vector is checked on y itself, a block in one series on a probe:
    all-ones and a seeded positive mix, which `quasi_compact_suite` may have summed.
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
    m, solve = _shifted_lu(a, lam)
    b = y.reshape(a.shape[0], -1)
    z = solve(b)
    lost = np.flatnonzero(~np.all(np.isfinite(z), axis=0)).tolist()
    if lost:
        raise SpectralProximityError(f"resolvent solve at lam={lam} is not finite in columns {lost}")
    bound = 1e-10 * np.maximum(np.linalg.norm(b, axis=0), 1e-300)
    r = b - m @ z
    bad = np.linalg.norm(r, axis=0) > bound
    if bad.any():
        z[:, bad] += solve(r[:, bad])
        bad = np.linalg.norm(b - m @ z, axis=0) > bound
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
    """sum_k T^k y / lam^(k+1) for a block y, None if not finite within 2^16 terms: s += P s
    on the chain of P = T/lam (`apply`, not the LU's matrix), or an `_inverse_rider`'s sum."""
    series = _taken(T, ("neumann", lam))
    if series is None or not np.array_equal(series.y, y):
        series = _Neumann(y, lam)
        _doubling(apply(T, np.eye(T.dim)) / lam, [series])
    return series.result


class _Neumann:
    """`_doubling` consumer on the squares of T/lam: `result` becomes sum_k T^k y / lam^(k+1),
    or stays None when a partial sum is not finite or 2^16 terms miss the tolerance."""

    def __init__(self, y, lam):
        self.y, self.total, self.result = y, y / lam, None
        self.tol = 1e-13 * np.maximum(np.linalg.norm(y, axis=0), 1e-300)

    def __call__(self, j, p):
        chunk = np.matmul(p, self.total)
        self.total = self.total + chunk
        if not np.all(np.isfinite(self.total)):
            return False
        if np.all(np.linalg.norm(chunk, axis=0) <= self.tol):
            self.result = self.total
            return False
        return j < 15


def _inverse_rider(T):
    """The Neumann consumer of `_resolvent_inverse`'s check (lam = 1, the block probe),
    left on T for a chain of T's squares; None where that check does not run."""
    if spectral_radius(T).upper > 0.995:
        return None
    return _rider(T, ("neumann", 1.0), lambda: _Neumann(_probe(T.dim), 1.0))


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
    if not a_env > 0.0:  # also NaN, which would pass every later test
        raise ValueError(f"a_env must be positive, got {a_env}")
    if a_env >= 1.0:
        return None
    return _memo(T, ("envelope", a_env, norm), lambda: _envelope(T, a_env, norm))


def _envelope(T, a_env, norm):
    m, norms = _first_power(T, norm, lambda k, nms: nms[k] <= a_env**k)
    return None if m is None else (max(float(norms[r]) / a_env**r for r in range(m)), m)

"""Stability criteria for positive discrete-time systems, cross-checked.

Every criterion returns a `CriterionVerdict` whose failure witness can be
re-verified independently (a cone vector x with Tx >= x, a dual
functional, a rank-one perturbation pair, ...).  `cross_check` runs all
applicable criteria and folds them into one consensus verdict; the
criteria are equivalent in exact arithmetic, so any disagreement away
from the spectral boundary is a hard error, never smoothed over.
"""

from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .cones import (
    ConeSpec,
    batch_distance,
    cone_constants,
    contains,
    distance,
    interior_point,
    is_interior,
    decompose,
    project,
    random_points,
)
from .errors import SpectralProximityError, UnsupportedConeNormError
from .norms import batch_vec_norm, dual_norm, induced_norm, vec_norm
from .operators import (
    DenseOperator,
    _resolvent_inverse,
    adjoint,
    apply,
    geometric_envelope,
    is_positive,
    materialize,
    operator_to_dict,
    resolvent_apply,
    spectral_radius,
)

DEFAULT_TOL = 1e-9

CRITERIA_IDS = (
    "SPR",
    "RESOLVENT_POS",
    "MBI",
    "UNIFORM_SG",
    "ROBUST_SG",
    "RANK1_SG",
    "DUAL_SG",
    "INTERIOR_SG",
    "STRICT_DECAY",
    "SUBFIXED_POS",
    "SIMPLE_SG",
    "STRONG_STAB",
    "WEAK_ATTR",
)

CONSENSUS_STABLE = "STABLE"
CONSENSUS_UNSTABLE = "UNSTABLE"
CONSENSUS_INCONSISTENT = "INCONSISTENT"
CONSENSUS_BOUNDARY = "BOUNDARY"


@dataclass
class Witness:
    """Re-verifiable evidence attached to a failing (or flagged) verdict."""

    kind: str
    vector: np.ndarray | None = None
    functional: np.ndarray | None = None
    z_prime: np.ndarray | None = None
    z: np.ndarray | None = None
    perturbation_norm: float | None = None
    column: int | None = None
    lam: float | None = None
    note: str = ""

    def to_dict(self):
        d = {"kind": self.kind}
        for name in ("vector", "functional", "z_prime", "z"):
            v = getattr(self, name)
            if v is not None:
                d[name] = [float(t) for t in np.asarray(v)]
        if self.perturbation_norm is not None:
            d["perturbation_norm"] = float(self.perturbation_norm)
        if self.column is not None:
            d["column"] = int(self.column)
        if self.lam is not None:
            d["lambda"] = float(self.lam)
        if self.note:
            d["note"] = self.note
        return d


@dataclass
class CriterionVerdict:
    """Outcome of one criterion; `margin` is criterion-specific:

    SPR/DUAL_SG/SIMPLE_SG/SUBFIXED_POS: 1 - spectral radius.  MBI: the
    constant c.  UNIFORM_SG/INTERIOR_SG: the small-gain margin eta.
    ROBUST_SG/RANK1_SG: eta/2 - eps (certified perturbation headroom).
    RESOLVENT_POS: worst cone-membership margin of the inverse.
    STRICT_DECAY: 1 - realized contraction factor.  STRONG_STAB/WEAK_ATTR:
    1 - worst sampled norm ratio over the horizon.
    """

    id: str
    holds: bool
    margin: float
    witness: Witness | None = None

    def to_dict(self):
        return {
            "id": self.id,
            "holds": bool(self.holds),
            "margin": float(self.margin),
            "witness": self.witness.to_dict() if self.witness is not None else None,
        }


@dataclass
class StrictDecayCertificate:
    """Interior vector z with T z <= lam * z, verified componentwise."""

    z: np.ndarray
    lam: float
    realized_lambda: float
    interior_margin: float

    def to_dict(self):
        return {
            "z": [float(v) for v in self.z],
            "lambda": float(self.lam),
            "realized_lambda": float(self.realized_lambda),
            "interior_margin": float(self.interior_margin),
        }


@dataclass
class RankOneDestabilizer:
    """Positive rank-one P with (T+P)x >= x; P v = <z', v> z."""

    matrix: np.ndarray
    x: np.ndarray
    norm_p: float
    z_prime: np.ndarray
    z: np.ndarray


def _cone_margin(cone, x):
    """Signed membership margin (>= 0 inside)."""
    if cone.kind == "orthant":
        return float(np.min(x))
    return float(x[0] - np.linalg.norm(x[1:]))


def _decision_tol(est, tol):
    """Smallest trustworthy small-gain margin.

    Near an unstable Perron direction the searched margin bottoms out at
    the eigen-residual rather than 0, so the holds-decision threshold
    scales with it; without a Perron pair the residual is undefined and
    the plain tolerance applies.
    """
    res = est.residual if np.isfinite(est.residual) else 0.0
    return max(tol, 10.0 * res)


def check_resolvent_positivity(T, cone, tol=1e-10, rng=None):
    """Is id - T invertible with a positive inverse?

    Orthant: holds iff every column of (I - T)^{-1} lies in the cone within
    `tol`; the margin is the minimal entry of the inverse.  Lorentz: basis
    vectors do not generate the cone, so the inverse is tested as a cone
    map on boundary rays instead; the margin is the worst membership margin
    of a mapped ray.  (I - T)^{-1} is computed once per operator and shared.
    """
    inv = _resolvent_inverse(T)
    if isinstance(inv, SpectralProximityError):
        return CriterionVerdict(
            "RESOLVENT_POS",
            False,
            spectral_radius(T).lower - 1.0,
            Witness(kind="flag", note=f"SPECTRAL_PROXIMITY: {inv}"),
        )
    if cone.kind == "orthant":
        margins = [_cone_margin(cone, inv[:, j]) for j in range(inv.shape[1])]
        worst = int(np.argmin(margins))
        margin = float(margins[worst])
        if margin >= -tol:
            return CriterionVerdict("RESOLVENT_POS", True, margin, None)
        return CriterionVerdict(
            "RESOLVENT_POS",
            False,
            margin,
            Witness(
                kind="column",
                vector=inv[:, worst],
                column=worst,
                note="column of (I-T)^{-1} outside the cone",
            ),
        )
    rng = np.random.default_rng(0) if rng is None else rng
    rays = _cone_unit_rows(cone, random_points(cone, rng, 256))
    mapped = rays @ inv.T
    margins = mapped[:, 0] - np.sqrt((mapped[:, 1:] ** 2).sum(axis=1))
    worst = int(np.argmin(margins))
    margin = float(margins[worst])
    ok, witness_ray = is_positive(DenseOperator(inv), cone, rng=rng, tol=tol)
    if ok and margin >= -tol:
        return CriterionVerdict("RESOLVENT_POS", True, margin, None)
    bad = witness_ray if witness_ray is not None else rays[worst]
    return CriterionVerdict(
        "RESOLVENT_POS",
        False,
        margin,
        Witness(
            kind="cone_vector",
            vector=inv @ bad,
            note="image of a cone ray under (I-T)^{-1} leaves the cone",
        ),
    )


def mbi_constant(T, cone, rng=None, n_trials=1000):
    """Monotone bounded invertibility: (I-T)x <= y forces ||x|| <= c ||y||.

    Returns c = C * ||(I-T)^{-1}|| in the cone's norm; a randomized
    falsification search over cone pairs confirms the bound before the
    verdict is issued.  MBI needs a positive inverse, so it fails with the
    RESOLVENT_POS verdict when that fails.
    """
    base = check_resolvent_positivity(T, cone)
    if not base.holds:
        return float("inf"), CriterionVerdict("MBI", False, base.margin, base.witness)
    c = cone_constants(cone).normality_C * induced_norm(_resolvent_inverse(T), cone.norm)
    rng = np.random.default_rng(0) if rng is None else rng
    a = materialize(T)
    n = cone.dim
    amb = np.eye(n) - a
    X = random_points(cone, rng, n_trials)
    W = X @ amb.T  # rows (I - T) x
    scales = rng.uniform(0.0, 1.0, size=(n_trials, 1))
    R = random_points(cone, rng, n_trials)
    # y = positive part of w plus cone noise: y >= w and y in cone by construction
    if cone.kind == "orthant":
        Y = np.maximum(W, 0.0) + scales * R
    else:
        Y = np.empty_like(W)
        for i in range(n_trials):
            yp, _ = decompose(cone, W[i])
            Y[i] = yp + scales[i] * R[i]
    nx = batch_vec_norm(X, cone.norm)
    ny = batch_vec_norm(Y, cone.norm)
    bad = np.nonzero(nx > c * ny + 1e-9)[0]
    if bad.size:
        i = int(bad[0])
        return c, CriterionVerdict(
            "MBI",
            False,
            c,
            Witness(kind="cone_vector", vector=X[i], note="falsification pair violates ||x|| <= c ||y||"),
        )
    return c, CriterionVerdict("MBI", True, c, None)


def _usg_objective(cone, amI):
    def f(X):
        return batch_distance(cone, X @ amI.T)

    return f


def _cone_unit_rows(cone, X):
    if cone.kind == "orthant":
        X = np.maximum(X, 0.0)
    else:
        X = np.array([project(cone, row) for row in X])
    norms = batch_vec_norm(X, cone.norm)
    keep = norms > 1e-14
    X = X[keep] / norms[keep, None]
    return X


def _usg_seeds(T, cone, rng, n_starts):
    n = cone.dim
    seeds = [np.ones(n)]
    if cone.kind == "orthant":
        seeds.extend(np.eye(n))
    else:
        axis = np.zeros(n)
        axis[0] = 1.0
        seeds.append(axis)
        for i in range(1, n):
            for s in (1.0, -1.0):
                ray = np.zeros(n)
                ray[0] = 1.0
                ray[i] = s
                seeds.append(ray)
    est = spectral_radius(T)
    if est.perron_vector is not None:
        seeds.append(np.maximum(est.perron_vector, 0.0))
    else:
        # no Perron pair (operator not entrywise nonnegative): seed with the
        # resolvent-built positive approximate eigenvector instead, which
        # concentrates on the Krein-Rutman direction even when complex
        # eigenvalues tie the spectral radius in modulus
        seq = approximate_positive_eigenvector(T, cone, n_steps=22)
        if seq:
            seeds.append(seq[-1].x)
    seeds = np.array(seeds)
    rand = random_points(cone, rng, n_starts)
    return np.vstack([seeds, rand])


def uniform_small_gain_margin(
    T,
    cone,
    rng=None,
    n_starts=64,
    descent_iters=50,
    polish_rounds=240,
    tol=DEFAULT_TOL,
):
    """Empirical margin eta_emp = min_x dist((T - I)x, cone) over unit cone vectors.

    The search combines the cone's extreme rays, the Perron vector, random
    starts, a batched projected descent with numeric gradients (small
    dimensions) and a shrinking pattern-search polish around the best
    point.  eta_emp upper-bounds the true infimum; the certified lower
    bound 1/(c*M) is available via `small_gain_certificate`.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    a = materialize(T)
    n = cone.dim
    amI = a - np.eye(n)
    f = _usg_objective(cone, amI)

    X = _cone_unit_rows(cone, _usg_seeds(T, cone, rng, n_starts))
    vals = f(X)
    best_i = int(np.argmin(vals))
    best_x, best_v = X[best_i].copy(), float(vals[best_i])

    if n <= 16:
        h = 1e-6
        step = 0.2
        for it in range(descent_iters):
            G = np.zeros_like(X)
            for j in range(n):
                E = np.zeros(n)
                E[j] = h
                G[:, j] = (f(X + E) - f(X - E)) / (2.0 * h)
            X = _cone_unit_rows(cone, X - step * G)
            if X.size == 0:
                break
            vals = f(X)
            i = int(np.argmin(vals))
            if vals[i] < best_v:
                best_v, best_x = float(vals[i]), X[i].copy()
            step *= 0.92

    # local polish: shrinking random perturbations around the best point
    radius = 0.2
    for _ in range(polish_rounds):
        C = _cone_unit_rows(cone, best_x + radius * rng.normal(size=(24, n)))
        if C.size:
            vals = f(C)
            i = int(np.argmin(vals))
            if vals[i] < best_v:
                best_v, best_x = float(vals[i]), C[i].copy()
        radius *= 0.92

    eta_emp = max(best_v, 0.0)
    decision = _decision_tol(spectral_radius(T), tol)
    holds = eta_emp > decision
    witness = None
    if not holds:
        witness = Witness(kind="cone_vector", vector=best_x, note="dist((T-I)x, cone) ~ 0")
    return eta_emp, CriterionVerdict("UNIFORM_SG", holds, eta_emp, witness)


def small_gain_certificate(T, cone, rng=None):
    """Certified lower bound eta >= 1/(c*M) from the MBI constant, or None."""
    c, verdict = mbi_constant(T, cone, rng=rng)
    if not verdict.holds or not np.isfinite(c) or c <= 0.0:
        return None
    m = cone_constants(cone).decomposition_M
    return 1.0 / (c * m)


def approximate_positive_eigenvector(T, cone, n_steps=30, start=None):
    """Positive approximate eigenvector sequence via resolvent solves.

    Shifts follow the geometric schedule r_k = upper + 2^{-k} down towards
    the spectral bracket; every iterate is a positive unit vector and the
    reported residual measures ||(upper*I - T) x_k||.  The sequence stops
    early when the shift numerically enters the bracket.  If the resolvent
    norms fail to grow (they must for a start inside the cone) the start
    vector is swapped for a perturbed one once.
    """
    upper = spectral_radius(T).upper
    v = interior_point(cone) if start is None else np.asarray(start, dtype=float)
    Step = namedtuple("ApproxEigStep", "r x residual")

    def run(v0):
        steps = []
        alphas = []
        for k in range(n_steps):
            r_k = upper + 2.0 ** (-k)
            if r_k - upper < max(1e-12 * max(1.0, upper), 1e-13):
                break
            gap = r_k - upper
            rtol = min(1e-2, max(1e-10, 1e-14 / gap))
            try:
                xk = resolvent_apply(T, r_k, v0, rtol=rtol, cross_check=False)
            except (SpectralProximityError, ArithmeticError):
                break
            alpha = vec_norm(xk, cone.norm)
            if not np.isfinite(alpha) or alpha <= 0.0:
                break
            x = xk / alpha
            x = project(cone, x)
            nx = vec_norm(x, cone.norm)
            if nx <= 0.0:
                break
            x = x / nx
            residual = vec_norm(apply(T, x) - upper * x, cone.norm)
            steps.append(Step(r_k, x, residual))
            alphas.append(alpha)
        return steps, alphas

    steps, alphas = run(v)
    if len(alphas) >= 4 and alphas[-1] <= 2.0 * alphas[0]:
        # resolvent norms stayed bounded: swap to a perturbed start
        alt = v + 0.5 * np.arange(1, cone.dim + 1) / cone.dim * interior_point(cone)
        steps2, alphas2 = run(alt)
        if steps2 and (not steps or steps2[-1].residual < steps[-1].residual):
            steps = steps2
    return steps


def _dual_functional(cone, x):
    """Positive z' with <z', x> >= 1 and ||z'||_dual <= M' for a unit x in the cone."""
    if cone.kind == "orthant":
        if cone.norm == "linf":
            zp = np.zeros(cone.dim)
            zp[int(np.argmax(x))] = 1.0
            return zp
        if cone.norm == "l1":
            return np.ones(cone.dim)
        return x.copy()
    if cone.norm != "l2":
        raise UnsupportedConeNormError(
            "dual functional for the Lorentz cone is only available under l2"
        )
    return x.copy()


def rank_one_destabilizer(T, cone, n_steps=34):
    """Rank-one positive P with ||P|| <= M' ||z|| and (T+P)x >= x.

    Built from an approximate positive eigenvector x: split
    (T - s*I)x = y - z with s = max(1, upper); take the dual functional z'
    of x and set P v = <z', v> z.  Then (T+P)x - x >= y >= 0 holds exactly,
    regardless of how approximate x is; only ||P|| (= ||z'|| ||z||) shrinks
    as x improves.  Returns None when the spectral upper bound is < 1: no
    small-norm destabilizer needs to exist there.
    """
    est = spectral_radius(T)
    if est.upper < 1.0:
        return None
    candidates = []
    seq = approximate_positive_eigenvector(T, cone, n_steps=n_steps)
    if seq:
        candidates.append(seq[-1].x)
    if est.perron_vector is not None and contains(cone, est.perron_vector, 1e-12):
        candidates.append(np.maximum(est.perron_vector, 0.0))
    if not candidates:
        candidates.append(interior_point(cone))
    s_star = max(1.0, est.upper)
    best = None
    for x in candidates:
        nx = vec_norm(x, cone.norm)
        if nx <= 0.0:
            continue
        x = x / nx
        w = apply(T, x) - s_star * x
        _, z = decompose(cone, w)
        zn = vec_norm(z, cone.norm)
        if best is None or zn < best[1]:
            best = (x, zn, z)
    x, _, z = best
    zp = _dual_functional(cone, x)
    P = np.outer(z, zp)
    norm_p = vec_norm(zp, dual_norm(cone.norm)) * vec_norm(z, cone.norm)
    lhs = apply(T, x) + P @ x - x
    if not contains(cone, lhs, 1e-10):
        raise ArithmeticError("destabilizer construction failed to verify; internal error")
    return RankOneDestabilizer(P, x, norm_p, zp, z)


def robust_small_gain(T, cone, eps, eta_emp=None, rng=None, tol=1e-10):
    """(T+P)x >= x impossible for every positive ||P|| <= eps?

    Certified to hold when eps <= eta_emp / 2 (distance argument); otherwise
    an adversarial rank-one construction searches for a verified violating
    pair (P, x), and the verdict fails exactly when one is found.
    """
    if eta_emp is None:
        eta_emp, _ = uniform_small_gain_margin(T, cone, rng=rng)
    decision = _decision_tol(spectral_radius(T), DEFAULT_TOL)
    if eta_emp > decision and eps <= 0.5 * eta_emp:
        return CriterionVerdict("ROBUST_SG", True, 0.5 * eta_emp - eps, None)
    cand = rank_one_destabilizer(T, cone)
    if cand is not None and cand.norm_p <= eps + tol:
        lhs = apply(T, cand.x) + cand.matrix @ cand.x - cand.x
        if contains(cone, lhs, tol):
            return CriterionVerdict(
                "ROBUST_SG",
                False,
                0.5 * eta_emp - eps,
                Witness(
                    kind="rank_one_perturbation",
                    vector=cand.x,
                    z_prime=cand.z_prime,
                    z=cand.z,
                    perturbation_norm=cand.norm_p,
                    note="(T+P)x >= x verified componentwise",
                ),
            )
    return CriterionVerdict(
        "ROBUST_SG", True, 0.5 * eta_emp - eps, Witness(kind="flag", note="no violation found")
    )


def dual_small_gain(T, cone, tol=DEFAULT_TOL):
    """T'x' >= x' impossible for every nonzero positive functional x'?

    Decided through the Perron pair of the adjoint (the spectral radius is
    an eigenvalue of the dual operator with a positive eigenfunctional on
    cones with interior); the witness is that eigenfunctional.
    """
    adj = adjoint(T)
    est_adj = spectral_radius(adj)
    value = est_adj.point
    holds = est_adj.upper < 1.0
    witness = None
    if not holds:
        if est_adj.perron_vector is not None:
            xp = np.maximum(est_adj.perron_vector, 0.0)
            s = float(np.sum(np.abs(xp)))
            if s > 0:
                xp = xp / s
            witness = Witness(
                kind="dual_functional",
                functional=xp,
                note="Perron functional of the adjoint: T'x' >= x'",
            )
        else:
            witness = Witness(
                kind="flag",
                note=f"adjoint spectral lower bound {est_adj.lower} >= 1; "
                "no Perron functional available for this representation",
            )
    return CriterionVerdict("DUAL_SG", holds, 1.0 - value, witness)


def interior_small_gain(
    T,
    cone,
    z,
    rng=None,
    tol=DEFAULT_TOL,
    bisect_steps=48,
    inner_iters=90,
):
    """Largest eta such that no unit cone vector x satisfies Tx >= x - eta ||x|| z.

    Bisection over eta with an inner feasibility search: the monotone
    iteration x <- normalize(project(Tx + eta*z)) converges to the fixed
    direction of the affine positive map, and any iterate that satisfies
    Tx + eta*z - x in cone is a verified feasibility witness.  Found
    witnesses are certificates; absence of one is heuristic, with the
    spectral criterion as the authority in cross_check.
    """
    z = np.asarray(z, dtype=float)
    inside, _ = is_interior(cone, z)
    if not inside:
        raise ValueError("z must be an interior point of the cone")
    rng = np.random.default_rng(0) if rng is None else rng
    a = materialize(T)
    n = cone.dim

    seeds = _cone_unit_rows(cone, _usg_seeds(T, cone, rng, 16))

    def feasible(eta):
        X = seeds.copy()
        for _ in range(inner_iters):
            W = X @ a.T + eta * z
            S = W - X
            margins = (
                S.min(axis=1)
                if cone.kind == "orthant"
                else S[:, 0] - np.sqrt((S[:, 1:] ** 2).sum(axis=1))
            )
            hit = np.nonzero(margins >= -1e-12)[0]
            if hit.size:
                return X[int(hit[0])].copy()
            X = _cone_unit_rows(cone, W)
            if X.size == 0:
                return None
        return None

    hi = 1.0 / vec_norm(z, cone.norm)  # x = z/||z|| is feasible here
    lo = 0.0
    wit_lo = feasible(0.0)
    if wit_lo is not None:
        return 0.0, CriterionVerdict(
            "INTERIOR_SG",
            False,
            0.0,
            Witness(kind="cone_vector", vector=wit_lo, note="Tx >= x, feasible at eta = 0"),
        )
    wit_hi = feasible(hi)
    for _ in range(8):
        if wit_hi is not None:
            break
        hi *= 2.0
        wit_hi = feasible(hi)
    for _ in range(bisect_steps):
        mid = 0.5 * (lo + hi)
        w = feasible(mid)
        if w is None:
            lo = mid
        else:
            hi, wit_hi = mid, w
    eta = lo
    holds = eta > tol
    witness = None
    if not holds:
        witness = Witness(
            kind="cone_vector", vector=wit_hi, note="feasible x at vanishing eta"
        )
    return eta, CriterionVerdict("INTERIOR_SG", holds, eta, witness)


def strict_decay_point(T, cone, lam, y, tol=1e-10):
    """Point of strict decay z = (lam*I - T)^{-1} y with verified certificate.

    Verifies (a) z >= y / lam, (b) the realized contraction factor
    max over the cone order of Tz against z stays <= lam + tol, and
    (c) the interiority margin of z.
    """
    est = spectral_radius(T)
    if not lam < 1.0:
        raise ValueError("lam must be < 1")
    guard = 1e-12 * max(1.0, est.upper)
    if lam <= est.upper + guard:
        raise SpectralProximityError(
            f"lam={lam} must exceed the spectral upper bound {est.upper}"
        )
    y = np.asarray(y, dtype=float)
    inside, _ = is_interior(cone, y)
    if not inside:
        raise ValueError("y must be an interior point of the cone")
    z = resolvent_apply(T, lam, y)
    if not contains(cone, z - y / lam, tol):
        raise ArithmeticError("certificate failed: z >= y/lam does not hold; internal error")
    tz = apply(T, z)
    if cone.kind == "orthant":
        realized = float(np.max(tz / z))  # z is interior, entrywise positive
    else:
        lo_b, hi_b = 0.0, lam + tol
        for _ in range(60):
            mid = 0.5 * (lo_b + hi_b)
            if contains(cone, mid * z - tz, 0.0):
                hi_b = mid
            else:
                lo_b = mid
        realized = hi_b
    if realized > lam + tol:
        raise ArithmeticError("certificate failed: Tz <= lam*z does not hold; internal error")
    _, margin = is_interior(cone, z)
    return StrictDecayCertificate(z=z, lam=lam, realized_lambda=realized, interior_margin=margin)


def quasi_compact_suite(T, cone, rng=None, n_starts=32, tol=DEFAULT_TOL):
    """Finite-dimensional instances of the quasi-compact criteria.

    SIMPLE_SG and SUBFIXED_POS are decided through the Perron pair (every
    finite-dimensional operator is quasi-compact, so the Krein-Rutman
    eigenvector argument applies).  The attractivity verdicts sample 32
    cone starts over a horizon derived from the certified geometric
    envelope of the power norms.
    """
    est = spectral_radius(T)
    rng = np.random.default_rng(0) if rng is None else rng
    a = materialize(T)
    value = est.point
    simple_holds = (value < 1.0) if est.perron_value is not None else est.upper < 1.0
    margin = 1.0 - value
    verdicts = []
    wit = wit_sub = None
    if not simple_holds:
        if est.perron_vector is not None:
            xp = np.maximum(est.perron_vector, 0.0)
            wit = Witness(kind="cone_vector", vector=xp, note="Perron vector with Tx >= x")
            wit_sub = Witness(
                kind="cone_vector",
                vector=-xp,
                note="sub-fixed vector T(-x) <= -x that is not positive",
            )
        else:
            note = f"certified spectral lower bound {est.lower} >= 1"
            wit = Witness(kind="flag", note=note)
            wit_sub = Witness(kind="flag", note=note)
    verdicts.append(CriterionVerdict("SIMPLE_SG", simple_holds, margin, wit))
    verdicts.append(CriterionVerdict("SUBFIXED_POS", simple_holds, margin, wit_sub))

    # sampled attractivity over a horizon certified from the power norms
    if est.upper < 1.0:
        a_env = 0.5 * (est.upper + 1.0)
        env = geometric_envelope(T, a_env, cone.norm)
        m_env = env[0] if env is not None else 1.0
        k_hor = int(np.ceil((np.log(1e-9) - np.log(max(m_env, 1e-300))) / np.log(a_env)))
        k_hor = int(np.clip(k_hor, 32, 30000))
    else:
        k_hor = 256
    X = random_points(cone, rng, n_starts, interior=True)
    n0 = batch_vec_norm(X, cone.norm)
    X = X / n0[:, None]
    frac = np.ones(n_starts)
    minfrac = np.ones(n_starts)
    for _ in range(k_hor):
        X = X @ a.T
        frac = batch_vec_norm(X, cone.norm)
        minfrac = np.minimum(minfrac, frac)
        peak = float(frac.max())
        if not np.isfinite(peak) or peak > 1e280:
            break
        if peak <= 1e-13:
            break
    worst_final = int(np.argmax(frac))
    strong_holds = bool(np.all(frac <= 1e-6))
    weak_holds = bool(np.all(minfrac <= 1e-6))
    wit_strong = None if strong_holds else Witness(
        kind="cone_vector", vector=X[worst_final], note="trajectory did not decay over the horizon"
    )
    wit_weak = None if weak_holds else Witness(
        kind="cone_vector",
        vector=X[int(np.argmax(minfrac))],
        note="inf_k ||T^k x|| stayed bounded away from 0",
    )
    verdicts.append(
        CriterionVerdict("STRONG_STAB", strong_holds, 1.0 - float(frac.max()), wit_strong)
    )
    verdicts.append(
        CriterionVerdict("WEAK_ATTR", weak_holds, 1.0 - float(minfrac.max()), wit_weak)
    )
    return verdicts


def consensus_of(verdicts, spr_hat, band=0.02):
    """Fold criterion verdicts into one consensus.

    Inside the boundary band |spr - 1| <= band the criteria are all
    discontinuous and disagreement is expected: BOUNDARY.  Outside it,
    unanimity is required; a mixed outcome is INCONSISTENT (a hard
    failure state).
    """
    if abs(spr_hat - 1.0) <= band:
        return CONSENSUS_BOUNDARY
    flags = {bool(v.holds) for v in verdicts}
    if flags == {True}:
        return CONSENSUS_STABLE
    if flags == {False}:
        return CONSENSUS_UNSTABLE
    return CONSENSUS_INCONSISTENT


@dataclass
class CrossCheckConfig:
    tol: float = DEFAULT_TOL
    boundary_band: float = 0.02
    eps: float | None = None
    seed: int = 0
    include_lyapunov: bool = True
    include_iss: bool = True


@dataclass
class CertificateReport:
    operator: dict
    cone: ConeSpec
    spectral: object
    criteria: list
    consensus: str
    positive: bool
    notes: tuple = ()
    lyapunov: dict | None = None
    iss: dict | None = None

    def verdict(self, criterion_id):
        for v in self.criteria:
            if v.id == criterion_id:
                return v
        raise KeyError(criterion_id)

    def to_dict(self):
        return {
            "operator": self.operator,
            "cone": self.cone.to_dict(),
            "spectral": self.spectral.to_dict(),
            "criteria": [v.to_dict() for v in self.criteria],
            "consensus": self.consensus,
            "positive": bool(self.positive),
            "notes": list(self.notes),
            "lyapunov": self.lyapunov,
            "iss": self.iss,
        }


def cross_check(T, cone, config=None, extra_notes=()):
    """Evaluate every applicable criterion and cross-check the verdicts.

    Non-positive operators get a restricted report (spectral verdict plus
    Lyapunov/ISS artifacts) with a positivity-failure note.  All random
    searches derive from config.seed, so reports are reproducible.
    """
    from . import iss as iss_mod
    from . import lyapunov as lyap_mod

    cfg = config or CrossCheckConfig()
    streams = np.random.SeedSequence(cfg.seed).spawn(6)
    rngs = [np.random.default_rng(s) for s in streams]
    est = spectral_radius(T)
    spr_hat = est.point
    notes = list(extra_notes)
    positive, pos_witness = is_positive(T, cone, rng=rngs[0])
    spr_holds = bool(est.upper < 1.0)
    spr_witness = None
    if not spr_holds:
        if est.perron_vector is not None:
            spr_witness = Witness(
                kind="cone_vector",
                vector=np.maximum(est.perron_vector, 0.0),
                note="Perron vector: T x >= x up to the reported residual",
            )
        else:
            spr_witness = Witness(
                kind="flag", note=f"certified spectral lower bound {est.lower} >= 1"
            )
    verdicts = [CriterionVerdict("SPR", spr_holds, 1.0 - spr_hat, spr_witness)]

    if positive:
        if cone.kind == "lorentz":
            notes.append("positivity on the Lorentz cone is a randomized certificate")

        res_v = check_resolvent_positivity(T, cone, tol=1e-10)
        c_mbi, mbi_v = mbi_constant(T, cone, rng=rngs[1])
        eta_emp, usg_v = uniform_small_gain_margin(T, cone, rng=rngs[2])
        dual_v = dual_small_gain(T, cone)
        _, isg_v = interior_small_gain(T, cone, interior_point(cone), rng=rngs[3])
        quasi_v = quasi_compact_suite(T, cone, rng=rngs[4])

        eta_cert = None
        if mbi_v.holds and np.isfinite(c_mbi) and c_mbi > 0.0:
            eta_cert = 1.0 / (c_mbi * cone_constants(cone).decomposition_M)
            notes.append(f"eta certified >= {eta_cert:.6e} (= 1/(c*M)); eta empirical = {eta_emp:.6e}")
        decision = _decision_tol(est, cfg.tol)
        eps = cfg.eps if cfg.eps is not None else (0.5 * eta_emp if eta_emp > decision else 1e-3)
        # RANK1_SG is decided by the same rank-one construction as ROBUST_SG
        robust_v = robust_small_gain(T, cone, eps, eta_emp=eta_emp)
        rank1_v = replace(robust_v, id="RANK1_SG")
        try:
            lam_sd = 0.5 * (est.upper + 1.0)
            cert = strict_decay_point(T, cone, lam_sd, interior_point(cone))
            sd_v = CriterionVerdict(
                "STRICT_DECAY",
                True,
                1.0 - cert.realized_lambda,
                Witness(
                    kind="strict_decay_pair",
                    vector=cert.z,
                    lam=cert.realized_lambda,
                    note="interior z with Tz <= lam*z",
                ),
            )
        except (SpectralProximityError, ValueError, ArithmeticError):
            sd_v = CriterionVerdict(
                "STRICT_DECAY",
                False,
                1.0 - est.upper,
                Witness(kind="flag", note="no admissible lambda below 1"),
            )
        verdicts.extend([res_v, mbi_v, usg_v, robust_v, rank1_v, dual_v, isg_v, sd_v])
        verdicts.extend(quasi_v)
    else:
        note = "operator is not positive on the given cone; order-based criteria skipped"
        if pos_witness is not None:
            note += f" (violating direction {np.round(pos_witness, 6).tolist()})"
        notes.append(note)

    consensus = consensus_of(verdicts, spr_hat, cfg.boundary_band)

    lyapunov_section = None
    iss_section = None
    if est.upper < 1.0:
        if cfg.include_lyapunov:
            stein = lyap_mod.solve_stein(T)
            s = float(np.sqrt(1.0 / max(est.upper, 1e-6)))
            s = min(s, 1e3)
            norm_cert = lyap_mod.equivalent_norm(
                T,
                s,
                lattice=(cone.kind == "orthant"),
                cone=cone,
                rng=rngs[5],
                norm=cone.norm,
            )
            lyapunov_section = {
                "stein_residual": float(stein.residual),
                "stein_tail_bound": float(stein.tail_bound),
                "Q": [[float(v) for v in row] for row in stein.Q],
                "equivalent_norm": {
                    "s": float(norm_cert.s),
                    "K": int(norm_cert.K),
                    "contraction_factor": float(norm_cert.contraction_factor),
                    "lattice": bool(norm_cert.lattice),
                },
            }
        if cfg.include_iss:
            iss_est = iss_mod.iss_constants(T, norm=cone.norm)
            iss_section = iss_est.to_dict()

    return CertificateReport(
        operator=operator_to_dict(T),
        cone=cone,
        spectral=est,
        criteria=verdicts,
        consensus=consensus,
        positive=positive,
        notes=tuple(notes),
        lyapunov=lyapunov_section,
        iss=iss_section,
    )


def reverify_witness(T, cone, verdict, tol=1e-9):
    """Independently re-check the witness of a failing verdict.

    Returns True when the witness reproduces the claimed violation; used
    by the test-suite and callers that audit reports.
    """
    w = verdict.witness
    if w is None or verdict.holds:
        return True
    if w.kind == "cone_vector" and w.vector is not None:
        x = np.asarray(w.vector, dtype=float)
        if verdict.id in ("UNIFORM_SG", "SIMPLE_SG", "INTERIOR_SG"):
            if cone.kind == "orthant":
                x = np.abs(x)
            elif not (contains(cone, x, tol) and np.any(x != 0.0)):
                return False  # the Lorentz cone has no lattice |x| to fall back on
            s = apply(T, x) - x
            return contains(cone, s, tol) or distance(cone, s) <= max(tol, 1e-6)
        if verdict.id == "SUBFIXED_POS":
            # x is the negated Perron vector: T x <= x yet x not in cone
            return contains(cone, x - apply(T, x), tol) and not contains(cone, x, 0.0)
        return True
    if w.kind == "dual_functional" and w.functional is not None:
        # both supported cones are self-dual, so the dual order is `contains`
        xp = np.asarray(w.functional, dtype=float)
        adj = adjoint(T)
        return contains(cone, apply(adj, xp) - xp, tol)
    if w.kind == "rank_one_perturbation":
        x = np.asarray(w.vector, dtype=float)
        P = np.outer(np.asarray(w.z, dtype=float), np.asarray(w.z_prime, dtype=float))
        lhs = apply(T, x) + P @ x - x
        return contains(cone, lhs, tol)
    if w.kind == "column" and w.vector is not None:
        # v must be column `column` of (I - T)^{-1} and lie outside the cone
        v = np.asarray(w.vector, dtype=float)
        r = v - apply(T, v)
        r[w.column] -= 1.0
        solves = float(np.max(np.abs(r))) <= 1e-8 * (1.0 + float(np.max(np.abs(v))))
        return solves and not contains(cone, v, tol)
    return True

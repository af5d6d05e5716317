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
    DEFAULT_TOL,
    ConeSpec,
    batch_distance,
    cone_constants,
    contains,
    distance,
    interior_point,
    is_interior,
    decompose,
    margin,
    project,
    random_points,
)
from .errors import DimensionMismatchError, SpectralProximityError, UnsupportedConeNormError
from .lyapunov import _stein_rider
from .norms import batch_induced_norm, batch_vec_norm, dual_norm, vec_norm
from .operators import (
    POSITIVITY_TOL,
    DenseOperator,
    _cw_bounds,
    _decay_rate,
    _doubling,
    _inverse_rider,
    _memo,
    _resolvent_inverse,
    _shifted_lu,
    adjoint,
    apply,
    geometric_envelope,
    is_positive,
    materialize,
    operator_to_dict,
    spectral_radius,
)

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
                d[name] = np.asarray(v, dtype=float).tolist()
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
    STRICT_DECAY: 1 - realized contraction factor.  STRONG_STAB: 1 - the
    worst norm ratio ||T^k x|| / ||x|| of the sampled starts at the last
    dyadic time k = 2^J of `quasi_compact_suite`.  WEAK_ATTR: 1 - the worst
    start's smallest ratio over k = 0, 1, 2, 4, ..., 2^J.
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
    """Interior z with T z <= realized_lambda * z <= lam * z componentwise, a
    certified bound for T >= 0 on the orthant (`strict_decay_point`)."""

    z: np.ndarray
    lam: float
    realized_lambda: float
    interior_margin: float

    def to_dict(self):
        return {
            "z": np.asarray(self.z, dtype=float).tolist(),
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


def _decision_tol(est):
    """Smallest trustworthy small-gain margin.

    Near an unstable Perron direction the seeded margin bottoms out at
    the eigen-residual rather than 0, so the holds-decision threshold
    scales with it; without a Perron pair the residual is undefined and
    DEFAULT_TOL applies.
    """
    res = est.residual if np.isfinite(est.residual) else 0.0
    return max(DEFAULT_TOL, 10.0 * res)


def check_resolvent_positivity(T, cone):
    """Is id - T invertible with a positive inverse?

    Orthant: holds iff every column of (I - T)^{-1} lies in the cone within
    POSITIVITY_TOL; the margin is the minimal entry of the inverse.
    Lorentz: basis vectors do not generate the cone, so the inverse is
    tested as a cone map on boundary rays instead; the margin is the worst
    membership margin of a mapped ray.  The inverse, and the verdict per
    cone, are computed once per operator: RESOLVENT_POS, MBI and the
    closed-form small-gain margins share them.
    """
    return _memo(T, ("resolvent_pos", cone), lambda: _resolvent_positivity(T, cone, POSITIVITY_TOL))


def _resolvent_positivity(T, cone, tol):
    inv = _resolvent_inverse(T)
    if isinstance(inv, SpectralProximityError):
        return CriterionVerdict(
            "RESOLVENT_POS",
            False,
            spectral_radius(T).lower - 1.0,
            Witness(kind="flag", note=f"SPECTRAL_PROXIMITY: {inv}"),
        )
    if cone.kind == "orthant":
        margins = margin(cone, inv.T)
        worst = int(np.argmin(margins))
        low = float(margins[worst])
        if low >= -tol:
            return CriterionVerdict("RESOLVENT_POS", True, low, None)
        return CriterionVerdict(
            "RESOLVENT_POS",
            False,
            low,
            Witness(
                kind="column",
                vector=inv[:, worst],
                column=worst,
                note="column of (I-T)^{-1} outside the cone",
            ),
        )
    rng = np.random.default_rng(0)
    rays = _cone_unit_rows(cone, random_points(cone, rng, 256))
    margins = margin(cone, rays @ inv.T)
    worst = int(np.argmin(margins))
    low = float(margins[worst])
    ok, witness_ray = is_positive(DenseOperator(inv), cone, rng=rng)
    if ok and low >= -tol:
        return CriterionVerdict("RESOLVENT_POS", True, low, None)
    bad = witness_ray if witness_ray is not None else rays[worst]
    return CriterionVerdict(
        "RESOLVENT_POS",
        False,
        low,
        Witness(
            kind="cone_vector",
            vector=inv @ bad,
            note="image of a cone ray under (I-T)^{-1} leaves the cone",
        ),
    )


def mbi_constant(T, cone):
    """Monotone bounded invertibility: (I-T)x <= y forces ||x|| <= c ||y||.

    Returns c = C * ||R|| in the cone's norm, R = (I-T)^{-1}, from the norm
    that `_resolvent_norm` has checked at its attaining vector: for x, y in
    the cone with (I-T)x <= y, R >= 0 gives x <= Ry, so ||x|| <= C ||R|| ||y||
    by normality.  MBI needs a positive inverse, so it fails with the
    RESOLVENT_POS verdict when that fails.
    """
    base = check_resolvent_positivity(T, cone)
    if not base.holds:
        return float("inf"), CriterionVerdict("MBI", False, base.margin, base.witness)
    c = cone_constants(cone).normality_C * _resolvent_norm(T, cone)[0]
    return c, CriterionVerdict("MBI", True, c, None)


def _cone_unit_rows(cone, X):
    X = project(cone, X)
    norms = batch_vec_norm(X, cone.norm)
    keep = norms > 1e-14
    return X[keep] / norms[keep, None]


def _usg_seeds(T, cone, rng, n_starts):
    n = cone.dim
    seeds = [np.ones(n)]
    if cone.kind == "orthant":
        seeds.extend(np.eye(n))
    else:
        seeds.append(interior_point(cone))
        for i in range(1, n):
            for s in (1.0, -1.0):
                ray = np.zeros(n)
                ray[0] = 1.0
                ray[i] = s
                seeds.append(ray)
    v = spectral_radius(T).perron_vector
    if v is not None:
        seeds.append(project(cone, v))
    seeds = np.array(seeds)
    rand = random_points(cone, rng, n_starts)
    return np.vstack([seeds, rand])


def _growth_vector(T, cone):
    """The Perron vector projected onto the cone, if it passes `_is_growth`
    within the decision tolerance, else None.  It is the only producer of
    growth witnesses: SPR, SIMPLE_SG, SUBFIXED_POS, STRONG_STAB and WEAK_ATTR
    carry it (`_growth_witness`), UNIFORM_SG and INTERIOR_SG when (I - T)^{-1}
    is not positive, ROBUST_SG and RANK1_SG through `rank_one_destabilizer`,
    and DUAL_SG on `adjoint(T)`.
    """
    est = spectral_radius(T)
    if est.perron_vector is None:
        return None
    x = project(cone, est.perron_vector)
    return x if _is_growth(T, cone, x, _decision_tol(est)) else None


def _unit_growth_vector(T, cone):
    """The `_growth_vector` scaled to unit norm, or None."""
    x = _growth_vector(T, cone)
    return None if x is None else x / vec_norm(x, cone.norm)


def _is_growth(T, cone, x, tol):
    """Is x a nonzero cone vector with dist(Tx - x, K) <= tol (a growth vector)?"""
    nonzero = contains(cone, x, DEFAULT_TOL) and np.any(x != 0.0)
    return bool(nonzero) and distance(cone, apply(T, x) - x) <= tol


def _growth_witness(T, cone, holds, note, negate=False):
    """None if `holds`; else the `_growth_vector` (negated for SUBFIXED_POS) with
    `note`, or a flag when there is none."""
    if holds:
        return None
    x = _growth_vector(T, cone)
    if x is None:
        est = spectral_radius(T)
        note = f"no cone vector with Tx >= x found; spectral bracket [{est.lower}, {est.upper}]"
        return Witness(kind="flag", note=note)
    return Witness(kind="cone_vector", vector=-x if negate else x, note=note)


def uniform_small_gain_margin(T, cone, rng=None):
    """Uniform small-gain margin eta = inf dist((T - I)x, cone) over unit cone vectors.

    Certified closed form when R = (I - T)^{-1} is positive: for y = (I - T)x
    on a self-dual cone, dist((T - I)x, K) = ||P_K y|| (Moreau) and x <= R P_K y,
    so with C = 1, eta = 1/||R||, a lower bound under l2, whose ||R|| is a
    certified upper bound.  x = Rv/||Rv|| from `_resolvent_norm`, which checks
    it, is the witness; no search runs.  Otherwise eta is the lowest value
    over search seeds, an upper bound on the infimum, and that seed is the
    witness; the seeds include the Perron vector, which is the
    `_growth_vector`.
    """
    if check_resolvent_positivity(T, cone).holds:
        norm, best_x = _resolvent_norm(T, cone)
        best_v = 1.0 / norm
    else:
        rng = np.random.default_rng(0) if rng is None else rng
        X = _cone_unit_rows(cone, _usg_seeds(T, cone, rng, 64))
        vals = batch_distance(cone, X @ (materialize(T) - np.eye(cone.dim)).T)
        i = int(np.argmin(vals))
        best_v, best_x = float(vals[i]), X[i].copy()
    eta_emp = max(best_v, 0.0)
    holds = eta_emp > _decision_tol(spectral_radius(T))
    witness = None if holds else Witness("cone_vector", best_x, note="dist((T-I)x, cone) ~ 0")
    return eta_emp, CriterionVerdict("UNIFORM_SG", holds, eta_emp, witness)


def _resolvent_norm(T, cone):
    """(||R||, x) for a positive R = (I - T)^{-1}, in the cone's norm, once per operator
    and cone: MBI's c, the uniform margin 1/||R|| and `small_gain_certificate` read it.

    ||R|| is one `batch_induced_norm` of R: the exact column or row sum under
    l1 and linf, and under l2 the certified upper bound, whose power steps on
    R^T R start at the interior point (R^T R maps K into K, so every iterate
    lies in K).  x = Rv/||Rv|| (read-only) for the cone vector v: a column of
    R of largest sum (l1), the ones vector (linf) or the refined power vector
    (l2).  Checked before anyone reads it, with Tx from `apply`, not R:
    ||Rv|| <= ||R|| within 1e-9 relative, and dist((T - I)x, K) ||Rv|| = 1
    within 1e-9, with ||R|| in place of ||Rv|| under l1 and linf, where v
    attains it.
    """

    def make():
        inv = _resolvent_inverse(T)
        (norm,), v = batch_induced_norm(inv[None], cone.norm, interior_point(cone))
        norm = float(norm)
        if cone.norm == "l1":
            v = np.eye(cone.dim)[int(np.argmax(np.abs(inv).sum(axis=0)))]
        elif cone.norm == "linf":
            v = np.ones(cone.dim)
        x = inv @ v
        rv = vec_norm(x, cone.norm)
        x /= rv
        x.setflags(write=False)
        at = float(distance(cone, apply(T, x) - x))
        tight = rv if cone.norm == "l2" else norm  # under l1 and linf v attains ||R||
        if abs(at * tight - 1.0) > 1e-9 or rv > norm * (1.0 + 1e-9):
            raise ArithmeticError(f"eta = {1.0 / norm!r} is not attained ({at!r}); internal error")
        return norm, x

    return _memo(T, ("resolvent_norm", cone), make)


def small_gain_certificate(T, cone):
    """Certified lower bound eta >= 1/(c*M), c = C ||(I - T)^{-1}|| the MBI constant
    (`_resolvent_norm`), or None when (I - T)^{-1} is not positive."""
    if not check_resolvent_positivity(T, cone).holds:
        return None
    consts = cone_constants(cone)
    return 1.0 / (consts.normality_C * _resolvent_norm(T, cone)[0] * consts.decomposition_M)


#: one step of `approximate_positive_eigenvector`: shift, unit cone vector, residual
ApproxEigStep = namedtuple("ApproxEigStep", "r x residual")


def approximate_positive_eigenvector(T, cone, n_steps=30):
    """Positive approximate eigenvector sequence from resolvent solves.

    Shifts follow the geometric schedule r_k = upper + 2^{-k} down towards
    the spectral bracket.  x_k is (r_k*I - T)^{-1} e, e the cone's interior
    point, from one unrefined LU solve with r_k*I - T, projected onto the
    cone and scaled to a unit vector; the reported residual measures
    ||(upper*I - T) x_k||.  The sequence stops early when the shift
    numerically enters the bracket or a solve is not finite.
    """
    upper = spectral_radius(T).upper
    a, e = materialize(T), interior_point(cone)
    steps = []
    for k in range(n_steps):
        r_k = upper + 2.0 ** (-k)
        if r_k - upper < max(1e-12 * max(1.0, upper), 1e-13):
            break
        x = project(cone, _shifted_lu(a, r_k)[1](e))  # projection commutes with positive scaling
        nx = vec_norm(x, cone.norm)
        if not (np.isfinite(nx) and nx > 0.0):
            break
        x = x / nx
        residual = vec_norm(apply(T, x) - upper * x, cone.norm)
        steps.append(ApproxEigStep(r_k, x, residual))
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


def rank_one_destabilizer(T, cone):
    """Rank-one positive P with ||P|| <= M' ||z|| and (T+P)x >= x, or None.

    Built from the unit `_growth_vector` x: split (T - I)x = y - z
    (`decompose`), take the dual functional z' of x and set P v = <z', v> z.
    Then (T+P)x - x = y + z(<z', x> - 1) >= 0 holds exactly, because
    <z', x> >= 1, and ||P|| (= ||z'|| ||z||) is as small as the residual of
    x.  Returns None when the spectral upper bound is < 1 (no small-norm
    destabilizer needs to exist there) or when there is no growth vector.
    """
    x = None if spectral_radius(T).upper < 1.0 else _unit_growth_vector(T, cone)
    if x is None:
        return None
    _, z = decompose(cone, apply(T, x) - x)
    zp = _dual_functional(cone, x)
    P = np.outer(z, zp)
    norm_p = vec_norm(zp, dual_norm(cone.norm)) * vec_norm(z, cone.norm)
    lhs = apply(T, x) + P @ x - x
    if not contains(cone, lhs, 1e-10):
        raise ArithmeticError("destabilizer construction failed to verify; internal error")
    return RankOneDestabilizer(P, x, norm_p, zp, z)


def robust_small_gain(T, cone, eps, eta_emp=None):
    """(T+P)x >= x impossible for every positive ||P|| <= eps?

    Holds when eps <= eta / 2 (distance argument): certified on both cones
    when (I - T)^{-1} is positive, where eta is the closed-form
    1/||(I - T)^{-1}|| of `uniform_small_gain_margin`.
    Otherwise it fails: with a verified pair (P, x) from
    `rank_one_destabilizer` (built from the shared growth vector) when
    ||P|| <= eps, else with a `flag` witness, as nothing certifies it.
    """
    if eta_emp is None:
        eta_emp, _ = uniform_small_gain_margin(T, cone)
    decision = _decision_tol(spectral_radius(T))
    if eta_emp > decision and eps <= 0.5 * eta_emp:
        return CriterionVerdict("ROBUST_SG", True, 0.5 * eta_emp - eps, None)
    cand = rank_one_destabilizer(T, cone)
    if cand is not None and cand.norm_p <= eps + 1e-10:
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
        "ROBUST_SG", False, 0.5 * eta_emp - eps, Witness(kind="flag", note="no violation found")
    )


def dual_small_gain(T, cone):
    """T'x' >= x' impossible for every nonzero positive functional x'?

    Holds iff the adjoint's spectral upper bound, which is T's (`adjoint`
    shares the bracket), is below 1.  Otherwise the witness is the
    `_growth_vector` of `adjoint(T)` on `cone` (both supported cones are
    self-dual), the adjoint's Perron functional scaled to unit l1.  It is
    emitted only if T'x' - x' lies in the cone within the default
    tolerance; else the witness is a flag that quotes the adjoint's bracket.
    """
    adj = adjoint(T)
    est_adj = spectral_radius(adj)
    holds = est_adj.upper < 1.0
    witness = None
    if not holds:
        xp = _growth_vector(adj, cone)
        if xp is not None:
            xp = xp / float(np.sum(np.abs(xp)))
            if contains(cone, apply(adj, xp) - xp, DEFAULT_TOL):
                note = "Perron functional of the adjoint: T'x' >= x'"
                witness = Witness(kind="dual_functional", functional=xp, note=note)
        if witness is None:
            witness = Witness(
                kind="flag",
                note=f"adjoint spectral bracket [{est_adj.lower}, {est_adj.upper}]: "
                "its upper end is not below 1; no positive functional with "
                "T'x' >= x' found",
            )
    return CriterionVerdict("DUAL_SG", holds, 1.0 - est_adj.point, witness)


def interior_small_gain(T, cone, z):
    """Largest eta such that no unit cone vector x satisfies Tx >= x - eta ||x|| z.

    Closed form when R = (I - T)^{-1} is positive: (I - T)x <= eta z forces
    x <= eta Rz, so with normality constant C = 1 (every supported pair)
    eta = 1/||Rz||, attained at x = Rz/||Rz||.  It is checked at x, with Tx
    from `apply`: (I - T)x = eta z within 1e-6 eta margin(z) + 1e-12 on both
    sides, one showing x feasible at eta, the other, with R >= 0, that no
    unit vector is feasible below it; a failure is an internal error.
    Without a positive inverse (spectral radius >= 1, or the solve was
    refused) eta = 0; the witness is the unit `_growth_vector`, feasible at
    eta = 0, or else the RESOLVENT_POS gate's own witness.
    """
    z = np.asarray(z, dtype=float)
    mz = float(margin(cone, z))
    if not mz > 0.0:
        raise ValueError("z must be an interior point of the cone")
    gate = check_resolvent_positivity(T, cone)
    if not gate.holds:
        x = _unit_growth_vector(T, cone)
        witness = gate.witness if x is None else Witness(
            "cone_vector", x, note="Tx >= x, feasible at eta = 0"
        )
        return 0.0, CriterionVerdict("INTERIOR_SG", False, 0.0, witness)
    rz = _resolvent_inverse(T) @ z
    eta = 1.0 / vec_norm(rz, cone.norm)
    x = eta * rz
    # margin measures against e = ones or the axis, and e <= z / margin(z):
    # a margin slack s is an eta slack s / margin(z)
    slack = 1e-6 * eta * mz + 1e-12
    gap = apply(T, x) - x + eta * z
    if margin(cone, gap) < -slack:
        raise ArithmeticError(f"Rz/||Rz|| is not feasible at eta = {eta!r}; internal error")
    if margin(cone, -gap) < -slack:
        raise ArithmeticError(f"(I - T)x falls short of eta z at eta = {eta!r}; internal error")
    holds = eta > DEFAULT_TOL
    witness = None if holds else Witness("cone_vector", x, note="feasible x at vanishing eta")
    return eta, CriterionVerdict("INTERIOR_SG", holds, eta, witness)


def strict_decay_point(T, cone, lam, y):
    """Point of strict decay z = (lam*I - T)^{-1} y with verified certificate.

    One unrefined `operators._shifted_lu` solve, checked as a certificate: (a)
    z >= y / lam, (b) realized, `operators._cw_bounds`' bound on the least t with
    Tz <= t z, is <= lam (rigorous for T >= 0 on the orthant), (c) z interior.
    A T that `is_positive` rejects raises ValueError: such a map need not
    have any interior z with Tz <= lam z.
    """
    est = spectral_radius(T)
    if not lam < 1.0:
        raise ValueError("lam must be < 1")
    guard = 1e-12 * max(1.0, est.upper)
    if lam <= est.upper + guard:
        raise SpectralProximityError(f"lam={lam} must exceed the spectral upper bound {est.upper}")
    y = np.asarray(y, dtype=float)
    if cone.dim != T.dim:
        raise DimensionMismatchError("cone and operator dimensions differ")
    if not is_positive(T, cone)[0]:
        raise ValueError("no strict decay point: T must be positive on the cone")
    if not is_interior(cone, y)[0]:
        raise ValueError("y must be an interior point of the cone")
    a = materialize(T)
    z = _shifted_lu(a, lam)[1](y)
    if not np.all(np.isfinite(z)):
        raise SpectralProximityError(f"strict decay solve at lam={lam} is not finite")
    if not contains(cone, z - y / lam, 1e-10):
        raise ArithmeticError("certificate failed: z >= y/lam does not hold; internal error")
    realized = _cw_bounds(a, z, cone)[1]
    if not realized <= lam:
        raise ArithmeticError("certificate failed: Tz <= lam*z does not hold; internal error")
    _, margin = is_interior(cone, z)
    return StrictDecayCertificate(z=z, lam=lam, realized_lambda=realized, interior_margin=margin)


def quasi_compact_suite(T, cone, rng=None):
    """Finite-dimensional instances of the quasi-compact criteria.

    In finite dimension SIMPLE_SG and SUBFIXED_POS follow from the Perron
    pair, and strong stability and weak attractivity are uniform
    exponential stability: both hold iff `geometric_envelope` certifies
    ||T^k|| <= M a^k, a = `_decay_rate(T)` < 1, from the ISS power-norm table.
    Failing verdicts carry the shared `_growth_vector`.  Falsification:
    32 unit interior starts at k = 1, 2, 4, ..., 2^J on a `_doubling` chain
    of T's squares, up to the first M a^(2^J) <= 1e-9 (2^8 when failing) or
    a sample above 1e280 or not finite; a start above 1e-6 at 2^J under an
    envelope, or a growth vector while every start decays, is an internal
    error.  The chain also carries, each with its own stop rule, Smith's
    doubling for `solve_stein` and the Neumann probe of `_resolvent_inverse`
    (`_stein_rider`, `operators._inverse_rider`), which read them from T.
    """
    est = spectral_radius(T)
    rng = np.random.default_rng(0) if rng is None else rng
    simple = (est.point < 1.0) if est.perron_value is not None else est.upper < 1.0
    sub_note = "sub-fixed vector T(-x) <= -x that is not positive"
    simple_wit = _growth_witness(T, cone, simple, "Perron vector with Tx >= x")
    sub_wit = _growth_witness(T, cone, simple, sub_note, negate=True)
    verdicts = [
        CriterionVerdict("SIMPLE_SG", simple, 1.0 - est.point, simple_wit),
        CriterionVerdict("SUBFIXED_POS", simple, 1.0 - est.point, sub_wit),
    ]
    a_env = _decay_rate(T)
    env = geometric_envelope(T, a_env, cone.norm)
    holds, last = env is not None, 8
    if holds:
        last, r = 0, a_env  # r = a^(2^J); J <= 64 for every float a < 1 and finite M
        while env[0] * r > 1e-9 and last < 64:
            last, r = last + 1, r * r
    X = random_points(cone, rng, 32, interior=True)
    X /= batch_vec_norm(X, cone.norm)[:, None]
    fracs = [np.ones(len(X))]  # k = 0, then k = 2^j for j = 0, 1, ...

    def sample(j, p):
        fracs.append(np.nan_to_num(batch_vec_norm(X @ p.T, cone.norm), nan=np.inf))
        return j < last and fracs[-1].max() <= 1e280

    riders = [r for r in (_stein_rider(T), _inverse_rider(T)) if r is not None]
    _doubling(apply(T, np.eye(T.dim)), [sample, *riders])
    worst, least = float(fracs[-1].max()), np.min(fracs, axis=0)
    if (worst > 1e-6) if holds else (worst <= 1e-6 and _growth_vector(T, cone) is not None):
        raise ArithmeticError(
            f"envelope verdict holds={holds}, but the worst sampled start keeps {worst!r} "
            f"of its norm at k = {2 ** (len(fracs) - 2)}; internal error"
        )
    strong_wit = _growth_witness(T, cone, holds, "Perron vector with Tx >= x: T^k x does not decay")
    weak_wit = _growth_witness(T, cone, holds, "Perron vector with Tx >= x: inf_k ||T^k x|| > 0")
    return verdicts + [
        CriterionVerdict("STRONG_STAB", holds, 1.0 - worst, strong_wit),
        CriterionVerdict("WEAK_ATTR", holds, 1.0 - float(least.max()), weak_wit),
    ]


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
    boundary_band: float = 0.02
    seed: int = 0


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
    # stream 0 is unused: positivity samples the fixed rays that gate the
    # spectral bracket, so both agree; streams 1 and 3 are unused since MBI and
    # INTERIOR_SG are checked in closed form; stream 2 feeds USG's seeds, drawn only
    # where (I - T)^{-1} is not positive; streams 2 and 4 keep their seeds
    streams = np.random.SeedSequence(cfg.seed).spawn(5)
    rngs = [np.random.default_rng(s) for s in streams]
    est = spectral_radius(T)
    spr_hat = est.point
    notes = list(extra_notes)
    positive, pos_witness = is_positive(T, cone)
    spr_holds = bool(est.upper < 1.0)
    spr_note = "Perron vector: T x >= x up to the reported residual"
    spr_witness = _growth_witness(T, cone, spr_holds, spr_note)
    verdicts = [CriterionVerdict("SPR", spr_holds, 1.0 - spr_hat, spr_witness)]

    if positive:
        if cone.kind == "lorentz":
            notes.append(
                "positivity on the Lorentz cone, and therefore the spectral bracket, "
                "is a randomized certificate"
            )

        # first: its chain of T's squares also runs the inverse's Neumann probe and Stein's series
        quasi_v = quasi_compact_suite(T, cone, rng=rngs[4])
        res_v = check_resolvent_positivity(T, cone)
        _, mbi_v = mbi_constant(T, cone)
        eta_emp, usg_v = uniform_small_gain_margin(T, cone, rng=rngs[2])
        dual_v = dual_small_gain(T, cone)
        _, isg_v = interior_small_gain(T, cone, interior_point(cone))

        if mbi_v.holds:
            eta_cert = small_gain_certificate(T, cone)
            notes.append(f"eta certified >= {eta_cert:.6e} (= 1/(c*M)); eta empirical = {eta_emp:.6e}")
        decision = _decision_tol(est)
        eps = 0.5 * eta_emp if eta_emp > decision else 1e-3
        # RANK1_SG is decided by the same rank-one construction as ROBUST_SG
        robust_v = robust_small_gain(T, cone, eps, eta_emp=eta_emp)
        rank1_v = replace(robust_v, id="RANK1_SG")
        try:
            cert = strict_decay_point(T, cone, _decay_rate(T), interior_point(cone))
            lam = cert.realized_lambda
            note = "interior z with Tz <= lam*z"
            sd_wit = Witness("strict_decay_pair", cert.z, lam=lam, note=note)
            sd_v = CriterionVerdict("STRICT_DECAY", True, 1.0 - lam, sd_wit)
        except (SpectralProximityError, ValueError, ArithmeticError):
            sd_wit = Witness(kind="flag", note="no admissible lambda below 1")
            sd_v = CriterionVerdict("STRICT_DECAY", False, 1.0 - est.upper, sd_wit)
        verdicts.extend([res_v, mbi_v, usg_v, robust_v, rank1_v, dual_v, isg_v, sd_v])
        verdicts.extend(quasi_v)
    else:
        note = "operator is not positive on the given cone; order-based criteria skipped"
        if pos_witness is not None:
            note += f" (violating direction {np.round(pos_witness, 6).tolist()})"
        notes.append(note)

    consensus = consensus_of(verdicts, spr_hat, cfg.boundary_band)

    lyapunov_section = iss_section = None
    if est.upper < 1.0:
        stein = lyap_mod.solve_stein(T)
        norm_cert = lyap_mod.equivalent_norm(T, cone)
        lyapunov_section = {
            "stein_residual": float(stein.residual),
            "stein_tail_bound": float(stein.tail_bound),
            "Q": np.asarray(stein.Q, dtype=float).tolist(),
            "equivalent_norm": norm_cert.to_dict(),
        }
        iss_section = iss_mod.iss_constants(T, norm=cone.norm).to_dict()

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


def reverify_witness(T, cone, verdict):
    """Independently re-check the witness of a failing verdict.

    Returns True when the witness reproduces the claimed violation; used
    by the test-suite and callers that audit reports.  A `flag` is accepted
    unchecked: it claims no violation, only that none was found or that
    the computation was refused.  A `strict_decay_pair` certifies decay, so
    on a failing verdict it is rejected, as is any kind not listed here.
    """
    w, tol = verdict.witness, DEFAULT_TOL
    if w is None or verdict.holds:
        return True
    if w.kind == "flag":
        return True
    if w.kind == "cone_vector" and w.vector is not None:
        x = np.asarray(w.vector, dtype=float)
        if verdict.id in ("SUBFIXED_POS", "RESOLVENT_POS", "MBI"):
            # (I - T)x in K while x is not: x is the negated growth vector, or
            # (Lorentz) the image of a cone ray under (I - T)^{-1}, which MBI
            # carries when the positivity gate fails
            slack = tol * (1.0 + float(np.max(np.abs(x))))
            return contains(cone, x - apply(T, x), slack) and not contains(cone, x, 0.0)
        # SPR, SIMPLE_SG, UNIFORM_SG, INTERIOR_SG, STRONG_STAB, WEAK_ATTR: Tx >= x
        # up to 1e-6, checked as x, not |x|, so a negated witness fails
        return _is_growth(T, cone, x, 1e-6)
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
    return False

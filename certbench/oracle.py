"""Independent checks of posstab outputs.

Nothing here imports posstab.  Each check recomputes what the output
claims with numpy/scipy (LAPACK eigenvalues, SVD norms, scipy's Stein
solver, numpy's inverse) or tests a property the method must have.  A
check returns a list of failure messages; an empty list means it passed.
The slacks are derived in README.md.
"""

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

EPS = float(np.finfo(float).eps)

#: cross_check defaults that the certify ops run with
BAND = 0.02
DECISION_TOL = 1e-9

#: norm of a trajectory state below which a start counts as decayed
DECAYED = 1e-6

#: relative accuracy that posstab documents for its l2 power-method norm
#: (norms.induced_norm); claims built on l2 norms get this much slack
L2_RTOL = 1e-12

_ORD = {"l1": 1, "l2": 2, "linf": np.inf}


def vec_norm(x, norm):
    return float(np.linalg.norm(np.asarray(x, dtype=float), ord=_ORD[norm]))


def mat_norm(a, norm):
    """Exact induced norm: column/row sums, or the largest singular value."""
    return float(np.linalg.norm(a, ord=_ORD[norm]))


def cone_margin(cone, x):
    """>= 0 exactly when x lies in the cone."""
    x = np.asarray(x, dtype=float)
    if cone == "orthant":
        return float(np.min(x))
    return float(x[0] - np.linalg.norm(x[1:]))


def cone_distance(cone, norm, x):
    """Distance from x to the cone (Lorentz: l2 only)."""
    x = np.asarray(x, dtype=float)
    if cone == "orthant":
        return vec_norm(np.minimum(x, 0.0), norm)
    t, r = float(x[0]), float(np.linalg.norm(x[1:]))
    if r <= t:
        return 0.0
    if r <= -t:
        return float(np.linalg.norm(x))
    return (r - t) / np.sqrt(2.0)


def fp_slack(n, scale):
    """10 gamma_n times the magnitude of a length-n dot product (Higham, Thm 3.5)."""
    return 10.0 * n * EPS * scale


def _l2_upper(p, v, max_steps=40):
    """(upper bound on ||p||_2, refined right singular vector).

    A power step on B = p^T p gives theta = ||p v||^2 and r = ||B v - theta v||.
    Some eigenvalue of B lies within r of theta, the others sum to at most
    trace(B) - theta + r, so when trace(B) <= 2 theta the largest one is at
    most theta + r.  If that test or the residual does not settle, the
    value is taken from the SVD.
    """
    fro2 = float(np.sum(p * p))
    for _ in range(max_steps):
        w = p @ v
        theta = float(w @ w)
        g = p.T @ w
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            break
        r = float(np.linalg.norm(g - theta * v))
        if fro2 <= 2.0 * theta and r <= 1e-12 * theta:
            return float(np.sqrt(theta + r)), g / gn
        v = g / gn
    return mat_norm(p, "l2"), v


class Reference:
    """Reference quantities of one matrix, computed once and reused."""

    def __init__(self, matrix):
        self.a = np.asarray(matrix, dtype=float)
        self.n = self.a.shape[0]
        self.rho = float(np.max(np.abs(np.linalg.eigvals(self.a))))
        self.norm2 = mat_norm(self.a, "l2")
        self._powers = {}
        self._stein = None

    def power_norms(self, norm, K):
        """Upper bounds on ||T^k|| for k = 0..K (exact for l1/linf).

        Powers are formed by repeated multiplication.
        """
        start = ([1.0], np.eye(self.n), np.ones(self.n) / np.sqrt(self.n))
        vals, p, v = self._powers.get(norm, start)
        for _ in range(len(vals), K + 1):
            p = p @ self.a
            if norm == "l2":
                nv, v = _l2_upper(p, v)
            else:
                nv = mat_norm(p, norm)
            vals.append(nv)
        self._powers[norm] = (vals, p, v)
        return np.array(vals[: K + 1])

    def stein(self):
        """Q with T^T Q T - Q = -I from scipy."""
        if self._stein is None:
            self._stein = solve_discrete_lyapunov(self.a.T, np.eye(self.n))
        return self._stein


def expected_consensus(rho):
    if rho < 1.0 - BAND:
        return "STABLE"
    if rho > 1.0 + BAND:
        return "UNSTABLE"
    return "BOUNDARY"


def check_spectral(ref, report):
    spec = report["spectral"]
    s = fp_slack(ref.n, ref.norm2) * 10.0
    if not spec["lower"] - s <= ref.rho <= spec["upper"] + s:
        return [f"bracket [{spec['lower']!r}, {spec['upper']!r}] misses rho = {ref.rho!r}"]
    return []


def check_consensus(ref, report):
    want = expected_consensus(ref.rho)
    fails = []
    if report["consensus"] != want:
        fails.append(f"consensus {report['consensus']} but rho = {ref.rho:.6g} gives {want}")
    if want != "BOUNDARY":
        stable = ref.rho < 1.0
        for v in report["criteria"]:
            if v["holds"] != stable:
                fails.append(f"{v['id']} holds={v['holds']} but rho = {ref.rho:.6g}")
    return fails


def _decision_tol(report):
    """The report's decision tolerance: max(tol, 10 * Perron residual)."""
    res = report["spectral"].get("residual", 0.0)
    return max(DECISION_TOL, 10.0 * (res if np.isfinite(res) else 0.0))


def _claims_growth(ref, cone, norm, x, tol):
    """x is a nonzero cone vector with dist(Tx - x, cone) <= tol."""
    fails = []
    nx = vec_norm(x, norm)
    if nx == 0.0:
        return ["witness vector is zero"]
    if cone_margin(cone, x) < -fp_slack(ref.n, nx):
        fails.append("witness vector lies outside the cone")
    d = cone_distance(cone, norm, ref.a @ x - x)
    if d > tol + fp_slack(ref.n, ref.norm2 * nx + nx):
        fails.append(f"dist(Tx - x, cone) = {d:.3e} exceeds {tol:.3e}")
    return fails


def check_witness(ref, cone, norm, report, verdict):
    """Check one failing verdict's witness by its kind."""
    w = verdict["witness"]
    if w is None or w["kind"] == "flag":
        return []
    vid, kind = verdict["id"], w["kind"]
    n, a = ref.n, ref.a
    tag = f"{vid} {kind}: "
    if kind == "cone_vector":
        x = np.asarray(w["vector"])
        nx = vec_norm(x, norm)
        # sqrt(n) converts the inf-norm Perron residual and covers the norm
        # of the interior point used by the interior search
        growth_tol = _decision_tol(report) * np.sqrt(n)
        if vid in ("SPR", "UNIFORM_SG", "INTERIOR_SG", "SIMPLE_SG"):
            return [tag + f for f in _claims_growth(ref, cone, norm, x, growth_tol)]
        if vid == "SUBFIXED_POS":
            fails = _claims_growth(ref, cone, norm, -x, growth_tol)
            if cone_margin(cone, x) >= 0.0:
                fails.append("sub-fixed vector lies in the cone")
            return [tag + f for f in fails]
        if vid in ("STRONG_STAB", "WEAK_ATTR"):
            fails = []
            if cone_margin(cone, x) < -1e-9 * nx:
                fails.append("trajectory state left the cone")
            if not nx > DECAYED:
                fails.append(f"trajectory state has decayed (norm {nx:.3e})")
            return [tag + f for f in fails]
        if vid in ("RESOLVENT_POS", "MBI") and cone == "lorentz":
            # image of a cone ray under (I - T)^{-1}: v outside, (I - T) v inside
            fails = []
            if cone_margin(cone, x) >= 0.0:
                fails.append("claimed image lies in the cone")
            y = x - a @ x
            if cone_margin(cone, y) < -fp_slack(n, (ref.norm2 + 1.0) * nx):
                fails.append("(I - T) v is not a cone vector")
            return [tag + f for f in fails]
        return [tag + "no independent check for this witness"]
    if kind == "column":
        v = np.asarray(w["vector"])
        fails = []
        if cone_margin(cone, v) >= 0.0:
            fails.append("column lies in the cone")
        e = np.zeros(n)
        e[int(w["column"])] = 1.0
        resid = float(np.max(np.abs(v - a @ v - e)))
        if resid > 1e-8 * (1.0 + float(np.max(np.abs(v)))):
            fails.append(f"vector is not column {w['column']} of (I - T)^-1 (residual {resid:.3e})")
        return [tag + f for f in fails]
    if kind == "rank_one_perturbation":
        x, z, zp = (np.asarray(w[k]) for k in ("vector", "z", "z_prime"))
        fails = []
        for label, vec in (("z", z), ("z'", zp)):
            if cone_margin(cone, vec) < -fp_slack(n, vec_norm(vec, "linf")):
                fails.append(f"{label} lies outside the cone")
        lhs = a @ x + z * float(zp @ x) - x
        nx = vec_norm(x, "l2")
        scale = (ref.norm2 + 1.0 + vec_norm(z, "l2") * vec_norm(zp, "l2")) * nx
        if cone_margin(cone, lhs) < -(1e-10 + fp_slack(n, scale)):
            fails.append("(T + z z'^T) x - x lies outside the cone")
        return [tag + f for f in fails]
    if kind == "dual_functional":
        xp = np.asarray(w["functional"])
        slack = DECISION_TOL + fp_slack(n, (ref.norm2 + 1.0) * vec_norm(xp, "l2"))
        if cone_margin(cone, a.T @ xp - xp) < -slack:
            return [tag + "T^T x' - x' lies outside the cone"]
        return []
    return [tag + "unknown witness kind"]


def check_strict_decay(ref, cone, verdict):
    w = verdict["witness"]
    if not verdict["holds"] or w is None or w["kind"] != "strict_decay_pair":
        return []
    z, lam = np.asarray(w["vector"]), float(w["lambda"])
    fails = []
    if not lam < 1.0:
        fails.append(f"strict decay lambda = {lam!r} is not below 1")
    if not cone_margin(cone, z) > 0.0:
        fails.append("strict decay point z is not interior")
    resid = lam * z - ref.a @ z
    if cone_margin(cone, resid) < -fp_slack(ref.n, (ref.norm2 + 1.0) * vec_norm(z, "l2")):
        fails.append("lambda z - T z lies outside the cone")
    return ["STRICT_DECAY: " + f for f in fails]


def check_mbi(ref, cone, norm, verdict):
    if not verdict["holds"]:
        return []
    amb = np.eye(ref.n) - ref.a
    inv = np.linalg.inv(amb)
    # C_normality is 1 for the orthant under l1/l2/linf and for the
    # self-dual Lorentz cone under l2
    want = mat_norm(inv, norm)
    rel = fp_slack(ref.n, np.linalg.cond(amb)) + (L2_RTOL if norm == "l2" else 0.0)
    if verdict["margin"] < want * (1.0 - rel):
        return [f"MBI: c = {verdict['margin']!r} below ||(I-T)^-1|| = {want!r}"]
    return []


def check_lyapunov(ref, norm, section):
    if section is None:
        return []
    fails = []
    q = np.asarray(section["Q"])
    qref = ref.stein()
    gap = float(np.max(np.abs(q - qref)))
    scale = float(np.max(np.abs(qref)))
    # relative condition of the Stein solve is about ||Q||; the series may
    # also miss its own reported tail
    allowed = section["stein_tail_bound"] + 100.0 * ref.n * EPS * scale * np.linalg.norm(qref, 2)
    if gap > allowed:
        fails.append(f"Stein Q differs from scipy by {gap:.3e} (allowed {allowed:.3e})")
    eq = section["equivalent_norm"]
    s, K = float(eq["s"]), int(eq["K"])
    if not s * ref.rho < 1.0:
        fails.append(f"equivalent norm: s * rho = {s * ref.rho!r} >= 1")
    val = s**K * mat_norm(np.linalg.matrix_power(ref.a, K), norm)
    if not val < 1.0 + fp_slack(ref.n, K):
        fails.append(f"equivalent norm: s^K ||T^K|| = {val!r} is not below 1 (K = {K})")
    return fails


def check_iss(ref, section):
    """||T^k|| <= M a^k for k <= K and C >= sum_k ||T^k||, with exact norms."""
    if section is None:
        return []
    M, a, C, K, norm = (section[k] for k in ("M", "a", "C", "K", "norm"))
    fails = []
    if not ref.rho < a < 1.0:
        fails.append(f"ISS rate a = {a!r} not in (rho, 1) with rho = {ref.rho!r}")
        return fails
    pn = ref.power_norms(norm, int(K))
    k = np.arange(len(pn))
    rel = fp_slack(ref.n, k + 1.0) + (L2_RTOL if norm == "l2" else 0.0)
    bad = np.nonzero(pn > M * a**k * (1.0 + rel))[0]
    if bad.size:
        j = int(bad[0])
        fails.append(f"ISS: ||T^{j}|| = {float(pn[j])!r} exceeds M a^{j} = {float(M * a**j)!r}")
    total = float(np.sum(pn))
    if C < total * (1.0 - fp_slack(ref.n, K + 1.0) - (L2_RTOL if norm == "l2" else 0.0)):
        fails.append(f"ISS: C = {float(C)!r} below sum_k ||T^k|| = {total!r} (K = {K})")
    return fails


def check_certify(ref, cone, norm, report):
    """Every check on one cross_check report (as produced by to_dict)."""
    fails = check_spectral(ref, report) + check_consensus(ref, report)
    for v in report["criteria"]:
        if not v["holds"]:
            fails += check_witness(ref, cone, norm, report, v)
        if v["id"] == "STRICT_DECAY":
            fails += check_strict_decay(ref, cone, v)
        if v["id"] == "MBI":
            fails += check_mbi(ref, cone, norm, v)
    fails += check_lyapunov(ref, norm, report["lyapunov"])
    fails += check_iss(ref, report["iss"])
    return fails


def check_simulate(ref, x0, u, K, out):
    """States against our own recurrence, the ISS bound along the trajectory,
    the ISS constants, and verify_iss_bound's verdict."""
    fails = []
    states = np.asarray(out["states"])
    if states.shape != (K + 1, ref.n):
        return [f"states have shape {states.shape}, expected {(K + 1, ref.n)}"]
    x = np.array(x0, dtype=float)
    want = np.empty_like(states)
    want[0] = x
    for k in range(K):
        x = ref.a @ x + u[k]
        want[k + 1] = x
    gap = np.abs(states - want).max(axis=1)
    bad = np.nonzero(gap > 1e-9 * (1.0 + np.abs(want).max(axis=1)))[0]
    if bad.size:
        fails.append(f"state {int(bad[0])} differs from the recurrence by {gap[bad[0]]:.3e}")
    iss = out["iss"]
    fails += check_iss(ref, iss)
    norm = iss["norm"]
    xn = np.array([vec_norm(s, norm) for s in want])
    un = max(vec_norm(row, norm) for row in u[:K])
    k = np.arange(K + 1)
    bound = iss["M"] * iss["a"] ** k * vec_norm(x0, norm) + iss["C"] * un
    over = np.nonzero(xn > bound * (1.0 + 1e-12) + 1e-12)[0]
    if over.size:
        fails.append(f"||x({int(over[0])})|| exceeds M a^k ||x0|| + C ||u||")
    if out["verified"] is not True:
        fails.append("verify_iss_bound rejected certified constants")
    return fails

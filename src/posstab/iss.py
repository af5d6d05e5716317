"""Systems with inputs x(k+1) = T x(k) + u(k): simulation, ISS constants,
input-class response checks and the summability (Datko) test.

Simulation always runs two routes -- the recurrence and the convolution
solution formula x(k+1) = T^{k+1} x(0) + sum_j T^{k-j} u(j) -- and treats
any disagreement as an internal error.  Convergence classifications over
a finite horizon are necessarily heuristic; their thresholds are fixed
constants and the spectral criterion stays the authority.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NoISSEstimateError
from .norms import batch_vec_norm, vec_norm
from .operators import geometric_envelope, materialize, power_norms, spectral_radius

#: a dyadic block contributing less than this fraction counts as converged
DYADIC_BLOCK_FRACTION = 0.10

#: dyadic block-sum ratio below which an lp response counts as converged
BLOCK_RATIO_CONVERGENT = 0.9


@dataclass
class InputSignal:
    """Finite input sequence with a declared class ("lp" | "linf" | "c0").

    The declared class is metadata only; response checks re-classify the
    actual state sequence empirically.
    """

    values: np.ndarray
    declared_class: str = "linf"
    p: float | None = None

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.values, dtype=float))
        if self.declared_class not in ("lp", "linf", "c0"):
            raise ValueError(f"unknown input class {self.declared_class!r}")
        if self.declared_class == "lp":
            if self.p is None or self.p < 1.0:
                raise ValueError("lp inputs need p >= 1")
        self.values = v

    def __len__(self):
        return self.values.shape[0]

    @property
    def dim(self):
        return self.values.shape[1]

    def to_dict(self):
        d = {
            "class": self.declared_class,
            "values": [[float(v) for v in row] for row in self.values],
        }
        if self.p is not None:
            d["p"] = float(self.p)
        return d


def input_from_dict(d):
    return InputSignal(
        values=np.asarray(d["values"], dtype=float),
        declared_class=d.get("class", "linf"),
        p=d.get("p"),
    )


@dataclass
class Trajectory:
    states: np.ndarray  # (K+1, n)
    norms: np.ndarray  # (K+1,)
    norm: str

    def __len__(self):
        return self.states.shape[0]


def simulate(T, x0, u, K=None, norm="linf", check_tol=1e-10):
    """Trajectory of x(k+1) = T x(k) + u(k) for k < K.

    Both the recurrence and the convolution formula are evaluated and must
    agree at every step within `check_tol` relative slack; a disagreement
    raises ArithmeticError and must never happen.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (T.dim,):
        raise DimensionMismatchError(f"x0 must have shape ({T.dim},)")
    if isinstance(u, InputSignal):
        uv = u.values
    else:
        uv = np.atleast_2d(np.asarray(u, dtype=float))
    if uv.shape[1] != T.dim:
        raise DimensionMismatchError("input vectors must match the state dimension")
    if K is None:
        K = uv.shape[0]
    if K > uv.shape[0]:
        raise ValueError("K exceeds the available input length")
    a = materialize(T)
    n = T.dim
    states = np.empty((K + 1, n))
    states[0] = x0
    for k in range(K):
        states[k + 1] = a @ states[k] + uv[k]
    # independent route: powers of T applied to x0 and convolved with u
    powers = [np.eye(n)]
    for _ in range(K):
        powers.append(a @ powers[-1])
    for k in range(K):
        conv = powers[k + 1] @ x0
        for j in range(k + 1):
            conv = conv + powers[k - j] @ uv[j]
        gap = float(np.linalg.norm(conv - states[k + 1]))
        if gap > check_tol * (1.0 + float(np.linalg.norm(states[k + 1]))):
            raise ArithmeticError(
                f"recurrence and convolution formulas disagree at step {k + 1} "
                f"(gap {gap:.3e}); this is an internal error"
            )
    norms = batch_vec_norm(states, norm)
    return Trajectory(states=states, norms=norms, norm=norm)


@dataclass
class ISSEstimate:
    """Constants of ||x(k)|| <= M a^k ||x(0)|| + C ||u||_inf in the named norm."""

    M: float
    a: float
    C: float
    tail_bound: float
    norm: str
    K: int

    def to_dict(self):
        return {
            "M": float(self.M),
            "a": float(self.a),
            "C": float(self.C),
            "tail_bound": float(self.tail_bound),
            "norm": self.norm,
            "K": int(self.K),
        }


def iss_constants(T, norm="linf", tail_tol=1e-10, max_k=100000):
    """Certified ISS constants: a = (upper+1)/2, M from the geometric
    envelope of the power norms, C = partial sum of ||T^k|| plus the
    geometric tail bound M a^{K+1} / (1-a)."""
    est = spectral_radius(T)
    if est.upper >= 1.0:
        raise NoISSEstimateError(
            f"no ISS estimate: spectral upper bound {est.upper} >= 1"
        )
    a_rate = 0.5 * (est.upper + 1.0)
    env = geometric_envelope(T, a_rate, norm=norm, max_m=max_k)
    if env is None:
        raise NoISSEstimateError("failed to certify a geometric envelope")
    m_const, m_len = env
    # extend the partial sum until the geometric tail is below tolerance
    k_needed = int(np.ceil(np.log(tail_tol * (1.0 - a_rate) / max(m_const, 1e-300)) / np.log(a_rate)))
    K = int(np.clip(max(k_needed, m_len, 8), 1, max_k))
    pn = power_norms(T, K, norm=norm)
    partial = float(np.sum(pn.values))
    tail = m_const * a_rate ** (len(pn.values)) / (1.0 - a_rate)
    m_emp = float(np.max(pn.values / a_rate ** np.arange(len(pn.values))))
    m_final = max(m_const, m_emp, 1.0)
    return ISSEstimate(
        M=m_final, a=a_rate, C=partial + tail, tail_bound=tail, norm=norm, K=len(pn.values) - 1
    )


def verify_iss_bound(T, est, trials=100, K=100, rng=None, tol=1e-8, input_bound=1.0):
    """Check ||x(k)|| <= M a^k ||x0|| + C ||u||_inf on random trials.

    Trials are batched through the same recurrence arithmetic as
    `simulate`; the bound must hold at every step of every trial.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    a = materialize(T)
    n = T.dim
    X = rng.normal(size=(trials, n))
    U = rng.uniform(-input_bound, input_bound, size=(K, trials, n))
    x0n = batch_vec_norm(X, est.norm)
    un = np.array([np.max(batch_vec_norm(U[:, t, :], est.norm)) for t in range(trials)])
    cur = X.copy()
    for k in range(K + 1):
        xn = batch_vec_norm(cur, est.norm)
        bound = est.M * est.a**k * x0n + est.C * un + tol
        if np.any(xn > bound):
            return False
        if k < K:
            cur = cur @ a.T + U[k]
    return True


@dataclass
class ResponseClassification:
    mode: str
    verdict: str
    detail: dict

    def to_dict(self):
        return {"mode": self.mode, "verdict": self.verdict, "detail": self.detail}


def _dyadic_blocks(series):
    """Sums of the series over complete blocks [2^{j-1}, 2^j).

    Incomplete trailing blocks are dropped: a truncated block would fake a
    small ratio and misclassify growing responses.
    """
    sums = []
    j = 1
    while 2**j <= len(series):
        lo, hi = 2 ** (j - 1), 2**j
        sums.append(float(np.sum(series[lo:hi])))
        j += 1
    return sums


def response_class_check(T, u, mode, est=None, rng=None, ag_eps=1e-3, norm="linf", horizon=None):
    """Classify the state response for an input class; reported, not asserted.

    modes: "lp" (summability of ||x||^p), "linf" (boundedness), "c0"
    (decay of the tail), "ag" (time to enter the asymptotic-gain tube
    eps + C ||u||_inf).  The canonical run starts at x0 = 0; one random
    start is run alongside and reported in the detail.
    """
    mode = mode.lower()
    if mode not in ("lp", "linf", "c0", "ag"):
        raise ValueError(f"unknown response mode {mode!r}")
    if not isinstance(u, InputSignal):
        u = InputSignal(values=u)
    rng = np.random.default_rng(0) if rng is None else rng
    n = T.dim
    H = horizon if horizon is not None else max(2 * len(u), 128)
    uv = np.zeros((H, n))
    uv[: len(u)] = u.values
    a = materialize(T)

    def run(x0):
        states = np.empty((H + 1, n))
        states[0] = x0
        for k in range(H):
            states[k + 1] = a @ states[k] + uv[k]
        return batch_vec_norm(states, norm)

    norms0 = run(np.zeros(n))
    norms_r = run(rng.normal(size=n))
    detail = {"horizon": H}

    if mode == "lp":
        p = u.p if u.p is not None else 1.0
        series = norms0**p
        blocks = _dyadic_blocks(series)
        detail["partial_sum"] = float(np.sum(series))
        detail["dyadic_blocks"] = blocks
        if len(blocks) >= 2 and blocks[-2] > 0:
            ratio = blocks[-1] / blocks[-2]
        else:
            ratio = 0.0
        detail["block_ratio"] = ratio
        if ratio < BLOCK_RATIO_CONVERGENT:
            verdict = "convergent"
        elif ratio > 1.0 + 1e-9:
            verdict = "divergent"
        else:
            verdict = "divergent" if blocks[-1] >= blocks[0] else "inconclusive"
    elif mode == "linf":
        sup = float(norms0.max())
        head = float(norms0[: max(H // 4, 1)].max())
        tail = float(norms0[3 * H // 4 :].max())
        growing = tail > 1.5 * head + 1e-12
        detail["sup"] = sup
        detail["growth_flag"] = bool(growing)
        verdict = "growing" if growing else "bounded"
    elif mode == "c0":
        quarters = [float(norms0[i * (H // 4) : (i + 1) * (H // 4)].max()) for i in range(4)]
        peak = max(quarters)
        detail["window_maxima"] = quarters
        verdict = (
            "converges_to_zero"
            if peak == 0.0 or quarters[-1] <= 0.25 * peak + 1e-12
            else "not_vanishing"
        )
    else:  # ag
        iss_est = est if est is not None else iss_constants(T, norm=norm)
        tube = ag_eps + iss_est.C * float(np.max(batch_vec_norm(uv, norm)))
        inside = norms_r <= tube  # the "with initial value" statement
        t_eps = None
        for k in range(len(inside) - 1, -1, -1):
            if not inside[k]:
                t_eps = k + 1
                break
        t_eps = 0 if t_eps is None else t_eps
        detail["T_eps"] = int(t_eps) if t_eps <= H else None
        detail["tube"] = tube
        verdict = "satisfied" if t_eps <= H else "not_reached"

    detail["random_start_final_over_peak"] = float(
        norms_r[-1] / max(float(norms_r.max()), 1e-300)
    )
    return ResponseClassification(mode=mode, verdict=verdict, detail=detail)


@dataclass
class DatkoResult:
    classification: str
    dyadic_sums: list
    total: float
    last_block_fraction: float
    terms_nondecreasing: bool

    def to_dict(self):
        return {
            "classification": self.classification,
            "dyadic_sums": [float(s) for s in self.dyadic_sums],
            "total": float(self.total),
            "last_block_fraction": float(self.last_block_fraction),
            "terms_nondecreasing": bool(self.terms_nondecreasing),
        }


def datko_test(T, x, p, K=64, norm="linf"):
    """Summability test: partial sums of ||T^k x||^p at dyadic checkpoints.

    Classified convergent when the last dyadic block contributes less than
    10% of the total and the per-term trend decreases; divergent when the
    terms are non-decreasing over the last block; inconclusive otherwise.
    """
    if p < 1.0:
        raise ValueError("p must be >= 1")
    x = np.asarray(x, dtype=float)
    if x.shape != (T.dim,):
        raise DimensionMismatchError(f"x must have shape ({T.dim},)")
    a = materialize(T)
    terms = np.empty(K + 1)
    cur = x.copy()
    for k in range(K + 1):
        terms[k] = vec_norm(cur, norm) ** p
        if k < K:
            cur = a @ cur
    total = float(np.sum(terms))
    checkpoints = []
    j = 0
    while 2**j <= K:
        checkpoints.append(float(np.sum(terms[: 2**j + 1])))
        j += 1
    checkpoints.append(total)
    half = K // 2
    last_block = float(np.sum(terms[half + 1 :]))
    frac = last_block / total if total > 0 else 0.0
    tail = terms[half:]
    scale = max(float(np.max(tail)), 1e-300)
    nondecreasing = bool(np.all(np.diff(tail) >= -1e-12 * scale))
    trend_down = terms[K] < terms[half] - 1e-12 * scale if K > half else False
    if total == 0.0 or (frac < DYADIC_BLOCK_FRACTION and (trend_down or last_block == 0.0)):
        cls = "convergent"
    elif nondecreasing and total > 0.0:
        cls = "divergent"
    else:
        cls = "inconclusive"
    return DatkoResult(
        classification=cls,
        dyadic_sums=checkpoints,
        total=total,
        last_block_fraction=frac,
        terms_nondecreasing=nondecreasing,
    )

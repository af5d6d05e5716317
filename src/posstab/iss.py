"""Systems with inputs x(k+1) = T x(k) + u(k): simulation, ISS constants,
input-class response checks and the summability (Datko) test.

Simulation always runs two routes -- the recurrence and the convolution
solution formula x(k+1) = T^{k+1} x(0) + sum_j T^{k-j} u(j), evaluated in
blocks of at most 32 steps from T^0..T^32 alone, so in time linear in K --
and treats any disagreement as an internal error.  Convergence
classifications over a finite horizon are necessarily heuristic; their
thresholds are fixed constants and the spectral criterion stays the
authority.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NoISSEstimateError
from .norms import batch_vec_norm, vec_norm
from .operators import _decay_rate, _first_power, geometric_envelope, materialize, spectral_radius

#: a dyadic block contributing less than this fraction counts as converged
DYADIC_BLOCK_FRACTION = 0.10

#: dyadic block-sum ratio below which an lp response counts as converged
BLOCK_RATIO_CONVERGENT = 0.9

#: steps per block of the solution-formula route in `simulate`
_CONVOLUTION_BLOCK = 32

#: `iss_constants` stops summing ||T^k|| once the certified tail is at most this
ISS_TAIL_TOL = 1e-10


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
    """Inverse of `InputSignal.to_dict`; ValueError names a malformed input."""
    if not isinstance(d, dict) or "values" not in d:
        raise ValueError('input signal must be a JSON object with a "values" list')
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


def _convolution_states(a, x0, uv, K):
    """x(0..K) from the solution formula, evaluated in blocks of B = min(K, 32) steps.

    x(qB + r) = T^r x(qB) + sum_{i<r} T^{r-1-i} u(qB + i) for r = 1..B, with
    each block start x(qB) taken from this route's own previous block, never
    from the recurrence.  T^0..T^B are held in one (B+1, n, n) array; the
    input part of every block is B batched matmuls over the zero-padded
    inputs, the state part one matmul per block.  Cost O(K B n^2) flops in
    about K/B + B numpy calls, memory O(B n^2 + K n).
    """
    n = x0.shape[0]
    B = max(min(K, _CONVOLUTION_BLOCK), 1)
    Q = -(-K // B)
    P = np.empty((B + 1, n, n))
    P[0] = np.eye(n)
    for d in range(B):
        P[d + 1] = a @ P[d]
    U = np.zeros((Q, B, n))
    U.reshape(Q * B, n)[:K] = uv[:K]
    X = np.zeros((Q, B, n))  # input part: X[q, r-1] = sum_{i<r} T^{r-1-i} u(qB + i)
    for d in range(B):
        X[:, d:] += U[:, : B - d] @ P[d].T
    x = x0
    for q in range(Q):
        X[q] += P[1:] @ x  # plus the state part: X[q, r-1] = x(qB + r)
        x = X[q, -1]
    return np.vstack([x0, X.reshape(Q * B, n)[:K]])


def simulate(T, x0, u, K=None, norm="linf", check_tol=1e-10):
    """Trajectory of x(k+1) = T x(k) + u(k) for k < K.

    The recurrence gives the states.  The solution formula, evaluated in
    blocks of at most 32 steps (`_convolution_states`: linear in K, no K+1
    stored powers), must agree with it at every step k within
    `check_tol` (1 + ||x(k)||_2); a disagreement raises ArithmeticError
    naming the first bad step and must never happen.
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
    gaps = np.linalg.norm(_convolution_states(a, x0, uv, K)[1:] - states[1:], axis=1)
    bad = np.nonzero(gaps > check_tol * (1.0 + np.linalg.norm(states[1:], axis=1)))[0]
    if bad.size:
        raise ArithmeticError(
            f"recurrence and convolution formulas disagree at step {bad[0] + 1} "
            f"(gap {gaps[bad[0]]:.3e}); this is an internal error"
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


def iss_constants(T, norm="linf"):
    """Certified ISS constants of ||x(k)|| <= M a^k ||x(0)|| + C ||u||_inf.

    a is `operators._decay_rate` and M comes from the geometric envelope of
    the power norms at that rate.  C = sum_k ||T^k|| is summed in blocks of
    length m, the first m with theta = ||T^m|| <= 1/2: by
    submultiplicativity every block is at most theta times the one before,
    so the sum past L blocks is at most theta/(1 - theta) times the last
    block's sum.  L is the first block count whose tail term is <=
    ISS_TAIL_TOL, or the last complete block before the power-norm table
    ends (C then stays certified, only looser).  l2 power norms of dense
    operators are certified upper bounds, so C and M stay upper bounds.
    """
    est = spectral_radius(T)
    if est.upper >= 1.0:
        raise NoISSEstimateError(
            f"no ISS estimate: spectral upper bound {est.upper} >= 1"
        )
    a_rate = _decay_rate(T)
    env = geometric_envelope(T, a_rate, norm=norm)
    if env is None:
        raise NoISSEstimateError("failed to certify a geometric envelope")
    m, head = _first_power(T, norm, lambda k, nms: nms[k] <= 0.5)
    if m is None:
        raise NoISSEstimateError(f"no power ||T^m|| <= 1/2 with m <= {len(head) - 1}")
    theta = float(head[m])
    factor = theta / (1.0 - theta)

    def small_tail(k, nms):  # at k = L m - 1: is the tail after block L small?
        return (k + 1) % m == 0 and factor * float(np.sum(nms[k + 1 - m : k + 1])) <= ISS_TAIL_TOL

    _, pn = _first_power(T, norm, small_tail, start=0)
    pn = pn[: len(pn) // m * m]
    tail = factor * float(np.sum(pn[-m:]))
    m_emp = float(np.max(pn / a_rate ** np.arange(len(pn))))
    return ISSEstimate(
        M=max(env[0], m_emp),
        a=a_rate,
        C=float(np.sum(pn)) + tail,
        tail_bound=tail,
        norm=norm,
        K=len(pn) - 1,
    )


def verify_iss_bound(T, est, trials=100, rng=None, tol=1e-8):
    """Check ||x(k)|| <= M a^k ||x0|| + C ||u||_inf on random trials.

    Each trial runs 100 steps from a normal x0 with inputs uniform in
    [-1, 1], batched through the same recurrence arithmetic as `simulate`;
    the bound must hold at every step of every trial.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    a = materialize(T)
    n = T.dim
    X = rng.normal(size=(trials, n))
    K = 100
    U = rng.uniform(-1.0, 1.0, size=(K, trials, n))
    x0n = batch_vec_norm(X, est.norm)
    un = batch_vec_norm(U, est.norm).max(axis=0)
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


def response_class_check(T, u, mode, rng=None, ag_eps=1e-3, norm="linf"):
    """Classify the state response for an input class; reported, not asserted.

    modes: "lp" (summability of ||x||^p), "linf" (boundedness), "c0"
    (decay of the tail), "ag" (time to enter the asymptotic-gain tube
    eps + C ||u||_inf, C from `iss_constants`).  The runs last
    max(2 len(u), 128) steps; the canonical one starts at x0 = 0, and one
    random start is run alongside and reported in the detail.
    """
    mode = mode.lower()
    if mode not in ("lp", "linf", "c0", "ag"):
        raise ValueError(f"unknown response mode {mode!r}")
    if not isinstance(u, InputSignal):
        u = InputSignal(values=u)
    rng = np.random.default_rng(0) if rng is None else rng
    n = T.dim
    H = max(2 * len(u), 128)
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
        # sums over the complete blocks [2^(j-1), 2^j) only: a truncated trailing
        # block would fake a small ratio and misclassify growing responses
        ends = [2**j for j in range(1, len(series).bit_length())]
        blocks = [float(np.sum(series[e // 2 : e])) for e in ends]
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
        tube = ag_eps + iss_constants(T, norm=norm).C * float(np.max(batch_vec_norm(uv, norm)))
        # the "with initial value" statement: the first step after the last one outside
        outside = np.nonzero(~(norms_r <= tube))[0]
        t_eps = int(outside[-1]) + 1 if outside.size else 0
        detail["T_eps"] = t_eps if t_eps <= H else None
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
    checkpoints = [float(np.sum(terms[: 2**j + 1])) for j in range(int(K).bit_length())] + [total]
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

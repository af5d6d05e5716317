"""Systems with inputs x(k+1) = T x(k) + u(k): simulation, ISS constants,
input-class response checks and the summability (Datko) test.

Simulation always runs two routes -- the recurrence and the convolution
solution formula x(k+1) = T^{k+1} x(0) + sum_j T^{k-j} u(j), evaluated in
blocks of at most 8 steps from T^0..T^8 alone, so in time linear in K --
and treats any disagreement as an internal error.  Convergence
classifications over a finite horizon are necessarily heuristic; their
thresholds are fixed constants and the spectral criterion stays the
authority.
"""

from dataclasses import dataclass

import numpy as np

from .cones import orthant
from .errors import DimensionMismatchError, NoISSEstimateError
from .norms import _gamma, batch_vec_norm, dual_norm, vec_norm
from .operators import (
    DenseOperator,
    _cw_bounds,
    _decay_rate,
    _first_power,
    _power_table,
    geometric_envelope,
    materialize,
    spectral_radius,
)

#: a dyadic block contributing less than this fraction counts as converged
DYADIC_BLOCK_FRACTION = 0.10

#: dyadic block-sum ratio below which an lp response counts as converged
BLOCK_RATIO_CONVERGENT = 0.9

#: steps per block of the solution-formula route in `simulate`
_CONVOLUTION_BLOCK = 8

#: the block rule of `iss_constants` closes once its certified tail is at most this
ISS_TAIL_TOL = 1e-10

#: the decay-vector rule closes once C is within this factor of S_K + ||T^K||/(1 - lower)
_DECAY_TAIL_RTOL = 1e-6


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
            "values": np.asarray(self.values, dtype=float).tolist(),
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


def _recurrence(a, x0, uv, K):
    """x(0..K) of x(k+1) = T x(k) + u(k), one matvec per step."""
    states = np.empty((K + 1, x0.shape[0]))
    states[0] = x0
    for k in range(K):
        states[k + 1] = a @ states[k] + uv[k]
    return states


def _convolution_states(a, x0, uv, K):
    """x(0..K) from the solution formula, evaluated in blocks of B = min(K, 8) steps.

    x(qB + r) = T^r x(qB) + sum_{i<r} T^{r-1-i} u(qB + i) for r = 1..B, with
    each block start x(qB) taken from this route's own previous block, never
    from the recurrence.  T^0..T^B are held in one (B+1, n, n) array; the
    input part of every block is B batched matmuls over the zero-padded
    inputs, the state part one matmul per block.  Cost O(K 8 n^2) flops in
    about K/8 + 8 numpy calls, memory O(8 n^2 + K n): a larger B buys fewer
    calls with more flops, and at B = 32 the check cost more than the
    recurrence it checks.
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
    blocks of at most 8 steps (`_convolution_states`: O(K 8 n^2) flops, no
    K+1 stored powers), must agree with it at every step k within
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
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")
    if K > uv.shape[0]:
        raise ValueError("K exceeds the available input length")
    a = materialize(T)
    states = _recurrence(a, x0, uv, K)
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
    """Constants of ||x(k)|| <= M a^k ||x(0)|| + C ||u||_inf in the named norm.

    C and M read the powers T^0..T^K; C adds `tail_bound`, the certified
    bound on the powers not summed, from the rule named by `tail_rule`:
    "block" (T^0..T^K summed) or "decay_vector" (T^0..T^(K-1) summed).
    """

    M: float
    a: float
    C: float
    tail_bound: float
    norm: str
    K: int
    tail_rule: str = "block"

    def to_dict(self):
        return {
            "M": float(self.M),
            "a": float(self.a),
            "C": float(self.C),
            "tail_bound": float(self.tail_bound),
            "norm": self.norm,
            "K": int(self.K),
            "tail_rule": self.tail_rule,
        }


def iss_constants(T, norm="linf"):
    """Certified ISS constants of ||x(k)|| <= M a^k ||x(0)|| + C ||u||_inf.

    a is `operators._decay_rate`; M is the larger of the geometric
    envelope's M at that rate and max ||T^k||/a^k over the powers summed
    into C.  C = sum_k ||T^k|| reads the power-norm table in one pass that
    stops at the first power where one of two tail rules closes:

    - "block": with m the first power and theta = ||T^m|| <= 1/2, each
      block of m powers is at most theta times the one before, so the sum
      past L blocks is at most theta/(1 - theta) times the last block's.
      It closes at the first L with that tail <= ISS_TAIL_TOL, or at the
      last complete block before the table ends; K = L m - 1.
    - "decay_vector", for a dense T >= 0 entrywise, at every table block
      end K: `operators._cw_bounds` certifies T z <= lam z, lam < 1, for
      z > 0 the Perron vector of `spectral_radius`.  With c_i = g max_r
      (P_K)_ri / z_r (P_K the computed power, g the rounding factor),
      T^K <= z c', so T^(K+j) <= lam^j z c' and the tail from K on is at
      most ||z c'||/(1 - lam) = ||z|| ||c||_dual/(1 - lam) in every
      monotone norm.  It closes once C = S_K + tail is at most
      (1 + 1e-6)(S_K + ||T^K||/(1 - lower)), S_K the first K entries' sum,
      tried only at the newest power of the table, which the envelope has
      built to its m: K = 7 to 63 on dense positive maps, but about m near
      rho = 1 (50,431 in linf at n = 16, rho = 1 - 1e-5; the test holds at 15).

    For a dense T >= 0 both rules lift the table's norms of the computed
    powers to bounds on the exact T^k; l2 entries are certified upper
    bounds, so C and M stay upper bounds.
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
    search = _TailSearch(T, norm, est)
    _, table = _first_power(T, norm, search)
    if search.rule is None:  # the table ended first: its last complete block
        if search.m is None:
            raise NoISSEstimateError(f"no power ||T^m|| <= 1/2 with m <= {len(table) - 1}")
        search.close_block(table, len(table) // search.m * search.m - 1)
    summed = table[: search.summed]
    m_emp = float(np.max(summed / a_rate ** np.arange(len(summed))))
    return ISSEstimate(
        M=max(env[0], m_emp),
        a=a_rate,
        C=search.C,
        tail_bound=search.tail,
        norm=norm,
        K=search.K,
        tail_rule=search.rule,
    )


class _TailSearch:
    """The `_first_power` predicate of `iss_constants`: passes at the first
    power where the block rule or the decay-vector rule closes, and then
    holds the certificate: `rule`, `K`, `summed` (table entries summed into
    C), `C` and `tail`."""

    def __init__(self, T, norm, est):
        self.norm, self.table, self.lower = norm, _power_table(T, norm), est.lower
        positive = isinstance(T, DenseOperator) and bool(np.all(T.matrix >= 0.0))
        self.unit = T.dim + 1 if positive else 0  # of the rounding factor's gamma
        lam = _cw_bounds(T.matrix, est.perron_vector, orthant(T.dim))[1] if positive else np.inf
        self.decay = (est.perron_vector, lam) if lam < 1.0 else None  # T z <= lam z
        self.m = self.next_end = self.rule = None
        self.prefix = 1.0  # sum of the entries before the current one; ||T^0|| = 1

    def rounding_factor(self, k):
        """g with ||T^j|| <= g ||P_j|| for j <= k, P_j the table's computed
        powers, with room for the sums of up to k entries that form C:
        1 + gamma_{(k+2)(n+1)} for a dense T >= 0 entrywise, 1 otherwise.

        Every product of the chain P_j = fl(P_{j-1} T) has terms >= 0, so
        P_j >= (1 - gamma_n) P_{j-1} T and, barring underflow,
        T^j <= (1 - gamma_n)^-j P_j <= (1 + gamma_{(j+1)n}) P_j entrywise,
        which every monotone norm keeps (Higham, Accuracy and Stability, 3.1
        and 3.4); n more covers the row and column sums of l1/linf entries
        and k + 2 a sum of k entries and its products.  Diagonal and shift
        tables are closed forms; for signed maps the chain is not bounded.
        """
        return 1.0 + _gamma((k + 2) * self.unit)

    def __call__(self, k, nms):
        if self.m is None and nms[k] <= 0.5:
            self.m, self.next_end = k, k - 1
        while self.next_end is not None and self.next_end <= k:  # block ends L m - 1
            end, self.next_end = self.next_end, self.next_end + self.m
            theta = nms[self.m]
            if theta / (1.0 - theta) * float(np.sum(nms[end + 1 - self.m : end + 1])) <= ISS_TAIL_TOL:
                self.close_block(nms, end)
                return True
        if self.decay and self.table.newest[0] == k and self._decay_closes(k, nms):
            return True
        self.prefix += nms[k]
        return False

    def close_block(self, nms, end):
        """The block rule's certificate over the complete blocks of entries 0..end."""
        m, pn = self.m, np.array(nms[: end + 1])
        g = self.rounding_factor(end + 1)
        theta = g * nms[m]
        tail = theta / (1.0 - theta) * g * float(np.sum(pn[-m:]))
        self.rule, self.K, self.summed = "block", end, end + 1
        self.C, self.tail = g * float(np.sum(pn)) + tail, tail

    def _decay_closes(self, k, nms):
        z, lam = self.decay
        g = self.rounding_factor(k)
        c = np.max(self.table.newest[1] / z[:, None], axis=0) * (g * (1.0 + _gamma(4)))
        rank_one = vec_norm(z, self.norm) * vec_norm(c, dual_norm(self.norm))
        tail = rank_one * (1.0 + _gamma(2 * len(z) + 4)) / (1.0 - lam) * (1.0 + _gamma(4))
        head = g * self.prefix
        if head + tail > (1.0 + _DECAY_TAIL_RTOL) * (head + nms[k] / (1.0 - self.lower)):
            return False
        self.rule, self.K, self.summed, self.C, self.tail = "decay_vector", k, k, head + tail, tail
        return True


def verify_iss_bound(T, est, trials=100, rng=None, tol=1e-8):
    """Check ||x(k)|| <= M a^k ||x0|| + C ||u||_inf on random trials.

    Each trial runs 100 steps from a normal x0 with inputs uniform in
    [-1, 1], batched through the same recurrence arithmetic as `simulate`;
    the bound must hold at every step of every trial.  Each step's inputs
    are drawn inside the loop, in the order of one (100, trials, n) draw,
    and only the state norms and each trial's running max input norm are
    kept, so memory is O(trials (100 + n)).  The bounds are checked after
    the loop, since each needs its trial's final ||u||_inf.  A non-finite
    state norm returns False at once and skips the draws that are left.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    a = materialize(T)
    X = rng.normal(size=(trials, T.dim))
    K = 100
    xn = np.empty((K + 1, trials))
    xn[0] = x0n = batch_vec_norm(X, est.norm)
    un = np.zeros(trials)
    cur = X
    for k in range(K):
        u = rng.uniform(-1.0, 1.0, size=X.shape)
        np.maximum(un, batch_vec_norm(u, est.norm), out=un)
        cur = cur @ a.T
        cur += u
        xn[k + 1] = batch_vec_norm(cur, est.norm)
        if not np.all(np.isfinite(xn[k + 1])):
            return False
    scale = np.array([est.M * est.a**k for k in range(K + 1)])
    return not np.any(xn > scale[:, None] * x0n + est.C * un + tol)


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

    norms0 = batch_vec_norm(_recurrence(a, np.zeros(n), uv, H), norm)
    norms_r = batch_vec_norm(_recurrence(a, rng.normal(size=n), uv, H), norm)
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
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
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

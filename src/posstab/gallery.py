"""Built-in example systems, each paired with its expected phenomena.

Infinite-dimensional examples ship as finite truncations and carry a
mandatory pathology note where the truncation changes the verdict: the
truncated right shift is nilpotent (spectral radius 0) while the operator
it truncates has spectral radius equal to its scaling factor, so a report
on the truncation alone would be misleading.
"""

from dataclasses import dataclass, field

import numpy as np

from .cones import ConeSpec, lorentz, orthant
from .operators import OperatorSpec, dense, diagonal, shift

SHIFT_PATHOLOGY = (
    "TRUNCATION-PATHOLOGY: the truncated right shift is nilpotent "
    "(spectral radius 0) but the untruncated operator has spectral radius "
    "equal to the shift factor; finite sections misreport the verdict, and "
    "the point spectrum of the full operator is empty."
)


@dataclass
class GalleryEntry:
    name: str
    operator: OperatorSpec
    cone: ConeSpec
    expected: tuple  # (criterion id, expected holds, note)
    pathology: str | None = None
    params: dict = field(default_factory=dict)


def gallery_names():
    return ["upper2x2", "shift2R", "multiplication", "diag_strong_stable", "lorentz_demo"]


def gallery_build(name, dim=None):
    """Construct a named gallery entry; `dim` controls truncation/grid size."""
    if name == "upper2x2":
        op = dense([[0.5, 1.0], [0.0, 0.5]])
        stable = [(cid, True, "spectral radius 1/2") for cid in _ALL_STABLE_IDS]
        return GalleryEntry(
            name=name,
            operator=op,
            cone=orthant(2, "linf"),
            expected=tuple(stable),
            params={
                "decay_point": (6.0, 2.0),
                "non_decay_point": (2.0, 2.0),
                "spr": 0.5,
            },
        )
    if name == "shift2R":
        n = 8 if dim is None else int(dim)
        op = shift(n, 2.0)
        return GalleryEntry(
            name=name,
            operator=op,
            cone=orthant(n, "linf"),
            expected=(
                ("SIMPLE_SG", True, "nilpotent truncation: no nonzero fixed direction"),
                ("SPR", True, "truncation has spectral radius 0"),
            ),
            pathology=SHIFT_PATHOLOGY,
            params={
                "factor": 2.0,
                "power_norm_growth": [2.0**k for k in range(n)] + [0.0],
                "strong_small_gain": True,
            },
        )
    if name == "multiplication":
        n = 8 if dim is None else int(dim)
        grid = np.arange(n, dtype=float)
        entries = 1.0 - np.exp(-grid)
        op = diagonal(entries)
        return GalleryEntry(
            name=name,
            operator=op,
            cone=orthant(n, "linf"),
            expected=(
                ("SIMPLE_SG", True, "strict pointwise decrease on the grid"),
                ("SPR", True, "largest multiplier 1 - e^{-(N-1)} < 1"),
            ),
            params={
                "grid": grid.tolist(),
                "eta_expected": float(np.exp(-(n - 1))),
                "margin_trend": "eta decreases to 0 as the grid grows",
            },
        )
    if name == "diag_strong_stable":
        n = 64 if dim is None else int(dim)
        idx = np.arange(1, n + 1, dtype=float)
        entries = 1.0 - 1.0 / (idx + 1.0)  # slowest mode 1 - 1/(n+1)
        op = diagonal(entries)
        return GalleryEntry(
            name=name,
            operator=op,
            cone=orthant(n, "l2"),
            expected=(
                ("SIMPLE_SG", True, "every mode decays, but with no uniform rate margin"),
                ("SPR", True, "spectral radius 1 - 1/(n+1) on the truncation"),
            ),
            pathology=(
                "TRUNCATION-PATHOLOGY: the diagonal multipliers approach 1, so the "
                "untruncated operator is strongly stable but not uniformly "
                "exponentially stable; every finite section hides this by "
                "keeping its spectral radius below 1."
            ),
            params={"slowest_rate": float(entries[-1])},
        )
    if name == "lorentz_demo":
        n = 3 if dim is None else max(int(dim), 2)
        entries = np.full(n, 0.4)
        entries[0] = 0.8
        op = dense(np.diag(entries))
        return GalleryEntry(
            name=name,
            operator=op,
            cone=lorentz(n, "l2"),
            expected=(
                ("SPR", True, "axis-dominant diagonal map preserves the Lorentz cone"),
                ("SIMPLE_SG", True, "spectral radius 0.8 < 1"),
            ),
            params={"axis_rate": 0.8, "lateral_rate": 0.4},
        )
    raise ValueError(f"unknown gallery entry {name!r}")


_ALL_STABLE_IDS = (
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


def strong_small_gain_violates(x, d):
    """Check 2R(I+D)x >= x fails through the first nonzero coordinate.

    For any nonzero cone vector x and any positive diagonal D, the image
    under 2R(I+D) vanishes on the leading coordinates up to and including
    the first nonzero index of x, so the order inequality is impossible.
    Returns True when the violation is confirmed.
    """
    x = np.asarray(x, dtype=float)
    d = np.asarray(d, dtype=float)
    if np.any(x < 0.0) or not np.any(x > 0.0):
        raise ValueError("x must be a nonzero cone vector")
    if np.any(d <= 0.0):
        raise ValueError("D must be strictly positive")
    y = np.zeros_like(x)
    y[1:] = 2.0 * ((1.0 + d) * x)[:-1]
    i = int(np.nonzero(x > 0.0)[0][0])
    return bool(y[i] < x[i])


def strong_small_gain_check(dim=8, trials=1000, rng=None):
    """Randomized strong small-gain sweep for the truncated shift entry, D_ii in [1e-6, 10]."""
    rng = np.random.default_rng(0) if rng is None else rng
    for _ in range(trials):
        x = rng.uniform(0.0, 1.0, size=dim)
        lead = rng.integers(0, dim)  # exercise leading zeros too
        x[:lead] = 0.0
        if not np.any(x > 0.0):
            x[rng.integers(0, dim)] = 1.0
        d = rng.uniform(1e-6, 10.0, size=dim)
        if not strong_small_gain_violates(x, d):
            return False
    return True

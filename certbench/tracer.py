"""Tracing posstab from outside: timing shims at module attribute bindings.

Every posstab.* module attribute bound to a traced function object is
swapped for a shim that records a span (function, parent span, start,
end).  Spans stay in memory until `summary`, which derives call counts,
inclusive time and self time (inclusive minus the time covered by traced
children).  posstab.cli is not imported and not traced.
"""

import sys
import time
from array import array

import numpy as np

TRACED = {
    "operators": (
        "spectral_radius",
        "resolvent_apply",
        "power_norms",
        "geometric_envelope",
        "is_positive",
    ),
    "norms": ("induced_norm",),
    "cones": ("batch_distance", "project", "decompose", "random_points"),
    "criteria": (
        "cross_check",
        "check_resolvent_positivity",
        "mbi_constant",
        "uniform_small_gain_margin",
        "robust_small_gain",
        "rank_one_destabilizer",
        "approximate_positive_eigenvector",
        "dual_small_gain",
        "interior_small_gain",
        "strict_decay_point",
        "quasi_compact_suite",
    ),
    "lyapunov": ("solve_stein", "equivalent_norm"),
    "iss": ("iss_constants", "simulate", "verify_iss_bound"),
}

#: counted, not timed: scipy LU factorizations started from posstab.operators
LU_METRIC = "operators.lu_factor.calls"

SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)


def metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = [f"{s}.{k}" for s in SPAN_NAMES for k in ("calls", "s", "self_s")]
    return names + [LU_METRIC]


class Tracer:
    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.lu_calls = 0
        self._stack = []
        self._undo = []

    def _shim(self, idx, fn):
        clock = time.perf_counter

        def shim(*args, **kwargs):
            span = len(self.name_id)
            self.name_id.append(idx)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(span)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                self._stack.pop()

        return shim

    def _lu_shim(self, fn):
        def shim(*args, **kwargs):
            self.lu_calls += 1
            return fn(*args, **kwargs)

        return shim

    def install(self):
        import posstab

        modules = [m for k, m in sys.modules.items() if k == "posstab" or k.startswith("posstab.")]
        shims = {}
        for idx, qual in enumerate(SPAN_NAMES):
            mod, fname = qual.split(".")
            fn = getattr(getattr(posstab, mod), fname)
            shims[id(fn)] = (fn, self._shim(idx, fn))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in shims and shims[id(val)][0] is val:
                    self._patch(mod, attr, shims[id(val)][1])
        ops = posstab.operators
        self._patch(ops, "lu_factor", self._lu_shim(ops.lu_factor))

    def _patch(self, mod, attr, new):
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self):
        while self._undo:
            mod, attr, old = self._undo.pop()
            setattr(mod, attr, old)

    def summary(self):
        """{metric: value} for every name in metric_names()."""
        ids = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        k = len(SPAN_NAMES)
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        self_t = np.bincount(ids, weights=dur - child, minlength=k)
        out = {}
        for i, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(incl[i])
            out[f"{name}.self_s"] = float(self_t[i])
        out[LU_METRIC] = self.lu_calls
        return out

    def nested_same_name(self):
        """Spans with an ancestor of the same name; their time counts twice in `.s`."""
        ids = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        nested = np.zeros(len(ids), dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            nested[live] |= ids[anc[live]] == ids[live]
            anc[live] = parent[anc[live]]
        return int(nested.sum())

"""The process that runs a workload's ops against posstab.

It runs in a fresh interpreter, so its peak resident set size belongs to
the workload alone.  It reads its arguments for `run` as one pickle on
standard input and writes the result as one pickle on standard output;
anything posstab prints goes to standard error.  The parent checks the
outputs outside the timed region.

    python3 certbench/worker.py < args.pickle > result.pickle
"""

import pickle
import resource
import sys
import time

import numpy as np


def _certify(ps, op, seed):
    T = ps.dense(op.matrix)
    cone = ps.orthant(op.dim, op.norm) if op.cone == "orthant" else ps.lorentz(op.dim, op.norm)
    return ps.cross_check(T, cone, ps.CrossCheckConfig(seed=seed)).to_dict()


def _simulate(ps, op, seed):
    T = ps.dense(op.matrix)
    traj = ps.simulate(T, op.x0, op.u, op.K)
    est = ps.iss_constants(T)
    ok = ps.verify_iss_bound(T, est)
    return {"states": traj.states, "iss": est.to_dict(), "verified": bool(ok)}


_RUN = {"certify": _certify, "simulate": _simulate}


def warm_up(ps, kind):
    """One op on a 2x2 input, so lazy imports and first-call costs are paid."""
    a = np.array([[0.5, 1.0], [0.0, 0.5]])
    if kind == "certify":
        ps.cross_check(ps.dense(a), ps.orthant(2, "linf"), ps.CrossCheckConfig(seed=0)).to_dict()
    else:
        T = ps.dense(a)
        ps.simulate(T, np.ones(2), np.zeros((8, 2)), 8)
        ps.verify_iss_bound(T, ps.iss_constants(T))


def _one_pass(ps, ops, seed):
    outputs, times = [], []
    t0 = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            out = _RUN[op.kind](ps, op, seed)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            out = {"error": f"{type(exc).__name__}: {exc}"}
        times.append(time.perf_counter() - t)
        outputs.append(out)
    return time.perf_counter() - t0, times, outputs


def run(src, ops, seed, seconds, trace):
    """Run whole passes over `ops` for about `seconds`.

    Untraced: as many passes as the first pass's time says fit in
    `seconds` (rounded, at least one).  Traced: one untraced pass, then one
    pass under the tracer.
    """
    sys.path.insert(0, src)
    import posstab as ps

    warm_up(ps, ops[0].kind)
    result = {"pass_s": [], "op_s": [], "outputs": []}
    passes = 1
    while len(result["pass_s"]) < passes:
        wall, times, outputs = _one_pass(ps, ops, seed)
        result["pass_s"].append(wall)
        result["op_s"].extend(times)
        result["outputs"].append(outputs)
        if len(result["pass_s"]) == 1:
            # later passes keep more outputs alive, so the peak is read here
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if not trace:
                passes = max(1, round(seconds / wall))
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            wall, _, outputs = _one_pass(ps, ops, seed)
        finally:
            tracer.uninstall()
        result["traced_s"] = wall
        result["outputs"].append(outputs)
        result["layers"] = tracer.summary()
        result["nested_same_name"] = tracer.nested_same_name()
    return result


if __name__ == "__main__":
    out = sys.stdout.buffer
    sys.stdout = sys.stderr
    result = run(*pickle.loads(sys.stdin.buffer.read()))
    out.write(pickle.dumps(result))
    out.flush()

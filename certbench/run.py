"""Certification benchmark for posstab.

    python3 certbench/run.py --workload all
    python3 certbench/run.py --workload dense-orthant --seed 3 --seconds 5 --trace 0

Run from the repository root (any directory works; paths resolve from this
file).  Each workload runs in its own child interpreter (worker.py), which
the runner waits for before it exits: it imports posstab
from ../src, makes one warm-up op, then runs whole passes over the
workload's ops for about --seconds (at least one pass).  Every output is then checked
against numpy/scipy in this process (oracle.py), outside the timed region.
With --trace 1 the run makes one untraced and one traced pass and reports
per-layer metrics instead of end-to-end ones.  The last line of standard
output is the result as one JSON object.  See README.md.
"""

import os

# BLAS threads are fixed before numpy loads, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: fresh processes timed per run for setup_s; the median is reported
SETUP_REPEATS = 5

#: seconds a workload's child process may take before it is killed
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

_SETUP_SNIPPET = """
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, {src!r})
import posstab
sys.path.insert(0, {here!r})
from worker import warm_up
warm_up(posstab, {kind!r})
print(time.perf_counter() - t0)
"""


def setup_once(kind):
    """Seconds to import posstab in a fresh process and finish one warm-up op."""
    code = _SETUP_SNIPPET.format(src=str(SRC), here=str(HERE), kind=kind)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.split()[-1])


def check_op(op, out, refs):
    if "error" in out:
        return [out["error"]]
    ref = refs.get(op.name)
    if ref is None:
        ref = refs[op.name] = oracle.Reference(op.matrix)
    if op.kind == "certify":
        return oracle.check_certify(ref, op.cone, op.norm, out)
    return oracle.check_simulate(ref, op.x0, op.u, op.K, out)


def check_outputs(name, ops, passes):
    """(attempted, failed, unexpected failures by op name) over every pass."""
    refs = {}
    attempted = failed = 0
    unexpected = {}
    for outputs in passes:
        for op, out in zip(ops, outputs):
            attempted += 1
            fails = check_op(op, out, refs)
            if not fails:
                continue
            failed += 1
            known = op.name in inputs.KNOWN_FAULTS
            if not known:
                unexpected[op.name] = fails
            print(f"[{name}] {op.name} failed its checks" + (" (known fault)" if known else "")
                  + "".join(f"\n    {f}" for f in fails), file=sys.stderr)
    return attempted, failed, unexpected


def run_workload(name, seed, seconds, trace, only=None):
    ops = inputs.build_ops(name, seed)
    if only is not None:
        ops = [op for op in ops if op.name == only]
        if not ops:
            raise SystemExit(f"error: workload {name} has no op named {only!r}")
    setup = [] if trace else [setup_once(ops[0].kind) for _ in range(SETUP_REPEATS)]
    # subprocess.run waits for the child, and kills it first on a timeout
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=pickle.dumps((str(SRC), ops, seed, seconds, bool(trace))),
        stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, check=True,
    )
    res = pickle.loads(proc.stdout)

    t_check = time.perf_counter()
    attempted, failed, unexpected = check_outputs(name, ops, res["outputs"])
    t_check = time.perf_counter() - t_check

    if trace:
        values = dict(res["layers"], trace_overhead_s=res["traced_s"] - res["pass_s"][0])
        units = {m: ("count" if m.endswith("calls") else "s") for m in values}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(res["pass_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }

    print(f"workload {name}  seed {seed}  passes {len(res['pass_s'])}  "
          f"ops attempted {attempted}  failed {failed}  correct {result['correct']}  "
          f"(checks took {t_check:.1f} s)")
    if trace:
        print(f"  untraced pass {res['pass_s'][0]:.4f} s  traced pass {res['traced_s']:.4f} s  "
              f"spans nested under a same-name span: {res['nested_same_name']}")
    else:
        print(f"  (setup_s: median of {len(setup)} fresh processes; wall_s: median of "
              f"{len(res['pass_s'])} passes)")
    for m, v in values.items():
        print(f"  {m:52s} {v if units[m] == 'count' else f'{v:.6g}'} {units[m]}")
    if not trace:
        # reported, not gated: see README, "Why op_p50_s is not gated"
        print(f"  {'op_p50_s':52s} {statistics.median(res['op_s']):.6g} s "
              f"(median of {len(res['op_s'])} op times)")

    RESULTS.mkdir(exist_ok=True)
    record = dict(result, workload=name, seed=seed, trace=int(trace),
                  pass_s=res["pass_s"], op_names=[op.name for op in ops],
                  op_s=res["op_s"], setup_s=setup, unexpected_failures=unexpected)
    stem = f"{name}-seed{seed}-trace{int(trace)}" + (f"-{only}" if only else "")
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--op", help="run only the op of this name (for profiling one op)")
    args = parser.parse_args(argv)
    if not (SRC / "posstab" / "__init__.py").is_file():
        print(f"error: no posstab sources at {SRC}", file=sys.stderr)
        return 2
    names = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, args.op)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

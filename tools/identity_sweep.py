"""Identity sweep: dump `cross_check` reports on a fixed case set and diff two dumps.

    python tools/identity_sweep.py dump OUT.json [--src DIR]
    python tools/identity_sweep.py diff OLD.json NEW.json [--rtol 1e-12]

`dump` runs `cross_check(T, cone, CrossCheckConfig(seed=7)).to_dict()` on
the 5 gallery entries, 60 dense orthant cases (l1/l2/linf,
n in {3, 8, 16, 32, 48}, rho in {0.5, 0.9, 0.97, 1.05}), 12 Lorentz-l2
cases (n in {3, 4, 8, 16}, rho in {0.5, 0.9, 1.05}), 21 diagonal/shift
cases and the ops of `certbench/inputs.build_ops("lorentz", s)` for
s in {0, 1}, and the 12 boost-rotation Lorentz maps i = 0..11 of
`tests/test_criteria.py::test_lorentz_consensus_fuzz`, each with its
`CrossCheckConfig(seed=i)`; on maps 3 and 10 (I - T)^{-1} is not positive,
and the uniform small-gain margin is 0 with the Perron vector as its
witness.  Then 4 Jordan-like orthant-linf cases rho * (I + 0.5 N), N the
superdiagonal shift, n in {8, 16}, rho in {0.9, 1.1}: from n = 16 on,
the Gelfand squares of these maps underflow.  Three families follow,
each from its own rng so that no earlier input moves: 4 near-boundary
orthant cases (n = 4, rho in {1 - 1e-6, 1 - 1e-7}, linf and l2), which
reach the end of the power-norm table, so that three of them record errors;
4 orthant-linf cyclic maps (weighted cycles with n in {3, 5, 8} and one
6 x 6 block cycle), whose Perron root shares its modulus with other
eigenvalues, so that power iterations stall on them while Noda's shifted
inverse iteration closes them; and the nilpotent Lorentz-positive map
[[1, 1], [-1, -1]], on which Noda stalls and the bisection fallback ends
ambiguous.  Last, from its own rng, 9
stable orthant maps that are not positive: [[0.5, -1], [0, 0.5]] on
orthant-linf and normal(0, 1) matrices rescaled to rho in {0.5, 0.9},
n in {4, 8}, on orthant-linf and orthant-l2; these get the restricted
report, whose Lyapunov section uses the plain (not the lattice)
equivalent norm.  Then, from its own rng, the l2-clustered family on
orthant-l2: certbench's `l2-counterexample` map and 0.9 * Q for a 12 x 12
orthogonal Q, whose powers keep their top singular values close, so
that their l2 power-norm table is certified by Cholesky rather than by
power steps.  For each op of
`build_ops("simulate", s)`, s in {0, 1}, it records the SHA-256 of
`simulate(T, x0, u, K).states.tobytes()`, `iss_constants(T).to_dict()`,
the verdict of `verify_iss_bound(T, est)` on that estimate and
`response_class_check(T, u, mode).to_dict()` for each mode "lp", "linf",
"c0" and "ag".
A case that raises is recorded as {"error": "<Type>: <message>"}.  It
writes one JSON object keyed by case name.  `--src` picks the `posstab`
source tree to import (default: this repository's `src`), so one script
can dump two checkouts.

`diff` compares two dumps.  Verdicts, consensus, witness kinds, state
hashes and every other non-float field (the text of notes included) must
match exactly; floats, also those inside notes, may move by `--rtol`
relative.  It prints one line per case family (the name before the first
`/`) with its counts of identical, mismatched and within-`--rtol`
reports, the largest relative move per key (list positions and case
names folded), then every mismatch, and exits with status 1 on any
mismatch.  A case that switches between an error and a report is one
mismatch line: `case: error '<msg>' -> report (consensus X)`.
"""

import os

# one BLAS thread, as in certbench, so that a dump does not depend on the host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def _import(src):
    sys.path.insert(0, str(Path(src).resolve()))
    sys.path.insert(0, str(ROOT / "certbench"))
    import numpy as np
    import inputs
    import posstab

    return np, inputs, posstab


def boost_rotation_maps(np):
    """(i, a): the maps of `_boost_rotation_maps` in tests/test_criteria.py."""
    rng = np.random.default_rng(12)
    for i in range(12):
        n = int(rng.integers(2, 5))
        t = rng.uniform(-1.5, 1.5)
        boost = np.eye(n)
        boost[0, 0] = boost[1, 1] = np.cosh(t)
        boost[0, 1] = boost[1, 0] = np.sinh(t)
        rot = np.eye(n)
        if n >= 3:
            th = rng.uniform(0, 2 * np.pi)
            rot[1, 1], rot[1, 2] = np.cos(th), -np.sin(th)
            rot[2, 1], rot[2, 2] = np.sin(th), np.cos(th)
        a = boost @ rot
        target = [0.5, 0.8, 1.3, 2.0][i % 4]
        yield i, a * (target / float(np.max(np.abs(np.linalg.eigvals(a)))))


def cases(np, inputs, ps):
    """(name, operator, cone, extra_notes, seed) for every case of the sweep."""
    for name in ps.gallery_names():
        entry = ps.gallery_build(name)
        notes = (entry.pathology,) if entry.pathology else ()
        yield f"gallery/{name}", entry.operator, entry.cone, notes, SEED
    rng = np.random.default_rng(SEED)
    for norm in ("l1", "l2", "linf"):
        for n in (3, 8, 16, 32, 48):
            for rho in (0.5, 0.9, 0.97, 1.05):
                a = inputs.dense_positive(rng, n, rho)
                yield f"orthant/{norm}/n{n}/rho{rho}", ps.dense(a), ps.orthant(n, norm), (), SEED
    for n in (3, 4, 8, 16):
        for rho in (0.5, 0.9, 1.05):
            a = inputs.lorentz_positive(rng, n, rho)
            yield f"lorentz/n{n}/rho{rho}", ps.dense(a), ps.lorentz(n, "l2"), (), SEED
    for norm in ("l1", "l2", "linf"):
        for rho in (0.5, 0.9, 0.97, 1.05):
            d = rng.uniform(0.0, rho, size=6)
            d[0] = rho
            yield f"diagonal/{norm}/rho{rho}", ps.diagonal(d), ps.orthant(6, norm), (), SEED
        for factor in (0.7, 1.3, 1.6):
            yield f"shift/{norm}/f{factor}", ps.shift(6, factor), ps.orthant(6, norm), (), SEED
    for s in (0, 1):
        for op in inputs.build_ops("lorentz", s):
            cone = ps.lorentz(op.dim, op.norm)
            yield f"certbench-lorentz/s{s}/{op.name}", ps.dense(op.matrix), cone, (), SEED
    for i, a in boost_rotation_maps(np):
        yield f"lorentz-fuzz/i{i}", ps.dense(a), ps.lorentz(len(a), "l2"), (), i
    for n in (8, 16):
        for rho in (0.9, 1.1):
            a = rho * (np.eye(n) + 0.5 * np.eye(n, k=1))
            yield f"jordan/n{n}/rho{rho}", ps.dense(a), ps.orthant(n, "linf"), (), SEED
    rng = np.random.default_rng(SEED + 1)
    for norm in ("linf", "l2"):
        for rho in (1 - 1e-6, 1 - 1e-7):
            a = inputs.dense_positive(rng, 4, rho)
            yield f"near1/{norm}/rho{rho}", ps.dense(a), ps.orthant(4, norm), (), SEED
    rng = np.random.default_rng(SEED + 2)
    for n, rho in ((3, 0.9), (5, 0.97), (8, 1.05)):
        a = np.roll(np.diag(rng.uniform(0.5, 1.5, size=n)), 1, axis=0)  # x_i -> x_(i+1 mod n)
        yield f"cyclic/n{n}/rho{rho}", ps.dense(inputs.rescaled(a, rho)), ps.orthant(n, "linf"), (), SEED
    a = np.kron(np.roll(np.eye(3), 1, axis=0), np.ones((2, 2))) * rng.uniform(0.5, 1.5, size=(6, 6))
    yield "cyclic/block6", ps.dense(inputs.rescaled(a, 0.9)), ps.orthant(6, "linf"), (), SEED
    a = np.array([[1.0, 1.0], [-1.0, -1.0]])
    yield "lorentz-nilpotent", ps.dense(a), ps.lorentz(2, "l2"), (), SEED
    yield "signed/upper2x2", ps.dense([[0.5, -1.0], [0.0, 0.5]]), ps.orthant(2, "linf"), (), SEED
    rng = np.random.default_rng(SEED + 3)
    for norm in ("linf", "l2"):
        for n in (4, 8):
            for rho in (0.5, 0.9):
                a = inputs.rescaled(rng.normal(size=(n, n)), rho)
                yield f"signed/{norm}/n{n}/rho{rho}", ps.dense(a), ps.orthant(n, norm), (), SEED
    rng = np.random.default_rng(SEED + 4)
    yield "l2-clustered/counterexample", ps.dense(inputs.L2_COUNTEREXAMPLE), ps.orthant(2, "l2"), (), SEED
    q, r = np.linalg.qr(rng.normal(size=(12, 12)))
    a = 0.9 * q * np.sign(np.diag(r))
    yield "l2-clustered/orthogonal12", ps.dense(a), ps.orthant(12, "l2"), (), SEED


def _record(report):
    """report(), or {"error": "<Type>: <message>"} when it raises."""
    try:
        return report()
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _simulate_report(ps, op):
    T = ps.dense(op.matrix)
    states = ps.simulate(T, op.x0, op.u, op.K).states
    est = ps.iss_constants(T)
    modes = ("lp", "linf", "c0", "ag")
    return {
        "states_sha256": hashlib.sha256(states.tobytes()).hexdigest(),
        "iss": est.to_dict(),
        "iss_bound_verified": bool(ps.verify_iss_bound(T, est)),
        "response": {m: ps.response_class_check(T, op.u, m).to_dict() for m in modes},
    }


def dump(args):
    np, inputs, ps = _import(args.src)
    out = {}
    for name, T, cone, notes, seed in cases(np, inputs, ps):
        cfg = ps.CrossCheckConfig(seed=seed)
        out[name] = _record(lambda: ps.cross_check(T, cone, cfg, extra_notes=notes).to_dict())
    for s in (0, 1):
        for op in inputs.build_ops("simulate", s):
            out[f"certbench-simulate/s{s}/{op.name}"] = _record(lambda: _simulate_report(ps, op))
    Path(args.out).write_text(json.dumps(out, sort_keys=True))
    print(f"{len(out)} reports -> {args.out}")


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def _leaves(obj, path=""):
    """(path, value) for every leaf; criteria are keyed by id, list items by position."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            key = v["id"] if isinstance(v, dict) and "id" in v else i
            yield from _leaves(v, f"{path}[{key}]")
    elif isinstance(obj, str) and not path.endswith("sha256"):
        # numbers inside text (notes) are compared as floats, the rest exactly
        yield f"{path}#text", _NUMBER.sub("<num>", obj)
        for i, tok in enumerate(_NUMBER.findall(obj)):
            yield f"{path}#num{i}", float(tok)
    else:
        yield path, obj


def _fold(path):
    """Key for the per-key summary: positions dropped, criteria ids kept."""
    return re.sub(r"\[\d+\]", "[]", path)


def _outcome(record):
    """error '<msg>' or report (consensus X): one phrase for a case that switched."""
    if "error" in record:
        return f"error {record['error']!r}"
    return f"report (consensus {record['consensus']})" if "consensus" in record else "report"


def diff(args):
    old = json.loads(Path(args.old).read_text())
    new = json.loads(Path(args.new).read_text())
    problems = []
    if set(old) != set(new):
        problems.append(f"case sets differ: {sorted(set(old) ^ set(new))}")
    moves = {}
    families = {}  # family -> [identical, mismatched, other]
    for case in sorted(set(old) & set(new)):
        if ("error" in old[case]) != ("error" in new[case]):
            problems.append(f"{case}: {_outcome(old[case])} -> {_outcome(new[case])}")
            families.setdefault(case.split("/")[0], [0, 0, 0])[1] += 1
            continue
        before = len(problems)
        a = dict(_leaves(old[case]))
        b = dict(_leaves(new[case]))
        if set(a) != set(b):
            problems.append(f"{case}: fields differ: {sorted(set(a) ^ set(b))}")
        for path in sorted(set(a) & set(b)):
            x, y = a[path], b[path]
            floats = all(isinstance(v, float) and not isinstance(v, bool) for v in (x, y))
            if not floats:
                if x != y:
                    problems.append(f"{case}{path}: {x!r} -> {y!r}")
                continue
            rel = 0.0 if x == y else abs(y - x) / max(abs(x), abs(y))
            key = _fold(path)
            if rel > moves.get(key, (0.0,))[0]:
                moves[key] = (rel, case, x, y)
            if rel > args.rtol:
                problems.append(f"{case}{path}: {x!r} -> {y!r} (rel {rel:.3e})")
        counts = families.setdefault(case.split("/")[0], [0, 0, 0])
        counts[0 if old[case] == new[case] else 1 if len(problems) > before else 2] += 1
    identical = sum(old[c] == new[c] for c in set(old) & set(new))
    lines = [f"{identical} of {len(old)} reports identical"]
    for family, (same, bad, moved) in sorted(families.items()):
        lines.append(f"{family}: {same} identical, {bad} mismatched, {moved} within --rtol")
    for key, (rel, case, x, y) in sorted(moves.items(), key=lambda kv: -kv[1][0]):
        lines.append(f"{rel:10.3e}  {key}  ({case}: {x!r} -> {y!r})")
    lines += [f"MISMATCH {p}" for p in problems]
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:  # the reader stopped early (`| head`): end quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1 if problems else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump")
    d.add_argument("out")
    d.add_argument("--src", default=str(ROOT / "src"))
    c = sub.add_parser("diff")
    c.add_argument("old")
    c.add_argument("new")
    c.add_argument("--rtol", type=float, default=1e-12)
    args = p.parse_args(argv)
    if args.cmd == "dump":
        return dump(args)
    return diff(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: ingest operators, run analyses, emit JSON/CSV.

Exit codes compose in shell pipelines: 0 = consensus STABLE or requested
artifact produced, 2 = UNSTABLE, 3 = BOUNDARY or INCONSISTENT, 1 = usage
or I/O error.  A fixed seed makes every randomized search, and therefore
every report, reproducible; --no-timestamp yields byte-identical output.
"""

import argparse
import json
import sys
import time

import numpy as np

from .cones import ConeSpec, interior_point
from .criteria import CrossCheckConfig, cross_check, strict_decay_point
from .errors import SpectralProximityError
from .gallery import gallery_build, gallery_names
from .iss import datko_test, input_from_dict, iss_constants, simulate, verify_iss_bound
from .lyapunov import equivalent_norm, solve_stein
from .operators import operator_from_csv, operator_from_dict, operator_to_dict, spectral_radius

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSTABLE = 2
EXIT_BOUNDARY = 3

_CONSENSUS_EXIT = {
    "STABLE": EXIT_OK,
    "UNSTABLE": EXIT_UNSTABLE,
    "BOUNDARY": EXIT_BOUNDARY,
    "INCONSISTENT": EXIT_BOUNDARY,
}


def _load_operator(path):
    if path.endswith(".csv"):
        with open(path) as fh:
            return operator_from_csv(fh.read())
    with open(path) as fh:
        return operator_from_dict(json.load(fh))


def _load_vector(path):
    with open(path) as fh:
        data = json.load(fh)
    return np.asarray(data, dtype=float).reshape(-1)


def _make_cone(args, dim):
    kind = args.cone
    norm = args.norm
    if norm is None:
        norm = "l2" if kind == "lorentz" else "linf"
    return ConeSpec(kind, dim, norm)


def _emit_json(payload, args):
    if not args.no_timestamp:
        payload = dict(payload)
        payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_text(text, args):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(p, matrix=True):
    if matrix:
        p.add_argument("--matrix", required=True, help="operator file (.json or .csv)")
    p.add_argument("--cone", choices=("orthant", "lorentz"), default="orthant")
    p.add_argument("--norm", choices=("l1", "l2", "linf"), default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--no-timestamp", action="store_true")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="posstab",
        description="certify or refute stability of positive linear discrete-time systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run every criterion and emit a certificate report")
    _add_common(p)
    p.add_argument("--band", type=float, default=0.02, help="boundary band around spr = 1")

    p = sub.add_parser("decay-point", help="compute a point of strict decay")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--y-file", default=None, help="interior vector JSON (default: all-ones)")

    p = sub.add_parser("lyapunov", help="emit a Stein or equivalent-norm certificate")
    _add_common(p)
    p.add_argument("--mode", choices=("stein", "norm"), default="stein")
    p.add_argument("--s", type=float, default=None, help="scaling for the norm mode")

    p = sub.add_parser("simulate", help="simulate with inputs; CSV trajectory + ISS summary")
    _add_common(p)
    p.add_argument("--x0", default=None, help="initial state JSON (default: zero)")
    p.add_argument("--input", required=True, help="input signal JSON")
    p.add_argument("--steps", type=int, default=None)

    p = sub.add_parser("datko", help="summability test: partial-sum CSV + classification")
    _add_common(p)
    p.add_argument("--p", dest="p_index", type=float, default=2.0)
    p.add_argument("--x0", default=None, help="start vector JSON (default: all-ones)")
    p.add_argument("--steps", type=int, default=64)

    p = sub.add_parser("gallery", help="build a named example ('list' to enumerate)")
    p.add_argument("name")
    p.add_argument("extra", nargs="?", default=None, help="entry name after 'build'")
    p.add_argument("--dim", type=int, default=None)
    _add_common(p, matrix=False)
    return ap


def _cmd_analyze(args):
    T = _load_operator(args.matrix)
    cone = _make_cone(args, T.dim)
    cfg = CrossCheckConfig(tol=args.tol, boundary_band=args.band, seed=args.seed)
    report = cross_check(T, cone, cfg)
    _emit_json(report.to_dict(), args)
    return _CONSENSUS_EXIT[report.consensus]


def _cmd_decay_point(args):
    T = _load_operator(args.matrix)
    cone = _make_cone(args, T.dim)
    y = _load_vector(args.y_file) if args.y_file else interior_point(cone)
    cert = strict_decay_point(T, cone, args.lam, y)
    payload = cert.to_dict()
    payload["operator"] = operator_to_dict(T)
    payload["cone"] = cone.to_dict()
    _emit_json(payload, args)
    return EXIT_OK


def _cmd_lyapunov(args):
    T = _load_operator(args.matrix)
    cone = _make_cone(args, T.dim)
    if args.mode == "stein":
        cert = solve_stein(T)
        payload = {
            "mode": "stein",
            "Q": [[float(v) for v in row] for row in cert.Q],
            "residual": float(cert.residual),
            "tail_bound": float(cert.tail_bound),
            "n_terms": int(cert.n_terms),
        }
    else:
        upper = spectral_radius(T).upper
        s = args.s if args.s is not None else min(float(np.sqrt(1.0 / max(upper, 1e-6))), 1e3)
        cert = equivalent_norm(
            T,
            s,
            lattice=(cone.kind == "orthant"),
            cone=cone,
            rng=np.random.default_rng(args.seed),
            norm=cone.norm,
        )
        payload = {
            "mode": "norm",
            "s": float(cert.s),
            "K": int(cert.K),
            "contraction_factor": float(cert.contraction_factor),
            "lattice": bool(cert.lattice),
        }
    payload["operator"] = operator_to_dict(T)
    _emit_json(payload, args)
    return EXIT_OK


def _cmd_simulate(args):
    T = _load_operator(args.matrix)
    cone = _make_cone(args, T.dim)
    with open(args.input) as fh:
        u = input_from_dict(json.load(fh))
    x0 = _load_vector(args.x0) if args.x0 else np.zeros(T.dim)
    K = args.steps if args.steps is not None else len(u)
    traj = simulate(T, x0, u, K=K, norm=cone.norm)
    lines = ["step," + ",".join(f"x{i}" for i in range(T.dim)) + ",norm"]
    for k, (state, nv) in enumerate(zip(traj.states, traj.norms)):
        lines.append(f"{k}," + ",".join(repr(float(v)) for v in state) + f",{float(nv)!r}")
    _emit_text("\n".join(lines) + "\n", args)
    summary = {"steps": int(K), "final_norm": float(traj.norms[-1]), "norm": cone.norm}
    if spectral_radius(T).upper < 1.0:
        iss_est = iss_constants(T, norm=cone.norm)
        ok = verify_iss_bound(T, iss_est, trials=20, rng=np.random.default_rng(args.seed))
        summary["iss"] = iss_est.to_dict()
        summary["iss_bound_verified"] = bool(ok)
    else:
        summary["iss"] = None
        summary["iss_bound_verified"] = False
    if args.out:
        print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_datko(args):
    T = _load_operator(args.matrix)
    cone = _make_cone(args, T.dim)
    x0 = _load_vector(args.x0) if args.x0 else np.ones(T.dim)
    res = datko_test(T, x0, args.p_index, K=args.steps, norm=cone.norm)
    lines = ["checkpoint,partial_sum"]
    for j, s in enumerate(res.dyadic_sums):
        lines.append(f"{j},{float(s)!r}")
    _emit_text("\n".join(lines) + "\n", args)
    if args.out:
        print(json.dumps(res.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_gallery(args):
    name = args.name
    if name == "build" and args.extra:
        name = args.extra
    if name == "list":
        _emit_json({"entries": gallery_names()}, args)
        return EXIT_OK
    entry = gallery_build(name, dim=args.dim)
    cfg = CrossCheckConfig(tol=args.tol, seed=args.seed)
    notes = (entry.pathology,) if entry.pathology else ()
    report = cross_check(entry.operator, entry.cone, cfg, extra_notes=notes)
    payload = report.to_dict()
    payload["gallery"] = {
        "name": entry.name,
        "expected": [
            {"criterion": cid, "holds": bool(val), "note": note}
            for cid, val, note in entry.expected
        ],
        "params": entry.params,
        "pathology": entry.pathology,
    }
    _emit_json(payload, args)
    return _CONSENSUS_EXIT[report.consensus]


_COMMANDS = {
    "analyze": _cmd_analyze,
    "decay-point": _cmd_decay_point,
    "lyapunov": _cmd_lyapunov,
    "simulate": _cmd_simulate,
    "datko": _cmd_datko,
    "gallery": _cmd_gallery,
}


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, SpectralProximityError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's oracle passes correct outputs and catches planted wrong ones.

Run with `PYTHONPATH=src python -m pytest certbench/test_oracle.py` from the
repository root.
"""

import copy

import numpy as np
import posstab as ps
import pytest

import inputs
import oracle
import worker

UPPER2X2 = np.array([[0.5, 1.0], [0.0, 0.5]])


def certify_op(a, cone="orthant", norm="linf"):
    return inputs.Op("t", "certify", a, cone, norm)


def simulate_op(a, K=60):
    rng = np.random.default_rng(0)
    n = a.shape[0]
    return inputs.Op("t", "simulate", a, x0=rng.uniform(0, 1, n), u=rng.uniform(-1, 1, (K, n)), K=K)


def check(op, out):
    ref = oracle.Reference(op.matrix)
    if op.kind == "certify":
        return oracle.check_certify(ref, op.cone, op.norm, out)
    return oracle.check_simulate(ref, op.x0, op.u, op.K, out)


@pytest.fixture(scope="module")
def stable():
    op = certify_op(UPPER2X2)
    return op, worker._certify(ps, op, 0)


@pytest.fixture(scope="module")
def unstable():
    op = certify_op(3.0 * UPPER2X2)
    return op, worker._certify(ps, op, 0)


@pytest.fixture(scope="module")
def lorentz_unstable():
    a = inputs.lorentz_positive(np.random.default_rng(5), 4, 1.5)
    op = certify_op(a, "lorentz", "l2")
    return op, worker._certify(ps, op, 0)


@pytest.fixture(scope="module")
def simulated():
    op = simulate_op(UPPER2X2)
    return op, worker._simulate(ps, op, 0)


def test_upper2x2_passes_every_check(stable, simulated):
    op, rep = stable
    assert oracle.Reference(op.matrix).rho == 0.5
    assert rep["lyapunov"] is not None and rep["iss"] is not None
    assert check(op, rep) == []
    assert check(*simulated) == []


def test_valid_witnesses_pass(unstable, lorentz_unstable):
    for op, rep in (unstable, lorentz_unstable):
        assert rep["consensus"] == "UNSTABLE"
        assert check(op, rep) == []


def _iss_sum(rep, a):
    return sum(np.linalg.norm(np.linalg.matrix_power(a, k), np.inf) for k in range(rep["iss"]["K"] + 1))


def _set(path, value):
    def mutate(rep, a):
        *head, last = path
        node = rep
        for key in head:
            node = node[key]
        node[last] = value(node[last], rep, a) if callable(value) else value

    return mutate


def _verdict(vid, field, value):
    def mutate(rep, a):
        v = next(v for v in rep["criteria"] if v["id"] == vid)
        if field == "z":
            v["witness"]["vector"][1] = -1.0
        else:
            v[field] = value(v[field])

    return mutate


PLANTED = {
    "consensus flipped": _set(["consensus"], "UNSTABLE"),
    "criterion flipped": _verdict("UNIFORM_SG", "holds", lambda h: not h),
    "bracket shifted": _set(["spectral", "lower"], 0.5 + 1e-6),
    "Q moved by 1e-6": _set(["lyapunov", "Q", 0, 1], lambda q, r, a: q + 1e-6),
    "equivalent-norm depth too small": _set(["lyapunov", "equivalent_norm", "K"], 1),
    "ISS M shrunk": _set(["iss", "M"], lambda m, r, a: 0.9 * m),
    "ISS C shrunk below the sum": _set(["iss", "C"], lambda c, r, a: _iss_sum(r, a) * (1 - 1e-6)),
    "MBI constant shrunk": _verdict("MBI", "margin", lambda c: 0.9 * c),
    "strict-decay point not interior": _verdict("STRICT_DECAY", "z", None),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_report_fault_is_caught(stable, name):
    op, rep = stable
    bad = copy.deepcopy(rep)
    PLANTED[name](bad, op.matrix)
    assert check(op, bad), name


def _push_out(w):
    """Move the witness's cone vector out of the cone."""
    key = {"rank_one_perturbation": "z", "dual_functional": "functional"}.get(w["kind"], "vector")
    v = np.asarray(w[key], dtype=float)
    v[0] = -1.0 - np.abs(v).max()
    w[key] = v.tolist()


@pytest.mark.parametrize("case", ["unstable", "lorentz_unstable"])
def test_witness_pushed_out_of_the_cone_is_caught(request, case):
    op, rep = request.getfixturevalue(case)
    pushed = 0
    for i, v in enumerate(rep["criteria"]):
        w = v["witness"]
        if v["holds"] or w is None or w["kind"] in ("flag", "column"):
            continue
        if v["id"] in ("SUBFIXED_POS", "RESOLVENT_POS", "MBI"):
            continue  # these witnesses are claimed to lie outside the cone
        bad = copy.deepcopy(rep)
        _push_out(bad["criteria"][i]["witness"])
        assert check(op, bad), v["id"]
        pushed += 1
    assert pushed >= 4


def test_perturbed_simulation_is_caught(simulated):
    op, out = simulated
    bad = dict(out, states=out["states"].copy())
    bad["states"][5, 0] += 1e-6
    assert check(op, bad)
    assert check(op, dict(out, verified=False))
    assert check(op, dict(out, iss=dict(out["iss"], C=0.5 * out["iss"]["C"])))

import json

import numpy as np
import pytest

from posstab.cli import main

UPPER2X2 = {"variant": "dense", "rows": [[0.5, 1.0], [0.0, 0.5]]}


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, payload):
        p = tmp_path / name
        with open(p, "w") as fh:
            json.dump(payload, fh)
        paths[name] = str(p)
        return str(p)

    write("upper2x2.json", UPPER2X2)
    write("diag15.json", {"variant": "diagonal", "entries": [1.5]})
    write("diag0999.json", {"variant": "diagonal", "entries": [0.999]})
    write("u.json", {"class": "linf", "values": [[1.0, 0.0]] * 20})
    write("y.json", [1.0, 1.0])
    paths["tmp"] = str(tmp_path)
    return paths


def run(argv):
    return main(argv)


def test_analyze_stable_exit_zero(files, capsys):
    code = run(
        ["analyze", "--matrix", files["upper2x2.json"], "--cone", "orthant", "--norm", "linf",
         "--no-timestamp"]
    )
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["consensus"] == "STABLE"
    assert rep["spectral"]["perron_value"] == pytest.approx(0.5, abs=1e-10)
    assert len(rep["criteria"]) == 13
    assert all(c["holds"] for c in rep["criteria"])


def test_analyze_unstable_exit_two(files, capsys):
    code = run(["analyze", "--matrix", files["diag15.json"], "--no-timestamp"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 2
    assert rep["consensus"] == "UNSTABLE"
    assert all(c["witness"] is not None for c in rep["criteria"])


def test_analyze_boundary_exit_three(files, capsys):
    code = run(["analyze", "--matrix", files["diag0999.json"], "--no-timestamp"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 3
    assert rep["consensus"] == "BOUNDARY"


def test_analyze_missing_file_exit_one(files, capsys):
    code = run(["analyze", "--matrix", files["tmp"] + "/nope.json", "--no-timestamp"])
    assert code == 1


def test_analyze_determinism_byte_identical(files, tmp_path):
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    for out in (out1, out2):
        code = run(
            ["analyze", "--matrix", files["upper2x2.json"], "--seed", "7",
             "--no-timestamp", "--out", out]
        )
        assert code == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_timestamp_included_by_default(files, capsys):
    run(["analyze", "--matrix", files["upper2x2.json"]])
    rep = json.loads(capsys.readouterr().out)
    assert "timestamp" in rep


def test_decay_point(files, capsys):
    code = run(
        ["decay-point", "--matrix", files["upper2x2.json"], "--lambda", "0.75",
         "--y-file", files["y.json"], "--no-timestamp"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    np.testing.assert_allclose(payload["z"], [20.0, 4.0], atol=1e-8)
    assert payload["lambda"] == 0.75
    assert payload["realized_lambda"] <= 0.75 + 1e-10


def test_decay_point_bad_lambda_exit_one(files, capsys):
    code = run(
        ["decay-point", "--matrix", files["upper2x2.json"], "--lambda", "0.3", "--no-timestamp"]
    )
    assert code == 1


def test_decay_point_refuses_a_map_that_is_not_positive(tmp_path, capsys):
    path = tmp_path / "signed.json"
    path.write_text(json.dumps({"variant": "dense", "rows": [[0.5, -1.0], [0.0, 0.5]]}))
    code = run(["decay-point", "--matrix", str(path), "--lambda", "0.75", "--no-timestamp"])
    err = capsys.readouterr().err
    assert code == 1
    assert "T must be positive on the cone" in err
    assert "internal error" not in err


def test_lyapunov_stein(files, capsys):
    code = run(["lyapunov", "--matrix", files["upper2x2.json"], "--mode", "stein",
                "--no-timestamp"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["residual"] <= 1e-8
    np.testing.assert_allclose(payload["Q"], [[4 / 3, 8 / 9], [8 / 9, 116 / 27]], atol=1e-8)


def test_lyapunov_norm_mode(files, capsys):
    code = run(["lyapunov", "--matrix", files["upper2x2.json"], "--mode", "norm",
                "--no-timestamp"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["lattice"] is True
    assert payload["contraction_factor"] <= 1.0 / payload["s"] + 1e-8


def test_lyapunov_norm_mode_signed_map_gets_the_plain_variant(files, capsys):
    path = files["tmp"] + "/signed.json"
    with open(path, "w") as fh:
        json.dump({"variant": "dense", "rows": [[0.5, -1.0], [0.0, 0.5]]}, fh)
    code = run(["lyapunov", "--matrix", path, "--mode", "norm", "--no-timestamp"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["lattice"] is False
    assert payload["contraction_factor"] <= 1.0 / payload["s"] + 1e-8


def test_lyapunov_norm_mode_rejects_a_nan_s(files, capsys):
    code = run(["lyapunov", "--matrix", files["upper2x2.json"], "--mode", "norm", "--s", "nan"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: s must be finite")


@pytest.mark.parametrize(
    "argv",
    [
        ["gallery", "upper2x2", "--cone", "lorentz"],
        ["gallery", "upper2x2", "--norm", "l2"],
        ["decay-point", "--matrix", "m.json", "--lambda", "0.75", "--seed", "1"],
        ["datko", "--matrix", "m.json", "--seed", "1"],
        ["lyapunov", "--matrix", "m.json", "--seed", "1"],
    ],
    ids=["gallery-cone", "gallery-norm", "decay-point-seed", "datko-seed", "lyapunov-seed"],
)
def test_flags_a_subcommand_does_not_read_are_usage_errors(argv, capsys):
    assert run(argv) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("analyze", [[0.5, 0.0], [0.0, 0.5]], "operator must be a JSON object, not list"),
        ("analyze", {"variant": "dense"}, "dense operator needs the key 'rows'"),
        ("analyze", {"variant": "dense", "rows": {"a": 1}}, "malformed dense operator"),
        ("simulate", {"class": "linf"}, 'input signal must be a JSON object with a "values" list'),
    ],
    ids=["bare-list", "dense-without-rows", "dense-rows-not-a-list", "input-without-values"],
)
def test_malformed_input_files_are_usage_errors(files, command, payload, message, capsys):
    path = files["tmp"] + "/bad.json"
    with open(path, "w") as fh:
        json.dump(payload, fh)
    argv = ["analyze", "--matrix", path]
    if command == "simulate":
        argv = ["simulate", "--matrix", files["upper2x2.json"], "--input", path]
    assert run(argv + ["--no-timestamp"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_simulate_csv_and_summary(files, tmp_path, capsys):
    out = str(tmp_path / "traj.csv")
    code = run(
        ["simulate", "--matrix", files["upper2x2.json"], "--input", files["u.json"],
         "--no-timestamp", "--out", out]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["iss_bound_verified"] is True
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "step,x0,x1,norm"
    assert len(lines) == 22  # header + 21 states
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    # norms column parses as floats
    for ln in lines[1:]:
        float(ln.split(",")[-1])


@pytest.mark.parametrize(
    "command, steps, message",
    [("simulate", "-1", "K must be >= 0, got -1"), ("datko", "0", "K must be >= 1, got 0")],
)
def test_invalid_horizons_are_usage_errors(files, command, steps, message, capsys):
    argv = [command, "--matrix", files["upper2x2.json"], "--steps", steps]
    if command == "simulate":
        argv += ["--input", files["u.json"]]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_datko_csv_and_classification(files, tmp_path, capsys):
    out = str(tmp_path / "datko.csv")
    code = run(
        ["datko", "--matrix", files["upper2x2.json"], "--p", "2", "--no-timestamp", "--out", out]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "convergent"
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "checkpoint,partial_sum"
    sums = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert sums == sorted(sums)  # partial sums are nondecreasing


def test_gallery_list(capsys):
    code = run(["gallery", "list", "--no-timestamp"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "shift2R" in payload["entries"]


def test_gallery_shift_pathology_flag(capsys):
    code = run(["gallery", "shift2R", "--dim", "8", "--no-timestamp"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0  # the truncation itself is stable
    assert any("TRUNCATION-PATHOLOGY" in n for n in payload["notes"])
    assert payload["gallery"]["pathology"] is not None


def test_gallery_unknown_exit_one(capsys):
    assert run(["gallery", "no_such_entry", "--no-timestamp"]) == 1


def test_gallery_build_alias(capsys):
    code = run(["gallery", "build", "upper2x2", "--no-timestamp"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["gallery"]["name"] == "upper2x2"


def test_operator_roundtrip_through_report(files, capsys):
    run(["analyze", "--matrix", files["upper2x2.json"], "--no-timestamp"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["operator"] == UPPER2X2


def test_csv_matrix_ingestion(tmp_path, capsys):
    p = tmp_path / "m.csv"
    p.write_text("0.5,1.0\n0.0,0.5\n")
    code = run(["analyze", "--matrix", str(p), "--no-timestamp"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["operator"] == UPPER2X2


def test_usage_error_exit_one():
    assert run(["analyze"]) == 1  # missing --matrix
    assert run(["frobnicate"]) == 1

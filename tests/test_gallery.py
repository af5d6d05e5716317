import numpy as np
import pytest

from posstab import (
    apply,
    cross_check,
    gallery_build,
    gallery_names,
    is_interior,
    power_norms,
    spectral_radius,
    strong_small_gain_check,
    uniform_small_gain_margin,
)
from posstab.gallery import strong_small_gain_violates


def test_gallery_names_and_unknown():
    names = gallery_names()
    assert "upper2x2" in names and "shift2R" in names
    with pytest.raises(ValueError):
        gallery_build("nonexistent")


def test_upper2x2_expected_table_reproduced():
    entry = gallery_build("upper2x2")
    rep = cross_check(entry.operator, entry.cone)
    assert rep.consensus == "STABLE"
    for cid, expected, _note in entry.expected:
        assert rep.verdict(cid).holds == expected
    # strict decay at (6,2), no strict decay at (2,2)
    decay = np.array(entry.params["decay_point"])
    no_decay = np.array(entry.params["non_decay_point"])
    assert is_interior(entry.cone, decay - apply(entry.operator, decay))[0]
    assert not is_interior(entry.cone, no_decay - apply(entry.operator, no_decay))[0]
    est = spectral_radius(entry.operator)
    assert est.perron_value == pytest.approx(0.5, abs=1e-10)


def test_shift2r_power_norms_and_pathology():
    entry = gallery_build("shift2R", dim=8)
    pn = power_norms(entry.operator, 8, "linf")
    np.testing.assert_array_equal(pn, [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 0.0])
    assert entry.pathology is not None and "TRUNCATION-PATHOLOGY" in entry.pathology
    rep = cross_check(entry.operator, entry.cone, extra_notes=(entry.pathology,))
    assert rep.verdict("SIMPLE_SG").holds  # nilpotent truncation looks stable
    assert any("TRUNCATION-PATHOLOGY" in note for note in rep.notes)


def test_shift2r_strong_small_gain_trials():
    assert strong_small_gain_check(dim=8, trials=1000, rng=np.random.default_rng(0))


def test_strong_small_gain_single_case():
    x = np.array([0.0, 0.3, 0.0, 1.0])
    d = np.array([0.5, 2.0, 9.0, 1.0])
    assert strong_small_gain_violates(x, d)
    with pytest.raises(ValueError):
        strong_small_gain_violates(np.zeros(4), d)
    with pytest.raises(ValueError):
        strong_small_gain_violates(x, np.zeros(4))


def test_shift2r_coexistence_of_facts():
    # growth of power norms and the strong small-gain property in one report
    entry = gallery_build("shift2R", dim=8)
    pn = power_norms(entry.operator, 7, "linf")
    assert all(pn[k] == 2.0**k for k in range(8))
    assert strong_small_gain_check(dim=8, trials=100, rng=np.random.default_rng(1))


def test_multiplication_eta_matches_grid_rate():
    entry = gallery_build("multiplication", dim=8)
    eta, verdict = uniform_small_gain_margin(entry.operator, entry.cone)
    assert verdict.holds
    assert eta == pytest.approx(np.exp(-7.0), abs=1e-12)
    assert eta == pytest.approx(entry.params["eta_expected"], abs=1e-15)


def test_multiplication_eta_strictly_decreasing_in_grid():
    etas = []
    for n in (4, 6, 8):
        entry = gallery_build("multiplication", dim=n)
        eta, _ = uniform_small_gain_margin(entry.operator, entry.cone)
        assert eta == pytest.approx(np.exp(-(n - 1)), abs=1e-12)
        etas.append(eta)
    assert etas[0] > etas[1] > etas[2]


def test_diag_strong_stable_slow_uniform_rate():
    entry = gallery_build("diag_strong_stable", dim=64)
    pn = power_norms(entry.operator, 64, "l2")
    rate = 1.0 - 1.0 / 65.0
    for k in range(1, 65):
        assert pn[k] ** (1.0 / k) >= rate - 1e-12
    # per-start decay: every coordinate shrinks
    x = np.ones(64)
    xk = x.copy()
    for _ in range(64):
        xk = apply(entry.operator, xk)
    assert np.all(xk < x)


def test_lorentz_demo_positive_and_stable():
    entry = gallery_build("lorentz_demo")
    rep = cross_check(entry.operator, entry.cone)
    assert rep.consensus == "STABLE"
    for cid, expected, _ in entry.expected:
        assert rep.verdict(cid).holds == expected


@pytest.mark.parametrize("name", ["multiplication", "diag_strong_stable"])
def test_expected_tables_reproduced_by_cross_check(name):
    entry = gallery_build(name, dim=8 if name == "multiplication" else 32)
    notes = (entry.pathology,) if entry.pathology else ()
    rep = cross_check(entry.operator, entry.cone, extra_notes=notes)
    for cid, expected, _note in entry.expected:
        assert rep.verdict(cid).holds == expected

"""Acceptance gate: the thirteen headline claims at their stated tolerances.

Each criterion is one test, so the verbose run prints one pass/fail line
per criterion. Tolerances are written literally here, independent of the
pass booleans the check functions compute for the CLI records.
"""

from fractions import Fraction

import pytest

from spincorr import qfw
from spincorr.checks import (
    check_bmt_consistency,
    check_boost_covariance,
    check_case_equality,
    check_conservation,
    check_gradient_oracle,
    check_larmor_limit,
    check_negative_result,
    check_ordering_identity,
    check_parity,
    check_pitch_lock,
    check_spectrum_preservation,
)


def _announce(num, name, passed, value):
    print(f"criterion {num:2d} {name}: {'PASS' if passed else 'FAIL'} value={value}")


def test_criterion_01_larmor_limit():
    r = check_larmor_limit()
    _announce(1, r.name, r.value < 1e-6, r.value)
    assert r.value < 1e-6


def test_criterion_02_conservation():
    r = check_conservation()
    ok = r.value["spin_drift"] < 1e-9 and r.value["energy_drift"] < 1e-8
    _announce(2, r.name, ok, r.value)
    assert r.value["spin_drift"] < 1e-9
    assert r.value["energy_drift"] < 1e-8
    assert r.detail["steps"] == 100_000
    assert r.detail["energy_steps"] == 10_000


def test_criterion_03_pitch_lock():
    r = check_pitch_lock()
    _announce(3, r.name, r.value < 1e-8, r.value)
    assert r.detail["periods"] == 10
    assert r.value < 1e-8


def test_criterion_04_bmt_consistency():
    r = check_bmt_consistency()
    order = r.value["stencil_order"]
    ratio = r.value["f_term_ratio"]
    ok = abs(order - 4.0) <= 0.3 and ratio >= 10.0
    _announce(4, r.name, ok, r.value)
    assert order == pytest.approx(4.0, abs=0.3)
    assert ratio >= 10.0


def test_criterion_05_gradient_oracle():
    r = check_gradient_oracle()
    _announce(5, r.name, r.value < 1e-7, r.value)
    assert r.detail["states"] == 1000
    assert r.value < 1e-7


def test_criterion_06_case_equality():
    r = check_case_equality(order=8)
    ok = r.value == {"case_i_residual_terms": 0, "case_ii_residual_terms": 0}
    _announce(6, r.name, ok, r.value)
    assert r.value["case_i_residual_terms"] == 0
    assert r.value["case_ii_residual_terms"] == 0
    assert r.passed


def test_criterion_07_ordering_identity():
    r = check_ordering_identity()
    _announce(7, r.name, r.passed, r.value)
    assert r.value["commuting_identity"]
    assert r.value["homogeneous_exact"]
    assert r.value["epsilon_expansion"]
    assert r.value["defect_decomposition"]
    assert r.value["shadow_zero"]


def test_criterion_08_darwin_anchors():
    m, e = Fraction(3, 2), Fraction(5, 7)
    dirac = qfw.darwin_coefficient(m, e, gamma_m=e / m)
    mu_p = Fraction(4, 11)
    neutral = qfw.darwin_coefficient(Fraction(2), 0, gamma_m=2 * mu_p)
    ok = dirac == e / (8 * m ** 2) and neutral == -mu_p / 4
    _announce(8, "darwin_anchors", ok, {"dirac": str(dirac), "neutral": str(neutral)})
    assert dirac == e / (8 * m ** 2)
    assert neutral == -mu_p / 4


def test_criterion_09_spectrum_preservation():
    r = check_spectrum_preservation()
    ok = r.value["spectrum"] < 1e-10 and r.value["block_diagonality"] < 1e-11
    _announce(9, r.name, ok, r.value)
    assert r.value["spectrum"] < 1e-10
    assert r.value["block_diagonality"] < 1e-11
    # case I: 12 k_y blocks, each split in two beta halves of 24
    assert r.detail["fw_blocks"] == {"case_i": [[24, 24]], "case_ii": [[2, 128]]}


def test_criterion_10_correspondence_scaling():
    lams = (1e-2, 1e-3, 1e-4)
    lat_i, lat_ii = qfw.default_lattice(qfw.CASE_I), qfw.default_lattice(qfw.CASE_II)
    par_i, par_ii = qfw.default_params(qfw.CASE_I, lat_i), qfw.default_params(qfw.CASE_II, lat_ii)
    _, slope_i = qfw.residual_scaling(qfw.CASE_I, lat_i, par_i, lams)
    _, slope_ii = qfw.residual_scaling(qfw.CASE_II, lat_ii, par_ii, lams)
    slope_ii_nod = qfw.darwin_vs_classical_hd(lat_ii, par_ii, lams)["slope_without_darwin"]
    value = {"case_i": slope_i, "case_ii": slope_ii, "case_ii_no_darwin": slope_ii_nod}
    ok = (
        abs(slope_i - 2.0) <= 0.1
        and abs(slope_ii - 2.0) <= 0.1
        and abs(slope_ii_nod - 1.0) <= 0.1
    )
    _announce(10, "correspondence_scaling", ok, value)
    assert slope_i == pytest.approx(2.0, abs=0.1)
    assert slope_ii == pytest.approx(2.0, abs=0.1)
    assert slope_ii_nod == pytest.approx(1.0, abs=0.1)


def test_criterion_11_negative_result():
    r = check_negative_result()
    _announce(11, r.name, r.passed, r.value)
    assert r.value["gap_over_darwin"] >= r.value["required_gap"]
    assert r.value["fit_rel_dev"] < 1e-3
    assert r.value["slope_with_darwin"] == pytest.approx(2.0, abs=0.1)
    assert r.value["slope_without_darwin"] == pytest.approx(1.0, abs=0.1)
    assert r.passed


def test_criterion_12_parity():
    r = check_parity()
    _announce(12, r.name, r.value < 1e-12, r.value)
    assert r.value < 1e-12


def test_criterion_13_boost_covariance():
    r = check_boost_covariance()
    ok = all(abs(s - 2.0) <= 0.1 for s in r.value["slopes"])
    _announce(13, r.name, ok, r.value)
    for slope in r.value["slopes"]:
        assert slope == pytest.approx(2.0, abs=0.1)

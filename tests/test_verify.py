import pytest

from hahnchain.chain import ChainSpec
from hahnchain.verify import DEFAULT_TOLERANCES, run_verification


def test_battery_passes_on_plain_spec():
    report = run_verification(ChainSpec(6, 0.3, 1.2))
    names = {s.name for s in report.suites}
    assert names == set(DEFAULT_TOLERANCES)
    for suite in report.suites:
        assert suite.passed, f"{suite.name}: {suite.residual} > {suite.tolerance}"
    assert report.passed


def test_battery_passes_on_deformed_spec():
    report = run_verification(ChainSpec(6, 0.8, 0.6, 0.5))
    assert report.passed


def test_rtol_override_forces_failure():
    report = run_verification(ChainSpec(4, 0.3, 1.2), rtol=1e-18)
    assert not report.passed
    assert all(s.tolerance == 1e-18 for s in report.suites)


def test_report_dict_shape():
    report = run_verification(ChainSpec(4, 0.3, 1.2))
    d = report.as_dict()
    assert set(d) == set(DEFAULT_TOLERANCES)
    entry = d["MU-UD"]
    assert set(entry) == {"residual", "tolerance", "passed"}
    assert entry["passed"] is True


def test_q_identities_pass_at_identity_cap():
    # tiny q-Hahn values at m = 24 used to come back as 0.0 and fail both suites
    report = run_verification(ChainSpec(24, 0.3, 0.2, 0.5)).as_dict()
    assert report["q-diff-eq-1"]["passed"]
    assert report["q-diff-eq-2"]["passed"]

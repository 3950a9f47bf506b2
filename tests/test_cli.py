import json
import math

import numpy as np
import pytest

from hahnchain import cli
from hahnchain.chain import ChainSpec, analytic_eigensystem, build_couplings
from hahnchain.cli import main


def run_cli(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def test_spectrum_json(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--m", "1", "--alpha", "-0.5",
                           "--beta", "0.5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 1
    assert payload["q"] is None
    assert payload["N"] == 3
    np.testing.assert_allclose(payload["eigenvalues"], [-3.0, -1.0, 1.0, 3.0], atol=1e-12)


def test_spectrum_json_roundtrip_is_exact(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--m", "4", "--alpha", "0.37", "--beta", "2.1")
    assert code == 0
    payload = json.loads(out)
    eig = analytic_eigensystem(ChainSpec(4, 0.37, 2.1)).eigenvalues
    assert payload["eigenvalues"] == list(eig)  # bit-exact decimal round trip


def test_couplings_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "couplings", "--m", "1", "--alpha", "-0.5", "--beta", "0.5")
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["couplings"], [math.sqrt(3.0), 2.0, math.sqrt(3.0)])
    code, out, _ = run_cli(capsys, "couplings", "--m", "1", "--alpha", "-0.5",
                           "--beta", "0.5", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,J"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == math.sqrt(3.0)
    assert "\r" not in out


def test_eigvecs_json_contains_u(capsys):
    code, out, _ = run_cli(capsys, "eigvecs", "--m", "2", "--alpha", "0.3", "--beta", "1.2")
    assert code == 0
    payload = json.loads(out)
    u = np.array(payload["U"])
    assert u.shape == (6, 6)
    np.testing.assert_allclose(u.T @ u, np.eye(6), atol=1e-12)
    ref = analytic_eigensystem(ChainSpec(2, 0.3, 1.2)).U
    assert payload["U"] == [list(row) for row in ref]  # exact decimal round trip


def test_correlate_csv_schema(capsys):
    code, out, _ = run_cli(capsys, "correlate", "--m", "2", "--alpha", "0.5", "--beta", "1.5",
                           "--r", "5", "--s", "0", "--t-min", "0", "--t-max", "3.1416",
                           "--steps", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,re,im,abs"
    assert len(lines) == 3
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0
    assert abs(first[3]) <= 1e-12  # no transfer amplitude at t = 0 for r != s


def test_correlate_reports_special_fields(capsys):
    code, out, _ = run_cli(capsys, "correlate", "--m", "2", "--alpha", "0.5", "--beta", "1.5",
                           "--r", "5", "--s", "0", "--steps", "3")
    assert code == 0
    payload = json.loads(out)
    special = payload["special"]
    np.testing.assert_allclose(special["half_pi"]["abs"], 1.0, atol=1e-12)
    assert special["rational_window"] == {"k": 0, "l": 1, "time": math.pi / 2.0}
    assert "pi" in special


def test_correlate_reports_q_closed_form(capsys):
    code, out, _ = run_cli(capsys, "correlate", "--m", "2", "--alpha", "0.8", "--beta", "0.4",
                           "--q", "0.5", "--r", "5", "--s", "0", "--steps", "5")
    assert code == 0
    payload = json.loads(out)
    closed = payload["special"]["q_closed_form"]
    assert len(closed) == 5
    for sample, ref in zip(closed, payload["samples"]):
        assert abs(sample["re"] - ref["re"]) <= 1e-10
        assert abs(sample["im"] - ref["im"]) <= 1e-10


def test_correlate_requires_sites(capsys):
    code, _, err = run_cli(capsys, "correlate", "--m", "2", "--alpha", "0.5", "--beta", "1.5")
    assert code == 1
    assert "requires --r and --s" in err


def test_invalid_parameters_exit_one(capsys):
    code, _, _ = run_cli(capsys, "spectrum", "--m", "2", "--alpha", "0.5", "--beta", "0.0")
    assert code == 1
    code, _, _ = run_cli(capsys, "spectrum", "--m", "2", "--alpha", "0.5")
    assert code == 1
    code, _, _ = run_cli(capsys, "spectrum", "--m", "2", "--alpha", "0.5", "--beta", "1.0",
                         "--format", "yaml")
    assert code == 1
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 1


@pytest.mark.parametrize("beta", ["inf", "1e308"])  # 1e308: the eigenvalues overflow
def test_non_finite_inputs_and_outputs_exit_one(capsys, beta):
    code, out, err = run_cli(capsys, "spectrum", "--m", "1", "--alpha", "0.5", "--beta", beta)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_non_finite_grid_bound_exits_one(capsys):
    code, out, err = run_cli(capsys, "correlate", "--m", "2", "--alpha", "0.5", "--beta", "1.5",
                             "--r", "5", "--s", "0", "--t-max", "inf", "--format", "csv")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_csv_refuses_non_finite_values(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--m", "1", "--alpha", "0.5",
                             "--beta", "1e308", "--format", "csv")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_arithmetic_error_exits_one(capsys, monkeypatch):
    def failing_check(*args):
        raise ArithmeticError("folded and direct sums disagree")

    monkeypatch.setattr(cli, "correlation", failing_check)
    code, out, err = run_cli(capsys, "correlate", "--m", "2", "--alpha", "0.5", "--beta", "1.5",
                             "--r", "5", "--s", "0", "--steps", "3")
    assert code == 1
    assert out == ""
    assert err == "error: folded and direct sums disagree\n"


def test_pst_scan_flags_linear_chain(capsys):
    code, out, _ = run_cli(capsys, "pst-scan", "--m", "1", "--alpha", "-0.5", "--beta", "0.5",
                           "--t-min", "0", "--t-max", str(math.pi), "--steps", "5",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,modulus,is_perfect"
    flagged = [ln for ln in lines[1:] if ln.endswith(",true")]
    assert len(flagged) == 1
    assert abs(float(flagged[0].split(",")[0]) - math.pi / 2.0) < 1e-12


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "4", "--alpha", "0.3", "--beta", "1.2")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["suites"]["MU-UD"]["passed"] is True


def test_verify_failure_exits_two(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "4", "--alpha", "0.3", "--beta", "1.2",
                           "--rtol", "1e-18")
    assert code == 2
    payload = json.loads(out)
    assert payload["passed"] is False


def test_output_file_and_io_error(tmp_path, capsys):
    target = tmp_path / "spec.json"
    code, out, _ = run_cli(capsys, "spectrum", "--m", "1", "--alpha", "-0.5", "--beta", "0.5",
                           "--output", str(target))
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    np.testing.assert_allclose(payload["eigenvalues"], [-3.0, -1.0, 1.0, 3.0], atol=1e-12)
    code, _, err = run_cli(capsys, "spectrum", "--m", "1", "--alpha", "-0.5", "--beta", "0.5",
                           "--output", str(tmp_path / "missing_dir" / "x.json"))
    assert code == 3
    assert "i/o error" in err


def test_csv_uses_lf_and_repr_roundtrip(tmp_path, capsys):
    target = tmp_path / "couplings.csv"
    code, _, _ = run_cli(capsys, "couplings", "--m", "2", "--alpha", "0.37", "--beta", "2.1",
                         "--format", "csv", "--output", str(target))
    assert code == 0
    raw = target.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode("utf-8").splitlines()
    j = build_couplings(ChainSpec(2, 0.37, 2.1)).values
    parsed = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert parsed == list(j)  # repr round trip is exact

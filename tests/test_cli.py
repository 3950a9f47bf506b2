import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hahnchain import cli
from hahnchain.chain import ChainSpec, analytic_eigensystem, build_couplings
from hahnchain.cli import main
from hahnchain.verify import DEFAULT_TOLERANCES, run_verification


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


@pytest.mark.parametrize("spec", [ChainSpec(7, 0.37, 2.1), ChainSpec(9, 0.8, 0.4, 0.5)])
@pytest.mark.parametrize("command", ["spectrum", "couplings", "pst-scan"])
def test_json_eigenvalues_match_eigensystem_without_building_it(capsys, monkeypatch,
                                                                 command, spec):
    def refuse(_):
        raise AssertionError(f"{command} built the eigensystem")

    monkeypatch.setattr(cli, "analytic_eigensystem", refuse)
    args = ["--m", str(spec.m), "--alpha", str(spec.alpha), "--beta", str(spec.beta)]
    if spec.q is not None:
        args += ["--q", str(spec.q)]
    code, out, _ = run_cli(capsys, command, *args)
    assert code == 0
    eig = analytic_eigensystem(spec).eigenvalues
    assert json.loads(out)["eigenvalues"] == list(eig)  # bit-exact
    if command == "spectrum":
        code, out, _ = run_cli(capsys, command, *args, "--format", "csv")
        assert code == 0
        assert [float(line.split(",")[1]) for line in out.splitlines()[1:]] == list(eig)


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


def test_eigvecs_csv_parses_to_the_bits_of_u(capsys):
    code, out, _ = run_cli(capsys, "eigvecs", "--m", "2", "--alpha", "0.3", "--beta", "1.2",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i,u0,u1,u2,u3,u4,u5"
    ref = analytic_eigensystem(ChainSpec(2, 0.3, 1.2)).U
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == list(range(6))
    assert [[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]] == ref.tolist()


def test_verify_csv_lists_every_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--m", "4", "--alpha", "0.3", "--beta", "1.2",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite,residual,tolerance,passed"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == list(DEFAULT_TOLERANCES)
    for name, residual, tolerance, passed in rows:
        assert float(tolerance) == DEFAULT_TOLERANCES[name]
        assert 0.0 <= float(residual) <= float(tolerance)
        assert passed == "true"


@pytest.mark.parametrize("grid", [["--steps", "0"], ["--t-min", "2", "--t-max", "2"],
                                  ["--t-min", "3", "--t-max", "1"]])
@pytest.mark.parametrize("command", ["correlate", "pst-scan"])
def test_bad_time_grid_exits_one(capsys, command, grid):
    sites = ["--r", "5", "--s", "0"] if command == "correlate" else []
    code, out, err = run_cli(capsys, command, "--m", "2", "--alpha", "0.5", "--beta", "1.5",
                             *sites, *grid, "--format", "csv")
    assert code == 1
    assert out == ""
    assert err.startswith("error: --")


def test_spectrum_below_the_double_range_exits_one(capsys):
    # omega_0 = 2 sqrt(...) q^350 at m = 700, q = 0.1 underflows to 0
    code, out, err = run_cli(capsys, "spectrum", "--m", "700", "--alpha", "0.3", "--beta", "0.2",
                             "--q", "0.1")
    assert code == 1
    assert out == ""
    assert err == "error: omega_0 = 0.0 is not a finite normal double\n"


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


@pytest.mark.parametrize("beta", ["inf", "1e308"])  # alpha = beta = 1e308: eigenvalues overflow
def test_non_finite_inputs_and_outputs_exit_one(capsys, beta):
    alpha = "0.5" if beta == "inf" else beta
    code, out, err = run_cli(capsys, "spectrum", "--m", "1", "--alpha", alpha, "--beta", beta)
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
    # 2 sqrt((a+2)(b+1)) at a = b = 1e308 is beyond the double range
    code, out, err = run_cli(capsys, "spectrum", "--m", "1", "--alpha", "1e308",
                             "--beta", "1e308", "--format", "csv")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_spectrum_at_huge_beta_is_finite(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--m", "1", "--alpha", "0.5", "--beta", "1e308")
    assert code == 0
    assert err == ""
    eig = json.loads(out)["eigenvalues"]  # strict JSON: no Infinity tokens
    assert all(math.isfinite(e) for e in eig)
    np.testing.assert_allclose(eig[2:], [2.0 * math.sqrt(1.5e308), 2.0 * math.sqrt(2.5) * 1e154],
                               rtol=1e-15)


@pytest.mark.parametrize("command", ["correlate", "pst-scan"])
def test_phase_noise_grid_exits_one(capsys, command):
    sites = ["--r", "5", "--s", "0"] if command == "correlate" else []
    code, out, err = run_cli(capsys, command, "--m", "2", "--alpha", "0.5", "--beta", "1.5",
                             *sites, "--t-min", "1e300", "--t-max", "2e300", "--format", "csv")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "phase" in err


@pytest.mark.parametrize("command", ["correlate", "pst-scan"])
def test_grid_too_large_to_allocate_exits_one(capsys, monkeypatch, command):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

    monkeypatch.setattr(np, "linspace", no_memory)  # nothing is really allocated
    sites = ["--r", "5", "--s", "0"] if command == "correlate" else []
    code, out, err = run_cli(capsys, command, "--m", "2", "--alpha", "0.5", "--beta", "1.5",
                             *sites, "--steps", "1000000000000", "--format", "csv")
    assert code == 1
    assert out == ""
    assert err.startswith("error: Unable to allocate")


@pytest.mark.parametrize("tolerance", ["5", "1", "-5", "nan"])
def test_pst_scan_rejects_tolerance_outside_unit_interval(capsys, tolerance):
    code, out, err = run_cli(capsys, "pst-scan", "--m", "2", "--alpha", "0.5", "--beta", "1.5",
                             "--steps", "3", "--tolerance", tolerance, "--format", "csv")
    assert code == 1
    assert out == ""
    assert err.startswith("error: tolerance")


def test_phase_bound_admits_grids_to_thousands_at_m50(capsys):
    # max|e| = 2(alpha + m + 1) = 103 at m = 50: the bound sits near t = 4.4e3
    base = ["pst-scan", "--m", "50", "--alpha", "0.5", "--beta", "1.5", "--steps", "3",
            "--format", "csv"]
    code, _, _ = run_cli(capsys, *base, "--t-max", "4000")
    assert code == 0
    code, out, err = run_cli(capsys, *base, "--t-max", "5000")
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


@pytest.mark.parametrize("rtol", ["-1", "nan", "inf"])
def test_verify_rejects_negative_or_nan_rtol(capsys, rtol):
    code, out, err = run_cli(capsys, "verify", "--m", "4", "--alpha", "0.3", "--beta", "1.2",
                             "--rtol", rtol)
    assert code == 1
    assert out == ""
    assert err.startswith("error: rtol")


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


_BASE_KEYS = ["m", "alpha", "beta", "q", "N"]


@pytest.mark.parametrize("argv, keys, special", [
    (["couplings", "--m", "1", "--alpha", "-0.5", "--beta", "0.5"],
     [*_BASE_KEYS, "eigenvalues", "couplings"], None),
    (["spectrum", "--m", "1", "--alpha", "-0.5", "--beta", "0.5"],
     [*_BASE_KEYS, "eigenvalues"], None),
    (["eigvecs", "--m", "1", "--alpha", "0.8", "--beta", "0.4", "--q", "0.5"],
     [*_BASE_KEYS, "eigenvalues", "U"], None),
    (["correlate", "--m", "1", "--alpha", "-0.5", "--beta", "0.5", "--r", "3", "--s", "0",
      "--steps", "3"],
     [*_BASE_KEYS, "eigenvalues", "r", "s", "samples", "special"],
     ["half_pi", "pi", "rational_window"]),
    (["correlate", "--m", "1", "--alpha", "0.8", "--beta", "0.4", "--q", "0.5", "--r", "3",
      "--s", "0", "--steps", "3"],
     [*_BASE_KEYS, "eigenvalues", "r", "s", "samples", "special"], ["q_closed_form"]),
    (["correlate", "--m", "1", "--alpha", "0.3", "--beta", "1.2", "--r", "2", "--s", "1",
      "--steps", "3"],
     [*_BASE_KEYS, "eigenvalues", "r", "s", "samples"], None),
    (["pst-scan", "--m", "1", "--alpha", "-0.5", "--beta", "0.5", "--steps", "3"],
     [*_BASE_KEYS, "eigenvalues", "tolerance", "results"], None),
    (["verify", "--m", "1", "--alpha", "-0.5", "--beta", "0.5"],
     [*_BASE_KEYS, "suites", "passed"], None),
])
def test_json_key_order_and_layout(capsys, argv, keys, special):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == keys
    if special is not None:
        assert list(payload["special"]) == special
    assert out == json.dumps(payload, indent=2) + "\n"


_HALF_PI_GRID = ["--steps", "2", "--t-max", "1.5707963267948966"]


@pytest.mark.parametrize("argv, text", [
    (["couplings"], "k,J\n0,1.7320508075688772\n1,2.0\n2,1.7320508075688772\n"),
    (["spectrum"], "j,eigenvalue\n0,-3.0\n1,-1.0\n2,1.0\n3,3.0\n"),
    (["eigvecs"],
     "i,u0,u1,u2,u3\n"
     "0,0.3535533905932737,0.6123724356957945,0.6123724356957945,0.3535533905932737\n"
     "1,-0.6123724356957945,-0.3535533905932738,0.3535533905932738,0.6123724356957945\n"
     "2,0.6123724356957946,-0.3535533905932738,-0.3535533905932738,0.6123724356957946\n"
     "3,-0.3535533905932737,0.6123724356957945,-0.6123724356957945,0.3535533905932737\n"),
    (["correlate", "--r", "3", "--s", "0", *_HALF_PI_GRID],
     "t,re,im,abs\n0.0,0.0,0.0,0.0\n"
     "1.5707963267948966,9.527693177929501e-34,0.9999999999999998,0.9999999999999998\n"),
    (["pst-scan", *_HALF_PI_GRID],
     "t,modulus,is_perfect\n0.0,0.0,false\n1.5707963267948966,1.0000000000000004,true\n"),
])
def test_csv_text_at_m1(capsys, argv, text):
    code, out, _ = run_cli(capsys, *argv, "--m", "1", "--alpha", "-0.5", "--beta", "0.5",
                           "--format", "csv")
    assert code == 0
    assert out == text


def test_verify_csv_text_at_m1(capsys):
    # the residuals are rounding noise of matrix products, so the rows are
    # pinned against the report rather than as literals
    code, out, _ = run_cli(capsys, "verify", "--m", "1", "--alpha", "-0.5", "--beta", "0.5",
                           "--format", "csv")
    assert code == 0
    report = run_verification(ChainSpec(1, -0.5, 0.5))
    assert out == "suite,residual,tolerance,passed\n" + "".join(
        f"{s.name},{s.residual!r},{s.tolerance!r},{'true' if s.passed else 'false'}\n"
        for s in report.suites)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_non_finite_output_value_exits_one_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                             fmt):
    monkeypatch.setattr(cli, "build_couplings",
                        lambda spec: SimpleNamespace(values=np.array([1.0, math.inf, 1.0])))
    argv = ["couplings", "--m", "1", "--alpha", "-0.5", "--beta", "0.5", "--format", fmt]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "inf" in err
    target = tmp_path / f"couplings.{fmt}"
    code, out, _ = run_cli(capsys, *argv, "--output", str(target))
    assert code == 1
    assert out == ""
    assert not target.exists()

"""Command-line front end.

Commands: couplings, spectrum, eigvecs, correlate, pst-scan, verify.
Output is JSON (default) or CSV, to stdout or --output.  Exit codes:
0 success, 1 invalid parameters or a value that cannot be computed or
printed, 2 verification failure, 3 I/O error.
"""

import json
import math
import sys

import click
import numpy as np

from .chain import ChainSpec, analytic_eigensystem, build_couplings
from .dynamics import (amplitude_at_halfpi, amplitude_at_pi, correlation,
                       pst_condition, pst_scan, q_end_to_end)
from .verify import run_verification

_BETA_MATCH_TOL = 1e-14


class VerificationFailure(Exception):
    pass


def _base_payload(spec):
    es = analytic_eigensystem(spec)
    return es, {
        "m": spec.m,
        "alpha": spec.alpha,
        "beta": spec.beta,
        "q": spec.q,
        "N": 2 * spec.m + 1,
        "eigenvalues": list(es.eigenvalues),
    }


def _emit(text, output):
    if output is None:
        click.echo(text, nl=False)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise exc


def _json_text(payload):
    # a non-finite value has no JSON token: ValueError, so exit code 1
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _csv_field(v):
    if not isinstance(v, (float, np.floating)):
        return str(v)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {v} in output")
    return repr(float(v))


def _csv_text(header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(_csv_field(v) for v in row))
    return "\n".join(lines) + "\n"


def _spec_from(m, alpha, beta, q):
    if m is None or alpha is None or beta is None:
        raise ValueError("--m, --alpha and --beta are required")
    return ChainSpec(m, alpha, beta, q)


def _time_grid(t_min, t_max, steps):
    if steps < 1:
        raise ValueError(f"--steps must be positive, got {steps}")
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ValueError("--t-min and --t-max must be finite")
    if steps > 1 and not t_max > t_min:
        raise ValueError("--t-max must exceed --t-min for more than one step")
    return np.linspace(t_min, t_max, steps)


def _chain_options(f):
    for opt in (
        click.option("--m", type=int, default=None, help="chain half-length (N = 2m+1)"),
        click.option("--alpha", type=float, default=None),
        click.option("--beta", type=float, default=None),
        click.option("--q", type=float, default=None, help="deformation parameter in (0,1)"),
        click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json"),
        click.option("--output", type=str, default=None, help="output path (default stdout)"),
    ):
        f = opt(f)
    return f


def _grid_options(f):
    for opt in (
        click.option("--t-min", type=float, default=0.0),
        click.option("--t-max", type=float, default=2.0 * math.pi),
        click.option("--steps", type=int, default=101),
    ):
        f = opt(f)
    return f


@click.group()
def cli():
    """Spectra, couplings, transition amplitudes and identity checks for the
    two-parameter parity-modulated chain."""


@cli.command()
@_chain_options
def couplings(m, alpha, beta, q, fmt, output):
    """Nearest-neighbour coupling strengths J_0..J_{N-1}."""
    spec = _spec_from(m, alpha, beta, q)
    j = build_couplings(spec)
    if fmt == "json":
        _, payload = _base_payload(spec)
        payload["couplings"] = list(j.values)
        _emit(_json_text(payload), output)
    else:
        _emit(_csv_text("k,J", list(enumerate(j.values))), output)


@cli.command()
@_chain_options
def spectrum(m, alpha, beta, q, fmt, output):
    """Eigenvalues of the interaction matrix, ascending."""
    spec = _spec_from(m, alpha, beta, q)
    es, payload = _base_payload(spec)
    if fmt == "json":
        _emit(_json_text(payload), output)
    else:
        _emit(_csv_text("j,eigenvalue", list(enumerate(es.eigenvalues))), output)


@cli.command()
@_chain_options
def eigvecs(m, alpha, beta, q, fmt, output):
    """Eigenvector matrix U (columns are eigenvectors) plus the spectrum."""
    spec = _spec_from(m, alpha, beta, q)
    es, payload = _base_payload(spec)
    if fmt == "json":
        payload["U"] = [list(row) for row in es.U]
        _emit(_json_text(payload), output)
    else:
        header = "i," + ",".join(f"u{j}" for j in range(es.dimension))
        rows = [(i, *row) for i, row in enumerate(es.U)]
        _emit(_csv_text(header, rows), output)


@cli.command()
@_chain_options
@_grid_options
@click.option("--r", type=int, default=None, help="receiver site")
@click.option("--s", type=int, default=None, help="sender site")
def correlate(m, alpha, beta, q, fmt, output, t_min, t_max, steps, r, s):
    """Transition amplitude f_{r,s}(t) on a uniform time grid."""
    spec = _spec_from(m, alpha, beta, q)
    if r is None or s is None:
        raise ValueError("correlate requires --r and --s")
    grid = _time_grid(t_min, t_max, steps)
    es, payload = _base_payload(spec)
    samples = [correlation(es, r, s, float(t)) for t in grid]
    if fmt == "csv":
        rows = [(c.t, c.amplitude.real, c.amplitude.imag, abs(c.amplitude)) for c in samples]
        _emit(_csv_text("t,re,im,abs", rows), output)
        return
    payload["r"] = r
    payload["s"] = s
    payload["samples"] = [
        {"t": c.t, "re": c.amplitude.real, "im": c.amplitude.imag, "abs": abs(c.amplitude)}
        for c in samples
    ]
    special = {}
    if q is None and abs(beta - (alpha + 1.0)) <= _BETA_MATCH_TOL:
        for label, t_special, amp in (
            ("half_pi", math.pi / 2.0, amplitude_at_halfpi(spec)),
            ("pi", math.pi, amplitude_at_pi(spec)),
        ):
            special[label] = {"t": t_special, "re": amp.real, "im": amp.imag, "abs": abs(amp)}
        window = pst_condition(alpha)
        special["rational_window"] = (
            None if window is None else {"k": window.k, "l": window.l, "time": window.time})
    if q is not None and abs(beta - q * alpha) <= _BETA_MATCH_TOL:
        special["q_closed_form"] = [
            {"t": float(t), "re": (v := q_end_to_end(spec, float(t))).real,
             "im": v.imag, "abs": abs(v)}
            for t in grid
        ]
    if special:
        payload["special"] = special
    _emit(_json_text(payload), output)


@cli.command(name="pst-scan")
@_chain_options
@_grid_options
@click.option("--tolerance", type=float, default=1e-9, help="modulus threshold below 1")
def pst_scan_cmd(m, alpha, beta, q, fmt, output, t_min, t_max, steps, tolerance):
    """Scan |f_{N,0}(t)| over a time grid and flag perfect-transfer instants."""
    spec = _spec_from(m, alpha, beta, q)
    grid = _time_grid(t_min, t_max, steps)
    results = pst_scan(spec, grid, tolerance=tolerance)
    if fmt == "csv":
        rows = [(p.time, p.modulus, "true" if p.is_perfect else "false") for p in results]
        _emit(_csv_text("t,modulus,is_perfect", rows), output)
        return
    _, payload = _base_payload(spec)
    payload["tolerance"] = tolerance
    payload["results"] = [
        {"t": p.time, "modulus": p.modulus, "is_perfect": p.is_perfect} for p in results
    ]
    _emit(_json_text(payload), output)


@cli.command()
@_chain_options
@click.option("--rtol", type=float, default=None, help="override every suite tolerance")
def verify(m, alpha, beta, q, fmt, output, rtol):
    """Run the full identity battery; exit 2 if any suite fails."""
    spec = _spec_from(m, alpha, beta, q)
    report = run_verification(spec, rtol=rtol)
    if fmt == "csv":
        rows = [(s.name, s.residual, s.tolerance, "true" if s.passed else "false")
                for s in report.suites]
        text = _csv_text("suite,residual,tolerance,passed", rows)
    else:
        payload = {"m": spec.m, "alpha": spec.alpha, "beta": spec.beta, "q": spec.q,
                   "N": 2 * spec.m + 1, "suites": report.as_dict(), "passed": report.passed}
        text = _json_text(payload)
    _emit(text, output)
    if not report.passed:
        raise VerificationFailure()


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except VerificationFailure:
        sys.exit(2)
    except (ValueError, ArithmeticError, click.ClickException, click.exceptions.Abort) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(3)
    sys.exit(0)


if __name__ == "__main__":
    main()

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

from .chain import ChainSpec, analytic_eigensystem, build_couplings, mode_frequencies
from .dynamics import (_BETA_MATCH_TOL, _q_closed_form, amplitude_at_halfpi, amplitude_at_pi,
                       correlation, pst_condition, pst_scan)
from .verify import DEFAULT_TOLERANCES, run_verification


class VerificationFailure(Exception):
    pass


def _head(spec, eigenvalues=True):
    """The keys every JSON payload starts with."""
    head = {"m": spec.m, "alpha": spec.alpha, "beta": spec.beta, "q": spec.q, "N": 2 * spec.m + 1}
    if eigenvalues:
        # the spectrum as analytic_eigensystem assembles it, without the eigenvectors
        w = mode_frequencies(spec)
        head["eigenvalues"] = list(np.concatenate((-w[::-1], w)))
    return head


def _csv_field(v):
    if not isinstance(v, (float, np.floating)):
        return str(v)
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {v} in output")
    return repr(float(v))


def _emit(fmt, output, header, rows, payload):
    """Write the result as CSV (header and rows()) or as JSON (payload()).

    Only the format asked for is built.  A non-finite value raises ValueError,
    so exit code 1, before anything is written.
    """
    if fmt == "json":
        text = json.dumps(payload(), indent=2, allow_nan=False) + "\n"
    else:
        text = "\n".join([header, *(",".join(map(_csv_field, row)) for row in rows())]) + "\n"
    if output is None:
        click.echo(text, nl=False)
        return
    with open(output, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _amplitude(t, amp):
    return {"t": t, "re": amp.real, "im": amp.imag, "abs": abs(amp)}


def _special(spec, grid):
    """correlate's closed-form values, where the spec admits them."""
    special = {}
    if spec.q is None and abs(spec.beta - (spec.alpha + 1.0)) <= _BETA_MATCH_TOL:
        special["half_pi"] = _amplitude(math.pi / 2.0, amplitude_at_halfpi(spec))
        special["pi"] = _amplitude(math.pi, amplitude_at_pi(spec))
        window = pst_condition(spec.alpha)
        special["rational_window"] = (
            None if window is None else {"k": window.k, "l": window.l, "time": window.time})
    if spec.q is not None and abs(spec.beta - spec.q * spec.alpha) <= _BETA_MATCH_TOL:
        special["q_closed_form"] = [
            _amplitude(t, v) for t, v in zip(grid.tolist(), _q_closed_form(spec, grid).tolist())]
    return {"special": special} if special else {}


def _spec_from(m, alpha, beta, q):
    if m is None or alpha is None or beta is None:
        raise ValueError("--m, --alpha and --beta are required")
    return ChainSpec(m, alpha, beta, q)


def _time_grid(spec, t_min, t_max, steps):
    if steps < 1:
        raise ValueError(f"--steps must be positive, got {steps}")
    if not (math.isfinite(t_min) and math.isfinite(t_max)):
        raise ValueError("--t-min and --t-max must be finite")
    if steps > 1 and not t_max > t_min:
        raise ValueError("--t-max must exceed --t-min for more than one step")
    # the phase t*e_j carries an absolute rounding error of about |t| |e_j| 2^-52;
    # past the unitarity tolerance the amplitudes would be phase noise
    noise = max(abs(t_min), abs(t_max)) * float(np.max(mode_frequencies(spec))) * 2.0 ** -52
    tol = DEFAULT_TOLERANCES["correlation-unitarity"]
    if not noise <= tol:
        raise ValueError(f"phase error max|t|*max|e|*2^-52 = {noise:.3g} exceeds {tol:g}; "
                         "shorten the time grid")
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
    _emit(fmt, output, "k,J", lambda: enumerate(j.values),
          lambda: {**_head(spec), "couplings": list(j.values)})


@cli.command()
@_chain_options
def spectrum(m, alpha, beta, q, fmt, output):
    """Eigenvalues of the interaction matrix, ascending."""
    head = _head(_spec_from(m, alpha, beta, q))
    _emit(fmt, output, "j,eigenvalue", lambda: enumerate(head["eigenvalues"]), lambda: head)


@cli.command()
@_chain_options
def eigvecs(m, alpha, beta, q, fmt, output):
    """Eigenvector matrix U (columns are eigenvectors) plus the spectrum."""
    spec = _spec_from(m, alpha, beta, q)
    es = analytic_eigensystem(spec)
    _emit(fmt, output, "i," + ",".join(f"u{j}" for j in range(es.dimension)),
          lambda: ((i, *row) for i, row in enumerate(es.U)),
          lambda: {**_head(spec), "U": [list(row) for row in es.U]})


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
    grid = _time_grid(spec, t_min, t_max, steps)
    es = analytic_eigensystem(spec)
    samples = [correlation(es, r, s, float(t)) for t in grid]
    _emit(fmt, output, "t,re,im,abs",
          lambda: ((c.t, c.amplitude.real, c.amplitude.imag, abs(c.amplitude)) for c in samples),
          lambda: {**_head(spec), "r": r, "s": s,
                   "samples": [_amplitude(c.t, c.amplitude) for c in samples],
                   **_special(spec, grid)})


@cli.command(name="pst-scan")
@_chain_options
@_grid_options
@click.option("--tolerance", type=float, default=1e-9, help="modulus threshold below 1")
def pst_scan_cmd(m, alpha, beta, q, fmt, output, t_min, t_max, steps, tolerance):
    """Scan |f_{N,0}(t)| over a time grid and flag perfect-transfer instants."""
    spec = _spec_from(m, alpha, beta, q)
    results = pst_scan(spec, _time_grid(spec, t_min, t_max, steps), tolerance=tolerance)
    _emit(fmt, output, "t,modulus,is_perfect",
          lambda: ((p.time, p.modulus, "true" if p.is_perfect else "false") for p in results),
          lambda: {**_head(spec), "tolerance": tolerance, "results": [
              {"t": p.time, "modulus": p.modulus, "is_perfect": p.is_perfect} for p in results]})


@cli.command()
@_chain_options
@click.option("--rtol", type=float, default=None, help="override every suite tolerance")
def verify(m, alpha, beta, q, fmt, output, rtol):
    """Run the full identity battery; exit 2 if any suite fails."""
    spec = _spec_from(m, alpha, beta, q)
    report = run_verification(spec, rtol=rtol)
    _emit(fmt, output, "suite,residual,tolerance,passed",
          lambda: ((s.name, s.residual, s.tolerance, "true" if s.passed else "false")
                   for s in report.suites),
          lambda: {**_head(spec, eigenvalues=False), "suites": report.as_dict(),
                   "passed": report.passed})
    if not report.passed:
        raise VerificationFailure()


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except VerificationFailure:
        sys.exit(2)
    except (ValueError, ArithmeticError, MemoryError, click.ClickException,
            click.exceptions.Abort) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        sys.exit(3)
    sys.exit(0)


if __name__ == "__main__":
    main()

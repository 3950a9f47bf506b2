"""Identity-check battery: orthogonality, contiguous identities, eigensystem
residuals, oracle agreement, unitarity, and the two special-time summation
identities.

Polynomial identity suites run on fixed internal parameter grids at the
requested lattice size (capped for runtime); chain-level suites run on the
exact spec supplied.  A suite passes iff its max residual is at or below its
tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import hahn, qhahn
from .chain import ChainSpec, analytic_eigensystem, build_couplings, interaction_matrix
from .dynamics import _sine_sum_2f1, amplitude_at_halfpi, amplitude_at_pi, correlation_matrix
from .oracle import match_eigensystems, max_abs_residual, tridiag_eigen

__all__ = ["SuiteResult", "VerificationReport", "run_verification", "DEFAULT_TOLERANCES"]

DEFAULT_TOLERANCES = {
    "hahn-orthogonality": 1e-10,
    "diff-eq-1": 1e-11,
    "diff-eq-2": 1e-11,
    "q-diff-eq-1": 1e-11,
    "q-diff-eq-2": 1e-11,
    "U-orthogonality": 1e-10,
    "MU-UD": 1e-10,
    "oracle-match": 1e-9,
    "correlation-unitarity": 1e-10,
    "kummer": 1e-12,
    "gauss": 1e-12,
}

_CLASSICAL_GRID = [(-0.9, 0.1), (-0.5, 0.5), (0.0, 1.0), (0.37, 2.4), (2.0, 3.0)]
_Q_GRID = [(0.3, 0.2, 0.9), (0.5, 0.8, 0.6), (0.9, 0.8, 0.3), (0.3, 0.8, 0.9)]
_IDENTITY_M_CAP = 24
_UNITARITY_TIMES = (0.0, 0.7, math.pi / 2.0, 3.3)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    suites: tuple

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def as_dict(self) -> dict:
        return {
            s.name: {"residual": s.residual, "tolerance": s.tolerance, "passed": s.passed}
            for s in self.suites
        }


def _orthogonality_residual(m_id):
    worst = 0.0
    for a, b in _CLASSICAL_GRID:
        p = hahn.HahnParams(a, b, m_id)
        tab = hahn.polynomial_table(p, rel=1e-15)
        w = hahn.weight_vector(p)
        h = hahn.norm_vector(p)
        gram = (tab * w[None, :]) @ tab.T
        resid = np.abs(gram - np.diag(h)) / h[None, :]
        worst = max(worst, float(np.max(resid)))
    for q, a, b in _Q_GRID:
        p = qhahn.QHahnParams(a, b, q, m_id)
        tab = qhahn.q_polynomial_table(p, rel=1e-15)
        w = qhahn.q_weight_vector(p)
        h = qhahn.q_norm_vector(p)
        gram = (tab * w[None, :]) @ tab.T
        resid = np.abs(gram - np.diag(h)) / h[None, :]
        worst = max(worst, float(np.max(resid)))
    return worst


def _scaled_max(terms, resid):
    scale = np.maximum(np.maximum(np.abs(terms[0]), np.abs(terms[1])),
                       np.maximum(np.abs(terms[2]), 1.0))
    return float(np.max(np.abs(resid) / scale, initial=0.0))


def _identity_residuals(identity_terms, table, params):
    """Worst scaled residuals of the two contiguous identities over n = 0..m,
    x = 0..m-1, evaluated on whole tables of each p and p.shifted()."""
    worst1 = worst2 = 0.0
    for p in params:
        tab, sh = table(p), table(p.shifted())
        n = np.arange(p.m + 1)[:, None]
        x = np.arange(p.m)[None, :]
        t, u = identity_terms(n, x, p, tab[:, :-1], tab[:, 1:], sh[:, :-1], sh[:, 1:])
        worst1 = max(worst1, _scaled_max(t, t[0] - t[1] - t[2]))
        worst2 = max(worst2, _scaled_max(u, u[0] - u[1] + u[2]))
    return worst1, worst2


def _chain_residuals(spec):
    es = analytic_eigensystem(spec)
    mat = interaction_matrix(build_couplings(spec)).to_dense()
    n = es.dimension
    u_orth = max_abs_residual(es.U.T @ es.U, np.eye(n))
    emax = float(np.max(np.abs(es.eigenvalues)))
    mu_ud = max_abs_residual(mat @ es.U, es.U * es.eigenvalues[None, :]) / emax
    oracle = tridiag_eigen(interaction_matrix(build_couplings(spec)))
    match = match_eigensystems(es, oracle)
    oracle_resid = max(match.max_eigenvalue_rel_diff, match.max_overlap_deviation)
    unit = 0.0
    eye = np.eye(n)
    for t in _UNITARITY_TIMES:
        f = correlation_matrix(es, t)
        unit = max(unit, float(np.max(np.abs(f @ f.conj().T - eye))))
    return u_orth, mu_ud, oracle_resid, unit


def _special_time_residuals(m_id):
    worst_k = worst_g = 0.0
    m_eff = min(m_id, 20)
    for i in range(20):
        a = -0.9 + (3.8 / 19.0) * i  # 20 points spanning (-1, 3)
        spec = ChainSpec(m_eff, a, a + 1.0)
        worst_k = max(worst_k, abs(_sine_sum_2f1(m_eff, a, math.pi / 2.0) - amplitude_at_halfpi(spec)))
        worst_g = max(worst_g, abs(_sine_sum_2f1(m_eff, a, math.pi) - amplitude_at_pi(spec)))
    return worst_k, worst_g


def run_verification(spec: ChainSpec, rtol: float | None = None) -> VerificationReport:
    """Run every suite; identity grids use lattice size min(spec.m, 24).

    When rtol is given it replaces every per-suite default tolerance.
    """
    tol = {k: (rtol if rtol is not None else v) for k, v in DEFAULT_TOLERANCES.items()}
    m_id = min(spec.m, _IDENTITY_M_CAP)
    results = []
    results.append(SuiteResult("hahn-orthogonality", _orthogonality_residual(m_id),
                               tol["hahn-orthogonality"]))
    d1, d2 = _identity_residuals(hahn._identity_terms, hahn.polynomial_table,
                                 [hahn.HahnParams(a, b, m_id) for a, b in _CLASSICAL_GRID])
    results.append(SuiteResult("diff-eq-1", d1, tol["diff-eq-1"]))
    results.append(SuiteResult("diff-eq-2", d2, tol["diff-eq-2"]))
    # entries to the relative tolerance of scalar q_hahn_Q
    qd1, qd2 = _identity_residuals(qhahn._identity_terms,
                                   lambda p: qhahn.q_polynomial_table(p, rel=1e-14),
                                   [qhahn.QHahnParams(a, b, q, m_id) for q, a, b in _Q_GRID])
    results.append(SuiteResult("q-diff-eq-1", qd1, tol["q-diff-eq-1"]))
    results.append(SuiteResult("q-diff-eq-2", qd2, tol["q-diff-eq-2"]))
    u_orth, mu_ud, oracle_resid, unit = _chain_residuals(spec)
    results.append(SuiteResult("U-orthogonality", u_orth, tol["U-orthogonality"]))
    results.append(SuiteResult("MU-UD", mu_ud, tol["MU-UD"]))
    results.append(SuiteResult("oracle-match", oracle_resid, tol["oracle-match"]))
    results.append(SuiteResult("correlation-unitarity", unit, tol["correlation-unitarity"]))
    wk, wg = _special_time_residuals(spec.m)
    results.append(SuiteResult("kummer", wk, tol["kummer"]))
    results.append(SuiteResult("gauss", wg, tol["gauss"]))
    return VerificationReport(tuple(results))

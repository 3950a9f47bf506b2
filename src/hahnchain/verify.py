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
from .chain import (ChainSpec, analytic_eigensystem, build_couplings, interaction_matrix,
                    residual_MU_UD)
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


def _orthogonality_residual(table, weight, norm, params):
    """Worst |G_nk - h_n delta_nk| / sqrt(h_n h_k) over params, G = Q W Q^T the
    Gram matrix of the whole table under the weights.  The symmetric scale
    keeps the measure at rounding level when the norms span many decades."""
    worst = 0.0
    for p in params:
        tab, h = table(p), norm(p)
        gram = (tab * weight(p)[None, :]) @ tab.T
        s = np.sqrt(h)
        worst = max(worst, float(np.max(np.abs(gram - np.diag(h)) / np.outer(s, s))))
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
    n = es.dimension
    u_orth = max_abs_residual(es.U.T @ es.U, np.eye(n))
    mu_ud = residual_MU_UD(spec) / float(np.max(np.abs(es.eigenvalues)))
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
        at_half_pi, at_pi = _sine_sum_2f1(m_eff, a, np.array([math.pi / 2.0, math.pi]))
        worst_k = max(worst_k, float(abs(at_half_pi - amplitude_at_halfpi(spec))))
        worst_g = max(worst_g, float(abs(at_pi - amplitude_at_pi(spec))))
    return worst_k, worst_g


def run_verification(spec: ChainSpec, rtol: float | None = None) -> VerificationReport:
    """Run every suite; identity grids use lattice size min(spec.m, 24).

    When rtol is given it replaces every per-suite default tolerance; it must
    be finite and nonnegative.
    """
    if rtol is not None and not 0.0 <= rtol < math.inf:
        raise ValueError(f"rtol must be finite and nonnegative, got {rtol}")
    m_id = min(spec.m, _IDENTITY_M_CAP)
    plain = [hahn.HahnParams(a, b, m_id) for a, b in _CLASSICAL_GRID]
    deformed = [qhahn.QHahnParams(a, b, q, m_id) for q, a, b in _Q_GRID]
    orth = max(_orthogonality_residual(lambda p: hahn.polynomial_table(p, rel=1e-15),
                                       hahn.weight_vector, hahn.norm_vector, plain),
               _orthogonality_residual(lambda p: qhahn.q_polynomial_table(p, rel=1e-15),
                                       qhahn.q_weight_vector, qhahn.q_norm_vector, deformed))
    # in DEFAULT_TOLERANCES order; the q entries to the relative tolerance of scalar q_hahn_Q
    residuals = dict(zip(DEFAULT_TOLERANCES, (
        orth,
        *_identity_residuals(hahn._identity_terms, hahn.polynomial_table, plain),
        *_identity_residuals(qhahn._identity_terms,
                             lambda p: qhahn.q_polynomial_table(p, rel=1e-14), deformed),
        *_chain_residuals(spec),
        *_special_time_residuals(spec.m)), strict=True))
    return VerificationReport(tuple(
        SuiteResult(name, r, DEFAULT_TOLERANCES[name] if rtol is None else rtol)
        for name, r in residuals.items()))

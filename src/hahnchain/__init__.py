"""Exactly solvable two-parameter spin chain: closed-form eigensystems built
from discrete orthogonal polynomial tables, correlation functions, and
perfect-state-transfer detection, all cross-checked against an independent
tridiagonal eigensolver."""

from .chain import (ChainSpec, CouplingArray, EigenSystem, TridiagonalMatrix,
                    analytic_eigensystem, build_couplings, interaction_matrix,
                    mode_frequencies, residual_MU_UD)
from .dynamics import (CorrelationSample, PSTResult, RationalWindow,
                       amplitude_at_halfpi, amplitude_at_pi, correlation,
                       correlation_closed_form, correlation_matrix, end_to_end,
                       pst_condition, pst_scan, q_end_to_end)
from .hahn import (HahnParams, diff_residual_1, diff_residual_2, hahn_Q,
                   hahn_norm, hahn_orthonormal, hahn_weight, orthonormal_table,
                   polynomial_table)
from .oracle import (ConvergenceError, EigenMatch, OracleEigenSystem,
                     match_eigensystems, max_abs_residual, tridiag_eigen)
from .qhahn import (QHahnParams, q_diff_residual_1, q_diff_residual_2,
                    q_hahn_Q, q_hahn_norm, q_hahn_orthonormal, q_hahn_weight,
                    q_orthonormal_table, q_polynomial_table)
from .special import log_pochhammer, pochhammer, q_pochhammer
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"


def stats() -> dict:
    """Snapshot of what the evaluator has done since import or reset_stats().

    "entries" counts the q-series entries certified per tier ("double",
    "double-double", "mpmath") and per series form ("direct",
    "transformed"); "max_mp_dps" is the largest mpmath precision used;
    "cache" gives the hits and misses of the orthonormal_table,
    q_orthonormal_table, mode_frequencies and analytic_eigensystem caches
    since each was last cleared.
    """
    from . import _series

    snap = _series.stats()
    snap["cache"] = {f.__name__: {"hits": f.cache_info().hits, "misses": f.cache_info().misses}
                     for f in (orthonormal_table, q_orthonormal_table, mode_frequencies,
                               analytic_eigensystem)}
    return snap


def reset_stats() -> None:
    """Zero the series counters of stats(); the cache counts follow the caches."""
    from . import _series

    _series.reset_stats()

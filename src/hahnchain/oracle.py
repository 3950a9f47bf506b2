"""Self-contained brute-force eigensolver used to cross-check every closed form.

Eigenvalues come from implicit-shift QL iteration with Wilkinson shifts, run
on plain floats without accumulating rotations.  Each eigenvector is then
built at its eigenvalue from a twisted factorization of T - lambda I (a
forward and a backward LDL^T factorization, joined where |gamma| is
smallest; Dhillon and Parlett 2004), refined by one inverse-iteration solve
with the same factorization, and normalized; all eigenvalues are processed
at once as vectors.  Eigenvalues closer than 1e-7 ||T|| (the tiny +-sigma
pairs of deformed chains, or values repeated by a zero coupling) have their
vectors orthogonalized within their cluster, member by member.
Deliberately depends on no external linear-algebra routine so that
agreement with the analytic construction is a genuine two-sided check.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .chain import EigenSystem, TridiagonalMatrix

__all__ = [
    "ConvergenceError",
    "OracleEigenSystem",
    "EigenMatch",
    "tridiag_eigen",
    "max_abs_residual",
    "match_eigensystems",
]


class ConvergenceError(RuntimeError):
    """QL iteration failed to deflate within the sweep budget."""


@dataclass(frozen=True)
class OracleEigenSystem:
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)


def _ql_eigenvalues(d, e, max_sweeps):
    """Implicit QL with Wilkinson shifts on lists of floats; returns d.

    d: diagonal (length n), e: off-diagonal (length n-1).  Follows the classic
    tqli scheme; the convergence test |e[i]| + dd == dd exploits rounding so
    the deflation criterion is scale-invariant.
    """
    n = len(d)
    e = e + [0.0]
    for l in range(n):
        sweeps = 0
        while True:
            for mm in range(l, n - 1):
                dd = abs(d[mm]) + abs(d[mm + 1])
                if abs(e[mm]) + dd == dd:
                    break
            else:
                mm = n - 1
            if mm == l:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise ConvergenceError(f"no deflation for eigenvalue {l} after {max_sweeps} sweeps")
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[mm] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            i = mm - 1
            broke = False
            while i >= l:
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[mm] = 0.0
                    broke = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                i -= 1
            if broke and i >= l:
                continue
            d[l] -= p
            e[l] = g
            e[mm] = 0.0
    return d


def _pivots(b2, lam, pivmin):
    """Pivots D+ (forward LDL^T) and D- (backward UDU^T) of T - lambda I for
    each lambda, as (n, len(lam)) arrays, and the columns that met a zero
    pivot (replaced by pivmin, as in LAPACK's dlar1v)."""
    n, k = len(b2) + 1, len(lam)
    dp, dm = np.empty((n, k)), np.empty((n, k))
    hit = np.zeros(k, dtype=bool)

    def pivot(v):
        zero = v == 0.0
        hit[:] |= zero
        return np.where(zero, pivmin, v)

    dp[0] = pivot(-lam)
    for i in range(n - 1):
        dp[i + 1] = pivot(-lam - b2[i] / dp[i])
    dm[n - 1] = pivot(-lam)
    for i in range(n - 2, -1, -1):
        dm[i] = pivot(-lam - b2[i] / dm[i + 1])
    return dp, dm, hit


class _Twisted:
    """Twisted factorizations of T - lambda I, one per eigenvalue in lam, for
    the zero-diagonal tridiagonal matrix T with off-diagonal b.

    For each lambda, T - lambda I = L+ D+ L+^T = U- D- U-^T; the twisted
    factorization N_r Delta_r N_r^T joins the two at r = argmin |gamma_i|,
    gamma_i = D+_i + D-_i + lambda.  A lambda whose factorization meets an
    exactly zero pivot (an integer eigenvalue, or 0 at odd dimension) is
    factored a few rounding units of ||T|| away instead, well inside the
    error of lambda itself.
    """

    def __init__(self, b, lam):
        n, k = len(b) + 1, len(lam)
        b2 = b * b
        pivmin = sys.float_info.min * max(1.0, float(np.max(b2)))
        nudge = np.finfo(float).eps * float(np.max(np.abs(lam)))
        shift = np.zeros(k)
        for _ in range(4):
            dp, dm, hit = _pivots(b2, lam + shift, pivmin)
            if not hit.any():
                break
            shift[hit] += nudge
        gamma = dp + dm + (lam + shift)
        self.r = r = np.argmin(np.abs(gamma), axis=0)
        g_r = gamma[r, np.arange(k)]
        del gamma
        rows = np.arange(n)[:, None]
        self.above, self.below = rows < r, rows > r
        self.lo = b[:, None] / dp[:-1]  # N_r below the diagonal, rows 1..r
        self.up = b[:, None] / dm[1:]  # N_r above the diagonal, rows r..n-2
        # gamma_r Delta_r^{-1}, with Delta_r = D+ above r, gamma_r at r, D- below
        self.scale = np.ones((n, k))
        np.divide(g_r, dp, out=self.scale, where=self.above)
        np.divide(g_r, dm, out=self.scale, where=self.below)

    def back_solve(self, y):
        """N_r^T y = v in place: y_r = v_r, then outwards from r."""
        n = len(y)
        for i in range(n - 2, -1, -1):
            y[i] = np.where(self.above[i], y[i] - self.lo[i] * y[i + 1], y[i])
        for i in range(1, n):
            y[i] = np.where(self.below[i], y[i] - self.up[i - 1] * y[i - 1], y[i])
        return y

    def solve(self, v):
        """gamma_r (T - lambda I)^{-1} v in place, one column per lambda; the
        scaling by gamma_r means gamma_r = 0 needs no division."""
        above, below, lo, up, r = self.above, self.below, self.lo, self.up, self.r
        n, cols = v.shape[0], np.arange(v.shape[1])
        # N_r w = v in place: inwards to r, then row r
        v_r = v[r, cols]
        for i in range(1, n):
            v[i] = np.where(above[i], v[i] - lo[i - 1] * v[i - 1], v[i])
        for i in range(n - 2, -1, -1):
            v[i] = np.where(below[i], v[i] - up[i] * v[i + 1], v[i])
        rm, rp = np.maximum(r - 1, 0), np.minimum(r + 1, n - 1)
        v[r, cols] = (v_r - np.where(r > 0, lo[rm, cols] * v[rm, cols], 0.0)
                      - np.where(r < n - 1, up[np.minimum(r, n - 2), cols] * v[rp, cols], 0.0))
        v *= self.scale
        return self.back_solve(v)

    def solve_column(self, y, j):
        """The same solve for the single vector y and the j-th lambda, on floats."""
        n, r = len(y), int(self.r[j])
        lo, up, v = self.lo[:, j].tolist(), self.up[:, j].tolist(), y.tolist()
        for i in range(1, r):
            v[i] -= lo[i - 1] * v[i - 1]
        for i in range(n - 2, r, -1):
            v[i] -= up[i] * v[i + 1]
        v[r] -= (lo[r - 1] * v[r - 1] if r > 0 else 0.0) + (up[r] * v[r + 1] if r < n - 1 else 0.0)
        v = (np.array(v) * self.scale[:, j]).tolist()
        for i in range(r - 1, -1, -1):
            v[i] -= lo[i] * v[i + 1]
        for i in range(r + 1, n):
            v[i] -= up[i - 1] * v[i - 1]
        return np.array(v)


def _normalize(v):
    return v / np.sqrt(np.einsum("ij,ij->j", v, v))


def _twisted_vectors(b, lam):
    """Unit eigenvectors (columns) of the zero-diagonal tridiagonal matrix with
    off-diagonal b, one per eigenvalue in lam (ascending).

    z solves N_r^T z = e_r, so (T - lambda I) z = gamma_r e_r; one solve
    (T - lambda I) y = z with the same factors then removes what z carries of
    the nearest other eigenvector.  That leaves an overlap of about
    (eps ||T|| / gap)^2 between the vectors of neighbouring eigenvalues, which
    is no longer small once the gap nears sqrt(eps) ||T|| (the +-sigma pairs
    of deformed chains, sigma ~ q^(m/2), or eigenvalues repeated by a zero
    coupling); such clusters are orthogonalized by _cluster_vectors.
    """
    n, k = len(b) + 1, len(lam)
    tw = _Twisted(b, lam)
    v = np.zeros((n, k))
    v[tw.r, np.arange(k)] = 1.0
    v = _normalize(tw.back_solve(v))  # z
    v = _normalize(tw.solve(v))  # y
    _cluster_vectors(tw, v, lam)
    return v


# eigenvalues closer than this times ||T|| form a cluster; measured on deformed
# chains up to m = 100, the inverse-iteration step alone leaves overlaps below
# 3.5e-16 at gaps of 1e-8 ||T|| to 1e-7 ||T|| and up to 1.1e-14 just below
_CLUSTER_GAP = 1e-7


def _cluster_vectors(tw, v, lam):
    """Make the vectors of each cluster of close eigenvalues orthonormal, in
    place, as LAPACK's dstein does.  Members are taken in ascending order;
    each member's vector is projected off the members before it and refined
    by two inverse-iteration solves with its own factorization, each followed
    by a fresh projection, so that it converges to the part of the cluster's
    invariant subspace the earlier members leave.  A vector that lies in the
    earlier members' span to within 1e-8 (a repeated eigenvalue) restarts
    from the fixed equidistributed vector frac(i phi) - 1/2: its remainder is
    rounding noise, which the solves cannot carry across a zero coupling.
    """

    def project(y, prev):
        for _ in range(2):  # twice is enough (Kahan, Parlett)
            y = y - np.einsum("ij,j->i", prev, np.einsum("ij,i->j", prev, y))
        return y, math.sqrt(float(np.dot(y, y)))

    close = np.diff(lam) <= _CLUSTER_GAP * float(np.max(np.abs(lam)))
    first = 0
    for j in range(1, len(lam)):
        if not close[j - 1]:
            first = j
            continue
        prev = v[:, first:j]
        y, norm = project(v[:, j], prev)
        if norm < 1e-8:
            y, norm = project(np.arange(1.0, len(v) + 1.0) * 0.6180339887498949 % 1.0 - 0.5, prev)
        for _ in range(2):
            y, norm = project(tw.solve_column(y / norm, j), prev)
        v[:, j] = y / norm


def tridiag_eigen(matrix: TridiagonalMatrix, max_sweeps: int = 50) -> OracleEigenSystem:
    """Full spectrum and eigenvectors of a symmetric tridiagonal matrix.

    Eigenvalues are returned ascending with eigenvectors as matching columns.
    The computation is deterministic: identical input gives bit-identical
    output.  Raises ConvergenceError if any eigenvalue fails to deflate
    within max_sweeps sweeps (never observed for real inputs).  Eigenvalues
    closer than 1e-7 ||T|| get orthogonalized vectors, so the columns are
    orthonormal also for tight pairs and repeated eigenvalues.
    """
    n = matrix.dimension
    if n < 1:
        raise ValueError("matrix dimension must be at least 1")
    b = np.array(matrix.off_diagonal.values, dtype=float)
    lam = np.array(_ql_eigenvalues([0.0] * n, b.tolist(), max_sweeps))
    lam = lam[np.argsort(lam, kind="stable")]
    return OracleEigenSystem(lam, _twisted_vectors(b, lam) if n > 1 else np.ones((1, 1)))


def max_abs_residual(a, b) -> float:
    """Max-norm of A - B for equal-shaped arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


@dataclass(frozen=True)
class EigenMatch:
    """Per-index comparison of an analytic eigensystem with the oracle."""

    eigenvalue_rel_diffs: np.ndarray
    overlap_deviations: np.ndarray

    @property
    def max_eigenvalue_rel_diff(self) -> float:
        return float(np.max(self.eigenvalue_rel_diffs))

    @property
    def max_overlap_deviation(self) -> float:
        return float(np.max(self.overlap_deviations))


def match_eigensystems(analytic: EigenSystem, oracle: OracleEigenSystem) -> EigenMatch:
    """Relative eigenvalue differences and sign-free eigenvector overlaps.

    Both spectra must be simple and sorted ascending, so columns pair up by
    index; overlap deviation is 1 - |<u_j, v_j>| per column.
    """
    if analytic.dimension != oracle.dimension:
        raise ValueError(f"dimension mismatch: {analytic.dimension} vs {oracle.dimension}")
    lam_a = analytic.eigenvalues
    lam_o = oracle.eigenvalues
    rel = np.abs(lam_a - lam_o) / np.maximum(np.abs(lam_o), 1e-300)
    overlaps = np.abs(np.einsum("ij,ij->j", analytic.U, oracle.eigenvectors))
    return EigenMatch(rel, np.abs(1.0 - overlaps))

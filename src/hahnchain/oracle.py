"""Self-contained brute-force eigensolver used to cross-check every closed form.

It solves the zero-diagonal tridiagonal matrix T of a chain by one path.  T
is split where a coupling squares to 0.  A block is bipartite, so its
spectrum is +-sigma_1..+-sigma_p, plus an exact 0 at odd size.  The sigma_j
come from multisection on the count of negative LDL^T pivots of
T - sigma I, which fixes each to high relative accuracy however tiny it is
(Demmel and Kahan 1990; Fernando 1998); all are bracketed at once as numpy
arrays.  At each sigma one twisted factorization (Dhillon and Parlett 2004)
gives a vector whose even- and odd-site halves, normalized one by one, make
the eigenvectors of both +sigma and -sigma.  There is no iteration on the
vectors and no orthogonalization.  Deliberately depends on no external
linear-algebra routine so that agreement with the analytic construction is
a genuine two-sided check.
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
    """The eigenvalue multisection exceeded its step budget."""


@dataclass(frozen=True)
class OracleEigenSystem:
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)


def _pivots(b2, lam):
    """Pivots of the forward LDL^T factorization of T - lam I, for every value
    in lam (any shape), as an array of shape (n,) + lam.shape.

    An exactly zero pivot makes the next one infinite and the one after it
    -lam again, so the count of negative pivots stays right without a guard
    (IEEE arithmetic, as in Kahan's bisection); b2 must have no zero.
    """
    d = np.empty((len(b2) + 1,) + lam.shape)
    prev = neg = np.negative(lam, out=d[0])
    with np.errstate(divide="ignore", over="ignore"):
        for c, cur in zip(b2.tolist(), d[1:]):
            np.divide(c, prev, out=cur)
            prev = np.subtract(neg, cur, out=cur)
    return d


def _positive_eigenvalues(b2, max_sweeps):
    """sigma_1 < ... < sigma_p, the p = n // 2 positive eigenvalues of one
    unreduced block with squared couplings b2, by multisection.

    The count of negative pivots of T - sigma I is the number of eigenvalues
    below sigma, and fixes each eigenvalue to high relative accuracy however
    tiny it is (Demmel and Kahan 1990; Fernando 1998); below sigma_j there
    are the (n + 1) // 2 eigenvalues <= 0 and j positive ones.  The first
    step counts at p s points spaced geometrically from the smallest normal
    float to above the Gershgorin bound, shared by all eigenvalues, which
    leaves each in a bracket about a factor of 2 wide.  Each later step
    counts at s evenly spaced points inside every bracket, until all are 4
    rounding units wide.  With s = 1024 // p, and at least 3, every n takes
    at most about 30 steps.
    """
    n = len(b2) + 1
    p = n // 2
    s = max(3, 1024 // p)
    rows, even = np.arange(p), np.arange(s + 2) / (s + 1)
    target = (n + 1) // 2 + rows[:, None]
    eps = np.finfo(float).eps

    def bracket(grid):
        # the points with at most target eigenvalues below them are the
        # first t inside each row, as the count is monotone in sigma
        below = np.sum(_pivots(b2, grid[:, 1:-1]) < 0.0, axis=0, dtype=np.int32)
        t = np.sum(below <= target, axis=1)
        grid = np.broadcast_to(grid, (p, grid.shape[1]))
        return grid[rows, t], grid[rows, t + 1]

    top = 2.0 * math.sqrt(float(np.max(b2)))
    lo, hi = bracket(np.geomspace(sys.float_info.min, top, p * s + 2)[None, :])
    sweeps = 1
    while np.any(hi - lo > 4.0 * eps * lo):
        if sweeps >= max_sweeps:
            raise ConvergenceError(f"multisection did not converge in {max_sweeps} steps")
        grid = lo[:, None] + even * (hi - lo)[:, None]
        grid[:, -1] = hi
        lo, hi = bracket(grid)
        sweeps += 1
    return 0.5 * (lo + hi)


def _twisted_vectors(b, sigma):
    """Eigenvectors of +sigma for one unreduced block with couplings b, one
    column per sigma > 0, each half of norm sqrt(1/2); negating the odd rows
    gives the eigenvectors of -sigma.

    T is bipartite, so the eigenvectors of +-sigma are (u, v) and (u, -v),
    with u on the even sites and v on the odd ones.  The twisted vector z at
    sigma solves N_r^T z = e_r, with N_r joining the forward and backward
    LDL^T factors of T - sigma I at r = argmin |gamma| (Dhillon and Parlett
    2004): z_r = 1 and its entries are cumulative products of -b / D+ above
    r and of -b / D- below.  At a sigma accurate to a few rounding units of
    itself, z does not mix in the vector of -sigma, even far below
    eps ||T||, so its even half is proportional to u and its odd half to v;
    normalizing the halves one by one makes the two columns of the pair
    orthogonal to rounding.  A factorization that meets an exactly zero
    pivot (an integer eigenvalue) is taken a few rounding units of sigma
    away.
    """
    n, b2 = len(b) + 1, b * b
    for _ in range(4):
        dp, dm = _pivots(b2, sigma), _pivots(b2[::-1], sigma)[::-1]
        hit = np.any((dp == 0.0) | (dm == 0.0), axis=0)
        if not hit.any():
            break
        sigma = np.where(hit, sigma * (1.0 + 4.0 * np.finfo(float).eps), sigma)
    r = np.argmin(np.abs(dp + dm + sigma), axis=0)
    edges = np.arange(n - 1)[:, None]
    above = np.where(edges < r, -b[:, None] / dp[:-1], 1.0)
    below = np.where(edges >= r, -b[:, None] / dm[1:], 1.0)
    z = np.ones((n, len(sigma)))
    z[:-1] = np.cumprod(above[::-1], axis=0)[::-1]
    z[1:] *= np.cumprod(below, axis=0)
    for half in (z[0::2], z[1::2]):
        half /= np.sqrt(2.0 * np.einsum("ij,ij->j", half, half))
    return z


def _null_vector(b):
    """The eigenvector of 0 of one unreduced block of odd size: zero on the
    odd sites, with b_2i x_2i + b_2i+1 x_2i+2 = 0 between the even ones.
    Summing the logs of the ratios keeps a long product from overflowing."""
    ratio = -b[0::2] / b[1::2]
    log_x = np.concatenate(([0.0], np.cumsum(np.log(np.abs(ratio)))))
    x = np.zeros(len(b) + 1)
    x[0::2] = np.concatenate(([1.0], np.cumprod(np.sign(ratio)))) * np.exp(log_x - np.max(log_x))
    return x / math.sqrt(float(np.dot(x, x)))


def _block_eigen(b, max_sweeps):
    """Eigenvalues, in no particular order, and eigenvectors of one unreduced
    block with couplings b."""
    sigma = _positive_eigenvalues(b * b, max_sweeps) if len(b) else np.empty(0)
    plus = _twisted_vectors(b, sigma)
    minus = plus.copy()
    minus[1::2] *= -1.0
    lam, vec = [-sigma, sigma], [minus, plus]
    if len(b) % 2 == 0:
        lam.append([0.0])
        vec.append(_null_vector(b)[:, None])
    return np.concatenate(lam), np.hstack(vec)


def tridiag_eigen(matrix: TridiagonalMatrix, max_sweeps: int = 50) -> OracleEigenSystem:
    """Full spectrum and eigenvectors of a symmetric tridiagonal matrix with
    zero diagonal.

    Eigenvalues are returned ascending with orthonormal eigenvectors as
    matching columns.  Each eigenvalue is accurate to a few rounding units
    of itself, however tiny, and each eigenvector to a few rounding units
    over its eigenvalue's relative gap to the nearest other one.  The matrix
    is split where a coupling squares to 0; the blocks' eigenvalues can then
    repeat exactly, and their vectors stay orthogonal.  The computation is
    deterministic: identical input gives bit-identical output.  Raises
    ConvergenceError if the multisection needs more than max_sweeps steps
    (it takes at most about 30).
    """
    n = matrix.dimension
    if n < 1:
        raise ValueError("matrix dimension must be at least 1")
    b = np.array(matrix.off_diagonal.values, dtype=float)
    cuts = np.flatnonzero(b * b == 0.0) + 1
    lam, vec = np.empty(n), np.zeros((n, n))
    for start, stop in zip(np.concatenate(([0], cuts)), np.concatenate((cuts, [n]))):
        lam[start:stop], vec[start:stop, start:stop] = _block_eigen(b[start:stop - 1], max_sweeps)
    order = np.argsort(lam, kind="stable")
    return OracleEigenSystem(lam[order], vec[:, order])


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

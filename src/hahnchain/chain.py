"""Chain construction: parity-modulated coupling arrays, the tridiagonal
single-excitation interaction matrix, and its closed-form eigensystem.

A chain over sites 0..N with N = 2m+1 carries couplings J_0..J_{N-1} whose
even/odd entries are controlled by two real parameters (alpha, beta), with an
optional q-deformation.  The interaction matrix is symmetric tridiagonal with
zero diagonal; its eigenvector matrix is assembled from the orthonormal
polynomial tables of the (alpha, beta) family on even sites and the companion
family on odd sites, and the spectrum is symmetric and known in closed form.
"""

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .hahn import HahnParams, orthonormal_table
from .qhahn import QHahnParams, q_orthonormal_table

__all__ = [
    "ChainSpec",
    "CouplingArray",
    "TridiagonalMatrix",
    "EigenSystem",
    "build_couplings",
    "interaction_matrix",
    "analytic_eigensystem",
    "mode_frequencies",
    "residual_MU_UD",
]


@dataclass(frozen=True)
class ChainSpec:
    """Half-length m (N = 2m+1 couplings, 2m+2 sites) and chain parameters."""

    m: int
    alpha: float
    beta: float
    q: float | None = None

    def __post_init__(self):
        # the chain's own bound keeps the companion family in its domain; the
        # families check m, alpha, q and finiteness
        if self.q is None and not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.q is not None and not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        object.__setattr__(self, "m", _families(self)[0].m)  # a Python int

    @property
    def n_couplings(self) -> int:
        return 2 * self.m + 1

    @property
    def n_sites(self) -> int:
        return 2 * self.m + 2


def _readonly(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class CouplingArray:
    """Nearest-neighbour strengths J_0..J_{N-1}, strictly positive."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.ndim != 1:
            raise ValueError("couplings must be one-dimensional")

    def __len__(self):
        return len(self.values)


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Symmetric tridiagonal matrix with zero diagonal."""

    off_diagonal: CouplingArray

    @property
    def dimension(self) -> int:
        return len(self.off_diagonal) + 1

    def to_dense(self) -> np.ndarray:
        j = self.off_diagonal.values
        n = self.dimension
        out = np.zeros((n, n))
        idx = np.arange(n - 1)
        out[idx, idx + 1] = j
        out[idx + 1, idx] = j
        return out


@dataclass(frozen=True)
class EigenSystem:
    """Orthogonal eigenvector matrix (columns) and ascending eigenvalues."""

    U: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "U", _readonly(self.U))
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))

    @property
    def dimension(self) -> int:
        return len(self.eigenvalues)


_MIN_NORMAL = sys.float_info.min


def _twice_sqrt_product(x: float, y: float) -> float:
    """2 sqrt(x*y) for positive x and y, without letting x*y overflow or underflow.

    Scaling each factor by an even power of two is exact, so the result is
    bit-identical to 2.0 * sqrt(x*y) wherever x*y is a normal double (that
    case takes the product directly); only a result beyond the double range
    itself comes out inf.
    """
    p = x * y
    if _MIN_NORMAL <= p < math.inf:
        return 2.0 * math.sqrt(p)
    ex, ey = math.frexp(x)[1] // 2, math.frexp(y)[1] // 2
    return 2.0 * math.ldexp(math.sqrt(math.ldexp(x, -2 * ex) * math.ldexp(y, -2 * ey)), ex + ey)


def _check_normal(values: np.ndarray, name: str) -> np.ndarray:
    """values, or ArithmeticError when one is not a finite normal double."""
    bad = ~((values >= _MIN_NORMAL) & (values < math.inf))
    if bad.any():
        k = int(np.argmax(bad))
        raise ArithmeticError(f"{name}_{k} = {float(values[k])!r} is not a finite normal double")
    return values


def build_couplings(spec: ChainSpec) -> CouplingArray:
    """Coupling strengths for the chain.

    Plain case, k = 0..N-1:
        odd k:  sqrt((k+1)(2m+1-k))
        even k: sqrt((k+2a+2)(2m+2b-k))
    q case:
        J_{2k}   = 2 sqrt((1-a q^{k+1})(1-b q^{m-k})) q^{k/2},      k = 0..m
        J_{2k+1} = 2 sqrt((1-q^{k+1})(1-q^{m-k}) a) q^{(k+1)/2},  k = 0..m-1
    The powers of q stay outside the root, so they underflow only where the
    coupling itself does.  ArithmeticError when a coupling is not a finite
    normal double.
    """
    m = spec.m
    n = spec.n_couplings
    j = np.empty(n)
    if spec.q is None:
        a, b = spec.alpha, spec.beta
        for k in range(n):
            if k % 2 == 1:
                j[k] = math.sqrt((k + 1.0) * (2 * m + 1.0 - k))
            else:
                # (k+2a+2)(2m+2b-k) = 4 (a+k/2+1)(b+m-k/2), with exact halving
                j[k] = _twice_sqrt_product(a + k / 2 + 1.0, b + m - k / 2)
    else:
        a, b, q = spec.alpha, spec.beta, spec.q
        for k in range(m + 1):
            j[2 * k] = (2.0 * math.sqrt((1.0 - a * q ** (k + 1)) * (1.0 - b * q ** (m - k)))
                        * q ** (k / 2.0))
        for k in range(m):
            j[2 * k + 1] = (2.0 * math.sqrt((1.0 - q ** (k + 1)) * (1.0 - q ** (m - k)) * a)
                            * q ** ((k + 1) / 2.0))
    return CouplingArray(_check_normal(j, "J"))


def interaction_matrix(couplings: CouplingArray) -> TridiagonalMatrix:
    """Single-excitation interaction matrix for a coupling array."""
    return TridiagonalMatrix(couplings)


@lru_cache(maxsize=256)
def mode_frequencies(spec: ChainSpec) -> np.ndarray:
    """Positive half of the spectrum: omega_0 < ... < omega_m.

    Plain: omega_k = 2 sqrt((a+k+1)(b+k)).
    q:     omega_k = 2 sqrt((1-a q^{k+1})(1-b q^k)) q^{(m-k)/2}.
    Cached per spec; the returned array is read-only.  ArithmeticError when a
    frequency is not a finite normal double.
    """
    m = spec.m
    w = np.empty(m + 1)
    if spec.q is None:
        a, b = spec.alpha, spec.beta
        for k in range(m + 1):
            w[k] = _twice_sqrt_product(a + k + 1.0, b + k)
    else:
        a, b, q = spec.alpha, spec.beta, spec.q
        for k in range(m + 1):
            w[k] = (2.0 * math.sqrt((1.0 - a * q ** (k + 1)) * (1.0 - b * q ** k))
                    * q ** ((m - k) / 2.0))
    return _readonly(_check_normal(w, "omega"))


def _families(spec: ChainSpec):
    """The (alpha, beta) family of the even sites and its companion on the odd sites."""
    p = (HahnParams(spec.alpha, spec.beta, spec.m) if spec.q is None
         else QHahnParams(spec.alpha, spec.beta, spec.q, spec.m))
    return p, p.shifted()


def _family_tables(spec: ChainSpec):
    table = orthonormal_table if spec.q is None else q_orthonormal_table
    return tuple(table(p) for p in _families(spec))


@lru_cache(maxsize=256)
def analytic_eigensystem(spec: ChainSpec) -> EigenSystem:
    """Closed-form eigensystem of the interaction matrix.  Cached per spec.

    Column m-j and column m+j+1 are built from degree-j orthonormal values:
    even rows carry the (alpha, beta) family with alternating sign (-1)^i,
    odd rows the companion family, antisymmetric between the two column
    blocks.  Eigenvalues come out ascending by construction.
    """
    m = spec.m
    nn = spec.n_sites
    t0, t1 = _family_tables(spec)
    signs = (-1.0) ** np.arange(m + 1)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    u = np.empty((nn, nn))
    u[0::2, : m + 1] = t0[::-1, :].T * signs[:, None] * inv_sqrt2
    u[0::2, m + 1:] = t0.T * signs[:, None] * inv_sqrt2
    u[1::2, : m + 1] = -t1[::-1, :].T * signs[:, None] * inv_sqrt2
    u[1::2, m + 1:] = t1.T * signs[:, None] * inv_sqrt2
    w = mode_frequencies(spec)
    return EigenSystem(u, np.concatenate((-w[::-1], w)))


def residual_MU_UD(spec: ChainSpec) -> float:
    """max |M U - U D| for the analytic eigensystem of this spec."""
    es = analytic_eigensystem(spec)
    mat = interaction_matrix(build_couplings(spec)).to_dense()
    return float(np.max(np.abs(mat @ es.U - es.U * es.eigenvalues[None, :])))

"""q-Hahn polynomials in the variable q^{-x} on the lattice x = 0..m:
evaluation, weight, norm, orthonormal functions, and the q-deformed pair of
contiguous identities linking the (alpha, beta) and (alpha*q, beta/q) families.

Weight and norm use analytically sign-resolved product forms: the raw
expressions mix q^{-m}-type factors whose huge alternating intermediates
overflow doubles long before the (finite, positive) results do.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

from . import _series

__all__ = [
    "QHahnParams",
    "q_hahn_Q",
    "q_hahn_weight",
    "q_hahn_norm",
    "q_hahn_orthonormal",
    "q_diff_residual_1",
    "q_diff_residual_2",
    "q_log_weight",
    "q_log_norm",
    "q_weight_vector",
    "q_norm_vector",
    "q_polynomial_table",
    "q_orthonormal_table",
]

_REL = 1e-14
_ABS_ENTRY = 1e-13
_OVERFLOW_GUARD = 1e280


@dataclass(frozen=True)
class QHahnParams:
    """Deformation q in (0,1), parameters (alpha, beta) and lattice size m.

    0 < alpha < 1/q and 0 < beta < 1/q keep the weight positive; chain
    constructions additionally need beta < 1 so that the companion family
    (alpha*q, beta/q) stays inside this domain.
    """

    alpha: float
    beta: float
    q: float
    m: int

    def __post_init__(self):
        if self.m < 0 or int(self.m) != self.m:
            raise ValueError(f"m must be a nonnegative integer, got {self.m}")
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if not 0.0 < self.alpha < 1.0 / self.q:
            raise ValueError(f"alpha must lie in (0, 1/q), got {self.alpha}")
        if not 0.0 < self.beta < 1.0 / self.q:
            raise ValueError(f"beta must lie in (0, 1/q), got {self.beta}")

    def shifted(self) -> "QHahnParams":
        """The companion family (alpha*q, beta/q); requires beta < 1."""
        return QHahnParams(self.alpha * self.q, self.beta / self.q, self.q, self.m)


def _check_n(n, p):
    if not 0 <= n <= p.m:
        raise ValueError(f"degree n={n} outside [0, {p.m}]")


def _check_x(x, p, extended=False):
    hi = p.m + 1 if extended else p.m
    if not 0 <= x <= hi:
        raise ValueError(f"lattice point x={x} outside [0, {hi}]")


def q_hahn_Q(n: int, x: int, p: QHahnParams) -> float:
    """Polynomial value Q_n(q^{-x}) as the terminating basic hypergeometric sum.

    min(n, x) + 1 nonzero terms; x = m + 1 is accepted for the identity checks.
    Certified to 1e-14 relative accuracy at any magnitude.
    """
    _check_n(n, p)
    _check_x(x, p, extended=True)
    return float(_series.certified_row((p.alpha, p.beta, p.q, p.m), n, [x], rel=_REL)[0])


def _weight_step(i, p):
    # ratio w(i+1)/w(i); strictly positive on the admissible domain
    a, b, q, m = p.alpha, p.beta, p.q, p.m
    return ((1.0 - a * q ** (i + 1)) * (1.0 - q ** (i - m))
            / ((1.0 - q ** (i + 1)) * (1.0 - q ** (i - m) / b) * (a * b * q)))


def q_log_weight(x: int, p: QHahnParams) -> float:
    """ln of the orthogonality weight at lattice point x."""
    _check_x(x, p)
    return sum(math.log(_weight_step(i, p)) for i in range(x))


def q_hahn_weight(x: int, p: QHahnParams) -> float:
    """Orthogonality weight at x, via the stepwise product of factor ratios.

    Falls back to log space if an intermediate grows past ~1e280.
    """
    _check_x(x, p)
    w = 1.0
    for i in range(x):
        w *= _weight_step(i, p)
        if abs(w) > _OVERFLOW_GUARD:
            return math.exp(q_log_weight(x, p))
    return w


def _log_qpoch(a, q, k):
    # ln (a;q)_k for 0 < a*q^i < 1 throughout
    return sum(math.log(1.0 - a * q ** i) for i in range(k))


def q_log_norm(n: int, p: QHahnParams) -> float:
    """ln of the squared norm h_n of Q_n under the lattice weight.

    Uses the sign-resolved rearrangement: the (-alpha*q)^n and (q^{-m};q)_n
    sign factors cancel, and (1 - alpha*beta*q)/(alpha*beta*q;q)_n collapses,
    leaving logs of factors that are individually in (0, 1).
    """
    _check_n(n, p)
    a, b, q, m = p.alpha, p.beta, p.q, p.m
    abq2 = a * b * q * q
    if n == 0:
        return _log_qpoch(abq2, q, m) - _log_qpoch(b * q, q, m) - m * math.log(a * q)
    s = _log_qpoch(abq2, q, m) + _log_qpoch(q, q, n) + _log_qpoch(a * b * q ** (m + 2), q, n)
    s += _log_qpoch(b * q, q, n) + n * math.log(a * q) + _log_qpoch(q, q, m - n)
    s -= _log_qpoch(b * q, q, m) + m * math.log(a * q) + _log_qpoch(a * q, q, n)
    s -= _log_qpoch(abq2, q, n - 1) + math.log(1.0 - a * b * q ** (2 * n + 1)) + _log_qpoch(q, q, m)
    return s


def q_hahn_norm(n: int, p: QHahnParams) -> float:
    """Squared norm h_n; always positive on the admissible domain."""
    return math.exp(q_log_norm(n, p))


def q_hahn_orthonormal(n: int, x: int, p: QHahnParams) -> float:
    """Orthonormal function sqrt(w(x)/h_n) * Q_n(q^{-x}), scaled in log space."""
    _check_n(n, p)
    _check_x(x, p)
    return math.exp(0.5 * (q_log_weight(x, p) - q_log_norm(n, p))) * q_hahn_Q(n, x, p)


def _identity_terms(n, x, p, q0, q1, s0, s1):
    """Terms of the two q-contiguous identities, t1 - t2 - t3 = 0 and
    u1 - u2 + u3 = 0, from q0, q1 = Q_n(q^{-x}), Q_n(q^{-x-1}) of p and s0, s1
    the same of p.shifted().  Broadcasts over numpy arrays.
    """
    a, b, q, m = p.alpha, p.beta, p.q, p.m
    t = ((1.0 - b * q ** (m - x)) * q0, (1.0 - q ** (m - x)) * q1,
         (1.0 - a * q ** (n + 1)) * (1.0 - b * q ** n) * q ** (m - n - x) / (1.0 - a * q) * s0)
    u = ((1.0 - q ** (x + 1)) * a * q * s0, (1.0 - a * q ** (x + 2)) * s1, (1.0 - a * q) * q1)
    return t, u


def _identity_at(n, x, p):
    _check_n(n, p)
    if not 0 <= x <= p.m - 1:
        raise ValueError(f"x={x} outside [0, {p.m - 1}]")
    sh = p.shifted()
    return _identity_terms(n, x, p, q_hahn_Q(n, x, p), q_hahn_Q(n, x + 1, p),
                           q_hahn_Q(n, x, sh), q_hahn_Q(n, x + 1, sh))


def q_diff_residual_1(n: int, x: int, p: QHahnParams) -> float:
    """LHS - RHS of the first q-contiguous identity at (n, x), x <= m-1:

    (1-b q^{m-x}) Q_n(q^{-x}; a,b) - (1-q^{m-x}) Q_n(q^{-x-1}; a,b)
        = (1-a q^{n+1})(1-b q^n) q^{m-n-x} / (1-a q) * Q_n(q^{-x}; aq, b/q).
    """
    (t1, t2, t3), _ = _identity_at(n, x, p)
    return t1 - t2 - t3


def q_diff_residual_2(n: int, x: int, p: QHahnParams) -> float:
    """LHS - RHS of the second q-contiguous identity at (n, x), x <= m-1:

    (1-q^{x+1}) aq Q_n(q^{-x}; aq, b/q) - (1-a q^{x+2}) Q_n(q^{-x-1}; aq, b/q)
        = -(1-a q) Q_n(q^{-x-1}; a, b).
    """
    _, (u1, u2, u3) = _identity_at(n, x, p)
    return u1 - u2 + u3


def q_weight_vector(p: QHahnParams) -> np.ndarray:
    """Weights w(0..m), accurate to the last double bit (40-digit internals)."""
    with mpmath.workdps(40):
        a, b, q = mpmath.mpf(p.alpha), mpmath.mpf(p.beta), mpmath.mpf(p.q)
        out = np.empty(p.m + 1)
        w = mpmath.mpf(1)
        out[0] = 1.0
        for i in range(p.m):
            w *= ((1 - a * q ** (i + 1)) * (1 - q ** (i - p.m))
                  / ((1 - q ** (i + 1)) * (1 - q ** (i - p.m) / b) * (a * b * q)))
            out[i + 1] = float(w)
    return out


def q_norm_vector(p: QHahnParams) -> np.ndarray:
    """Norms h_0..h_m, accurate to the last double bit (40-digit internals)."""

    def poch(c, q, k):
        v = mpmath.mpf(1)
        for i in range(k):
            v *= 1 - c * q ** i
        return v

    with mpmath.workdps(40):
        a, b, q = mpmath.mpf(p.alpha), mpmath.mpf(p.beta), mpmath.mpf(p.q)
        m = p.m
        out = np.empty(m + 1)
        abq2 = a * b * q * q
        out[0] = float(poch(abq2, q, m) / (poch(b * q, q, m) * (a * q) ** m))
        for n in range(1, m + 1):
            val = (poch(abq2, q, m) * poch(q, q, n) * poch(a * b * q ** (m + 2), q, n)
                   * poch(b * q, q, n) * (a * q) ** n * poch(q, q, m - n))
            val /= (poch(b * q, q, m) * (a * q) ** m * poch(a * q, q, n)
                    * poch(abq2, q, n - 1) * (1 - a * b * q ** (2 * n + 1)) * poch(q, q, m))
            out[n] = float(val)
    return out


def q_polynomial_table(p: QHahnParams, rel: float = 1e-13) -> np.ndarray:
    """Table Q[n, x] for n, x in 0..m, each entry certified to rel accuracy."""
    m = p.m
    xs = np.arange(m + 1)
    out = np.empty((m + 1, m + 1))
    for n in range(m + 1):
        out[n] = _series.certified_row((p.alpha, p.beta, p.q, m), n, xs, rel=rel)
    return out


@lru_cache(maxsize=256)
def q_orthonormal_table(p: QHahnParams) -> np.ndarray:
    """Table S[n, x] of orthonormal values; rows satisfy S @ S.T = I.

    Cached per parameter set; the returned array is read-only.
    """
    m = p.m
    xs = np.arange(m + 1)
    lw = np.array([q_log_weight(x, p) for x in range(m + 1)])
    out = np.empty((m + 1, m + 1))
    for n in range(m + 1):
        scale = np.exp(0.5 * (lw - q_log_norm(n, p)))
        row_target = _ABS_ENTRY / np.maximum(scale, 1e-290)
        row = _series.certified_row((p.alpha, p.beta, p.q, m), n, xs, row_target)
        out[n] = scale * row
    out.flags.writeable = False
    return out

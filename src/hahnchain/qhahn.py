"""q-Hahn polynomials in the variable q^{-x} on the lattice x = 0..m:
evaluation, weight, norm, orthonormal functions, and the q-deformed pair of
contiguous identities linking the (alpha, beta) and (alpha*q, beta/q) families.

Weights, norms and the prefactor of the transformed series form are products
of q-shifted factorials (c; q)_k with c in {alpha q, q, beta q, alpha beta q^2}
and of powers of alpha q and q, after the sign factors of the textbook
expressions (such as (q^-m; q)_x, whose alternating intermediates overflow
doubles long before the positive result does) are cancelled analytically.
They are formed once per parameter set as double-double products split into
mantissa and power of two, so no intermediate leaves the double range.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _ddouble as dd
from . import _series
from .hahn import _check_m, _check_n, _check_rel, _check_x, _identity_at

__all__ = [
    "QHahnParams",
    "q_hahn_Q",
    "q_hahn_weight",
    "q_hahn_norm",
    "q_hahn_orthonormal",
    "q_diff_residual_1",
    "q_diff_residual_2",
    "q_weight_vector",
    "q_norm_vector",
    "q_polynomial_table",
    "q_orthonormal_table",
]

_REL = 1e-14
_ABS_ENTRY = 1e-13


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
        object.__setattr__(self, "m", _check_m(self.m))  # a Python int
        if not 0.0 < self.q < 1.0:
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        if not 0.0 < self.alpha < 1.0 / self.q:
            raise ValueError(f"alpha must lie in (0, 1/q), got {self.alpha}")
        if not 0.0 < self.beta < 1.0 / self.q:
            raise ValueError(f"beta must lie in (0, 1/q), got {self.beta}")

    def shifted(self) -> "QHahnParams":
        """The companion family (alpha*q, beta/q); requires beta < 1."""
        return QHahnParams(self.alpha * self.q, self.beta / self.q, self.q, self.m)


@lru_cache(maxsize=8)
def _factorials(p):
    """Split double-double tables, each indexed by k: (c; q)_k for
    c = alpha q, q, beta q, alpha beta q^2 (k = 0..2m+1), the factors
    1 - alpha beta q^{k+2}, (alpha q)^k and (alpha q)^k q^{k(k-1)/2} (k = 0..m), and a
    bound on the relative error of the scales built from them."""
    a, b, q, m = p.alpha, p.beta, p.q, p.m
    count = 2 * m + 1
    ph, pl = (v[2 * m + 2:] for v in _series.q_tables(q, m)["pow"])  # q^0 .. q^(2m+2)
    ones = np.ones(count)

    def poch(ch, cl, shift):
        # (c q^shift / q^shift; q)_k from the factors 1 - c q^(j+shift)
        th, tl = dd.mul(ph[shift:shift + count], pl[shift:shift + count], ch * ones, cl * ones)
        return dd.add(1.0, 0.0, -th, -tl)

    fa = poch(a, 0.0, 1)
    fq = poch(1.0, 0.0, 1)
    fb = poch(b, 0.0, 1)
    fab = poch(*dd.two_prod(a, b), 2)
    aq = dd.two_prod(a, q)
    qh, ql, qe = dd.split_cumprod(np.full(m, q), np.zeros(m))  # q^k, which may underflow doubles
    tables = {
        "a": dd.split_cumprod(*fa), "q": dd.split_cumprod(*fq),
        "b": dd.split_cumprod(*fb), "ab": dd.split_cumprod(*fab),
        "ab_factor": (fab[0], fab[1]),
        "aq_pow": dd.split_cumprod(np.full(m, aq[0]), np.full(m, aq[1])),
        # prod_{j<k} a q^{j+1} = (aq)^k q^{k(k-1)/2}
        "aq_tri": dd.split_cumprod(*dd.mul(qh[:m], ql[:m], *aq), qe[:m]),
        "one": (np.full(m + 1, 0.5), np.zeros(m + 1), np.ones(m + 1, dtype=np.int64)),
    }
    # every split value above is a product of fewer than (m + 2)^2 double-double
    # roundings (the powers q^j in aq_tri have the most), amplified where c q^e nears 1
    tables["delta"] = 64.0 * dd.EPS * (m + 2) ** 2 / min(1.0 - q, 1.0 - a * b * q * q)
    return tables


def _take(t, i):
    return t[0][i], t[1][i], t[2][i]


def _prod(values):
    # products of a few mantissas in [1/2, 1) stay far inside the double range
    h, l, e = values[0]
    for v in values[1:]:
        h, l = dd.mul(h, l, v[0], v[1])
        e = e + v[2]
    return h, l, e


def _ratio(top, bottom):
    """prod(top) / prod(bottom) of split values, renormalized once."""
    return dd.split_div(_prod(top), _prod(bottom))


def _weights_and_norms(p):
    """w(x), x = 0..m, and 1/h_n, n = 0..m, as split double-doubles:

    w(x) = (aq;q)_x (q;q)_m (bq;q)_{m-x} / ((q;q)_{m-x} (q;q)_x (bq;q)_m (aq)^x)
    h_n  = (abq^2;q)_{m+n} (q;q)_n (bq;q)_n (q;q)_{m-n} (aq)^n
           / ((bq;q)_m (aq;q)_n (abq^2;q)_{n-1} (1 - ab q^{2n+1}) (q;q)_m (aq)^m),
    with (abq^2;q)_{-1} (1 - ab q) read as 1 at n = 0.
    """
    t = _factorials(p)
    m = p.m
    k = np.arange(m + 1)
    a, q, b, ab, aq = (lambda i, name=name: _take(t[name], i)
                       for name in ("a", "q", "b", "ab", "aq_pow"))
    w = _ratio([a(k), q([m]), b(m - k)], [q(m - k), q(k), b([m]), aq(k)])
    fh, fl = t["ab_factor"]
    first = k == 0
    last = (np.where(first, 1.0, fh[2 * k - 1]), np.where(first, 0.0, fl[2 * k - 1]),
            np.zeros(m + 1, dtype=np.int64))
    prev = np.maximum(k - 1, 0)
    before = (np.where(first, 1.0, t["ab"][0][prev]), np.where(first, 0.0, t["ab"][1][prev]),
              np.where(first, 0, t["ab"][2][prev]))
    h_inv = _ratio([b([m]), a(k), before, last, q([m]), aq([m])],
                   [ab(m + k), q(k), b(k), q(m - k), aq(k)])
    return w, h_inv


def _to_double(v):
    return np.ldexp(v[0] + v[1], v[2])


def _scales(p, n, x, orthonormal=False):
    """Per series form, in the order certified_entries tries them, the factor
    F its sums are multiplied by, for the entries (n, x) as broadcast arrays:
    F = sqrt(w(x)/h_n) for orthonormal values and F = 1 otherwise, and for
    the transformed form F P, where

        P = (-1)^n (aq)^n q^{n(n-1)/2} (bq;q)_{m-x+n} / ((bq;q)_{m-x} (aq;q)_n);

    both factors are split into a row part, a column part and, for P, the
    entry (bq;q)_{m-x+n}.  The direct form comes first: only its single term
    gives Q_n(q^0) = 1 exactly.
    """
    t = _factorials(p)
    m = p.m
    k = np.arange(m + 1)
    if orthonormal:
        w, h_inv = _weights_and_norms(p)
        row, col = dd.split_sqrt(h_inv), dd.split_sqrt(w)
        direct = dd.split_mul(_take(row, n), _take(col, x)), t["delta"]
    else:
        row = col = _take(t["one"], k)
        direct = (np.ones(n.shape), np.zeros(n.shape), np.zeros(n.shape, dtype=np.int64)), 0.0
    b = t["b"]
    row_t = _ratio([row, _take(t["aq_tri"], k)], [_take(t["a"], k)])
    col_t = _ratio([col], [_take(b, m - k)])
    xt = np.minimum(x, m)  # the transformed form holds for x <= m only
    h, l, e = dd.renorm(*_prod([_take(row_t, n), _take(col_t, xt), _take(b, m - xt + n)]))
    sign = 1.0 - 2.0 * (n % 2)
    return [(_series.DIRECT,) + direct,
            (_series.TRANSFORMED, (sign * h, sign * l, e), t["delta"])]


def _values(p, n, x, abs_target=0.0, rel=0.0, orthonormal=False):
    """Certified F * Q_n(q^-x) over broadcast n and x, with F = sqrt(w(x)/h_n)
    for orthonormal values and F = 1 otherwise, each entry in the first series
    form, at the cheapest tier, that certifies it."""
    n, x = np.broadcast_arrays(np.asarray(n, dtype=np.int64), np.asarray(x, dtype=np.int64))
    return _series.certified_entries((p.alpha, p.beta, p.q, p.m), n, x,
                                     _scales(p, n, x, orthonormal), abs_target, rel)


@lru_cache(maxsize=1024)
def _q_row(p, n):
    # Q_n(q^-x), x = 0..m+1, to the relative accuracy of q_hahn_Q
    out = _values(p, n, np.arange(p.m + 2), rel=_REL)
    out.flags.writeable = False
    return out


def q_hahn_Q(n: int, x: int, p: QHahnParams) -> float:
    """Polynomial value Q_n(q^{-x}) as the terminating basic hypergeometric sum.

    min(n, x) + 1 nonzero terms; x = m + 1 is accepted for the identity checks.
    Certified to 1e-14 relative accuracy at any magnitude.  Every value comes
    from row n, evaluated once per parameter set and cached.
    """
    n, x = _check_n(n, p), _check_x(x, p, extended=True)
    return float(_q_row(p, n)[x])


def q_hahn_weight(x: int, p: QHahnParams) -> float:
    """Orthogonality weight at x, within one rounding of the exact value."""
    return float(q_weight_vector(p)[_check_x(x, p)])


def q_hahn_norm(n: int, p: QHahnParams) -> float:
    """Squared norm h_n; always positive on the admissible domain."""
    return float(q_norm_vector(p)[_check_n(n, p)])


def q_hahn_orthonormal(n: int, x: int, p: QHahnParams) -> float:
    """Orthonormal function sqrt(w(x)/h_n) * Q_n(q^{-x}); the same certified
    value as the entry of q_orthonormal_table."""
    n, x = _check_n(n, p), _check_x(x, p)
    return float(_values(p, n, x, abs_target=_ABS_ENTRY, orthonormal=True))


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


def q_diff_residual_1(n: int, x: int, p: QHahnParams) -> float:
    """LHS - RHS of the first q-contiguous identity at (n, x), x <= m-1:

    (1-b q^{m-x}) Q_n(q^{-x}; a,b) - (1-q^{m-x}) Q_n(q^{-x-1}; a,b)
        = (1-a q^{n+1})(1-b q^n) q^{m-n-x} / (1-a q) * Q_n(q^{-x}; aq, b/q).
    """
    (t1, t2, t3), _ = _identity_at(q_hahn_Q, _identity_terms, n, x, p)
    return t1 - t2 - t3


def q_diff_residual_2(n: int, x: int, p: QHahnParams) -> float:
    """LHS - RHS of the second q-contiguous identity at (n, x), x <= m-1:

    (1-q^{x+1}) aq Q_n(q^{-x}; aq, b/q) - (1-a q^{x+2}) Q_n(q^{-x-1}; aq, b/q)
        = -(1-a q) Q_n(q^{-x-1}; a, b).
    """
    _, (u1, u2, u3) = _identity_at(q_hahn_Q, _identity_terms, n, x, p)
    return u1 - u2 + u3


def q_weight_vector(p: QHahnParams) -> np.ndarray:
    """Weights w(0..m), each within one rounding of the exact value."""
    return _to_double(_weights_and_norms(p)[0])


def q_norm_vector(p: QHahnParams) -> np.ndarray:
    """Norms h_0..h_m, each within one rounding of the exact value."""
    return _to_double(dd.split_div(_factorials(p)["one"], _weights_and_norms(p)[1]))


def q_polynomial_table(p: QHahnParams, rel: float = 1e-13) -> np.ndarray:
    """Table Q[n, x] for n, x in 0..m, each entry certified to rel accuracy,
    rel in (0, 1)."""
    _check_rel(rel)
    k = np.arange(p.m + 1)
    return _values(p, k[:, None], k[None, :], rel=rel)


@lru_cache(maxsize=256)
def q_orthonormal_table(p: QHahnParams) -> np.ndarray:
    """Table S[n, x] of orthonormal values; rows satisfy S @ S.T = I.

    Each entry is certified to 1e-13 absolute, the rounding of its scale
    sqrt(w(x)/h_n) (and prefactor) included.  Cached per parameter set; the
    returned array is read-only.
    """
    k = np.arange(p.m + 1)
    out = _values(p, k[:, None], k[None, :], abs_target=_ABS_ENTRY, orthonormal=True)
    out.flags.writeable = False
    return out

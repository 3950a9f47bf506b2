"""Hahn polynomials on the lattice x = 0..m: evaluation, weight, norm,
orthonormal functions, and the pair of contiguous difference identities that
connect the (alpha, beta) and (alpha+1, beta-1) families.

Polynomial values, weight and norm vectors and orthonormal tables are exact
rationals evaluated in integers: alpha and beta are doubles, hence dyadic
rationals A/E and B/E with E a power of two, so every term coefficient of the
terminating series is an integer over one common denominator c_0 per degree.
A table row n takes the integers c_0 Q_n(x), x = 0..m, from the difference
equation in x, one exact integer step per entry, so a table costs O(m^2)
big-integer steps; each entry is then one correctly rounded division, at any
size and without cancellation.  The scalar hahn_Q sums the series itself, an
independent exact route to the same values.  The scalar weight, norm and
orthonormal functions are entries of the same exact vectors and tables.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "HahnParams",
    "hahn_Q",
    "hahn_weight",
    "hahn_norm",
    "hahn_orthonormal",
    "diff_residual_1",
    "diff_residual_2",
    "weight_vector",
    "norm_vector",
    "polynomial_table",
    "orthonormal_table",
]


@dataclass(frozen=True)
class HahnParams:
    """Parameters (alpha, beta) and lattice size m.

    alpha > -1 and beta > -1, both finite, keep the series, weight and norm
    well defined; chain constructions additionally need beta > 0 so that the
    shifted family (alpha+1, beta-1) stays inside this domain.
    """

    alpha: float
    beta: float
    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", _check_m(self.m))  # a Python int
        if not (self.alpha > -1.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and exceed -1, got {self.alpha}")
        if not (self.beta > -1.0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be finite and exceed -1, got {self.beta}")

    def shifted(self) -> "HahnParams":
        """The companion family (alpha+1, beta-1); requires beta > 0."""
        return HahnParams(self.alpha + 1.0, self.beta - 1.0, self.m)


def _check_m(m):
    if not (isinstance(m, (int, np.integer)) and m >= 0):
        raise ValueError(f"m must be a nonnegative integer, got {m}")
    return int(m)


def _check_index(value, hi, name):
    # the rule of _check_m: a Python or numpy integer, returned as a Python int
    if not (isinstance(value, (int, np.integer)) and 0 <= value <= hi):
        raise ValueError(f"{name}={value} outside [0, {hi}]")
    return int(value)


def _check_rel(rel):
    # a relative tolerance of a table: 0 or less, 1 or more, or nan asks for nothing certifiable
    if not 0.0 < rel < 1.0:
        raise ValueError(f"rel must lie in (0, 1), got {rel}")


def _check_n(n, p):
    return _check_index(n, p.m, "degree n")


def _check_x(x, p, extended=False):
    return _check_index(x, p.m + 1 if extended else p.m, "lattice point x")


def _dyadic(p):
    """Integers (A, B, E) with alpha = A/E, beta = B/E and E a power of two."""
    na, da = float(p.alpha).as_integer_ratio()
    nb, db = float(p.beta).as_integer_ratio()
    e = max(da, db)
    return na * (e // da), nb * (e // db), e


def _rising(e, c, count):
    """[prod_{j<k} (e (j+1) + c) for k = 0..count]: E^k (1 + c/E)_k."""
    out = [1]
    for j in range(1, count + 1):
        out.append(out[-1] * (e * j + c))
    return out


def _coefficients(n, a, b, e, m):
    """Integers c_0..c_n with Q_n(x) = sum_k c_k (-x)_k / c_0.

    Term k of the series is (-n)_k (n+alpha+beta+1)_k / ((alpha+1)_k (-m)_k k!)
    times (-x)_k; scaled by the product c_0 of all n denominator factors
    (j+1)(E(j+1)+A)(m-j), every coefficient is an integer.
    """
    tail = [1] * (n + 1)
    for j in range(n - 1, -1, -1):
        tail[j] = tail[j + 1] * (j + 1) * (e * (j + 1) + a) * (m - j)
    out, head = [], 1
    for k in range(n + 1):
        out.append(head * tail[k])
        head *= (n - k) * (e * (n + k + 1) + a + b)
    return out


def _horner(coeffs, x):
    """sum_k coeffs[k] (-x)_k; the terms past k = x vanish.  Used by the scalar
    hahn_Q only; the tables take their rows from _integer_rows."""
    acc = 0
    for k in range(min(len(coeffs) - 1, x), -1, -1):
        acc = coeffs[k] + (k - x) * acc
    return acc


def _integer_rows(p, degrees):
    """(c_0, [N(0), ..., N(m)]) with N(x) = c_0 Q_n(x), for each n in degrees.

    The difference equation in x (Koekoek, Lesky and Swarttouw, 2010, (9.5.5)),
    lam y(x) = B(x) y(x+1) - [B(x) + D(x)] y(x) + D(x) y(x-1) with
    B(x) = (x+alpha+1)(x-m), D(x) = x(x-beta-m-1) and lam = n(n+alpha+beta+1),
    times E is an integer step
    N(x+1) = ((EB + ED + E lam) N(x) - ED N(x-1)) / EB(x), exact because every
    N(x) = sum_k c_k (-x)_k is an integer; EB(x) != 0 for x < m.  ED(0) = 0, so
    the first step gives N(1) = c_0 - c_1 from N(0) = c_0 alone.
    """
    a, b, e = _dyadic(p)
    m = p.m
    steps = []  # (EB + ED, ED, EB) at x = 0..m-1, the same for every degree
    for x in range(m):
        eb, ed = (e * x + e + a) * (x - m), x * (e * x - b - e * (m + 1))
        steps.append((eb + ed, ed, eb))
    c0 = [1]  # c_0 of degree n: prod_{j<n} (j+1)(E(j+1)+A)(m-j), as in _coefficients
    for j in range(max(degrees, default=0)):
        c0.append(c0[-1] * (j + 1) * (e * (j + 1) + a) * (m - j))
    for n in degrees:
        lam = n * (e * (n + 1) + a + b)
        prev, cur = 0, c0[n]
        row = [cur]
        for s, ed, eb in steps:
            prev, cur = cur, ((s + lam) * cur - ed * prev) // eb
            row.append(cur)
        yield c0[n], row


def _to_float(num, den):
    """num/den correctly rounded, +-inf past the double range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _split(num, den):
    """(f, k) with num/den = f 2^k, |f| in [1/2, 2] correctly rounded; no
    intermediate leaves the double range."""
    k = num.bit_length() - den.bit_length()
    return ((num << -k) / den if k < 0 else num / (den << k)), k


def _sqrt_split(num, den):
    """(f, k) with sqrt(num/den) = f 2^k to within one rounding of f."""
    f, k = _split(num, den)
    if k % 2:
        f, k = 2.0 * f, k - 1
    return math.sqrt(f), k // 2


def _weights_and_norms(p):
    """Exact weights w(x) and norms h_n as (numerator, denominator) pairs."""
    a, b, e = _dyadic(p)
    m = p.m
    pa, pb = _rising(e, a, m), _rising(e, b, m)
    pab = _rising(e, a + b, 2 * m + 1)
    fact = [math.factorial(k) for k in range(m + 1)]
    e_m = e ** m
    # w(x) = (alpha+1)_x (beta+1)_{m-x} / (x! (m-x)!)
    w = [(pa[x] * pb[m - x], e_m * fact[x] * fact[m - x]) for x in range(m + 1)]
    # h_n = (n+alpha+beta+1)_{m+1} (beta+1)_n n! (m-n)!
    #       / ((2n+alpha+beta+1) (alpha+1)_n m!^2)
    h = [(pab[n + m + 1] * pb[n] * fact[n] * fact[m - n],
          e_m * pab[n] * (e * (2 * n + 1) + a + b) * pa[n] * fact[m] ** 2)
         for n in range(m + 1)]
    return w, h


def hahn_Q(n: int, x: int, p: HahnParams) -> float:
    """Polynomial value Q_n(x) of the terminating 3F2-type sum, correctly rounded.

    The sum has min(n, x) + 1 nonzero terms.  x = m + 1 is accepted: the
    difference identities evaluate one step past the lattice edge.
    """
    n, x = _check_n(n, p), _check_x(x, p, extended=True)
    coeffs = _coefficients(n, *_dyadic(p), p.m)
    return _to_float(_horner(coeffs, x), coeffs[0])


def hahn_weight(x: int, p: HahnParams) -> float:
    """Orthogonality weight binom(alpha+x, x) * binom(m+beta-x, m-x), correctly
    rounded."""
    return _to_float(*_weights_and_norms(p)[0][_check_x(x, p)])


def hahn_norm(n: int, p: HahnParams) -> float:
    """Squared norm h_n, correctly rounded; always positive on the admissible
    domain."""
    return _to_float(*_weights_and_norms(p)[1][_check_n(n, p)])


def hahn_orthonormal(n: int, x: int, p: HahnParams) -> float:
    """Orthonormal function sqrt(w(x)/h_n) * Q_n(x); equal to the entry of
    orthonormal_table."""
    n, x = _check_n(n, p), _check_x(x, p)
    return float(_orthonormal_rows(p, [n])[0, x])


def _identity_terms(n, x, p, q0, q1, s0, s1):
    """Terms of the two contiguous identities, t1 - t2 - t3 = 0 and
    u1 - u2 + u3 = 0, from q0, q1 = Q_n(x), Q_n(x+1) of p and s0, s1 the same
    of p.shifted().  Broadcasts over numpy arrays.
    """
    a, b, m = p.alpha, p.beta, p.m
    t = ((m + b - x) * q0, (m - x) * q1, (n + a + 1.0) * (n + b) / (a + 1.0) * s0)
    u = ((x + 1.0) * s0, (a + x + 2.0) * s1, (a + 1.0) * q1)
    return t, u


def _identity_at(value, terms, n, x, p):
    """terms(n, x, p, ...) of a family's two contiguous identities at (n, x),
    x <= m-1, from value(n, x, p) at x and x+1 of p and p.shifted().  Shared
    by the plain and the q family."""
    n, x = _check_n(n, p), _check_index(x, p.m - 1, "x")
    sh = p.shifted()
    return terms(n, x, p, value(n, x, p), value(n, x + 1, p), value(n, x, sh), value(n, x + 1, sh))


def diff_residual_1(n: int, x: int, p: HahnParams) -> float:
    """LHS - RHS of the first contiguous identity at (n, x), x <= m-1:

    (m+b-x) Q_n(x; a,b) - (m-x) Q_n(x+1; a,b)
        = (n+a+1)(n+b)/(a+1) * Q_n(x; a+1, b-1).
    """
    (t1, t2, t3), _ = _identity_at(hahn_Q, _identity_terms, n, x, p)
    return t1 - t2 - t3


def diff_residual_2(n: int, x: int, p: HahnParams) -> float:
    """LHS - RHS of the second contiguous identity at (n, x), x <= m-1:

    (x+1) Q_n(x; a+1,b-1) - (a+x+2) Q_n(x+1; a+1,b-1) = -(a+1) Q_n(x+1; a,b).
    """
    _, (u1, u2, u3) = _identity_at(hahn_Q, _identity_terms, n, x, p)
    return u1 - u2 + u3


def weight_vector(p: HahnParams) -> np.ndarray:
    """Weights w(0..m), each the exact rational correctly rounded."""
    return np.array([_to_float(*w) for w in _weights_and_norms(p)[0]])


def norm_vector(p: HahnParams) -> np.ndarray:
    """Norms h_0..h_m, each the exact rational correctly rounded."""
    return np.array([_to_float(*h) for h in _weights_and_norms(p)[1]])


def polynomial_table(p: HahnParams, rel: float = 1e-13) -> np.ndarray:
    """Table Q[n, x] for n, x in 0..m.

    Every entry is the exact value correctly rounded, so it meets any relative
    tolerance rel in (0, 1) down to the double rounding unit.
    """
    _check_rel(rel)
    return np.array([[_to_float(v, c0) for v in row]
                     for c0, row in _integer_rows(p, range(p.m + 1))])


def _orthonormal_rows(p, degrees):
    """Rows sqrt(w(x)/h_n) Q_n(x), x = 0..m, for each n in degrees.

    Q_n(x), w(x) and h_n are exact rationals, split into mantissa and power of
    two so no intermediate leaves the double range; each entry carries a few
    roundings of relative error, for any m, alpha and beta.
    """
    w, h = _weights_and_norms(p)
    sw, kw = zip(*(_sqrt_split(num, den) for num, den in w))
    sh, kh = zip(*(_sqrt_split(h[n][1], h[n][0]) for n in degrees))
    f = np.empty((len(degrees), p.m + 1))
    k = np.empty(f.shape, dtype=np.int64)
    for i, (c0, row) in enumerate(_integer_rows(p, degrees)):
        f[i], k[i] = zip(*(_split(v, c0) for v in row))
    out = np.ldexp(f * np.outer(sh, sw), k + np.add.outer(kh, kw))
    np.clip(out, -1.0, 1.0, out=out)  # rounding must not push |S| past its bound 1
    return out


@lru_cache(maxsize=256)
def orthonormal_table(p: HahnParams) -> np.ndarray:
    """Table S[n, x] = sqrt(w(x)/h_n) Q_n(x) of orthonormal values; rows
    satisfy S @ S.T = I.

    Cached per parameter set; the returned array is read-only.
    """
    out = _orthonormal_rows(p, range(p.m + 1))
    out.flags.writeable = False
    return out

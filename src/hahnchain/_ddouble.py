"""Vectorized double-double (~31 digit) arithmetic.

Error-free transformations (Dekker/Knuth) on numpy arrays; every value is an
unevaluated (hi, lo) pair with |lo| <= ulp(hi)/2.  Only the handful of
operations the series kernels and the q-family scales need are provided.
A split value (hi, lo, e) stands for (hi + lo) 2^e with an integer e, so
products of many factors never leave the double range.
"""

import math

import numpy as np

_SPLITTER = 134217729.0  # 2**27 + 1

# relative rounding unit of a double-double value
EPS = 4.93e-32


def two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def fast_two_sum(a, b):
    # requires |a| >= |b| (or a == 0)
    s = a + b
    return s, b - (s - a)


def two_prod(a, b):
    p = a * b
    ah_t = _SPLITTER * a
    ah = ah_t - (ah_t - a)
    al = a - ah
    bh_t = _SPLITTER * b
    bh = bh_t - (bh_t - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def add(xh, xl, yh, yl):
    sh, se = two_sum(xh, yh)
    se = se + (xl + yl)
    return fast_two_sum(sh, se)


def mul(xh, xl, yh, yl):
    ph, pe = two_prod(xh, yh)
    pe = pe + (xh * yl + xl * yh)
    return fast_two_sum(ph, pe)


def mul_d(xh, xl, y):
    ph, pe = two_prod(xh, y)
    pe = pe + xl * y
    return fast_two_sum(ph, pe)


def div(xh, xl, yh, yl):
    q1 = xh / yh
    th, tl = mul_d(yh, yl, q1)
    rh, rl = add(xh, xl, -th, -tl)
    q2 = rh / yh
    th, tl = mul_d(yh, yl, q2)
    rh, rl = add(rh, rl, -th, -tl)
    q3 = rh / yh
    qh, ql = fast_two_sum(q1, q2)
    return add(qh, ql, q3, np.zeros_like(q3) if isinstance(q3, np.ndarray) else 0.0)


def powers(base, lo_exp, hi_exp):
    """Double-double powers base**j for j = lo_exp..hi_exp (inclusive).

    Returns (hi, lo) arrays indexed by j - lo_exp.  base is an exact double;
    the negative powers are the reciprocals of the positive ones.
    """
    if not lo_exp <= 0 <= hi_exp:
        raise ValueError("power table must straddle exponent 0")
    h, l = 1.0, 0.0
    hs, ls = [h], [l]
    for _ in range(max(hi_exp, -lo_exp)):
        h, l = mul_d(h, l, base)
        hs.append(h), ls.append(l)
    ph, pl = np.array(hs), np.array(ls)
    nh, nl = div(np.ones(-lo_exp), np.zeros(-lo_exp), ph[-lo_exp:0:-1], pl[-lo_exp:0:-1])
    return np.concatenate((nh, ph[:hi_exp + 1])), np.concatenate((nl, pl[:hi_exp + 1]))


def sqrt(xh, xl):
    """Square root of a positive double-double."""
    s = np.sqrt(xh)
    ph, pe = two_prod(s, s)
    return fast_two_sum(s, ((xh - ph) - pe + xl) / (2.0 * s))


def renorm(h, l, e):
    """Split value with |hi| in [1/2, 1) (or hi = 0); the scaling is exact."""
    f, k = np.frexp(h)
    return f, np.ldexp(l, -k), e + k


def split_mul(x, y):
    h, l = mul(x[0], x[1], y[0], y[1])
    return renorm(h, l, x[2] + y[2])


def split_div(x, y):
    h, l = div(x[0], x[1], y[0], y[1])
    return renorm(h, l, x[2] - y[2])


def split_sqrt(x):
    h, l, e = x
    odd = e % 2
    h, l = sqrt(np.ldexp(h, odd), np.ldexp(l, odd))
    return renorm(h, l, (e - odd) // 2)


def split_cumprod(fh, fl, fe=None):
    """Split products prod_{j<k} f_j for k = 0..len(f) of positive factors
    f_j = (fh_j + fl_j) 2^fe_j."""
    fe = [0] * len(fh) if fe is None else fe.tolist()
    h, l, e = 0.5, 0.0, 1
    hs, ls, es = [h], [l], [e]
    for yh, yl, ye in zip(fh.tolist(), fl.tolist(), fe):
        h, l = mul(h, l, yh, yl)
        h, k = math.frexp(h)
        l, e = math.ldexp(l, -k), e + k + ye
        hs.append(h), ls.append(l), es.append(e)
    return np.array(hs), np.array(ls), np.array(es, dtype=np.int64)

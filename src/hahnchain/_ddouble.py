"""Vectorized double-double (~31 digit) arithmetic.

Error-free transformations (Dekker/Knuth) on numpy arrays; every value is an
unevaluated (hi, lo) pair with |lo| <= ulp(hi)/2.  Only the handful of
operations the series kernels need are provided.
"""

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

    Returns (hi, lo) arrays indexed by j - lo_exp.  base is an exact double.
    """
    n = hi_exp - lo_exp + 1
    hs = np.empty(n)
    ls = np.empty(n)
    if lo_exp <= 0 <= hi_exp:
        zero_at = -lo_exp
    else:
        raise ValueError("power table must straddle exponent 0")
    hs[zero_at], ls[zero_at] = 1.0, 0.0
    h, l = 1.0, 0.0
    for j in range(zero_at + 1, n):
        h, l = mul_d(h, l, base)
        hs[j], ls[j] = h, l
    h, l = 1.0, 0.0
    for j in range(zero_at - 1, -1, -1):
        h, l = div(h, l, base, 0.0)
        hs[j], ls[j] = h, l
    return hs, ls

"""Certified evaluation of the terminating series behind the q-Hahn family.

The forward term-ratio sum is mathematically exact, but the terms alternate in
sign and can dwarf the result, so fixed precision alone cannot reach the
tolerances the identity checks demand at larger sizes.  Every sum therefore
runs through escalating tiers -- vector double, vector double-double, mpmath at
a computed precision -- with the running max |term| acting as an a-posteriori
rounding certificate for each tier.  One function, certified_row, applies the
same absolute-or-relative acceptance test at every tier.
"""

import math

import mpmath
import numpy as np

from . import _ddouble as dd

_EPS = 2.220446049250313e-16
# safety factor on the accumulated-rounding estimate err <= C * nterms * eps * max|term|
_CERT = 8.0
_MAX_DPS = 3000
_TINY = 5e-324  # smallest subnormal double


# ---------------------------------------------------------------------------
# q-deformed family:  r_k(x) = q (1-q^{k-n})(1-ab q^{n+1+k})(1-q^{k-x})
#                              / ((1-q^{k+1})(1-a q^{k+1})(1-q^{k-m}))
# ---------------------------------------------------------------------------

def q_row_double(n, xs, a, b, q, m):
    xs = np.asarray(xs)
    term = np.ones(xs.shape)
    total = np.ones(xs.shape)
    maxterm = np.ones(xs.shape)
    for k in range(n):
        c = (q * (1.0 - q ** (k - n)) * (1.0 - a * b * q ** (n + 1 + k))
             / ((1.0 - q ** (k + 1)) * (1.0 - a * q ** (k + 1)) * (1.0 - q ** (k - m))))
        term = term * (c * (1.0 - q ** (k - xs)))
        total = total + term
        np.maximum(maxterm, np.abs(term), out=maxterm)
    return total, maxterm


def q_row_dd(n, xs, a, b, q, m):
    xs = np.asarray(xs)
    lo_exp = -(m + 2)
    ph, pl = dd.powers(q, lo_exp, 2 * m + 3)
    off = -lo_exp

    def one_minus_qpow(e):
        # dd value of 1 - q**e for integer exponent array or scalar e
        return dd.add(1.0, 0.0, -ph[e + off], -pl[e + off])

    th, tl = dd.from_double(np.ones(xs.shape))
    sh, sl = dd.from_double(np.ones(xs.shape))
    maxterm = np.ones(xs.shape)
    for k in range(n):
        f2h, f2l = dd.mul_d(*dd.mul_d(ph[n + 1 + k + off], pl[n + 1 + k + off], a), b)
        f2h, f2l = dd.add(1.0, 0.0, -f2h, -f2l)
        g2h, g2l = dd.mul_d(ph[k + 1 + off], pl[k + 1 + off], a)
        g2h, g2l = dd.add(1.0, 0.0, -g2h, -g2l)
        nh, nl = dd.mul(*one_minus_qpow(k - n), f2h, f2l)
        nh, nl = dd.mul(nh, nl, ph[1 + off], pl[1 + off])
        dh, dl = dd.mul(*one_minus_qpow(k + 1), g2h, g2l)
        dh, dl = dd.mul(dh, dl, *one_minus_qpow(k - m))
        rh, rl = dd.div(nh, nl, dh, dl)
        th, tl = dd.mul(th, tl, rh, rl)
        th, tl = dd.mul(th, tl, *one_minus_qpow(k - xs))
        sh, sl = dd.add(sh, sl, th, tl)
        np.maximum(maxterm, np.abs(th), out=maxterm)
    return sh, sl, maxterm


def q_mp(n, x, a, b, q, m, dps):
    with mpmath.workdps(dps):
        am = mpmath.mpf(a)
        bm = mpmath.mpf(b)
        qm = mpmath.mpf(q)
        term = total = mpmath.mpf(1)
        for k in range(min(n, x)):
            term *= qm * (1 - qm ** (k - n)) * (1 - am * bm * qm ** (n + 1 + k)) * (1 - qm ** (k - x))
            term /= (1 - qm ** (k + 1)) * (1 - am * qm ** (k + 1)) * (1 - qm ** (k - m))
            total += term
        return float(total)


def q_log_maxterm(n, x, a, b, q, m):
    lt = 0.0
    worst = 0.0
    lq = math.log10(q)
    for k in range(min(n, x)):
        num = abs(q * (1.0 - q ** (k - n)) * (1.0 - a * b * q ** (n + 1 + k)))
        den = abs((1.0 - q ** (k + 1)) * (1.0 - a * q ** (k + 1)) * (1.0 - q ** (k - m)))
        e = k - x
        lfx = math.log10(abs(1.0 - q ** e)) if e > -300 else e * lq
        lt += math.log10(num) - math.log10(den) + lfx
        worst = max(worst, lt)
    return worst


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def _accepted(s, err, abs_target, rel):
    # err within the absolute or relative target, or the value certifiably
    # rounds to zero
    mag = np.abs(s)
    return (err <= abs_target + rel * (mag - err)) | (mag + err < _TINY)


def _mp_certified(family_args, n, x, s, err, maxterm, abs_target, rel):
    """One series value from the mpmath tier, certified like the vector tiers.

    s, err and maxterm come from the double-double tier.  The first precision
    meets the target that the certified lower bound |s| - err on the value
    implies; the digits double until the bound is met.
    """
    log_mt = (math.log10(maxterm) if math.isfinite(maxterm) and maxterm > 0
              else q_log_maxterm(n, x, *family_args))
    floor = abs(s) - err
    floor = floor if 0.0 < floor < math.inf else 0.0  # nan fails both tests
    lead = log_mt + math.log10(_CERT * n)
    dps = max(30, math.ceil(lead - math.log10(max(abs_target + rel * floor, _TINY))) + 2)
    while True:
        dps = min(dps, _MAX_DPS)
        value = q_mp(n, x, *family_args, dps)
        if _accepted(value, 10.0 ** (lead - dps), abs_target, rel):
            return value
        if dps == _MAX_DPS:
            raise ArithmeticError(
                f"q-Hahn series (n={n}, x={x}) not certified at {_MAX_DPS} digits")
        dps *= 2


def certified_row(family_args, n, xs, abs_target=0.0, rel=0.0):
    """Series values for one degree over an x grid, each certified.

    family_args = (a, b, q, m); abs_target is a scalar or an array like xs.
    Entry i is accepted once its certified rounding bound err_i satisfies
    err_i <= abs_target_i + rel * (|s_i| - err_i), or once |s_i| + err_i is
    below the smallest subnormal so the value certifiably rounds to zero; the
    returned double adds one final rounding.  Raises ArithmeticError if an
    entry cannot be certified at _MAX_DPS digits.
    """
    xs = np.asarray(xs)
    if n == 0:
        return np.ones(xs.shape)
    abs_target = np.full(xs.shape, abs_target)
    nterms = np.minimum(n, xs)  # the series is exactly 1 at x = 0 in every tier
    # an overflowing tier gives an inf or nan bound, which fails the test
    with np.errstate(over="ignore", invalid="ignore"):
        total, maxterm = q_row_double(n, xs, *family_args)
        err = (_CERT * _EPS) * nterms * maxterm
        idx = np.nonzero(~_accepted(total, err, abs_target, rel))[0]
        if idx.size == 0:
            return total
        sh, _, maxterm = q_row_dd(n, xs[idx], *family_args)
        total[idx] = sh
        err = (_CERT * dd.EPS) * nterms[idx] * maxterm
        bad = ~_accepted(sh, err, abs_target[idx], rel)
    for i, s, e, mt in zip(idx[bad], sh[bad], err[bad], maxterm[bad]):
        total[i] = _mp_certified(family_args, n, int(xs[i]), s, e, mt, abs_target[i], rel)
    return total

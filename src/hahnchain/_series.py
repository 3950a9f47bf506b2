"""Certified evaluation of the terminating series behind the q-Hahn family.

The forward term-ratio sum is mathematically exact, but the terms alternate in
sign and can dwarf the result, so fixed precision alone cannot reach the
tolerances the identity checks demand at larger sizes.  Every row of sums
therefore runs through escalating tiers -- vector double, vector double-double,
then mpmath at a computed precision, which evaluates the entries still
uncertified as one row -- with the running max |term| acting as an
a-posteriori rounding certificate for each tier.  One function, certified_row,
applies the same absolute-or-relative acceptance test at every tier.
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
    term = np.ones(xs.shape)
    total = np.ones(xs.shape)
    maxterm = np.ones(xs.shape)
    for k in range(min(n, xs.max())):  # later terms vanish at every x
        c = (q * (1.0 - q ** (k - n)) * (1.0 - a * b * q ** (n + 1 + k))
             / ((1.0 - q ** (k + 1)) * (1.0 - a * q ** (k + 1)) * (1.0 - q ** (k - m))))
        term = term * (c * (1.0 - q ** (k - xs)))
        total = total + term
        np.maximum(maxterm, np.abs(term), out=maxterm)
    return total, maxterm


def q_row_dd(n, xs, a, b, q, m):
    lo_exp = -(m + 2)
    ph, pl = dd.powers(q, lo_exp, 2 * m + 3)
    fh, fl = dd.add(1.0, 0.0, -ph, -pl)  # 1 - q**e
    off = -lo_exp
    th, tl = np.ones(xs.shape), np.zeros(xs.shape)
    sh, sl = np.ones(xs.shape), np.zeros(xs.shape)
    maxterm = np.ones(xs.shape)
    for k in range(min(n, xs.max())):  # later terms vanish at every x
        f2h, f2l = dd.mul_d(*dd.mul_d(ph[n + 1 + k + off], pl[n + 1 + k + off], a), b)
        f2h, f2l = dd.add(1.0, 0.0, -f2h, -f2l)
        g2h, g2l = dd.mul_d(ph[k + 1 + off], pl[k + 1 + off], a)
        g2h, g2l = dd.add(1.0, 0.0, -g2h, -g2l)
        nh, nl = dd.mul(fh[k - n + off], fl[k - n + off], f2h, f2l)
        nh, nl = dd.mul(nh, nl, ph[1 + off], pl[1 + off])
        dh, dl = dd.mul(fh[k + 1 + off], fl[k + 1 + off], g2h, g2l)
        dh, dl = dd.mul(dh, dl, fh[k - m + off], fl[k - m + off])
        rh, rl = dd.div(nh, nl, dh, dl)
        th, tl = dd.mul(th, tl, rh, rl)
        th, tl = dd.mul(th, tl, fh[k - xs + off], fl[k - xs + off])
        sh, sl = dd.add(sh, sl, th, tl)
        np.maximum(maxterm, np.abs(th), out=maxterm)
    return sh, sl, maxterm


def q_mp_row(n, xs, a, b, q, m, dps):
    """Series values for degree n at the lattice points xs, at dps digits.

    The powers q**e, the factors 1 - q**e and the x-independent part of each
    term ratio are formed once; each entry's forward sum then costs three mp
    operations per term.
    """
    with mpmath.workdps(dps):
        am, qm = mpmath.mpf(a), mpmath.mpf(q)
        abm = am * mpmath.mpf(b)
        nk = min(n, max(xs))  # terms in the longest sum
        off = m + 1  # exponents run from -(m+1) (k - x at x = m+1) to n + nk
        pw = [qm ** e for e in range(-off, n + nk + 1)]
        f = [1 - p for p in pw]
        ratio = [qm * f[k - n + off] * (1 - abm * pw[n + 1 + k + off])
                 / (f[k + 1 + off] * (1 - am * pw[k + 1 + off]) * f[k - m + off])
                 for k in range(nk)]
        out = np.empty(len(xs))
        for i, x in enumerate(xs):
            term = total = mpmath.mpf(1)
            for k in range(min(n, x)):
                term = term * ratio[k] * f[k - x + off]
                total += term
            out[i] = float(total)
        return out


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


def certified_row(family_args, n, xs, abs_target=0.0, rel=0.0):
    """Series values for one degree over an x grid, each certified.

    family_args = (a, b, q, m); abs_target is a scalar or an array like xs.
    Entry i is accepted once its certified rounding bound err_i satisfies
    err_i <= abs_target_i + rel * (|s_i| - err_i), or once |s_i| + err_i is
    below the smallest subnormal so the value certifiably rounds to zero; the
    returned double adds one final rounding.  The entries the double-double
    tier leaves uncertified go to the mpmath tier as one row, at the largest
    of the precisions that meet the targets their certified lower bounds
    |s_i| - err_i imply; entries that fail go round again at doubled digits.
    Raises ArithmeticError if an entry cannot be certified at _MAX_DPS digits.
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
        floor = np.abs(sh) - err
    if not bad.any():
        return total
    todo, floor = idx[bad], floor[bad]
    floor = np.where((0.0 < floor) & (floor < math.inf), floor, 0.0)  # nan fails both tests
    lead = np.array([math.log10(mt) if math.isfinite(mt) and mt > 0
                     else q_log_maxterm(n, int(xs[i]), *family_args)
                     for i, mt in zip(todo, maxterm[bad])]) + math.log10(_CERT * n)
    need = lead - np.log10(np.maximum(abs_target[todo] + rel * floor, _TINY))
    dps = max(30, math.ceil(need.max()) + 2)
    while True:
        dps = min(dps, _MAX_DPS)
        values = q_mp_row(n, xs[todo].tolist(), *family_args, dps)
        ok = _accepted(values, 10.0 ** (lead - dps), abs_target[todo], rel)
        total[todo[ok]] = values[ok]
        todo, lead = todo[~ok], lead[~ok]
        if todo.size == 0:
            return total
        if dps == _MAX_DPS:
            raise ArithmeticError(
                f"q-Hahn series (n={n}, x={xs[todo[0]]}) not certified at {_MAX_DPS} digits")
        dps *= 2

"""Certified evaluation of the terminating series behind the q-Hahn family.

A value Q_n(q^-x) is a terminating 3phi2 sum in one of two forms:

  direct       3phi2(q^-n, ab q^{n+1}, q^-x; a q, q^-m; q, q), min(n, x) + 1
               terms, holding up to x = m + 1;
  transformed  P * 3phi2(q^-n, q^{-m-n-1}/(ab), q^{x-m}; q^-m, q^{x-m-n}/b; q, q),
               min(n, m - x) + 1 terms, x <= m (Gasper-Rahman, Basic
               Hypergeometric Series, 2nd ed., (III.13)).

The direct terms alternate in sign and can dwarf the value by thousands of
digits; the transformed sum, whose prefactor P = (-1)^n |P| carries the sign
without cancellation, cancels a few digits at most unless q is close to 1.
Both forms are data (QForm) that the same tier kernels consume, with the
running max |term| acting as an a-posteriori rounding certificate for each
tier.  The caller gives, per form, the factor F each entry's sum is
multiplied by (P, an orthonormal scale, or 1) as a split double-double with
a bound on its relative error.  One function, certified_entries, climbs one
ladder of tiers -- vector double, vector double-double, then mpmath, whose
passes run the double kernel on mpf object arrays at 124 digits, doubling
up to _MAX_DPS.  At each tier the forms run in the caller's order on the
entries still uncertified, and an entry settles the first time F * S passes
the same absolute-or-relative acceptance test.
"""

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import _ddouble as dd

_EPS = 2.220446049250313e-16
# safety factor on the accumulated-rounding estimate err <= C * nterms * eps * max|term|
_CERT = 8.0
_MAX_DPS = 3000
_TINY = 5e-324  # smallest subnormal double
_DD_DIGITS = 31  # decimal digits of a double-double
_BIG = 2.0 ** 200  # a running term past this is scaled down by 2^-_SHIFT (exactly)
_SHIFT = 400

# entries certified per (tier, form) and the largest mpmath precision used
_counts = Counter()
_max_dps = [0]


@dataclass(frozen=True)
class QForm:
    """A terminating 3phi2(a1, a2, a3; b1, b2; q, q) of the q-Hahn family.

    Each parameter is alpha^i beta^j q^(cn n + cm m + cx x + c0), written as
    the tuple (i, j, cn, cm, cx, c0).  The numerator parameters with
    i = j = 0 are q^-N and stop the sum after N + 1 terms.  The form holds
    for x <= m + x_over.
    """

    name: str
    num: tuple
    den: tuple
    x_over: int


DIRECT = QForm("direct",
               num=((0, 0, -1, 0, 0, 0), (1, 1, 1, 0, 0, 1), (0, 0, 0, 0, -1, 0)),
               den=((1, 0, 0, 0, 0, 1), (0, 0, 0, -1, 0, 0)), x_over=1)
TRANSFORMED = QForm("transformed",
                    num=((0, 0, -1, 0, 0, 0), (-1, -1, -1, -1, 0, -1), (0, 0, 0, -1, 1, 0)),
                    den=((0, 0, 0, -1, 0, 0), (0, -1, -1, -1, 1, 0)), x_over=0)


def _exponent(par, n, x, m):
    return par[2] * n + par[3] * m + par[4] * x + par[5]


def _nterms(form, n, x, m):
    """Terms after the first: the smallest N of the q^-N parameters."""
    return np.min([-_exponent(p, n, x, m) for p in form.num if p[0] == p[1] == 0], axis=0)


def _coefficient(par, a, b):
    # alpha^i beta^j as a double-double
    h, l = 1.0, 0.0
    for c, power in ((a, par[0]), (b, par[1])):
        if power == 1:
            h, l = dd.mul_d(h, l, c)
        elif power == -1:
            h, l = dd.div(h, l, c, 0.0)
    return h, l


def _reciprocal(fh, fl, scale=1.0):
    # scale / f in double-double; a vanishing denominator factor only occurs
    # after the sum has stopped, so its reciprocal is stored as 0
    rh, rl = dd.div(np.full(fh.shape, scale), np.zeros(fh.shape), fh, fl)
    zero = fh == 0.0
    rh[zero], rl[zero] = 0.0, 0.0
    return rh, rl


@lru_cache(maxsize=8)
def q_tables(q, m):
    """Double-double tables over the exponents e = -(2m+2)..2m+2 (index
    e + 2m + 2): q^e, 1 - q^e, 1/(1 - q^e) and q/(1 - q^e)."""
    with np.errstate(all="ignore"):
        pw = dd.powers(q, -(2 * m + 2), 2 * m + 2)
        one = dd.add(1.0, 0.0, -pw[0], -pw[1])
        return {"pow": pw, "num": one, "den": _reciprocal(*one), "qfac": _reciprocal(*one, scale=q)}


@lru_cache(maxsize=None)
def _factors(form):
    """The factors of a term ratio: q / (1 - q^(k+1)) (parameter None), then
    the denominator parameters' reciprocals, so that a ratio of two huge
    factors does not overflow on the way, and the numerator parameters."""
    return (((None, "qfac"),) + tuple((p, "den") for p in form.den)
            + tuple((p, "num") for p in form.num))


@lru_cache(maxsize=8)
def _tables(form, a, b, q, m):
    """Double-double (high, low) tables of the factors over the exponents of
    q_tables: 1 - c q^e per numerator parameter, 1/(1 - c q^e) per
    denominator one."""
    unit = q_tables(q, m)
    with np.errstate(all="ignore"):

        def factor(par, kind):
            if par is None or par[0] == par[1] == 0:
                return unit[kind]
            th, tl = dd.mul(*unit["pow"], *_coefficient(par, a, b))
            f = dd.add(1.0, 0.0, -th, -tl)
            return f if kind == "num" else _reciprocal(*f)

        return [factor(par, kind) for par, kind in _factors(form)]


def _mp_tables(form, a, b, q, m, used):
    """The same tables in mpf at the working precision, as (values, None)
    object arrays filled only at the indices each factor uses."""
    import mpmath  # only the mpmath tiers need it, and most tables never reach them

    a, b, q = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(q)
    off = 2 * m + 2
    power = lru_cache(maxsize=None)(lambda i: q ** (i - off))  # shared by the factors
    tables = []
    for (par, kind), idx in zip(_factors(form), used):
        c = 1 if par is None else a ** par[0] * b ** par[1]
        tab = np.empty(2 * off + 1, dtype=object)
        for i in set(idx.ravel().tolist()):
            f = 1 - c * power(i)
            # as in _reciprocal, a vanishing denominator factor is stored as 0
            tab[i] = f if kind == "num" else (q if par is None else 1) / f if f else f
        tables.append((tab, None))
    return tables


class _Plan:
    """What the tier kernels need for one form over a set of entries: the
    x-independent part of each term ratio as an (n, k) table, and the table
    indices of the x-dependent factors.  The tables are double-double, or
    with mp=True mpf at the working precision.  Each tier makes its own plan
    for the entries it runs."""

    def __init__(self, form, family_args, ns, xs, mp=False):
        a, b, q, m = family_args
        off = 2 * m + 2
        self.nterms = _nterms(form, ns, xs, m)
        self.kmax = int(self.nterms.max(initial=0))
        nvals, self.row = np.unique(ns, return_inverse=True)
        k = np.arange(self.kmax)
        index = [(k + 1 + off)[None, :]]
        for par, _ in _factors(form)[1:]:
            if par[4] == 0:
                index.append(_exponent(par, nvals, 0, m)[:, None] + k + off)
            else:
                index.append(_exponent(par, ns, xs, m) + off)
        if mp:
            # every index the kernel reads, up to kmax terms for every entry
            used = [i if i.ndim == 2 else i[:, None] + k for i in index]
            tables = _mp_tables(form, a, b, q, m, used)
        else:
            tables = _tables(form, a, b, q, m)
        self.fixed = [(t, i) for t, i in zip(tables, index) if i.ndim == 2]
        self.xdep = [(t[0], t[1], i) for t, i in zip(tables, index) if i.ndim == 1]
        self.rh = np.ones((len(nvals), self.kmax), dtype=object if mp else float)
        for tab, i in self.fixed:
            self.rh = self.rh * tab[0][i]


def _rescale(maxterm, sc, *arrays):
    big = maxterm > _BIG
    for arr in (maxterm,) + arrays:
        arr[big] = np.ldexp(arr[big], -_SHIFT)
    sc[big] += _SHIFT


def _sum_double(plan):
    """Sums S = total 2^sc and max|term| = maxterm 2^sc in double precision,
    or in mpf on an mp plan, whose exponent range is unbounded, so nothing
    is rescaled there."""
    count = len(plan.row)
    term, total, maxterm = (np.ones(count, dtype=plan.rh.dtype) for _ in range(3))
    sc = np.zeros(count, dtype=np.int64)
    rescale = plan.rh.dtype != object
    for k in range(plan.kmax):
        ratio = plan.rh[plan.row, k]
        for th, _, base in plan.xdep:
            ratio = ratio * th[base + k]
        term *= ratio
        total += term
        np.maximum(maxterm, np.abs(term), out=maxterm)
        if rescale and maxterm.max() > _BIG:
            _rescale(maxterm, sc, term, total)
    return total, maxterm, sc


def _sum_dd(plan):
    """The same sums in double-double: (sh, sl) 2^sc and maxterm 2^sc."""
    count = len(plan.row)
    th, tl = np.ones(count), np.zeros(count)
    sh, sl = np.ones(count), np.zeros(count)
    maxterm = np.ones(count)
    sc = np.zeros(count, dtype=np.int64)
    ratio_h, ratio_l = np.ones(plan.rh.shape), np.zeros(plan.rh.shape)
    for (fh, fl), i in plan.fixed:
        ratio_h, ratio_l = dd.mul(ratio_h, ratio_l, fh[i], fl[i])
    for k in range(plan.kmax):
        rh, rl = ratio_h[plan.row, k], ratio_l[plan.row, k]
        for fh, fl, base in plan.xdep:
            rh, rl = dd.mul(rh, rl, fh[base + k], fl[base + k])
        th, tl = dd.mul(th, tl, rh, rl)
        sh, sl = dd.add(sh, sl, th, tl)
        np.maximum(maxterm, np.abs(th), out=maxterm)
        if maxterm.max() > _BIG:
            _rescale(maxterm, sc, th, tl, sh, sl)
    return sh, sl, maxterm, sc


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def _accepted(s, err, abs_target, rel, scale=0):
    # err within the absolute or relative target, or the value certifiably
    # rounds to zero; s and err are in units of 2^scale, an exact rescaling
    mag = np.abs(s)
    with np.errstate(over="ignore"):
        return ((err <= np.ldexp(abs_target, -scale) + rel * (mag - err))
                | (mag + err < np.ldexp(_TINY, -scale)))


def _product_error(fh, fl, delta, s, err_s):
    """Bound on |F~ S~ - F S| for F~ = fh (+ fl) with |F~ - F| <= delta |fh|
    and |S~ - S| <= err_s; fl counts as dropped, which also covers the
    rounding of a double-double product."""
    ah, al = np.abs(fh), np.abs(fl)
    return (ah + al) * err_s + (al + delta * ah) * (np.abs(s) + err_s)


# Each tier takes one form's entries (ns, xs) with their factors
# (form, (fh, fl, fk), delta) and targets, and returns their values as
# doubles and whether each is accepted.

def _double(form_scale, family_args, ns, xs, abs_target, rel):
    form, (fh, fl, fk), delta = form_scale
    plan = _Plan(form, family_args, ns, xs)
    total, maxterm, sc = _sum_double(plan)
    e_s = (_CERT * _EPS) * plan.nterms * maxterm
    v, scale = fh * total, fk + sc
    e_v = _product_error(fh, fl, delta, total, e_s)
    return np.ldexp(v, scale), _accepted(v, e_v, abs_target, rel, scale)


def _double_double(form_scale, family_args, ns, xs, abs_target, rel):
    form, (fh, fl, fk), delta = form_scale
    plan = _Plan(form, family_args, ns, xs)
    sh, sl, maxterm, sc = _sum_dd(plan)
    e_s = (_CERT * dd.EPS) * plan.nterms * maxterm
    v, _ = dd.mul(sh, sl, fh, fl)
    scale = fk + sc
    e_v = _product_error(fh, fl, delta, sh, e_s) + 4.0 * dd.EPS * np.abs(v)
    return np.ldexp(v, scale), _accepted(v, e_v, abs_target, rel, scale)


def _mp_pass(form_scale, family_args, ns, xs, abs_target, rel, dps):
    """The mpmath tier at dps digits, through the kernel of the double tier.

    Values, bounds and the acceptance test stay in mpf, whose exponent range
    is unbounded: a sum that cancels past the double range must not round to
    zero before it is tested."""
    import mpmath

    form, (fh, fl, fk), delta = form_scale
    _max_dps[0] = max(_max_dps[0], dps)
    ldexp = np.frompyfunc(mpmath.ldexp, 2, 1)
    with mpmath.workdps(dps):
        plan = _Plan(form, family_args, ns, xs, mp=True)
        total, maxterm, _ = _sum_double(plan)
        e_s = maxterm * plan.nterms * (_CERT * mpmath.mpf(10) ** -dps)
        fh, fl = ldexp(fh, fk), ldexp(fl, fk)
        v = (fh + fl) * total
        e_v = _product_error(fh, fl, delta, total, e_s)
        ok = _accepted(v, e_v, abs_target, rel).astype(bool)
    return v.astype(float), ok


def _ladder():
    """(name, tier) from the cheapest tier up: double, double-double, then
    mpmath at four times the double-double digits, doubling up to _MAX_DPS,
    which is read at each call."""
    yield "double", _double
    yield "double-double", _double_double
    dps = 4 * _DD_DIGITS
    while dps < _MAX_DPS:
        yield "mpmath", partial(_mp_pass, dps=dps)
        dps *= 2
    yield "mpmath", partial(_mp_pass, dps=_MAX_DPS)


def certified_entries(family_args, ns, xs, scales, abs_target=0.0, rel=0.0):
    """Values F_f(n, x) * S_f(n, x) for the entries (ns[i], xs[i]), each certified.

    family_args = (a, b, q, m).  scales lists (form, (fh, fl, fk), delta) in
    the order the forms are tried: the factor F_f = (fh + fl) 2^fk per entry
    (arrays like ns, or scalars) with relative error at most delta.  Each
    tier of _ladder runs every form in turn on the still-uncertified entries
    where it holds.  Entry i settles the first time its bound err_i satisfies
    err_i <= abs_target_i + rel * (|v_i| - err_i), or |v_i| + err_i is below
    the smallest subnormal so the value certifiably rounds to zero; the
    returned double adds one final rounding.  Raises ArithmeticError if an
    entry is still uncertified at _MAX_DPS digits.
    """
    m = family_args[3]
    ns, xs = (np.array(v, dtype=np.int64) for v in np.broadcast_arrays(ns, xs))
    shape = ns.shape
    ns, xs = ns.ravel(), xs.ravel()
    abs_target = np.array(np.broadcast_to(abs_target, shape), dtype=float).ravel()
    forms = [(form, [np.broadcast_to(np.asarray(v), shape).ravel() for v in f], delta)
             for form, f, delta in scales]
    out = np.empty(ns.size)
    left = np.ones(ns.size, dtype=bool)
    # an overflowing tier gives an inf or nan bound, which fails the test
    with np.errstate(all="ignore"):
        for tier, run in _ladder():
            for form, f, delta in forms:
                idx = np.nonzero(left & (xs <= m + form.x_over))[0]
                if idx.size == 0:
                    continue
                val, ok = run((form, [v[idx] for v in f], delta), family_args,
                              ns[idx], xs[idx], abs_target[idx], rel)
                out[idx[ok]] = val[ok]
                left[idx[ok]] = False
                _counts[tier, form.name] += int(np.count_nonzero(ok))
            if not left.any():
                return out.reshape(shape)
    i = np.nonzero(left)[0][0]
    raise ArithmeticError(
        f"q-Hahn series (n={ns[i]}, x={xs[i]}) not certified at {_MAX_DPS} digits")


def stats():
    """Entries certified per (tier, form) and the largest mpmath precision."""
    tiers = {}
    for (tier, form), n in _counts.items():
        if n:
            tiers.setdefault(tier, {})[form] = n
    return {"entries": tiers, "max_mp_dps": _max_dps[0]}


def reset_stats():
    _counts.clear()
    _max_dps[0] = 0

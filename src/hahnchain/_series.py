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
Both forms are data (QForm) that the same tier kernels consume -- vector
double, vector double-double, then mpmath, whose passes run the double
kernel on mpf object arrays -- with the running max |term| acting as an
a-posteriori rounding certificate for each tier.  The caller gives, per
form, the factor F each entry's sum is multiplied by (P, an orthonormal
scale, or 1) as a split double-double with a bound on its relative error.
One function, certified_entries, runs both forms in double precision, keeps
per entry the form with the smaller certified bound, and applies the same
absolute-or-relative acceptance test to F * S at every tier.
"""

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

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
_LOG10_2 = math.log10(2.0)

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
    import mpmath  # only the last tier needs it, and most tables never reach it

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


def certified_entries(family_args, ns, xs, scales, abs_target=0.0, rel=0.0):
    """Values F_f(n, x) * S_f(n, x) for the entries (ns[i], xs[i]), each certified.

    family_args = (a, b, q, m).  scales lists (form, (fh, fl, fk), delta): the
    factor F_f = (fh + fl) 2^fk per entry (arrays like ns, or scalars) with
    relative error at most delta.  Every form runs in double precision where
    it holds; each entry keeps the form whose certified bound is smaller and
    escalates with it.  Entry i is accepted once its bound err_i satisfies
    err_i <= abs_target_i + rel * (|v_i| - err_i), or once |v_i| + err_i is
    below the smallest subnormal so the value certifiably rounds to zero; the
    returned double adds one final rounding.  The entries the double-double
    tier leaves uncertified go to the mpmath tier (_mp_tier).  Raises
    ArithmeticError if an entry cannot be certified at _MAX_DPS digits.
    """
    m = family_args[3]
    ns, xs = (np.array(v, dtype=np.int64) for v in np.broadcast_arrays(ns, xs))
    shape = ns.shape
    ns, xs = ns.ravel(), xs.ravel()
    count = ns.size
    abs_target = np.array(np.broadcast_to(abs_target, shape), dtype=float).ravel()
    forms = [(form, [np.broadcast_to(np.asarray(v), shape).ravel() for v in f], delta)
             for form, f, delta in scales]
    out = np.empty(count)
    choice = np.full(count, -1)
    best = np.full(count, np.inf)  # log2 of the absolute bound of the chosen form
    val, err = np.zeros(count), np.full(count, np.inf)
    scale = np.zeros(count, dtype=np.int64)
    # an overflowing tier gives an inf or nan bound, which fails the test
    with np.errstate(all="ignore"):
        for fi, (form, (fh, fl, fk), delta) in enumerate(forms):
            idx = np.nonzero(xs <= m + form.x_over)[0]
            plan = _Plan(form, family_args, ns[idx], xs[idx])
            total, maxterm, sc = _sum_double(plan)
            e_s = (_CERT * _EPS) * plan.nterms * maxterm
            e_v = _product_error(fh[idx], fl[idx], delta, total, e_s)
            k = fk[idx] + sc
            bound = np.log2(e_v) + k
            bound[np.isnan(bound)] = np.inf
            take = (bound < best[idx]) | (choice[idx] < 0) | (np.isinf(bound) & np.isinf(best[idx]))
            sel = idx[take]
            choice[sel], best[sel] = fi, bound[take]
            val[sel], err[sel], scale[sel] = fh[sel] * total[take], e_v[take], k[take]
        ok = _accepted(val, err, abs_target, rel, scale)
        _settle(out, ok, val, scale, choice, forms, "double")
        todo = np.nonzero(~ok)[0]
        for fi, (form, (fh, fl, fk), delta) in enumerate(forms):
            sel = todo[choice[todo] == fi]
            if sel.size == 0:
                continue
            plan = _Plan(form, family_args, ns[sel], xs[sel])
            sh, sl, maxterm, sc = _sum_dd(plan)
            e_s = (_CERT * dd.EPS) * plan.nterms * maxterm
            vh, _ = dd.mul(sh, sl, fh[sel], fl[sel])
            e_v = _product_error(fh[sel], fl[sel], delta, sh, e_s) + 4.0 * dd.EPS * np.abs(vh)
            val[sel], err[sel], scale[sel] = vh, e_v, fk[sel] + sc
        ok = np.zeros(count, dtype=bool)
        ok[todo] = _accepted(val[todo], err[todo], abs_target[todo], rel, scale[todo])
        _settle(out, ok, val, scale, choice, forms, "double-double")
        todo = todo[~ok[todo]]
    if todo.size:
        _mp_tier(out, todo, family_args, ns, xs, forms, choice, abs_target, rel)
    return out.reshape(shape)


def _settle(out, ok, val, scale, choice, forms, tier):
    out[ok] = np.ldexp(val[ok], scale[ok])
    for fi, (form, _, _) in enumerate(forms):
        done = int(np.count_nonzero(ok & (choice == fi)))
        if done:
            _counts[tier, form.name] += done


def _mp_tier(out, todo, family_args, ns, xs, forms, choice, abs_target, rel):
    """The mpmath tier.  Each pass runs every still-uncertified entry of one
    form at the most digits any of them calls for.  The first asks for four
    times the double-double digits: an mpf operation there costs about 1.5
    times one at 31 digits, and every entry the first pass settles saves a
    later pass.  Past _MAX_DPS only the entries calling for the most digits
    run, at _MAX_DPS, so that one which cannot be certified fails before the
    others run there."""
    for fi, (form, f, delta) in enumerate(forms):
        idx = todo[choice[todo] == fi]
        want = np.full(idx.size, 4 * _DD_DIGITS)
        while idx.size:
            top = int(want.max())
            now = want == top if top > _MAX_DPS else np.ones(idx.size, dtype=bool)
            run, dps = idx[now], min(top, _MAX_DPS)
            _max_dps[0] = max(_max_dps[0], dps)
            val, ok, nxt = _mp_pass((form, [v[run] for v in f], delta), family_args,
                                    ns[run], xs[run], abs_target[run], rel, dps)
            out[run[ok]] = val[ok]
            if ok.any():
                _counts["mpmath", form.name] += int(np.count_nonzero(ok))
            if dps == _MAX_DPS and not ok.all():
                i = run[~ok][0]
                raise ArithmeticError(
                    f"q-Hahn series (n={ns[i]}, x={xs[i]}) not certified at {_MAX_DPS} digits")
            idx = np.concatenate((idx[~now], run[~ok]))
            want = np.concatenate((want[~now], nxt[~ok]))


def _mp_pass(form_scale, family_args, ns, xs, abs_target, rel, dps):
    """The entries (ns, xs) of one form in mpf at dps digits, through the
    kernel of the double tier: their values, whether each is accepted, and
    the digits each calls for next.

    Values, bounds and the acceptance test stay in mpf, whose exponent range
    is unbounded: a sum that cancels past the double range must not round to
    zero before it is tested.  The next digits bring the part of the bound
    that scales with 10^-dps below the target the certified lower bound
    sets; without a lower bound, they are twice dps, and at least
    _DD_DIGITS past that part's size at 0 digits."""
    import mpmath

    form, (fh, fl, fk), delta = form_scale
    ldexp = np.frompyfunc(mpmath.ldexp, 2, 1)
    with mpmath.workdps(dps):
        plan = _Plan(form, family_args, ns, xs, mp=True)
        total, maxterm, _ = _sum_double(plan)
        e_s = maxterm * plan.nterms * (_CERT * mpmath.mpf(10) ** -dps)
        fh, fl = ldexp(fh, fk), ldexp(fl, fk)
        v = (fh + fl) * total
        e_v = _product_error(fh, fl, delta, total, e_s)
        ok = _accepted(v, e_v, abs_target, rel).astype(bool)
        lead = _log10((np.abs(fh) + np.abs(fl)) * e_s).astype(float) + dps
        goal = _log10(abs_target + rel * np.maximum(np.abs(v) - e_v, mpmath.mpf(0))).astype(float)
    with np.errstate(invalid="ignore"):
        need = np.where(goal > -np.inf, lead - goal + 2, np.maximum(2 * dps, lead + _DD_DIGITS))
    return v.astype(float), ok, np.maximum(dps + 1, np.ceil(need)).astype(np.int64)


# log10 of a nonnegative mpf from its mantissa and exponent: mpmath.log10
# would compute log 10 anew at every new precision
_log10 = np.frompyfunc(lambda v: math.log10(v.man) + v.exp * _LOG10_2 if v else -math.inf, 1, 1)


def stats():
    """Entries certified per (tier, form) and the largest mpmath precision."""
    tiers = {}
    for (tier, form), n in _counts.items():
        tiers.setdefault(tier, {})[form] = n
    return {"entries": tiers, "max_mp_dps": _max_dps[0]}


def reset_stats():
    _counts.clear()
    _max_dps[0] = 0

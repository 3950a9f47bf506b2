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
double, vector double-double, then mpmath at a computed precision, which
evaluates the entries still uncertified row by row -- with the running max
|term| acting as an a-posteriori rounding certificate for each tier.  The
caller gives, per form, the factor F each entry's sum is multiplied by (P,
an orthonormal scale, or 1) as a split double-double with a bound on its
relative error.  One function, certified_entries, runs both forms in double
precision, keeps per entry the form with the smaller certified bound, and
applies the same absolute-or-relative acceptance test to F * S at every tier.
"""

import copy
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


@lru_cache(maxsize=8)
def _tables(form, a, b, q, m):
    """Double-double factor tables over the exponents of q_tables: 1 - c q^e
    per numerator parameter and 1/(1 - c q^e) per denominator one."""
    unit = q_tables(q, m)
    with np.errstate(all="ignore"):

        def factor(par, kind):
            if par[0] == par[1] == 0:
                return unit[kind]
            th, tl = dd.mul(*unit["pow"], *_coefficient(par, a, b))
            f = dd.add(1.0, 0.0, -th, -tl)
            return f if kind == "num" else _reciprocal(*f)

        return [factor(p, "num") for p in form.num], [factor(p, "den") for p in form.den]


class _Plan:
    """What the tier kernels need for one form over a set of entries: the
    x-independent part of each term ratio as an (n, k) table, and the table
    indices of the x-dependent factors.  The double-double ratio table is
    formed only when that tier runs."""

    def __init__(self, form, family_args, ns, xs):
        a, b, q, m = family_args
        num, den = _tables(form, a, b, q, m)
        off = 2 * m + 2
        self.nterms = _nterms(form, ns, xs, m)
        self.kmax = int(self.nterms.max(initial=0))
        nvals, self.row = np.unique(ns, return_inverse=True)
        k = np.arange(self.kmax)
        self.fixed = [(q_tables(q, m)["qfac"], (k + 1 + off)[None, :])]
        self.xdep = []
        # reciprocals first: a ratio of two huge factors must not overflow on the way
        for par, tab in zip(form.den + form.num, den + num):
            if par[4] == 0:
                self.fixed.append((tab, _exponent(par, nvals, 0, m)[:, None] + k + off))
            else:
                self.xdep.append((tab[0], tab[1], _exponent(par, ns, xs, m) + off))
        self.rh = np.ones((len(nvals), self.kmax))
        for tab, i in self.fixed:
            self.rh = self.rh * tab[0][i]
        self.rdd = []  # the double-double ratio table, shared with subsets

    def subset(self, pos):
        """The same plan for the entries at positions pos."""
        sub = copy.copy(self)
        sub.row, sub.nterms = self.row[pos], self.nterms[pos]
        sub.kmax = int(sub.nterms.max(initial=0))
        sub.xdep = [(th, tl, base[pos]) for th, tl, base in self.xdep]
        return sub

    def ratio_dd(self):
        if not self.rdd:
            rh, rl = np.ones(self.rh.shape), np.zeros(self.rh.shape)
            for (th, tl), i in self.fixed:
                rh, rl = dd.mul(rh, rl, th[i], tl[i])
            self.rdd.extend((rh, rl))
        return self.rdd


def _rescale(maxterm, sc, *arrays):
    big = maxterm > _BIG
    for arr in (maxterm,) + arrays:
        arr[big] = np.ldexp(arr[big], -_SHIFT)
    sc[big] += _SHIFT


def _sum_double(plan):
    """Sums S = total 2^sc and max|term| = maxterm 2^sc in double precision."""
    count = len(plan.row)
    term, total, maxterm = np.ones(count), np.ones(count), np.ones(count)
    sc = np.zeros(count, dtype=np.int64)
    for k in range(plan.kmax):
        ratio = plan.rh[plan.row, k]
        for th, _, base in plan.xdep:
            ratio = ratio * th[base + k]
        term *= ratio
        total += term
        np.maximum(maxterm, np.abs(term), out=maxterm)
        if maxterm.max() > _BIG:
            _rescale(maxterm, sc, term, total)
    return total, maxterm, sc


def _sum_dd(plan):
    """The same sums in double-double: (sh, sl) 2^sc and maxterm 2^sc."""
    count = len(plan.row)
    th, tl = np.ones(count), np.zeros(count)
    sh, sl = np.ones(count), np.zeros(count)
    maxterm = np.ones(count)
    sc = np.zeros(count, dtype=np.int64)
    ratio_h, ratio_l = plan.ratio_dd()
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


def q_mp_row(n, xs, a, b, q, m, dps, form):
    """Sums of one form for degree n at the lattice points xs, at dps digits:
    (sum, max |term|) pairs of mpf values.

    The factors 1 - c q^e and the x-independent part of each term ratio are
    formed once; each entry's forward sum then costs three mp operations per
    term, plus one per x-dependent parameter.
    """
    import mpmath  # only this tier needs it, and most tables never reach it

    with mpmath.workdps(dps):
        am, bm, qm = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(q)
        nk = max(int(_nterms(form, n, x, m)) for x in xs)  # terms in the longest sum
        memo = {}

        def factor(par, e):
            if (par, e) not in memo:
                memo[par, e] = 1 - am ** par[0] * bm ** par[1] * qm ** e
            return memo[par, e]

        ratio = []
        for k in range(nk):
            r = qm / factor((0, 0), k + 1)
            for par in form.num:
                if par[4] == 0:
                    r *= factor(par, _exponent(par, n, 0, m) + k)
            for par in form.den:
                if par[4] == 0:
                    r /= factor(par, _exponent(par, n, 0, m) + k)
            ratio.append(r)
        xnum = [p for p in form.num if p[4] != 0]
        xden = [p for p in form.den if p[4] != 0]
        out = []
        for x in xs:
            term = total = biggest = mpmath.mpf(1)
            for k in range(int(_nterms(form, n, x, m))):
                term *= ratio[k]
                for par in xnum:
                    term *= factor(par, _exponent(par, n, x, m) + k)
                for par in xden:
                    term /= factor(par, _exponent(par, n, x, m) + k)
                total += term
                biggest = max(biggest, abs(term))
            out.append((total, biggest))
        return out


def q_log_maxterm(n, x, a, b, q, m, form):
    """log10 of the largest |term| of one form's sum, from logs of factors."""
    lq = math.log10(q)

    def log_factor(par, e):
        # log10 |1 - c q^e|, c = a^i b^j, without forming c q^e when it is huge
        y = par[0] * math.log10(a) + par[1] * math.log10(b) + e * lq
        if y > 17.0:
            return y
        if y < -17.0:
            return 0.0
        return math.log10(max(abs(1.0 - a ** par[0] * b ** par[1] * q ** e), 1e-300))

    lt = worst = 0.0
    for k in range(int(_nterms(form, n, x, m))):
        lt += lq - log_factor((0, 0), k + 1)
        lt += sum(log_factor(p, _exponent(p, n, x, m) + k) for p in form.num)
        lt -= sum(log_factor(p, _exponent(p, n, x, m) + k) for p in form.den)
        worst = max(worst, lt)
    return worst


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
    tier leaves uncertified go to the mpmath tier, one row per (form, n),
    starting from the digits their certified lower bounds |v_i| - err_i call
    for, or without one from an absolute error of 1e-17 (and at least twice
    the double-double digits past the largest term); entries that fail go
    round again at the digits their new lower bound calls for, or doubled.
    Raises ArithmeticError if an entry cannot be certified at _MAX_DPS digits.
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
        plans = []
        for fi, (form, (fh, fl, fk), delta) in enumerate(forms):
            idx = np.nonzero(xs <= m + form.x_over)[0]
            plan = _Plan(form, family_args, ns[idx], xs[idx])
            plans.append((idx, plan))
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
        floor = np.zeros(count)
        lead = np.zeros(count)  # log10 of the max |term| of the chosen form's sum
        for fi, (form, (fh, fl, fk), delta) in enumerate(forms):
            sel = todo[choice[todo] == fi]
            if sel.size == 0:
                continue
            idx, plan = plans[fi]
            plan = plan.subset(np.searchsorted(idx, sel))
            sh, sl, maxterm, sc = _sum_dd(plan)
            e_s = (_CERT * dd.EPS) * plan.nterms * maxterm
            vh, _ = dd.mul(sh, sl, fh[sel], fl[sel])
            e_v = _product_error(fh[sel], fl[sel], delta, sh, e_s) + 4.0 * dd.EPS * np.abs(vh)
            val[sel], err[sel], scale[sel] = vh, e_v, fk[sel] + sc
            floor[sel] = np.abs(vh) - e_v
            lead[sel] = np.log10(maxterm) + sc * _LOG10_2
        ok = np.zeros(count, dtype=bool)
        ok[todo] = _accepted(val[todo], err[todo], abs_target[todo], rel, scale[todo])
        _settle(out, ok, val, scale, choice, forms, "double-double")
        todo = todo[~ok[todo]]
    if todo.size:
        _mp_tier(out, todo, family_args, ns, xs, forms, choice, abs_target, rel,
                 floor, lead, scale)
    return out.reshape(shape)


def _settle(out, ok, val, scale, choice, forms, tier):
    out[ok] = np.ldexp(val[ok], scale[ok])
    for fi, (form, _, _) in enumerate(forms):
        done = int(np.count_nonzero(ok & (choice == fi)))
        if done:
            _counts[tier, form.name] += done


def _log10_target(abs_target, rel, floor, scale):
    """log10(abs_target + rel * floor 2^scale), -inf when both parts are 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        la = np.log(abs_target)
        lr = np.log(rel * np.maximum(floor, 0.0)) + scale * math.log(2.0)
        return np.logaddexp(la, lr) / math.log(10.0)


def _mp_tier(out, todo, family_args, ns, xs, forms, choice, abs_target, rel, floor, lead, scale):
    """The mpmath tier, one row per (form, n), each at its own precision."""
    for i in todo:
        if not np.isfinite(lead[i]):
            lead[i] = q_log_maxterm(int(ns[i]), int(xs[i]), *family_args, forms[choice[i]][0])
    rows = {}
    for i in todo:
        rows.setdefault((int(choice[i]), int(ns[i])), []).append(i)
    for (fi, n), idx in rows.items():
        idx = np.array(idx)
        _mp_row(out, idx, n, xs[idx], family_args, forms[fi], abs_target[idx], rel,
                floor[idx], lead[idx], scale[idx])


def _mp_row(out, idx, n, xs, family_args, form_scale, abs_t, rel, floor, lead, scale):
    """Certify one row's entries (one form, one n) in mpmath; each pass runs
    at the largest of the digits its entries call for.  Values, bounds and
    the acceptance test stay in mpf, whose exponent range is unbounded: a sum
    that cancels past the double range must not round to zero before it is
    tested."""
    import mpmath

    form, (fh, fl, fk), delta = form_scale
    fh, fl, fk = fh[idx], fl[idx], fk[idx]
    log_cert = math.log10(_CERT * n)
    # log10 of the bound on F S's error at 0 digits, CERT n max|term| |F|, from
    # the double-double tier's largest term; the certificates use mpmath's own
    lead_abs = log_cert + lead + fk * _LOG10_2 + np.log10(np.abs(fh))
    target = _log10_target(abs_t, rel, floor, scale)
    need = np.where(np.isfinite(target), lead_abs - target,
                    np.maximum(lead_abs + 17.0, log_cert + 2 * _DD_DIGITS))
    dps = max(30, math.ceil(need.max()) + 2)
    while True:
        dps = min(dps, _MAX_DPS)
        _max_dps[0] = max(_max_dps[0], dps)
        sums = q_mp_row(n, xs.tolist(), *family_args, dps, form)
        ok = np.zeros(len(idx), dtype=bool)
        with mpmath.workdps(dps):
            for j, (s, biggest) in enumerate(sums):
                ah = mpmath.ldexp(abs(float(fh[j])), int(fk[j]))
                al = mpmath.ldexp(abs(float(fl[j])), int(fk[j]))
                f = mpmath.ldexp(mpmath.mpf(float(fh[j])) + float(fl[j]), int(fk[j]))
                e_s = _CERT * n * biggest * mpmath.mpf(10) ** -dps
                v = f * s
                # _product_error, and the test of _accepted, in mpf
                e_v = (ah + al) * e_s + (al + delta * ah) * (abs(s) + e_s)
                lower = abs(v) - e_v
                if e_v <= float(abs_t[j]) + rel * lower or abs(v) + e_v < _TINY:
                    out[idx[j]], ok[j] = float(v), True
                else:
                    bound = float(abs_t[j]) + rel * max(lower, 0)
                    target[j] = float(mpmath.log10(bound)) if bound > 0 else -math.inf
                    lead_abs[j] = float(mpmath.log10(_CERT * n * biggest * (ah + al)))
        if ok.any():
            _counts["mpmath", form.name] += int(np.count_nonzero(ok))
        if ok.all():
            return
        if dps == _MAX_DPS:
            raise ArithmeticError(
                f"q-Hahn series (n={n}, x={xs[~ok][0]}) not certified at {_MAX_DPS} digits")
        keep = ~ok
        idx, xs, fh, fl, fk = idx[keep], xs[keep], fh[keep], fl[keep], fk[keep]
        abs_t, target, lead_abs = abs_t[keep], target[keep], lead_abs[keep]
        need = np.where(np.isfinite(target), lead_abs - target, 2.0 * dps)
        dps = max(dps + 1, math.ceil(need.max()) + 2)


def stats():
    """Entries certified per (tier, form) and the largest mpmath precision."""
    tiers = {}
    for (tier, form), n in _counts.items():
        tiers.setdefault(tier, {})[form] = n
    return {"entries": tiers, "max_mp_dps": _max_dps[0]}


def reset_stats():
    _counts.clear()
    _max_dps[0] = 0

import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import hahnchain
from hahnchain import _series, qhahn
from hahnchain.qhahn import (QHahnParams, q_diff_residual_1, q_diff_residual_2,
                             q_hahn_Q, q_hahn_norm, q_hahn_orthonormal,
                             q_hahn_weight, q_norm_vector, q_orthonormal_table,
                             q_polynomial_table, q_weight_vector)


# ---- independent oracles: direct defining sums in 50-digit arithmetic ----

def mp_qpoch(a, q, k):
    out = mpmath.mpf(1)
    for i in range(k):
        out *= 1 - a * q ** i
    return out


def mp_q_hahn(n, x, a, b, q, m):
    with mpmath.workdps(50):
        a, b, q = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(q)
        total = mpmath.mpf(0)
        for k in range(min(n, x) + 1):
            total += (mp_qpoch(q ** -n, q, k) * mp_qpoch(a * b * q ** (n + 1), q, k)
                      * mp_qpoch(q ** -x, q, k)
                      / (mp_qpoch(q, q, k) * mp_qpoch(a * q, q, k) * mp_qpoch(q ** -m, q, k))
                      * q ** k)
        return float(total)


def mp_q_weight(x, a, b, q, m):
    # literal defining form, including the q^{-m}-type factors
    with mpmath.workdps(50):
        a, b, q = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(q)
        val = (mp_qpoch(a * q, q, x) * mp_qpoch(q ** -m, q, x)
               / (mp_qpoch(q, q, x) * mp_qpoch(q ** -m / b, q, x))
               * (a * b * q) ** -x)
        return float(val)


def exact_q_hahn(n, x, p):
    # the defining sum in exact rationals: the parameters are dyadic doubles
    a, b, q, m = Fraction(p.alpha), Fraction(p.beta), Fraction(p.q), p.m
    term = total = Fraction(1)
    for k in range(min(n, x)):
        term *= (q * (1 - q ** (k - n)) * (1 - a * b * q ** (n + 1 + k)) * (1 - q ** (k - x))
                 / ((1 - q ** (k + 1)) * (1 - a * q ** (k + 1)) * (1 - q ** (k - m))))
        total += term
    return total


def assert_matches_exact(value, exact, rtol):
    assert exact != 0
    assert abs(Fraction(value) - exact) <= rtol * abs(exact)


PARAM_SETS = [(0.5, 0.5, 0.5, 5), (0.8, 0.6, 0.5, 6), (0.2, 0.9, 0.3, 6), (0.8, 0.9, 0.9, 6)]


def test_degree_zero_is_one():
    p = QHahnParams(0.8, 0.6, 0.5, 5)
    for x in range(7):
        assert q_hahn_Q(0, x, p) == 1.0


def test_value_at_origin_is_one():
    p = QHahnParams(0.8, 0.6, 0.5, 5)
    for n in range(6):
        assert q_hahn_Q(n, 0, p) == 1.0


def test_degree_one_hand_value():
    # full two-term sum from the defining series at n = x = 1, m = 2
    a = b = q = 0.5
    p = QHahnParams(a, b, q, 2)
    hand = 1.0 + ((1 - 1 / q) * (1 - a * b * q ** 2) * (1 - 1 / q) * q
                  / ((1 - q) * (1 - a * q) * (1 - q ** -2)))
    assert_allclose(q_hahn_Q(1, 1, p), hand, rtol=1e-14)


@pytest.mark.parametrize("a,b,q,m", PARAM_SETS)
def test_values_match_high_precision_oracle(a, b, q, m):
    p = QHahnParams(a, b, q, m)
    for n in range(m + 1):
        for x in range(m + 2):
            assert_allclose(q_hahn_Q(n, x, p), mp_q_hahn(n, x, a, b, q, m),
                            rtol=1e-11, atol=1e-13)


def test_domain_checks():
    p = QHahnParams(0.8, 0.6, 0.5, 4)
    with pytest.raises(ValueError):
        q_hahn_Q(5, 0, p)
    with pytest.raises(ValueError):
        q_hahn_Q(0, 6, p)
    with pytest.raises(ValueError):
        QHahnParams(0.0, 0.5, 0.5, 4)
    with pytest.raises(ValueError):
        QHahnParams(2.5, 0.5, 0.5, 4)  # alpha beyond 1/q
    with pytest.raises(ValueError):
        QHahnParams(0.5, 0.5, 1.2, 4)
    with pytest.raises(ValueError, match="nonnegative integer"):
        QHahnParams(0.5, 0.5, 0.5, 2.0)
    assert q_orthonormal_table(QHahnParams(0.5, 0.5, 0.5, np.int64(2))).shape == (3, 3)


def test_degree_one_hand_sum():
    # the two-term sum of Q_1(q^-1) at alpha = beta = q = 1/2, m = 1, by hand
    q, a, b = 0.5, 0.5, 0.5
    hand = 1.0 + ((1 - 1 / q) * (1 - a * b * q ** 2) * (1 - 1 / q) * q
                  / ((1 - q) * (1 - a * q) * (1 - 1 / q)))
    assert_allclose(q_hahn_Q(1, 1, QHahnParams(a, b, q, 1)), hand, rtol=1e-14)


def test_weight_at_origin_is_one():
    for (a, b, q, m) in PARAM_SETS:
        assert q_hahn_weight(0, QHahnParams(a, b, q, m)) == 1.0


@pytest.mark.parametrize("a,b,q,m", PARAM_SETS)
def test_weight_matches_literal_form(a, b, q, m):
    p = QHahnParams(a, b, q, m)
    for x in range(m + 1):
        assert_allclose(q_hahn_weight(x, p), mp_q_weight(x, a, b, q, m), rtol=1e-12)


@pytest.mark.parametrize("a,b,q,m", PARAM_SETS)
def test_weight_positive(a, b, q, m):
    assert np.all(q_weight_vector(QHahnParams(a, b, q, m)) > 0.0)


def test_weight_log_fallback_for_large_lattice():
    # (alpha q)^{-x} growth pushes intermediates past the direct-product guard
    p = QHahnParams(0.03, 0.5, 0.5, 160)
    w = q_hahn_weight(160, p)
    with mpmath.workdps(60):
        ref = mpmath.mpf(0)
        a, b, q = mpmath.mpf(0.03), mpmath.mpf(0.5), mpmath.mpf(0.5)
        acc = mpmath.mpf(1)
        for i in range(160):
            acc *= ((1 - a * q ** (i + 1)) * (1 - q ** (i - 160))
                    / ((1 - q ** (i + 1)) * (1 - q ** (i - 160) / b) * (a * b * q)))
        ref = float(acc)
    assert_allclose(w, ref, rtol=1e-10)


def test_weight_sum_equals_zeroth_norm():
    a, b, q, m = 0.5, 0.5, 0.5, 3
    p = QHahnParams(a, b, q, m)
    total = sum(mp_q_weight(x, a, b, q, m) for x in range(m + 1))
    assert_allclose(q_hahn_norm(0, p), total, rtol=1e-12)


def test_norm_matches_brute_force_sum():
    a, b, q, m = 0.5, 0.5, 0.5, 2
    p = QHahnParams(a, b, q, m)
    for n in range(m + 1):
        total = sum(mp_q_weight(x, a, b, q, m) * mp_q_hahn(n, x, a, b, q, m) ** 2
                    for x in range(m + 1))
        assert_allclose(q_hahn_norm(n, p), total, rtol=1e-11)


@pytest.mark.parametrize("a,b,q,m", PARAM_SETS)
def test_norms_positive(a, b, q, m):
    assert np.all(q_norm_vector(QHahnParams(a, b, q, m)) > 0.0)


def test_orthonormal_rows_are_orthonormal():
    tab = q_orthonormal_table(QHahnParams(0.8, 0.6, 0.5, 4))
    assert_allclose(tab @ tab.T, np.eye(5), atol=1e-12)


def test_zeroth_row_normalized():
    tab = q_orthonormal_table(QHahnParams(0.8, 0.6, 0.5, 4))
    assert_allclose(np.sum(tab[0] ** 2), 1.0, rtol=1e-13)


def test_orthonormal_point_value():
    p = QHahnParams(0.8, 0.6, 0.5, 4)
    assert_allclose(q_hahn_orthonormal(0, 0, p), 1.0 / math.sqrt(q_hahn_norm(0, p)),
                    rtol=1e-13)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("a,b", [(0.2, 0.3), (0.8, 0.9)])
def test_orthogonality_defect_at_size_thirty(q, a, b):
    tab = q_orthonormal_table(QHahnParams(a, b, q, 30))
    assert np.max(np.abs(tab @ tab.T - np.eye(31))) <= 1e-10


def test_table_matches_scalar_evaluations():
    p = QHahnParams(0.8, 0.6, 0.5, 6)
    tab = q_orthonormal_table(p)
    for n in range(7):
        for x in range(7):
            assert_allclose(tab[n, x], q_hahn_orthonormal(n, x, p), atol=1e-12, rtol=1e-10)


def test_unnormalized_orthogonality_identity():
    p = QHahnParams(0.8, 0.6, 0.5, 6)
    tab = q_polynomial_table(p)
    w = q_weight_vector(p)
    h = q_norm_vector(p)
    gram = (tab * w[None, :]) @ tab.T
    assert np.max(np.abs(gram - np.diag(h)) / h[None, :]) <= 1e-10


def _scale_1(n, x, p):
    a, b, q, m = p.alpha, p.beta, p.q, p.m
    sh = p.shifted()
    return max(abs((1 - b * q ** (m - x)) * q_hahn_Q(n, x, p)),
               abs((1 - q ** (m - x)) * q_hahn_Q(n, x + 1, p)),
               abs((1 - a * q ** (n + 1)) * (1 - b * q ** n) * q ** (m - n - x)
                   / (1 - a * q) * q_hahn_Q(n, x, sh)), 1.0)


def test_first_identity_degree_zero():
    # (1-b q^{m-x}) - (1-q^{m-x}) = (1-b) q^{m-x}
    p = QHahnParams(0.8, 0.6, 0.5, 5)
    for x in range(5):
        assert abs(q_diff_residual_1(0, x, p)) < 1e-15


def test_first_identity_spot_value():
    p = QHahnParams(0.8, 0.6, 0.5, 5)
    assert abs(q_diff_residual_1(2, 1, p)) <= 1e-12 * _scale_1(2, 1, p)


def test_second_identity_degree_zero():
    # (1-q^{x+1}) a q - (1-a q^{x+2}) = -(1-a q)
    p = QHahnParams(0.8, 0.6, 0.5, 5)
    for x in range(5):
        assert abs(q_diff_residual_2(0, x, p)) < 1e-15


def test_second_identity_spot_value():
    p = QHahnParams(0.8, 0.6, 0.5, 4)
    assert abs(q_diff_residual_2(1, 0, p)) <= 1e-12 * _scale_1(1, 0, p)


@pytest.mark.parametrize("a,b,q", [(0.8, 0.6, 0.5), (0.2, 0.9, 0.3), (0.8, 0.3, 0.9)])
def test_identities_on_full_grid(a, b, q):
    m = 8
    p = QHahnParams(a, b, q, m)
    worst = 0.0
    for n in range(m + 1):
        for x in range(m):
            scale = _scale_1(n, x, p)
            worst = max(worst, abs(q_diff_residual_1(n, x, p)) / scale,
                        abs(q_diff_residual_2(n, x, p)) / scale)
    assert worst <= 1e-11


def test_shifted_family_requires_beta_below_one():
    with pytest.raises(ValueError):
        QHahnParams(0.5, 1.2, 0.5, 4).shifted()
    shifted = QHahnParams(0.5, 0.9, 0.5, 4).shifted()
    assert_allclose(shifted.alpha, 0.25)
    assert_allclose(shifted.beta, 1.8)


# Tiny values: far below the size of the largest term, so the double and
# double-double tiers cannot resolve them relative to their own magnitude.

def test_tiny_scalar_value_is_certified():
    p = QHahnParams(0.3, 0.2, 0.5, 20)
    value = q_hahn_Q(20, 14, p)
    assert_matches_exact(value, exact_q_hahn(20, 14, p), 1e-14)
    assert_allclose(value, 1.6129088079674902e-39, rtol=1e-14)


def test_tiny_table_entry_is_certified():
    p = QHahnParams(0.3, 0.2, 0.5, 30)
    value = q_polynomial_table(p, rel=1e-15)[29, 29]
    assert_matches_exact(value, exact_q_hahn(29, 29, p), 1e-14)
    assert_allclose(value, 1.715812095781047e-137, rtol=1e-14)


@pytest.mark.parametrize("n,magnitude", [(10, 1.263e-36), (11, -4.476e-43), (12, 4.757e-50)])
def test_tiny_values_at_lattice_edge(n, magnitude):
    p = QHahnParams(0.2, 0.9, 0.3, 24)
    value = q_hahn_Q(n, 24, p)
    assert_matches_exact(value, exact_q_hahn(n, 24, p), 1e-14)
    assert_allclose(value, magnitude, rtol=1e-3)


def _direct_only(p, n, x, orthonormal=False, **target):
    # certified values through the direct series form alone, which needs the
    # mpmath tier far more often than the transformed form
    n, x = np.broadcast_arrays(np.asarray(n, dtype=np.int64), np.asarray(x, dtype=np.int64))
    scales = [s for s in qhahn._scales(p, n, x, orthonormal) if s[0] is _series.DIRECT]
    return _series.certified_entries((p.alpha, p.beta, p.q, p.m), n, x, scales, **target)


def test_mp_tier_row_matches_exact_sums(monkeypatch):
    # in the direct form alone, row 29 leaves 23 entries to the mpmath tier;
    # each pass evaluates only entries still uncertified, climbing the ladder
    # of digits, and the passes must certify every one of them
    p = QHahnParams(0.3, 0.2, 0.5, 30)
    passes, digits = [], []
    mp_pass = _series._mp_pass

    def spy(form_scale, family_args, ns, xs, *args, dps):
        passes.append(set(zip(ns.tolist(), xs.tolist())))
        digits.append(dps)
        return mp_pass(form_scale, family_args, ns, xs, *args, dps=dps)

    monkeypatch.setattr(_series, "_mp_pass", spy)
    row = _direct_only(p, 29, np.arange(31), rel=1e-15)
    assert digits == [124, 248, 496]
    assert len(passes[0]) == 23 and {n for n, _ in passes[0]} == {29}
    assert all(later < earlier for earlier, later in zip(passes, passes[1:]))
    for x, value in enumerate(row.tolist()):
        assert_matches_exact(value, exact_q_hahn(29, x, p), 1e-14)


def test_uncertifiable_value_raises(monkeypatch):
    # in the direct form, 30 digits cannot resolve 1.6e-39 next to terms of
    # order one and more
    monkeypatch.setattr(_series, "_MAX_DPS", 30)
    with pytest.raises(ArithmeticError):
        _direct_only(QHahnParams(0.3, 0.2, 0.5, 20), 20, 14, rel=1e-14)


def test_mp_tier_certifies_sums_that_cancel_past_the_double_range():
    # the direct sum at (n, x) = (70, 71) has terms up to 3e247 and the value
    # -3.3e-281: 528 digits cancel, so the mpmath tier runs past 540 digits
    # and its value relative to the largest term lies below the double range
    p = QHahnParams(0.3, 0.2, 0.5, 100)
    hahnchain.reset_stats()
    value = float(_direct_only(p, 70, 71, rel=1e-14))
    assert hahnchain.stats()["entries"]["mpmath"]["direct"] == 1
    assert hahnchain.stats()["max_mp_dps"] > 540
    assert_matches_exact(value, exact_q_hahn(70, 71, p), 1e-14)
    # the orthonormal entry multiplies the sum by sqrt(w/h_n) ~ 2e17
    orthonormal = float(_direct_only(p, 70, 71, orthonormal=True, rel=1e-14))
    assert hahnchain.stats()["entries"]["mpmath"]["direct"] == 2
    both_forms = float(qhahn._values(p, 70, 71, rel=1e-14, orthonormal=True))
    assert orthonormal != 0.0
    assert_allclose(orthonormal, both_forms, rtol=3e-14, atol=0.0)
    # sqrt(w(71) / h_70) from the split (hi, lo, exponent) weights and 1/norms
    w, h_inv = qhahn._weights_and_norms(p)
    mantissa = (w[0][71] + w[1][71]) * (h_inv[0][70] + h_inv[1][70])
    exponent = int(w[2][71]) + int(h_inv[2][70])
    assert_allclose(orthonormal, value * math.sqrt(mantissa) * 2.0 ** (exponent / 2),
                    rtol=1e-12, atol=0.0)


def mp_q_hahn_sum(n, x, p, dps):
    # the defining sum of exact_q_hahn at dps digits, as a Fraction
    with mpmath.workdps(dps):
        a, b, q, m = (mpmath.mpf(v) for v in (p.alpha, p.beta, p.q, p.m))
        term = total = mpmath.mpf(1)
        for k in range(min(n, x)):
            term *= (q * (1 - q ** (k - n)) * (1 - a * b * q ** (n + 1 + k)) * (1 - q ** (k - x))
                     / ((1 - q ** (k + 1)) * (1 - a * q ** (k + 1)) * (1 - q ** (k - m))))
            total += term
        return Fraction(mpmath.nstr(total, 60))


def test_mp_tier_reached_through_the_public_path():
    # near q = 1 both forms cancel more than double-double resolves for part
    # of row 45 at m = 80, so q_hahn_Q certifies those entries in mpmath
    p = QHahnParams(0.3, 0.2, 0.99, 80)
    qhahn._q_row.cache_clear()
    hahnchain.reset_stats()
    row = [q_hahn_Q(45, x, p) for x in range(81)]
    assert sum(hahnchain.stats()["entries"]["mpmath"].values()) > 0
    for x, value in enumerate(row):
        assert_matches_exact(value, mp_q_hahn_sum(45, x, p, 150), 1e-14)


def test_overflowing_tiers_emit_no_warnings():
    # the double and double-double tiers overflow here and escalate silently
    p = QHahnParams(0.3, 0.2, 0.5, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fam in (p, p.shifted()):
            tab = q_orthonormal_table.__wrapped__(fam)  # bypass the cache
            assert np.max(np.abs(tab @ tab.T - np.eye(51))) <= 1e-10


# The transformed series form (Gasper-Rahman III.13) and its prefactor.

@pytest.mark.parametrize("q", [0.5, 0.9])
def test_transformed_rows_match_exact_sums(q):
    p = QHahnParams(0.3, 0.2, q, 30)
    for fam in (p, p.shifted()):
        hahnchain.reset_stats()
        row = q_polynomial_table(fam, rel=1e-15)[20]
        assert hahnchain.stats()["entries"]["double-double"].get("transformed", 0) > 0
        for x, value in enumerate(row.tolist()):
            assert_matches_exact(value, exact_q_hahn(20, x, fam), 1e-14)


def test_value_below_the_double_range_at_lattice_edge():
    # at x = m the transformed sum is one term, so the value is its prefactor
    # alone; the direct sum would need more than 3000 digits here
    p = QHahnParams(0.5, 0.5, 0.5, 400)
    value = q_hahn_Q(141, 400, p)
    exact = exact_q_hahn(141, 400, p)
    assert exact != 0 and abs(exact) < Fraction(1, 2 ** 1075)
    assert value == float(exact) == 0.0
    assert math.copysign(1.0, value) == math.copysign(1.0, float(exact)) == -1.0


_deformed = st.builds(
    lambda q, a, b, m: QHahnParams(a / q, b / q, q, m),
    st.floats(0.05, 0.95), st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.integers(0, 12))


@settings(max_examples=30, deadline=None)
@given(_deformed, st.data())
def test_tables_and_values_property(p, data):
    tab = q_orthonormal_table(p)
    assert np.max(np.abs(tab @ tab.T - np.eye(p.m + 1))) <= 1e-13
    n = data.draw(st.integers(0, p.m))
    x = data.draw(st.integers(0, p.m + 1))
    assert_matches_exact(q_hahn_Q(n, x, p), exact_q_hahn(n, x, p), 1e-14)

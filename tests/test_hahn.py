import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hahnchain import hahn
from hahnchain.hahn import (HahnParams, diff_residual_1, diff_residual_2,
                            hahn_Q, hahn_norm, hahn_orthonormal, hahn_weight,
                            norm_vector, orthonormal_table, polynomial_table,
                            weight_vector)
from hahnchain.qhahn import (QHahnParams, q_diff_residual_1, q_diff_residual_2,
                             q_hahn_Q, q_hahn_norm, q_hahn_orthonormal,
                             q_hahn_weight, q_polynomial_table)


# ---- independent brute-force oracles (direct defining sums/products) ----

def brute_poch(a, k):
    out = 1.0
    for i in range(k):
        out *= a + i
    return out


def brute_hahn(n, x, a, b, m):
    total = 0.0
    for k in range(min(n, x) + 1):
        total += (brute_poch(-n, k) * brute_poch(n + a + b + 1, k) * brute_poch(-x, k)
                  / (brute_poch(a + 1, k) * brute_poch(-m, k) * math.factorial(k)))
    return total


def brute_weight(x, a, b, m):
    b1 = 1.0
    for i in range(1, x + 1):
        b1 *= (a + i) / i
    b2 = 1.0
    for i in range(1, m - x + 1):
        b2 *= (b + i) / i
    return b1 * b2


PARAM_SETS = [(0.3, 0.7, 7), (-0.9, 0.1, 7), (2.0, 3.0, 7), (0.5, 1.5, 3)]


def test_degree_zero_is_one():
    p = HahnParams(0.4, 1.2, 6)
    for x in range(8):
        assert hahn_Q(0, x, p) == 1.0


def test_value_at_origin_is_one():
    p = HahnParams(0.4, 1.2, 6)
    for n in range(7):
        assert hahn_Q(n, 0, p) == 1.0


def test_degree_one_hand_value():
    # two-term sum: 1 - (a+b+2)/((a+1) m) at x = 1
    assert_allclose(hahn_Q(1, 1, HahnParams(0.0, 1.0, 2)), -0.5, rtol=1e-14)


@pytest.mark.parametrize("a,b,m", PARAM_SETS)
def test_values_match_brute_force(a, b, m):
    p = HahnParams(a, b, m)
    for n in range(m + 1):
        for x in range(m + 2):  # includes the off-lattice point x = m+1
            assert_allclose(hahn_Q(n, x, p), brute_hahn(n, x, a, b, m),
                            rtol=1e-9, atol=1e-12)


def test_domain_checks():
    p = HahnParams(0.4, 1.2, 4)
    with pytest.raises(ValueError):
        hahn_Q(5, 0, p)
    with pytest.raises(ValueError):
        hahn_Q(0, 6, p)  # beyond the extended point m+1
    with pytest.raises(ValueError):
        HahnParams(-1.0, 0.5, 3)
    with pytest.raises(ValueError):
        HahnParams(0.5, -1.0, 3)
    with pytest.raises(ValueError):
        HahnParams(0.5, 0.5, -1)
    with pytest.raises(ValueError, match="nonnegative integer"):
        HahnParams(0.5, 1.5, 2.0)
    assert orthonormal_table(HahnParams(0.5, 1.5, np.int64(2))).shape == (3, 3)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            HahnParams(bad, 0.5, 3)
        with pytest.raises(ValueError):
            HahnParams(0.5, bad, 3)


def test_weight_trivial_cases():
    assert_allclose(hahn_weight(0, HahnParams(0.0, 0.0, 5)), 1.0, rtol=1e-14)
    p = HahnParams(0.0, 0.0, 5)
    for x in range(6):
        assert_allclose(hahn_weight(x, p), 1.0, rtol=1e-13)


@pytest.mark.parametrize("a,b,m", PARAM_SETS)
def test_weight_matches_brute_force(a, b, m):
    p = HahnParams(a, b, m)
    for x in range(m + 1):
        assert_allclose(hahn_weight(x, p), brute_weight(x, a, b, m), rtol=1e-12)


def test_weight_sum_equals_zeroth_norm():
    p = HahnParams(0.5, 1.5, 3)
    total = sum(brute_weight(x, 0.5, 1.5, 3) for x in range(4))
    assert_allclose(hahn_norm(0, p), total, rtol=1e-12)


def test_norm_integer_case():
    # (a+b+2)_m / m! = (2)_4 / 4! = 5 at a = b = 0
    assert_allclose(hahn_norm(0, HahnParams(0.0, 0.0, 4)), 5.0, rtol=1e-13)


@pytest.mark.parametrize("a,b,m", [(0.5, 1.5, 3), (0.3, 0.7, 5), (-0.9, 0.1, 5)])
def test_norm_matches_brute_force_sum(a, b, m):
    p = HahnParams(a, b, m)
    for n in range(m + 1):
        total = sum(brute_weight(x, a, b, m) * brute_hahn(n, x, a, b, m) ** 2
                    for x in range(m + 1))
        assert_allclose(hahn_norm(n, p), total, rtol=1e-10)


@pytest.mark.parametrize("a,b,m", PARAM_SETS)
def test_norms_positive(a, b, m):
    assert np.all(norm_vector(HahnParams(a, b, m)) > 0.0)


def test_orthonormal_point_value():
    assert_allclose(hahn_orthonormal(0, 0, HahnParams(0.0, 0.0, 4)),
                    1.0 / math.sqrt(5.0), rtol=1e-13)


def test_orthonormal_rows_are_orthonormal():
    tab = orthonormal_table(HahnParams(0.3, 0.7, 4))
    assert_allclose(tab @ tab.T, np.eye(5), atol=1e-12)


def test_zeroth_row_normalized():
    tab = orthonormal_table(HahnParams(0.3, 0.7, 4))
    assert_allclose(np.sum(tab[0] ** 2), 1.0, rtol=1e-13)


@pytest.mark.parametrize("a,b", [(-0.9, 0.1), (2.0, 3.0), (0.37, 2.4)])
@pytest.mark.parametrize("m", [5, 17, 50])
def test_orthogonality_defect_across_sizes(a, b, m):
    tab = orthonormal_table(HahnParams(a, b, m))
    assert np.max(np.abs(tab @ tab.T - np.eye(m + 1))) <= 1e-10


@pytest.mark.parametrize("b", [1e8, 1e30])
def test_orthonormal_table_at_large_beta(b):
    # sqrt(w/h) from log-gamma differences cancels catastrophically here
    tab = orthonormal_table(HahnParams(0.5, b, 3))
    assert np.max(np.abs(tab @ tab.T - np.eye(4))) <= 1e-12
    assert np.max(np.abs(tab)) <= 1.0


def test_values_past_the_double_range_are_signed_inf():
    # the exact Q_2(3) and Q_3(3) are of order beta^2 and -beta^3 at beta = 1e308;
    # the orthonormal values, scaled by sqrt(w/h_n), stay inside [-1, 1]
    p = HahnParams(0.5, 1e308, 4)
    assert hahn_Q(2, 3, p) == math.inf
    assert hahn_Q(3, 3, p) == -math.inf
    tab = orthonormal_table(p)
    assert np.all(np.isfinite(tab))
    assert np.max(np.abs(tab)) <= 1.0


@pytest.mark.parametrize("b", [1e8, 1e30])
def test_scalar_weight_norm_orthonormal_at_large_beta(b):
    # log-gamma differences lose every digit here; the exact forms do not
    p = HahnParams(0.5, b, 3)
    w, h, tab = weight_vector(p), norm_vector(p), orthonormal_table(p)
    for i in range(4):
        assert hahn_weight(i, p) == w[i]
        assert hahn_norm(i, p) == h[i]
        for x in range(4):
            assert hahn_orthonormal(i, x, p) == tab[i, x]


def test_table_matches_scalar_evaluations():
    p = HahnParams(0.25, 0.75, 6)
    tab = orthonormal_table(p)
    for n in range(7):
        for x in range(7):
            assert_allclose(tab[n, x], hahn_orthonormal(n, x, p), atol=1e-12, rtol=1e-10)


def test_polynomial_table_matches_scalar():
    # the table (difference equation in x) and hahn_Q (series sum) take two exact
    # routes to the same correctly rounded values
    base = HahnParams(-0.5, 2.0, 8)
    for p in (base, base.shifted()):
        scalar = [[hahn_Q(n, x, p) for x in range(9)] for n in range(9)]
        assert np.array_equal(polynomial_table(p), scalar)


@pytest.mark.parametrize("a,b", [(-0.9, 0.1), (0.37, 2.4), (0.5, 1e8), (1e-300, 0.5)])
def test_integer_rows_equal_the_series_sums(a, b):
    # the difference equation in x gives the very integers c_0 Q_n(x) of the Horner sum
    for m in (0, 1, 2, 3, 12, 40):
        base = HahnParams(a, b, m)
        for p in (base, base.shifted()):
            ints = hahn._dyadic(p)
            rows = list(hahn._integer_rows(p, range(m + 1)))
            for n, (c0, row) in enumerate(rows):
                coeffs = hahn._coefficients(n, *ints, m)
                assert c0 == coeffs[0]
                assert row == [hahn._horner(coeffs, x) for x in range(m + 1)]
            assert list(hahn._integer_rows(p, [m])) == rows[-1:]  # one degree alone


def test_unnormalized_orthogonality_identity():
    a, b, m = 0.5, 1.5, 6
    p = HahnParams(a, b, m)
    tab = polynomial_table(p)
    w = weight_vector(p)
    h = norm_vector(p)
    gram = (tab * w[None, :]) @ tab.T
    assert np.max(np.abs(gram - np.diag(h)) / h[None, :]) <= 1e-10


def _residual_scale_1(n, x, p):
    a, b, m = p.alpha, p.beta, p.m
    return max(abs((m + b - x) * hahn_Q(n, x, p)), abs((m - x) * hahn_Q(n, x + 1, p)),
               abs((n + a + 1) * (n + b) / (a + 1) * hahn_Q(n, x, p.shifted())), 1.0)


def test_first_identity_degree_zero():
    # (m+b-x) - (m-x) = b = (a+1) b / (a+1): holds at rounding level
    p = HahnParams(0.4, 1.3, 5)
    for x in range(5):
        assert abs(diff_residual_1(0, x, p)) < 1e-14 * (p.m + p.beta)


def test_first_identity_spot_value():
    p = HahnParams(0.4, 1.3, 5)
    assert abs(diff_residual_1(2, 1, p)) <= 1e-12 * _residual_scale_1(2, 1, p)


def test_second_identity_degree_zero():
    # (x+1) - (a+x+2) = -(a+1)
    p = HahnParams(0.4, 1.3, 5)
    for x in range(5):
        assert abs(diff_residual_2(0, x, p)) < 1e-14 * (p.alpha + p.m + 2)


def test_second_identity_spot_value():
    p = HahnParams(0.4, 1.3, 5)
    assert abs(diff_residual_2(3, 0, p)) <= 1e-12 * _residual_scale_1(3, 0, p)


def test_identities_on_full_grid():
    p = HahnParams(0.25, 0.75, 10)
    worst = 0.0
    for n in range(11):
        for x in range(10):
            scale = _residual_scale_1(n, x, p)
            worst = max(worst, abs(diff_residual_1(n, x, p)) / scale,
                        abs(diff_residual_2(n, x, p)) / scale)
    assert worst <= 1e-11


def test_identity_domain_check():
    p = HahnParams(0.4, 1.3, 5)
    with pytest.raises(ValueError):
        diff_residual_1(0, 5, p)  # x + 1 would leave the lattice edge rule


def test_shifted_family_requires_positive_beta():
    with pytest.raises(ValueError):
        HahnParams(0.5, -0.5, 4).shifted()


def test_beta_one_boundary_is_legal():
    # shifted family of beta = 1 has beta - 1 = 0: the second binomial factor
    # collapses to 1 and the weight reduces to binom(alpha+x, x)
    p = HahnParams(0.3, 1.0, 5).shifted()
    assert p.beta == 0.0
    for x in range(6):
        assert_allclose(hahn_weight(x, p), brute_weight(x, p.alpha, 0.0, 5), rtol=1e-12)


def exact_gram(p):
    """Gram matrix sum_x w(x) Q_n(x) Q_k(x) and norms h_n as Fractions, from
    the exact integers hahn evaluates with.  The weights are brought to one
    common denominator, so the sums over x run in integers."""
    ints = hahn._dyadic(p)
    w, h = hahn._weights_and_norms(p)
    w = [Fraction(*v) for v in w]
    den = math.lcm(*(v.denominator for v in w))
    w = [v.numerator * (den // v.denominator) for v in w]
    rows, scale = [], []
    for n in range(p.m + 1):
        coeffs = hahn._coefficients(n, *ints, p.m)
        rows.append([hahn._horner(coeffs, x) for x in range(p.m + 1)])
        scale.append(coeffs[0])
    gram = [[Fraction(sum(wx * qn * qk for wx, qn, qk in zip(w, rn, rk)), den * sn * sk)
             for rk, sk in zip(rows, scale)] for rn, sn in zip(rows, scale)]
    return gram, [Fraction(*v) for v in h]


@pytest.mark.parametrize("a,b,m", [(-0.9, 0.1, 12), (-0.5, 0.5, 12), (0.0, 1.0, 12),
                                   (0.37, 2.4, 12), (2.0, 3.0, 12), (-0.9, 0.1, 24)])
def test_exact_gram_matrix_is_diagonal_norms(a, b, m):
    # verify's plain grid: the orthogonality relation holds exactly in rationals
    gram, h = exact_gram(HahnParams(a, b, m))
    for n in range(m + 1):
        for k in range(m + 1):
            assert gram[n][k] == (h[n] if n == k else 0)


_PLAIN, _DEFORMED = HahnParams(0.4, 0.6, 4), QHahnParams(0.4, 0.6, 0.5, 4)
_PAIRS = {"value": (hahn_Q, q_hahn_Q), "orthonormal": (hahn_orthonormal, q_hahn_orthonormal),
          "identity-1": (diff_residual_1, q_diff_residual_1),
          "identity-2": (diff_residual_2, q_diff_residual_2),
          "weight": (lambda _, x, p: hahn_weight(x, p), lambda _, x, p: q_hahn_weight(x, p)),
          "norm": (lambda n, _, p: hahn_norm(n, p), lambda n, _, p: q_hahn_norm(n, p))}


@pytest.mark.parametrize("pair,n,x,message", [
    ("value", 5, 0, "degree n=5 outside [0, 4]"),
    ("value", 0, 6, "lattice point x=6 outside [0, 5]"),
    ("orthonormal", 5, 0, "degree n=5 outside [0, 4]"),
    ("orthonormal", 0, 6, "lattice point x=6 outside [0, 4]"),
    ("identity-1", 5, 0, "degree n=5 outside [0, 4]"),
    ("identity-1", 0, 6, "x=6 outside [0, 3]"),
    ("identity-1", 0, 4, "x=4 outside [0, 3]"),
    ("identity-2", 5, 0, "degree n=5 outside [0, 4]"),
    ("identity-2", 0, 6, "x=6 outside [0, 3]"),
    ("identity-2", 0, 4, "x=4 outside [0, 3]"),
    ("value", 2.0, 1, "degree n=2.0 outside [0, 4]"),
    ("value", 2, 1.5, "lattice point x=1.5 outside [0, 5]"),
    ("value", 2, 1.0, "lattice point x=1.0 outside [0, 5]"),
    ("orthonormal", 2.0, 1, "degree n=2.0 outside [0, 4]"),
    ("orthonormal", 2, 1.5, "lattice point x=1.5 outside [0, 4]"),
    ("identity-1", 2.0, 1, "degree n=2.0 outside [0, 4]"),
    ("identity-2", 2, 1.5, "x=1.5 outside [0, 3]"),
    ("weight", 0, 1.0, "lattice point x=1.0 outside [0, 4]"),
    ("norm", 2.0, 0, "degree n=2.0 outside [0, 4]"),
])
def test_domain_errors_shared_by_both_families(pair, n, x, message):
    # n = m+1, x = m+2 and, for the identities, x = m, at m = 4; and
    # non-integer n or x, floats that hold an integer included
    for f, p in zip(_PAIRS[pair], (_PLAIN, _DEFORMED)):
        with pytest.raises(ValueError) as err:
            f(n, x, p)
        assert str(err.value) == message


@pytest.mark.parametrize("pair", sorted(_PAIRS))
def test_numpy_integer_arguments_match_python_ints(pair):
    for f, p in zip(_PAIRS[pair], (_PLAIN, _DEFORMED)):
        assert f(np.int64(2), np.int32(1), p) == f(2, 1, p)
        assert f(np.uint8(3), np.int64(2), p) == f(3, 2, p)


@pytest.mark.parametrize("rel", [0.0, -1.0, 1.0, math.nan])
def test_table_tolerance_outside_unit_interval_rejected_by_both_families(rel):
    for table, p in ((polynomial_table, _PLAIN), (q_polynomial_table, _DEFORMED)):
        with pytest.raises(ValueError) as err:
            table(p, rel=rel)
        assert str(err.value) == f"rel must lie in (0, 1), got {rel}"

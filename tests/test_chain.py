import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import hahnchain
from hahnchain.chain import (ChainSpec, CouplingArray, analytic_eigensystem,
                             build_couplings, interaction_matrix,
                             mode_frequencies, residual_MU_UD)
from hahnchain.qhahn import q_orthonormal_table


def test_christandl_couplings_exact():
    # alpha = -1/2, beta = 1/2 collapses both parities onto sqrt((k+1)(N-k))
    for m in range(1, 26):
        j = build_couplings(ChainSpec(m, -0.5, 0.5)).values
        n = 2 * m + 1
        ref = np.sqrt([(k + 1.0) * (n - k) for k in range(n)])
        assert np.array_equal(j, ref)


def test_coupling_hand_values():
    assert_allclose(build_couplings(ChainSpec(1, -0.5, 0.5)).values,
                    [math.sqrt(3.0), 2.0, math.sqrt(3.0)], rtol=1e-15)
    assert_allclose(build_couplings(ChainSpec(1, 0.0, 1.0)).values,
                    [2.0 * math.sqrt(2.0), 2.0, 2.0 * math.sqrt(2.0)], rtol=1e-15)


def test_shifted_beta_matches_single_parameter_form():
    # for beta = alpha + 1 the even couplings read sqrt((k+2a+2)(N-k+2a+1))
    m, a = 3, 0.7
    n = 2 * m + 1
    j = build_couplings(ChainSpec(m, a, a + 1.0)).values
    for k in range(n):
        if k % 2 == 0:
            assert_allclose(j[k], math.sqrt((k + 2 * a + 2) * (n - k + 2 * a + 1)), rtol=1e-15)
        else:
            assert_allclose(j[k], math.sqrt((k + 1.0) * (n - k)), rtol=1e-15)


def test_couplings_positive_on_domain():
    for spec in [ChainSpec(4, -0.99, 0.01), ChainSpec(6, 5.0, 3.0),
                 ChainSpec(5, 0.2, 0.9, 0.3), ChainSpec(5, 1.05, 0.99, 0.9)]:
        assert np.all(build_couplings(spec).values > 0.0)


def test_interaction_matrix_shapes():
    mat = interaction_matrix(CouplingArray(np.array([1.0])))
    assert mat.dimension == 2
    assert_allclose(mat.to_dense(), [[0.0, 1.0], [1.0, 0.0]])
    spec = ChainSpec(1, -0.5, 0.5)
    dense = interaction_matrix(build_couplings(spec)).to_dense()
    assert dense.shape == (4, 4)
    assert_allclose(np.diag(dense), 0.0)
    assert_allclose(dense, dense.T)


def test_eigenvalues_hand_case():
    es = analytic_eigensystem(ChainSpec(1, 0.0, 1.0))
    assert_allclose(es.eigenvalues, [-4.0, -2.0, 2.0, 4.0], atol=1e-14)


def test_christandl_spectrum_is_linear():
    for m in (1, 5, 12, 25):
        es = analytic_eigensystem(ChainSpec(m, -0.5, 0.5))
        n = 2 * m + 1
        assert_allclose(es.eigenvalues, [-n + 2 * j for j in range(n + 1)], atol=1e-12)


def test_q_two_site_case():
    spec = ChainSpec(0, 0.5, 0.5, 0.5)
    es = analytic_eigensystem(spec)
    j0 = 2.0 * math.sqrt((1 - 0.25) * (1 - 0.5))
    assert_allclose(es.eigenvalues, [-j0, j0], rtol=1e-14)
    assert_allclose(build_couplings(spec).values, [j0], rtol=1e-14)


def test_spectral_symmetry_exact():
    for spec in [ChainSpec(7, 0.37, 2.1), ChainSpec(6, 0.8, 0.6, 0.5)]:
        eig = analytic_eigensystem(spec).eigenvalues
        assert np.all(eig + eig[::-1] == 0.0)


def test_eigenvalues_strictly_ascending():
    for spec in [ChainSpec(10, -0.9, 0.1), ChainSpec(10, 0.2, 0.9, 0.3)]:
        eig = analytic_eigensystem(spec).eigenvalues
        assert np.all(np.diff(eig) > 0.0)


def test_integer_spectrum_for_shifted_beta():
    # beta = alpha + 1 gives eigenvalues +-2(alpha+k+1)
    m, a = 6, 0.25
    eig = analytic_eigensystem(ChainSpec(m, a, a + 1.0)).eigenvalues
    ref = sorted([2.0 * (a + k + 1) for k in range(m + 1)]
                 + [-2.0 * (a + k + 1) for k in range(m + 1)])
    assert_allclose(eig, ref, atol=1e-12)


def test_orthogonality_of_u():
    for spec in [ChainSpec(1, -0.5, 0.5), ChainSpec(12, 0.37, 2.1),
                 ChainSpec(10, 0.8, 0.6, 0.5)]:
        u = analytic_eigensystem(spec).U
        n = u.shape[0]
        assert np.max(np.abs(u.T @ u - np.eye(n))) <= 1e-10
        assert np.max(np.abs(u @ u.T - np.eye(n))) <= 1e-10


def test_mu_ud_residuals():
    spec = ChainSpec(1, -0.5, 0.5)
    assert residual_MU_UD(spec) <= 1e-12
    spec = ChainSpec(20, 0.37, 2.1)
    emax = np.max(np.abs(analytic_eigensystem(spec).eigenvalues))
    assert residual_MU_UD(spec) <= 1e-10 * emax
    spec = ChainSpec(10, 0.8, 0.6, 0.5)
    emax = np.max(np.abs(analytic_eigensystem(spec).eigenvalues))
    assert residual_MU_UD(spec) <= 1e-10 * emax


def test_mode_frequencies_match_positive_spectrum():
    for spec in [ChainSpec(5, 0.3, 1.2), ChainSpec(5, 0.8, 0.6, 0.5)]:
        es = analytic_eigensystem(spec)
        assert_allclose(mode_frequencies(spec), es.eigenvalues[spec.m + 1:], rtol=1e-15)


def test_spec_validation():
    with pytest.raises(ValueError):
        ChainSpec(-1, 0.5, 0.5)
    with pytest.raises(ValueError):
        ChainSpec(3, -1.0, 0.5)
    with pytest.raises(ValueError):
        ChainSpec(3, 0.5, 0.0)
    with pytest.raises(ValueError):
        ChainSpec(3, 0.5, 0.5, 1.5)
    with pytest.raises(ValueError):
        ChainSpec(3, 3.0, 0.5, 0.5)   # alpha >= 1/q
    with pytest.raises(ValueError):
        ChainSpec(3, 0.5, 1.0, 0.5)   # q-case needs beta < 1
    for alpha, beta in ((math.inf, 1.0), (0.5, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            ChainSpec(3, alpha, beta)
    for m in (2.0, np.float64(2.0), "2"):
        with pytest.raises(ValueError, match="nonnegative integer"):
            ChainSpec(m, 0.5, 1.5)
    assert analytic_eigensystem(ChainSpec(np.int64(2), 0.5, 1.5)).dimension == 6


def test_results_are_immutable():
    es = analytic_eigensystem(ChainSpec(2, 0.3, 1.2))
    with pytest.raises(ValueError):
        es.U[0, 0] = 1.0
    with pytest.raises(ValueError):
        es.eigenvalues[0] = 0.0
    j = build_couplings(ChainSpec(2, 0.3, 1.2))
    with pytest.raises(ValueError):
        j.values[0] = 0.0


def test_factored_roots_match_product_form():
    # criterion 1's grid, where every product is a normal double
    for m in (1, 2, 5, 10, 25, 50):
        for a in (-0.9, -0.5, 0.0, 0.37, 2.0):
            for b in (0.1, 0.5, 1.0, a + 1.0, 2.4):
                spec = ChainSpec(m, a, b)
                ref_j = np.array([math.sqrt((k + 1.0) * (2 * m + 1.0 - k)) if k % 2 else
                                  math.sqrt((k + 2.0 * a + 2.0) * (2 * m + 2.0 * b - k))
                                  for k in range(2 * m + 1)])
                ref_w = np.array([2.0 * math.sqrt((a + k + 1.0) * (b + k)) for k in range(m + 1)])
                for got, ref in ((build_couplings(spec).values, ref_j),
                                 (mode_frequencies(spec), ref_w)):
                    assert np.all(np.abs(got - ref) <= 4.0 * np.spacing(ref))


def test_couplings_and_frequencies_finite_at_huge_beta():
    # the products (k+2a+2)(2m+2b-k) and (a+k+1)(b+k) overflow; the roots do not
    spec = ChainSpec(1, 0.5, 1e308)
    root_b = math.sqrt(1e308)
    assert_allclose(build_couplings(spec).values,
                    [math.sqrt(6.0) * root_b, 2.0, math.sqrt(10.0) * root_b], rtol=1e-15)
    assert_allclose(mode_frequencies(spec),
                    [2.0 * math.sqrt(1.5) * root_b, 2.0 * math.sqrt(2.5) * root_b], rtol=1e-15)


def test_out_of_range_couplings_and_frequencies_raise():
    # q^350 = 1e-350 is below the double range at m = 700, q = 0.1; the plain
    # products at alpha = beta = 1e308 have roots beyond it
    for spec in (ChainSpec(700, 0.3, 0.2, 0.1), ChainSpec(1, 1e308, 1e308)):
        with pytest.raises(ArithmeticError, match="not a finite normal double"):
            build_couplings(spec)
        with pytest.raises(ArithmeticError, match="not a finite normal double"):
            mode_frequencies(spec)


def _mp_couplings_and_frequencies(spec, dps=50):
    # the defining products under one root, at dps digits
    with mpmath.workdps(dps):
        a, b, q = (mpmath.mpf(v) for v in (spec.alpha, spec.beta, spec.q))
        m = spec.m
        j = []
        for k in range(m + 1):
            j.append(2 * mpmath.sqrt((1 - a * q ** (k + 1)) * (1 - b * q ** (m - k)) * q ** k))
            if k < m:
                j.append(2 * mpmath.sqrt((1 - q ** (k + 1)) * (1 - q ** (m - k))
                                         * q ** (k + 1) * a))
        w = [2 * mpmath.sqrt((1 - a * q ** (k + 1)) * (1 - b * q ** k) * q ** (m - k))
             for k in range(m + 1)]
        return j, w


@pytest.mark.parametrize("spec", [ChainSpec(40, 0.3, 0.2, 1e-9), ChainSpec(160, 0.3, 0.2, 0.01)])
def test_deformed_couplings_and_frequencies_at_tiny_magnitudes(spec):
    # q^k under the root is subnormal or 0 here long before the root is
    # (omega_0 is 1.8e-180 and 1.8e-160)
    ref_j, ref_w = _mp_couplings_and_frequencies(spec)
    for got, ref in ((build_couplings(spec).values, ref_j), (mode_frequencies(spec), ref_w)):
        assert len(got) == len(ref)
        for g, r in zip(got.tolist(), ref):
            assert abs((mpmath.mpf(g) - r) / r) <= 1e-15


_deformed_specs = st.builds(
    lambda m, a, b, q: ChainSpec(m, a / q, b, q),
    st.integers(0, 12), st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.05, 0.95))


@settings(max_examples=20, deadline=None)
@given(_deformed_specs)
def test_deformed_eigensystem_property(spec):
    es = analytic_eigensystem(spec)
    emax = np.max(np.abs(es.eigenvalues))
    assert residual_MU_UD(spec) <= 1e-10 * emax
    assert np.max(np.abs(es.U.T @ es.U - np.eye(es.dimension))) <= 1e-10



@pytest.mark.parametrize("spec", [ChainSpec(40, 0.3, 0.2, 1e-4), ChainSpec(12, 0.3, 0.2, 1e-13)])
def test_small_q_chains_build_at_the_first_mpmath_rungs(spec):
    # the direct sums cancel past 3000 digits at q = 1e-4, m = 40, where
    # (2m+2)|log10 q| = 328 > 308 overflows the factor tables, and past 1000
    # at q = 1e-13; the transformed form certifies what they leave
    analytic_eigensystem.cache_clear()
    q_orthonormal_table.cache_clear()
    hahnchain.reset_stats()
    es = analytic_eigensystem(spec)
    assert hahnchain.stats()["max_mp_dps"] <= 248
    assert residual_MU_UD(spec) <= 1e-10 * np.max(np.abs(es.eigenvalues))
    assert np.max(np.abs(es.U.T @ es.U - np.eye(es.dimension))) <= 1e-10

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from hahnchain import dynamics
from hahnchain.chain import ChainSpec, EigenSystem, analytic_eigensystem, mode_frequencies
from hahnchain.dynamics import (CorrelationSample, PSTResult, amplitude_at_halfpi,
                                amplitude_at_pi, correlation,
                                correlation_closed_form, correlation_matrix,
                                end_to_end, pst_condition, pst_scan, q_end_to_end)
from hahnchain.special import log_pochhammer


def test_zero_time_is_identity():
    spec = ChainSpec(3, 0.3, 1.2)
    es = analytic_eigensystem(spec)
    for r in range(8):
        for s in range(8):
            amp = correlation(es, r, s, 0.0).amplitude
            assert abs(amp - (1.0 if r == s else 0.0)) <= 1e-12


def test_column_probabilities_sum_to_one():
    spec = ChainSpec(4, 0.7, 2.3)
    es = analytic_eigensystem(spec)
    for t in (0.3, 1.7, math.pi):
        total = sum(abs(correlation(es, r, 2, t).amplitude) ** 2 for r in range(10))
        assert_allclose(total, 1.0, rtol=1e-12)


def test_linear_chain_transfers_perfectly_at_half_pi():
    es = analytic_eigensystem(ChainSpec(1, -0.5, 0.5))
    amp = correlation(es, 3, 0, math.pi / 2.0).amplitude
    assert_allclose(abs(amp), 1.0, rtol=1e-12)


@pytest.mark.parametrize("spec", [ChainSpec(2, 0.3, 1.2), ChainSpec(5, 0.7, 2.3),
                                  ChainSpec(4, 0.8, 0.6, 0.5)])
def test_closed_form_matches_eigen_expansion(spec):
    es = analytic_eigensystem(spec)
    n = es.dimension
    rng = np.random.default_rng(11)
    for _ in range(12):
        r = int(rng.integers(0, n))
        s = int(rng.integers(0, n))
        t = float(rng.uniform(0.0, 8.0))
        a = correlation(es, r, s, t).amplitude
        b = correlation_closed_form(spec, r, s, t).amplitude
        assert abs(a - b) <= 1e-10


def test_parity_fixes_amplitude_phase():
    spec = ChainSpec(2, 0.3, 1.2)
    # odd receiver, even sender: amplitude purely imaginary by the fold
    sample = correlation_closed_form(spec, 5, 0, 0.7)
    assert sample.amplitude.real == 0.0
    es = analytic_eigensystem(spec)
    assert abs(correlation(es, 5, 0, 0.7).amplitude.real) <= 1e-13
    # even/even: purely real
    sample = correlation_closed_form(spec, 4, 0, 0.7)
    assert sample.amplitude.imag == 0.0
    assert abs(correlation(es, 4, 0, 0.7).amplitude.imag) <= 1e-13


def test_end_to_end_matches_eigen_expansion():
    spec = ChainSpec(2, 0.7, 2.3)
    es = analytic_eigensystem(spec)
    for t in (0.0, 1.1, 2.9):
        assert abs(end_to_end(spec, t).amplitude
                   - correlation(es, 5, 0, t).amplitude) <= 1e-11


def test_end_to_end_special_half_pi_values():
    # beta = alpha+1, t = pi/2: amplitude i (-1)^m sin(pi alpha)
    amp = end_to_end(ChainSpec(3, 0.5, 1.5), math.pi / 2.0).amplitude
    assert_allclose([amp.real, amp.imag], [0.0, -1.0], atol=1e-12)
    amp = end_to_end(ChainSpec(2, 0.25, 1.25), math.pi / 2.0).amplitude
    assert_allclose([amp.real, amp.imag], [0.0, math.sin(0.25 * math.pi)], atol=1e-12)


def test_end_to_end_rejects_deformed_spec():
    with pytest.raises(ValueError):
        end_to_end(ChainSpec(2, 0.5, 0.25, 0.5), 1.0)


def test_amplitude_at_halfpi():
    assert_allclose(abs(amplitude_at_halfpi(ChainSpec(4, -0.5, 0.5))), 1.0, rtol=1e-15)
    assert amplitude_at_halfpi(ChainSpec(2, 0.5, 1.5)) == 1j
    assert amplitude_at_halfpi(ChainSpec(3, 0.0, 1.0)) == 0.0
    with pytest.raises(ValueError):
        amplitude_at_halfpi(ChainSpec(3, 0.2, 2.0))


def test_amplitude_at_pi():
    # half-integer alpha: sin(2 pi alpha) = 0
    assert abs(amplitude_at_pi(ChainSpec(3, 0.5, 1.5))) <= 1e-15
    # generic alpha: matches the sine-sum form at t = pi
    spec = ChainSpec(2, 0.25, 1.25)
    assert abs(amplitude_at_pi(spec) - end_to_end(spec, math.pi).amplitude) <= 1e-12
    # and the eigen-expansion
    spec = ChainSpec(1, 0.1, 1.1)
    es = analytic_eigensystem(spec)
    assert abs(amplitude_at_pi(spec) - correlation(es, 3, 0, math.pi).amplitude) <= 1e-11
    with pytest.raises(ValueError):
        amplitude_at_pi(ChainSpec(3, 0.2, 2.0))


def test_rational_window_half_integer():
    win = pst_condition(0.5)
    assert (win.k, win.l) == (0, 1)
    assert_allclose(win.time, math.pi / 2.0)


def test_rational_window_fractional():
    win = pst_condition(-1.0 / 6.0)
    assert (win.k, win.l) == (1, 1)
    assert_allclose(win.time, 3.0 * math.pi / 2.0)
    spec = ChainSpec(4, -1.0 / 6.0, -1.0 / 6.0 + 1.0)
    assert_allclose(abs(end_to_end(spec, win.time).amplitude), 1.0, atol=1e-11)


def test_rational_window_zero_numerator():
    win = pst_condition(-0.5)
    assert (win.k, win.l) == (0, 0)


def test_rational_window_rejects_generic_alpha():
    assert pst_condition(0.123, max_denominator=50) is None


@pytest.mark.parametrize("alpha, tolerance", [
    (math.inf, 1e-12), (math.nan, 1e-12), (-1.0, 1e-12), (1e308, 1e-12),  # 2*alpha+1 = inf
    (0.5, math.nan), (0.5, -1e-3), (0.5, math.inf)])
def test_rational_window_domain(alpha, tolerance):
    with pytest.raises(ValueError, match="alpha|tolerance"):
        pst_condition(alpha, tolerance=tolerance)


def test_profile_tables_fetched_once_per_spec(monkeypatch):
    calls = []

    def counting(spec):
        calls.append(spec)
        return family_tables(spec)

    family_tables = dynamics._family_tables
    monkeypatch.setattr(dynamics, "_family_tables", counting)
    dynamics._profile_tables.cache_clear()
    spec = ChainSpec(20, 0.3, 1.2)
    try:
        samples = [correlation_closed_form(spec, 5, 8, t) for t in (0.3, 1.3, 2.3)]
    finally:
        dynamics._profile_tables.cache_clear()
    assert calls == [spec]
    es = analytic_eigensystem(spec)
    for c in samples:
        assert abs(c.amplitude - correlation(es, 5, 8, c.t).amplitude) <= 1e-12


def test_q_end_to_end_zero_time():
    spec = ChainSpec(3, 0.8, 0.4, 0.5)
    assert q_end_to_end(spec, 0.0) == 0.0


def test_q_end_to_end_matches_eigen_expansion():
    spec = ChainSpec(1, 0.8, 0.4, 0.5)
    es = analytic_eigensystem(spec)
    amp = q_end_to_end(spec, 0.9)
    ref = correlation(es, 3, 0, 0.9).amplitude
    assert abs(amp - ref) <= 1e-12


def test_q_end_to_end_bounded_modulus():
    spec = ChainSpec(5, 0.8, 0.4, 0.5)
    for t in np.linspace(0.0, 10.0, 60):
        assert abs(q_end_to_end(spec, float(t))) <= 1.0 + 1e-10


def test_q_end_to_end_requires_matched_beta():
    with pytest.raises(ValueError):
        q_end_to_end(ChainSpec(3, 0.8, 0.6, 0.5), 1.0)
    with pytest.raises(ValueError):
        q_end_to_end(ChainSpec(3, 0.8, 1.8), 1.0)


def test_scan_flags_transfer_time():
    spec = ChainSpec(3, -0.5, 0.5)
    grid = np.linspace(0.0, math.pi, 65)  # contains pi/2 exactly at index 32
    results = pst_scan(spec, grid)
    hits = [p for p in results if p.is_perfect]
    assert hits and any(abs(p.time - math.pi / 2.0) < 1e-12 for p in hits)


def test_scan_generic_parameters_never_flag():
    spec = ChainSpec(3, 0.3, 1.7)
    results = pst_scan(spec, np.linspace(0.0, 2.0 * math.pi, 629))
    assert not any(p.is_perfect for p in results)
    assert all(p.modulus <= 1.0 + 1e-10 for p in results)


def test_scan_deformed_chain_never_flags():
    # no perfect end-to-end transfer has been found in the deformed family;
    # assert its absence on a scan grid
    for spec in [ChainSpec(3, 0.8, 0.4, 0.5), ChainSpec(4, 0.2, 0.9, 0.3),
                 ChainSpec(2, 1.05, 0.99, 0.9)]:
        results = pst_scan(spec, np.linspace(0.0, 2.0 * math.pi, 200))
        assert all(p.modulus <= 1.0 + 1e-10 for p in results)
        assert not any(p.is_perfect for p in results)


def test_scan_validates_grid():
    spec = ChainSpec(2, 0.3, 1.7)
    with pytest.raises(ValueError):
        pst_scan(spec, [])
    with pytest.raises(ValueError):
        pst_scan(spec, [1.0, 0.5])


def test_unitarity_of_correlation_matrix():
    for spec in [ChainSpec(6, 0.37, 2.1), ChainSpec(6, 0.8, 0.6, 0.5)]:
        es = analytic_eigensystem(spec)
        n = es.dimension
        for t in (0.0, 0.9, 4.2):
            f = correlation_matrix(es, t)
            assert np.max(np.abs(f @ f.conj().T - np.eye(n))) <= 1e-10


def test_sample_invariant_rejects_superunitary():
    with pytest.raises(ValueError):
        CorrelationSample(0, 0, 0.0, 1.5 + 0.0j)
    with pytest.raises(ValueError):
        CorrelationSample(0, 0, 0.0, complex(math.nan, 0.0))
    with pytest.raises(ValueError):
        PSTResult(0.0, 1.5, True)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=6),
       st.floats(min_value=-0.9, max_value=2.5),
       st.floats(min_value=0.05, max_value=3.0))
def test_zero_time_identity_property(m, alpha, beta):
    es = analytic_eigensystem(ChainSpec(m, alpha, beta))
    f = correlation_matrix(es, 0.0)
    assert np.max(np.abs(f - np.eye(es.dimension))) <= 1e-11


def _eigen_expansion(spec, grid):
    es = analytic_eigensystem(spec)
    prod = es.U[es.dimension - 1] * es.U[0]
    return np.exp(-1j * np.multiply.outer(grid, es.eigenvalues)) @ prod


@pytest.mark.parametrize("spec", [ChainSpec(20, 0.3, 1.7), ChainSpec(20, 0.37, 1.37),
                                  ChainSpec(12, 0.8, 0.4, 0.5)])
def test_scan_matches_pointwise_and_eigen_expansion(spec):
    grid = np.linspace(0.0, 45.0, 4000)
    moduli = np.array([p.modulus for p in pst_scan(spec, grid)])
    if spec.q is None:
        pointwise = [end_to_end(spec, t).amplitude for t in grid.tolist()]
    else:
        pointwise = [q_end_to_end(spec, t) for t in grid.tolist()]
    assert np.max(np.abs(moduli - np.abs(pointwise))) <= 1e-12
    assert np.max(np.abs(moduli - np.abs(_eigen_expansion(spec, grid)))) <= 1e-12


@pytest.mark.parametrize("spec", [ChainSpec(9, 0.3, 1.7), ChainSpec(7, 0.8, 0.4, 0.5)])
def test_frequencies_cached_once_per_spec(spec):
    w = mode_frequencies(spec)
    assert not w.flags.writeable
    assert mode_frequencies(spec) is w
    kernel = dynamics._general_kernel if spec.q is None else dynamics._fold_kernel
    assert kernel(spec)[1] is w
    es = analytic_eigensystem(spec)
    for r, s, t in ((0, 0, 0.7), (2 * spec.m + 1, 0, 1.3), (3, 5, 2.9)):
        sample = correlation_closed_form(spec, r, s, t)
        assert abs(sample.amplitude - correlation(es, r, s, t).amplitude) <= 1e-12


def _collapsed_2f1_terms(m, a):
    # the coefficients of _collapsed_kernel are 2 (-1)^m ratio times the terms
    # of 2F1(-m, 2a+2; 2a+m+3; 1)
    c, _ = dynamics._collapsed_kernel(ChainSpec(m, a, a + 1.0))
    ratio = math.exp(log_pochhammer(a + 1.0, m + 1) - log_pochhammer(2.0 * a + 2.0, m + 1))
    return c / (2.0 * (-1.0) ** m * ratio)


def test_collapsed_kernel_sums_2f1_at_one():
    # 2F1(-m, 2a+2; 2a+m+3; 1) with m = 3, a = 0.25 sums to a Pochhammer ratio
    expected = (4.0 * 5.0 * 6.0) / (6.5 * 7.5 * 8.5)
    assert_allclose(np.sum(_collapsed_2f1_terms(3, 0.25)), expected, rtol=1e-14)


def test_collapsed_kernel_sums_2f1_at_minus_one():
    # 2F1(-m, 2a+2; 2a+m+3; -1) with m = 3, a = 0.25: the same terms, alternating
    expected = (3.5 * 4.5 * 5.5) / (2.25 * 3.25 * 4.25)
    terms = _collapsed_2f1_terms(3, 0.25)
    assert_allclose(np.sum(terms * (-1.0) ** np.arange(terms.size)), expected, rtol=1e-14)


def test_collapsed_form_cross_check_raises(monkeypatch):
    spec = ChainSpec(6, 0.37, 1.37)
    c, w = dynamics._collapsed_kernel(spec)
    monkeypatch.setattr(dynamics, "_collapsed_kernel", lambda s: (c * (1.0 + 1e-6), w))
    with pytest.raises(ArithmeticError):
        end_to_end(spec, 1.1)
    with pytest.raises(ArithmeticError):
        pst_scan(spec, np.linspace(0.0, 5.0, 50))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=30),
       st.floats(min_value=-0.95, max_value=5.0),
       st.floats(min_value=0.01, max_value=5.0),
       st.booleans(),
       st.floats(min_value=0.0, max_value=50.0))
def test_end_to_end_matches_eigen_expansion_property(m, alpha, beta, shifted, t):
    spec = ChainSpec(m, alpha, alpha + 1.0 if shifted else beta)
    es = analytic_eigensystem(spec)
    ref = correlation(es, 2 * m + 1, 0, t).amplitude
    assert abs(end_to_end(spec, t).amplitude - ref) <= 1e-10


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_non_finite_times_rejected(t):
    spec, deformed = ChainSpec(4, 0.3, 1.3), ChainSpec(4, 0.8, 0.4, 0.5)
    es = analytic_eigensystem(spec)
    for call in (lambda: correlation(es, 0, 7, t),
                 lambda: correlation_closed_form(spec, 0, 7, t),
                 lambda: end_to_end(spec, t),
                 lambda: q_end_to_end(deformed, t),
                 lambda: correlation_matrix(es, t),
                 *(lambda g=grid, sp=sp: pst_scan(sp, g)
                   for sp in (spec, deformed) for grid in ([t], [0.0, t]))):
        with pytest.raises(ValueError, match="time must be finite"):
            call()


def test_sites_outside_the_chain_rejected():
    spec = ChainSpec(2, 0.3, 1.3)
    es = analytic_eigensystem(spec)
    for r, s in ((6, 0), (0, -1)):
        with pytest.raises(ValueError, match="outside"):
            correlation(es, r, s, 0.5)
        with pytest.raises(ValueError, match="outside"):
            correlation_closed_form(spec, r, s, 0.5)


def test_inconsistent_eigensystem_fails_the_fold_cross_check():
    # U = I pairs no column m-j with a column m+j+1: the direct sum at site 0
    # is e^{2it}, the folded one 2 cos 2t
    es = EigenSystem(np.eye(4), np.array([-2.0, -1.0, 1.0, 2.0]))
    with pytest.raises(ArithmeticError, match="direct and folded"):
        correlation(es, 0, 0, 0.3)

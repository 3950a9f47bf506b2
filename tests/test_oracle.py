import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from hahnchain.chain import (ChainSpec, CouplingArray, analytic_eigensystem,
                             build_couplings, interaction_matrix,
                             mode_frequencies)
from hahnchain.oracle import (ConvergenceError, match_eigensystems,
                              max_abs_residual, tridiag_eigen)


def _matrix(off):
    return interaction_matrix(CouplingArray(np.asarray(off, dtype=float)))


def test_two_by_two():
    out = tridiag_eigen(_matrix([1.0]))
    assert_allclose(out.eigenvalues, [-1.0, 1.0], atol=1e-15)


def test_linear_spectrum_case():
    # off-diagonal [sqrt(3), 2, sqrt(3)] has spectrum -3, -1, 1, 3
    out = tridiag_eigen(_matrix([math.sqrt(3.0), 2.0, math.sqrt(3.0)]))
    assert_allclose(out.eigenvalues, [-3.0, -1.0, 1.0, 3.0], atol=1e-13)


def test_characteristic_polynomial_case():
    # off-diagonal [2 sqrt(2), 2, 2 sqrt(2)]: det gives L^4 - 20 L^2 + 64,
    # roots +-2, +-4
    out = tridiag_eigen(_matrix([2.0 * math.sqrt(2.0), 2.0, 2.0 * math.sqrt(2.0)]))
    assert_allclose(out.eigenvalues, [-4.0, -2.0, 2.0, 4.0], atol=1e-13)


def test_single_site():
    out = tridiag_eigen(_matrix([]))
    assert_allclose(out.eigenvalues, [0.0])
    assert_allclose(out.eigenvectors, [[1.0]])


@pytest.mark.parametrize("off", [
    [1.0, 1.0, 1.0, 1.0, 1.0],
    [3.0, 0.5, 2.0, 0.1, 4.0, 2.5],
    np.sqrt(np.arange(1, 40, dtype=float) * np.arange(39, 0, -1, dtype=float)),
])
def test_residual_orthonormality_reconstruction(off):
    mat = _matrix(off)
    dense = mat.to_dense()
    out = tridiag_eigen(mat)
    n = mat.dimension
    scale = np.max(np.abs(dense))
    for j in range(n):
        v = out.eigenvectors[:, j]
        assert np.max(np.abs(dense @ v - out.eigenvalues[j] * v)) <= 1e-10 * scale
    assert np.max(np.abs(out.eigenvectors.T @ out.eigenvectors - np.eye(n))) <= 1e-10
    recon = out.eigenvectors @ np.diag(out.eigenvalues) @ out.eigenvectors.T
    assert np.max(np.abs(recon - dense)) <= 1e-10 * scale
    assert np.all(np.diff(out.eigenvalues) >= 0.0)


def test_determinism_bit_identical():
    off = np.sqrt(np.arange(1, 30, dtype=float))
    a = tridiag_eigen(_matrix(off))
    b = tridiag_eigen(_matrix(off))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_sweep_budget_error():
    off = np.full(29, 2.0)
    with pytest.raises(ConvergenceError):
        tridiag_eigen(_matrix(off), max_sweeps=1)


def test_max_abs_residual():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert max_abs_residual(a, a) == 0.0
    assert max_abs_residual(a, a + 1e-3) == pytest.approx(1e-3)
    with pytest.raises(ValueError):
        max_abs_residual(a, np.zeros(3))


def test_match_against_self():
    spec = ChainSpec(5, -0.5, 0.5)
    es = analytic_eigensystem(spec)
    out = tridiag_eigen(interaction_matrix(build_couplings(spec)))
    m1 = match_eigensystems(es, out)
    assert m1.max_eigenvalue_rel_diff <= 1e-12
    assert m1.max_overlap_deviation <= 1e-9


def test_match_q_case():
    spec = ChainSpec(10, 0.8, 0.6, 0.5)
    es = analytic_eigensystem(spec)
    out = tridiag_eigen(interaction_matrix(build_couplings(spec)))
    m1 = match_eigensystems(es, out)
    assert m1.max_eigenvalue_rel_diff <= 1e-10
    assert m1.max_overlap_deviation <= 1e-9


def test_match_dimension_check():
    spec_a = ChainSpec(2, 0.3, 1.2)
    spec_b = ChainSpec(3, 0.3, 1.2)
    es = analytic_eigensystem(spec_a)
    out = tridiag_eigen(interaction_matrix(build_couplings(spec_b)))
    with pytest.raises(ValueError):
        match_eigensystems(es, out)


@pytest.mark.parametrize("m,q", [(30, 0.3), (50, 0.5), (100, 0.5), (200, 0.5), (400, 0.5)])
def test_vectors_orthonormal_on_deformed_chains(m, q):
    # the tiny eigenvalues reach down to about q^(m/2) (1e-60 at m = 400),
    # far below eps ||T||, where eigenvalues accurate only to eps ||T|| in
    # absolute terms lose every digit; they come in pairs +-sigma only
    # 2 sigma apart, whose vectors separate only when each is built at a
    # sigma accurate relative to itself
    spec = ChainSpec(m, 0.3, 0.2, q)
    mat = interaction_matrix(build_couplings(spec))
    out = tridiag_eigen(mat)
    omega = mode_frequencies(spec)
    assert np.max(np.abs(out.eigenvalues[m + 1:] - omega) / omega) <= 1e-12
    assert np.max(np.abs(-out.eigenvalues[m::-1] - omega) / omega) <= 1e-12
    v = out.eigenvectors
    assert np.max(np.abs(v.T @ v - np.eye(len(v)))) <= 1e-13
    dense = mat.to_dense()
    assert np.max(np.abs(dense @ v - v * out.eigenvalues)) <= 1e-13 * np.max(np.abs(dense))


@pytest.mark.parametrize("off", [[1.0, 0.0, 1.0], [2.0, 0.0, 2.0, 0.0, 2.0], [0.0, 0.0, 0.0],
                                 [1.0, 1.0, 0.0, 1.0, 1.0], [1.0, 1e-300, 1.0]])
def test_vectors_orthonormal_for_repeated_eigenvalues(off):
    # a zero coupling splits the chain and repeats eigenvalues exactly
    mat = _matrix(off)
    out = tridiag_eigen(mat)
    v = out.eigenvectors
    assert np.max(np.abs(v.T @ v - np.eye(len(v)))) <= 1e-13
    assert np.max(np.abs(mat.to_dense() @ v - v * out.eigenvalues)) <= 1e-13 * max(1.0, max(off))


# couplings log-uniform over 1e-8..1e2, with exact zeros that split the chain
_couplings = st.lists(st.one_of(st.just(0.0), st.floats(-8.0, 2.0).map(lambda e: 10.0 ** e)),
                      max_size=39)


@settings(max_examples=60, deadline=None)
@given(_couplings)
def test_blocks_and_odd_dimensions_property(off):
    mat = _matrix(off)
    dense = mat.to_dense()
    out = tridiag_eigen(mat)
    lam, v = out.eigenvalues, out.eigenvectors
    norm = max(float(np.max(np.abs(dense))), 1e-300)
    assert np.max(np.abs(lam - np.linalg.eigvalsh(dense))) <= 1e-13 * norm
    assert np.max(np.abs(dense @ v - v * lam)) <= 1e-13 * norm
    # columns of different blocks share no site, so they are exactly
    # orthogonal even where their eigenvalues repeat; inside one block a
    # vector is accurate to about n eps over its eigenvalue's relative gap,
    # so only near-degenerate eigenvalues of one block (coupled through a
    # small coupling, as in [1, 1e-4, 1]) may pair beyond 1e-13
    block = np.concatenate(([0], np.cumsum(np.asarray(off) == 0.0)))[np.argmax(np.abs(v), axis=0)]
    scale = np.maximum(np.abs(lam)[:, None], np.abs(lam)[None, :])
    rel_gap = np.abs(lam[:, None] - lam[None, :]) / np.maximum(scale, 1e-300)
    bound = np.where(block[:, None] == block[None, :],
                     1e-13 + len(v) * np.finfo(float).eps / np.maximum(rel_gap, 1e-300), 0.0)
    np.fill_diagonal(bound, 1e-13)
    assert np.all(np.abs(v.T @ v - np.eye(len(v))) <= bound)

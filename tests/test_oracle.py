import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hahnchain.chain import (ChainSpec, CouplingArray, analytic_eigensystem,
                             build_couplings, interaction_matrix)
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


@pytest.mark.parametrize("m,q", [(30, 0.3), (50, 0.5), (100, 0.5), (200, 0.5)])
def test_vectors_orthonormal_on_deformed_chains(m, q):
    # the tiny eigenvalues come in pairs +-sigma only 2 sigma apart (sigma down
    # to q^(m/2)); without the inverse-iteration step the twisted vectors of
    # such a pair overlap by 3e-9 to 8e-9, and from m = 100 on, where sigma
    # falls below eps ||T||, they coincide unless the cluster of tiny
    # eigenvalues is orthogonalized (|VtV - I| 9.8e-3 at m = 100, 1.0 at
    # m = 200).  The rotation-accumulating QL oracle had 6.9e-15 and 6.2e-15.
    mat = interaction_matrix(build_couplings(ChainSpec(m, 0.3, 0.2, q)))
    out = tridiag_eigen(mat)
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

import math

import numpy as np
import pytest

from discordnet import linalg


def random_hermitian(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


def test_hermiticity_defect_zero_for_hermitian(rng):
    h = random_hermitian(rng, 8)
    assert linalg.hermiticity_defect(h) < 1e-14
    linalg.require_hermitian(h)


def test_require_hermitian_raises():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(linalg.LinalgError):
        linalg.require_hermitian(m)


def test_eigh_reconstruction(rng):
    for d in (2, 4, 8, 16):
        h = random_hermitian(rng, d)
        dec = linalg.eigh(h)
        assert dec.reconstruction_residual(h) < 1e-10
        assert dec.unitarity_residual() < 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= -1e-12)


def test_eigh_known_eigenvalues():
    pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
    dec = linalg.eigh(pauli_x)
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])


def test_mat_fn_sqrt_squares_back(rng):
    h = random_hermitian(rng, 6)
    psd = h @ h.conj().T  # guarantees positive semidefinite
    root = linalg.mat_fn(psd, math.sqrt)
    assert np.allclose(root @ root, psd, atol=1e-10)


def test_mat_fn_log_of_identity():
    out = linalg.mat_fn(np.eye(4), math.log)
    assert np.allclose(out, np.zeros((4, 4)))


def test_stacks_are_treated_matrix_by_matrix(rng):
    mats = np.array([random_hermitian(rng, 4) for _ in range(6)])
    mats[3, 0, 2] += 3e-9  # one non-Hermitian matrix sets the stack's defect
    assert linalg.hermiticity_defect(mats) == max(linalg.hermiticity_defect(m) for m in mats)
    assert linalg.hermiticity_defect(mats) > linalg.HERMITICITY_TOL
    psd = mats @ mats.conj().swapaxes(-1, -2)
    psd = (psd + psd.conj().swapaxes(-1, -2)) / 2
    dec = linalg.eigh(psd)
    roots = linalg.mat_fn(psd, math.sqrt)
    for i, m in enumerate(psd):
        one = linalg.eigh(m)
        assert np.array_equal(dec.eigenvalues[i], one.eigenvalues)
        assert np.array_equal(dec.eigenvectors[i], one.eigenvectors)
        assert np.array_equal(roots[i], linalg.mat_fn(m, math.sqrt))
    assert np.allclose(dec.reconstruct(), psd, atol=1e-10)
    with pytest.raises(linalg.LinalgError):
        linalg.mat_fn(mats, math.sqrt)

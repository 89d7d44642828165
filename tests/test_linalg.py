"""Linear-algebra kernel: traces, entropies, unitaries; package exports."""

import numpy as np
import pytest

import discordant
from discordant.errors import DimensionError, InvalidSpec
from discordant.linalg import (
    check_density_matrix,
    entropy_of_weights,
    fourier_matrix,
    hermitize,
    partial_trace,
    random_unitary,
    von_neumann_entropy,
)


def test_entropy_half_half():
    rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)


def test_entropy_pure_and_mixed():
    assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0
    assert von_neumann_entropy(np.eye(4, dtype=complex) / 4) == pytest.approx(2.0, abs=1e-12)
    assert entropy_of_weights(np.array([0.25] * 4)) == pytest.approx(2.0, abs=1e-12)


def test_entropy_rejects_negative_eigenvalue():
    bad = np.diag([1.1, -0.1]).astype(complex)
    with pytest.raises(InvalidSpec):
        von_neumann_entropy(bad)


def test_partial_trace_product_state():
    rng = np.random.default_rng(0)
    a = rng.random((3, 3)) + 1j * rng.random((3, 3))
    a = hermitize(a @ a.conj().T)
    a /= np.trace(a).real
    b = rng.random((3, 3)) + 1j * rng.random((3, 3))
    b = hermitize(b @ b.conj().T)
    b /= np.trace(b).real
    rho = np.kron(a, b)
    # "side" names the subsystem traced out.
    np.testing.assert_allclose(partial_trace(rho, 3, 3, "B"), a, atol=1e-13)
    np.testing.assert_allclose(partial_trace(rho, 3, 3, "A"), b, atol=1e-13)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(1)
    m = rng.random((6, 6)) + 1j * rng.random((6, 6))
    rho = hermitize(m @ m.conj().T)
    rho /= np.trace(rho).real
    for side in ("A", "B"):
        reduced = partial_trace(rho, 2, 3, side)
        assert np.trace(reduced).real == pytest.approx(1.0, abs=1e-13)


def test_check_density_matrix_accepts_valid():
    check_density_matrix(np.eye(4, dtype=complex) / 4)


def test_check_density_matrix_rejections():
    with pytest.raises(DimensionError):
        check_density_matrix(np.zeros((2, 3), dtype=complex))
    with pytest.raises(InvalidSpec):
        check_density_matrix(np.eye(2, dtype=complex))  # trace 2
    with pytest.raises(InvalidSpec):
        check_density_matrix(np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex))
    with pytest.raises(InvalidSpec):
        check_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_fourier_matrix_unitary():
    for d in (2, 3, 5):
        F = fourier_matrix(d)
        np.testing.assert_allclose(F @ F.conj().T, np.eye(d), atol=1e-12)
        assert F[1, 1] == pytest.approx(np.exp(2j * np.pi / d) / np.sqrt(d), abs=1e-12)


def test_random_unitary_deterministic_and_unitary():
    u1 = random_unitary(4, np.random.default_rng(7))
    u2 = random_unitary(4, np.random.default_rng(7))
    np.testing.assert_array_equal(u1, u2)
    np.testing.assert_allclose(u1 @ u1.conj().T, np.eye(4), atol=1e-12)
    # a batch is one QR of the stacked draws, bit-identical to one QR per matrix
    stack = random_unitary(3, np.random.default_rng(7), 5)
    rng = np.random.default_rng(7)
    G = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    for u, g in zip(stack, G):
        Q, R = np.linalg.qr(g)
        np.testing.assert_array_equal(u, Q * (np.diag(R) / np.abs(np.diag(R))))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-12)


def test_package_exports_resolve():
    missing = [name for name in discordant.__all__ if not hasattr(discordant, name)]
    assert missing == []

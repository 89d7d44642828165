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


def test_partial_trace_and_fourier_matrix_reject_bad_arguments():
    with pytest.raises(ValueError, match="side must be 'A' or 'B'"):
        partial_trace(np.eye(4) / 4, 2, 2, "C")
    with pytest.raises(DimensionError, match="must be positive"):
        fourier_matrix(0)


def test_fourier_matrix_unitary():
    for d in (2, 3, 5):
        F = fourier_matrix(d)
        np.testing.assert_allclose(F @ F.conj().T, np.eye(d), atol=1e-12)
        assert F[1, 1] == pytest.approx(np.exp(2j * np.pi / d) / np.sqrt(d), abs=1e-12)


class _Replay:
    """Stands in for a Generator: ``standard_normal`` hands out the given arrays in turn."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def standard_normal(self, shape):
        out = self.arrays.pop(0)
        assert out.shape == shape
        return out


def test_random_unitary_deterministic_and_unitary():
    u1 = random_unitary(4, np.random.default_rng(7))
    u2 = random_unitary(4, np.random.default_rng(7))
    np.testing.assert_array_equal(u1, u2)
    for d in (1, 2, 3, 5, 13):
        stack = random_unitary(d, np.random.default_rng(7), 40)
        rng = np.random.default_rng(7)
        re, im = rng.standard_normal((2, 40, d, d))
        for u, a, b in zip(stack, re, im):
            # a batch is bit-identical to one call per Gaussian matrix
            np.testing.assert_array_equal(u, random_unitary(d, _Replay(a, b)))
            assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-13, d
            # u is the Q of G = QR with diag(R) real and positive
            R = u.conj().T @ (a + 1j * b)
            assert np.abs(np.tril(R, -1)).max(initial=0.0) <= 1e-12, d
            assert np.abs(np.diagonal(R).imag).max() <= 1e-12, d
            assert (np.diagonal(R).real > 1e-12).all(), d


def test_random_unitary_haar_moments():
    # For Haar U(d), |U_ij|² ~ Beta(1, d − 1): E|U_ij|² = 1/d, E|U_ij|⁴ = 2/(d(d + 1))
    n = 20000
    for d in (2, 3):
        x = np.abs(random_unitary(d, np.random.default_rng(41), n)) ** 2
        for moment, want in ((x, 1 / d), (x ** 2, 2 / (d * (d + 1)))):
            stderr = moment.std(axis=0, ddof=1) / np.sqrt(n)
            assert (np.abs(moment.mean(axis=0) - want) <= 5 * stderr).all(), d


def test_package_exports_resolve():
    missing = [name for name in discordant.__all__ if not hasattr(discordant, name)]
    assert missing == []

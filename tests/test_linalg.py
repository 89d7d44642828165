"""Linear-algebra kernel: traces, entropies, unitaries; package exports."""

import re
import warnings

import numpy as np
import pytest

import discordant
from discordant.blocks import generate_zero_discord
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
from discordant.states import (BellWeights, CirculantSpec, bell_diagonal_state,
                               orthogonal_invariant_state, validate_circulant_spec)


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


def _faulty(fault: str) -> np.ndarray:
    """A 2×2 matrix of trace 1 with a NaN, a Hermitian defect of 0.05 or an eigenvalue −0.5."""
    m = np.eye(2, dtype=complex) / 2
    if fault == "non-finite":
        m[0, 1] = np.nan
    elif fault == "hermitian":
        m[0, 1] += 0.05
    else:
        m = np.diag([1.5, -0.5]).astype(complex)
    return m


_FAULT_TEXTS = {"non-finite": "has non-finite entries",
                "hermitian": f"is not Hermitian (defect {0.05 * 2**0.5:.3e})",
                "negative": "has negative eigenvalue -5.000e-01"}


def _as_sector(m):
    a = np.zeros((2, 2, 2), dtype=complex)
    a[0], a[1] = np.eye(2) / 4, m
    validate_circulant_spec(CirculantSpec(2, a))


def _as_seed(m):
    generate_zero_discord(m, np.zeros(2), "A")


@pytest.mark.parametrize("fault", list(_FAULT_TEXTS))
@pytest.mark.parametrize("call, name", [
    (check_density_matrix, "rho"), (_as_sector, "a^(1)"), (_as_seed, "a0"),
], ids=["rho", "sector", "seed"])
def test_one_message_per_matrix_fault(call, name, fault):
    # a density matrix, a circulant sector and a zero-discord seed share one rule and its words
    with pytest.raises(InvalidSpec) as info:
        call(_faulty(fault))
    assert str(info.value) == f"{name} {_FAULT_TEXTS[fault]}"


@pytest.mark.parametrize("call, name", [
    (lambda w: bell_diagonal_state(BellWeights(2, np.reshape(w, (2, 2)))), "weights"),
    (lambda w: orthogonal_invariant_state(w[:3], 2), "abc"),
], ids=["bell", "orthogonal"])
@pytest.mark.parametrize("weights, text", [
    ([0.25, np.nan, 0.5, 0.25], "{} has non-finite entries"),
    ([-0.01, 0.51, 0.5, 0.0], "negative weight -1.000e-02 in {}"),
    ([0.5, 0.5, 0.5, 0.0], "{} sum to 1.5, expected 1"),
], ids=["non-finite", "negative", "sum"])
def test_one_message_per_weight_fault(call, name, weights, text):
    with pytest.raises(InvalidSpec, match=f"^{re.escape(text.format(name))}$"):
        call(np.array(weights))


def test_entropy_refuses_a_non_hermitian_argument():
    # it used to hermitize such a matrix without a word
    with pytest.raises(InvalidSpec, match=re.escape("state is not Hermitian (defect")):
        von_neumann_entropy(np.array([[0.5, 0.1], [0.0, 0.5]]))


def test_huge_entries_keep_the_hermitian_test():
    # both Frobenius norms overflowed with a RuntimeWarning, and inf > inf let this pass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec, match=r"^rho is not Hermitian \(defect 1\.414e\+200\)$"):
            check_density_matrix(np.array([[1e200, 1e200], [0.0, 1e200]]))
        with pytest.raises(InvalidSpec, match=r"^rho has trace \(4e\+200\+0j\), expected 1$"):
            check_density_matrix(np.eye(4) * 1e200)
        assert von_neumann_entropy(np.eye(2) * 1e160) < 0


def test_partial_trace_and_fourier_matrix_reject_bad_arguments():
    with pytest.raises(InvalidSpec, match="^side must be 'A' or 'B', got 'C'$"):
        partial_trace(np.eye(4) / 4, 2, 2, "C")
    with pytest.raises(DimensionError, match="must be positive"):
        fourier_matrix(0)
    with pytest.raises(InvalidSpec, match="^d must be an integer, got True$"):
        fourier_matrix(True)  # it used to return [[1]]


@pytest.mark.parametrize("call", [check_density_matrix, von_neumann_entropy])
def test_an_empty_matrix_is_a_dimension_error(call):
    # both used to fail with IndexError
    for empty in (np.zeros((0, 0)), np.zeros((0, 0), complex)):
        with pytest.raises(DimensionError, match=r"must be square and nonempty, got shape \(0, 0\)"):
            call(empty)


def test_fourier_matrix_unitary():
    for d in (2, 3, 5):
        F = fourier_matrix(d)
        np.testing.assert_allclose(F @ F.conj().T, np.eye(d), atol=1e-12)
        assert F[1, 1] == pytest.approx(np.exp(2j * np.pi / d) / np.sqrt(d), abs=1e-12)


class _Replay(np.random.Generator):
    """A Generator whose ``standard_normal`` hands out the given arrays in turn."""

    def __init__(self, *arrays):
        super().__init__(np.random.PCG64())
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

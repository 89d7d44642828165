"""Dense complex-matrix primitives: Kronecker products, partial traces,
Hermitian eigendecomposition, entropies, normality and commutation tests.

All entropies are in bits (base-2 logarithms).  Tolerances are hybrid
absolute/relative, ``tol * max(1, scale)``, so they behave uniformly
across magnitudes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionError, InvalidSpec

#: Relative Frobenius tolerance for Hermiticity of density matrices.
HERMITICITY_TOL = 1e-12
#: Absolute tolerance for unit trace of density matrices.
TRACE_TOL = 1e-12
#: Eigenvalues below this floor violate positive semidefiniteness.
EIG_FLOOR = -1e-10
#: Eigenvalues with magnitude below this contribute nothing to entropies.
ENTROPY_CUTOFF = 1e-12


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; the columns of ``eigenvectors``
    are the matching orthonormal eigenvectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def frobenius(M: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(M))


def dagger(M: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return M.conj().T


def hermitize(M: np.ndarray) -> np.ndarray:
    """Symmetrize a nearly Hermitian matrix: (M + M†)/2."""
    return (M + M.conj().T) / 2.0


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product, (A⊗B)[i·rB+k, j·cB+l] = A[i,j]·B[k,l]."""
    return np.kron(np.asarray(A), np.asarray(B))


def _require_square(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    return M


def check_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Validate finiteness, Hermiticity, unit trace and positivity; return the array.

    Raises :class:`InvalidSpec` on violation and :class:`DimensionError`
    for non-square input.
    """
    rho = np.asarray(_require_square(rho, name), dtype=complex)
    if not np.isfinite(rho).all():
        raise InvalidSpec(f"{name} has non-finite entries")
    scale = max(1.0, frobenius(rho))
    herm_defect = frobenius(rho - rho.conj().T)
    if herm_defect > HERMITICITY_TOL * scale:
        raise InvalidSpec(f"{name} is not Hermitian (defect {herm_defect:.3e})")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidSpec(f"{name} has trace {tr}, expected 1")
    w = np.linalg.eigvalsh(hermitize(rho))
    if w[0] < EIG_FLOOR:
        raise InvalidSpec(f"{name} has negative eigenvalue {w[0]:.3e}")
    return rho


def partial_trace(rho: np.ndarray, dA: int, dB: int, side: str) -> np.ndarray:
    """Trace out one subsystem of a bipartite state on C^dA ⊗ C^dB.

    ``side`` names the subsystem traced out: ``"B"`` yields the dA×dA
    reduced state, ``"A"`` the dB×dB one.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dA * dB, dA * dB):
        raise DimensionError(
            f"expected a {dA * dB}x{dA * dB} matrix, got shape {rho.shape}"
        )
    four = rho.reshape(dA, dB, dA, dB)
    if side == "B":
        return np.einsum("ikjk->ij", four)
    if side == "A":
        return np.einsum("kikj->ij", four)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def eig_hermitian(M: np.ndarray) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix; symmetrizes before solving.

    Eigenvalues come back ascending with orthonormal eigenvector columns.
    """
    M = _require_square(M)
    w, v = np.linalg.eigh(hermitize(np.asarray(M, dtype=complex)))
    return Spectrum(w, v)


def entropy_of_weights(w: np.ndarray) -> float:
    """Shannon entropy in bits of a nonnegative weight vector summing to 1."""
    w = np.asarray(w, dtype=float)
    w = w[w > ENTROPY_CUTOFF]
    if w.size == 0:
        return 0.0
    return float(-np.sum(w * np.log2(w)))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(ρ) = −tr(ρ log2 ρ) in bits.

    Eigenvalues in [−1e−10, 0) are clipped to 0; anything more negative is
    a positivity violation and raises :class:`InvalidSpec`.
    """
    rho = _require_square(rho, "rho")
    w = np.linalg.eigvalsh(hermitize(np.asarray(rho, dtype=complex)))
    if w[0] < EIG_FLOOR:
        raise InvalidSpec(f"state has negative eigenvalue {w[0]:.3e}")
    return entropy_of_weights(np.clip(w, 0.0, None))


def is_normal(M: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff ‖MM† − M†M‖_F ≤ tol·max(1, ‖M‖_F²)."""
    M = np.asarray(_require_square(M), dtype=complex)
    Md = M.conj().T
    defect = frobenius(M @ Md - Md @ M)
    return defect <= tol * max(1.0, frobenius(M) ** 2)


def commutator_norm(A: np.ndarray, B: np.ndarray) -> float:
    """Frobenius norm of AB − BA."""
    A = np.asarray(_require_square(A, "A"), dtype=complex)
    B = np.asarray(_require_square(B, "B"), dtype=complex)
    if A.shape != B.shape:
        raise DimensionError(f"shape mismatch: {A.shape} vs {B.shape}")
    return frobenius(A @ B - B @ A)


def fourier_matrix(d: int) -> np.ndarray:
    """Unitary discrete Fourier matrix, F[j,k] = exp(2πi·jk/d)/√d."""
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * (j * k % d) / d) / np.sqrt(d)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed d×d unitary from the QR of a complex Gaussian matrix."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))

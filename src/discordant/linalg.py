"""Dense complex-matrix primitives: density-matrix validation, partial
traces, entropies, and the Fourier and Haar-random unitaries.

All entropies are in bits (base-2 logarithms).  Tolerances are hybrid
absolute/relative, ``tol * max(1, scale)``, so they behave uniformly
across magnitudes.
"""

from __future__ import annotations

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


def frobenius(M: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(M))


def hermitize(M: np.ndarray) -> np.ndarray:
    """Symmetrize a nearly Hermitian matrix: (M + M†)/2."""
    return (M + M.conj().T) / 2.0


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


def fourier_matrix(d: int) -> np.ndarray:
    """Unitary discrete Fourier matrix, F[j,k] = exp(2πi·jk/d)/√d."""
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * (j * k % d) / d) / np.sqrt(d)


def random_unitary(d: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Haar-distributed d×d unitary from the QR of a complex Gaussian matrix.

    With ``count``, a stack of that many, shape (count, d, d), from one
    batched QR, which is bit-identical to a QR of each matrix alone.
    """
    shape = (d, d) if count is None else (count, d, d)
    G = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    Q, R = np.linalg.qr(G)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (diag / np.abs(diag))[..., None, :]

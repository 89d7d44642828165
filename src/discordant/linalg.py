"""Dense complex-matrix primitives: density-matrix validation, partial
traces, entropies, and the Fourier and Haar-random unitaries.

All entropies are in bits (base-2 logarithms).  Tolerances are hybrid
absolute/relative, ``tol * max(1, scale)``, so they behave uniformly
across magnitudes.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence

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


def _require_integer(value, name: str, lo: int | None = None, hi: int | None = None) -> None:
    """Raise :class:`InvalidSpec` unless ``value`` is an integer, not a bool, in lo … hi
    (no bound where ``lo`` is None; ``hi`` goes with a ``lo``)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and (lo is None or lo <= value) and (hi is None or value <= hi)):
        bounds = ("" if lo is None else f" with {name} ≥ {lo}" if hi is None
                  else f" with {lo} ≤ {name} ≤ {hi}")
        raise InvalidSpec(f"{name} must be an integer{bounds}, got {value!r}")


def _side_codes(sides) -> list[int]:
    """0 for each side "A" and 1 for each "B"; any other side raises :class:`InvalidSpec`."""
    codes = [{"A": 0, "B": 1}.get(side) for side in sides]
    if None in codes:
        raise InvalidSpec(f"side must be 'A' or 'B', got {sides[codes.index(None)]!r}")
    return codes


def _sequence(x, name: str):
    """``x`` if it is a sequence (a list, tuple, string, range or array); anything else, such as
    None, a dict or a generator, raises :class:`InvalidSpec`.  Its items are not read."""
    if not isinstance(x, (Sequence, np.ndarray)):
        raise InvalidSpec(f"{name} must be a sequence, got {type(x).__name__}")
    return x


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a`` with writing turned off: for arrays that are kept and shared between calls."""
    a.flags.writeable = False
    return a


def hermitize(M: np.ndarray) -> np.ndarray:
    """Symmetrize a nearly Hermitian matrix, or a stack of them: (M + M†)/2."""
    return (M + M.conj().swapaxes(-1, -2)) / 2.0


def _array(x, name: str, dtype=complex, shape: tuple | None = None) -> np.ndarray:
    """``x`` as an array of ``dtype`` (no copy if it is one): the rule for array arguments.

    Ragged nesting raises :class:`DimensionError`, an entry that is not a number, or a
    complex one where ``dtype`` is float, :class:`InvalidSpec`, and a shape other than
    ``shape``, whose leading ``...`` stands for any leading axes, :class:`DimensionError`.
    """
    real = dtype is float  # a complex x stays complex: casting would drop its imaginary part
    try:
        a = np.asarray(x, dtype=complex if real and np.iscomplexobj(x) else dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        try:
            np.asarray(x)
        except ValueError:
            raise DimensionError(f"{name} is ragged: its nested lists differ in length") from None
        raise InvalidSpec(f"{name} has an entry that is not a number: {exc}") from None
    if real and a.dtype.kind == "c":
        raise InvalidSpec(f"{name} must be real, got complex entries")
    if shape is not None and shape[:1] == (...,):
        shape = a.shape[: max(a.ndim - len(shape) + 1, 0)] + shape[1:]
    if shape is not None and a.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {a.shape}")
    return a


def _require_square(M, name: str, dtype=complex) -> np.ndarray:
    """:func:`_array` of ``M``; one not a nonempty square matrix raises :class:`DimensionError`."""
    M = _array(M, name, dtype)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise DimensionError(f"{name} must be square and nonempty, got shape {M.shape}")
    return M


def _require_real(x, name: str, positive: bool = False) -> None:
    """Raise :class:`InvalidSpec` unless ``x`` is a real number, not a bool, that is finite
    (and > 0 with ``positive``): the rule for scalar arguments such as ``tol``."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise InvalidSpec(f"{name} must be a real number, got {x!r}")
    if not (math.isfinite(x) and (x > 0 or not positive)):
        raise InvalidSpec(f"{name} must be finite{' and positive' if positive else ''}, got {x}")


def _require_generator(rng) -> None:
    """Raise :class:`InvalidSpec` unless ``rng`` is a :class:`numpy.random.Generator`."""
    if not isinstance(rng, np.random.Generator):
        raise InvalidSpec(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")


def _require_finite(x, name: str = "rho") -> None:
    """Raise :class:`InvalidSpec` unless the array ``x`` is finite."""
    if not np.isfinite(x).all():
        raise InvalidSpec(f"{name} has non-finite entries")


def _require_psd(stack: np.ndarray, name: str, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """The ascending eigenvalues of an (n, m, m) stack of finite, Hermitian (‖M − M†‖_F ≤
    tol·max(1, ‖M‖_F)) and PSD (eigenvalues ≥ ``EIG_FLOOR``) matrices; the first matrix k
    that is not raises :class:`InvalidSpec`, named ``name.format(k)``, for its first fault."""
    finite = np.isfinite(stack).all(axis=(1, 2))
    if not finite.all():  # zero the non-finite matrices, which fail anyway
        stack = np.where(finite[:, None, None], stack, 0.0)
    # both norms over the largest power of two ≤ max(1, |entry|): exact, and they stay finite
    inv = np.ldexp(1.0, 1 - np.frexp(np.abs(stack).max(axis=(1, 2), initial=1.0))[1])
    scaled = stack * inv[:, None, None]
    defect = np.linalg.norm(scaled - scaled.conj().swapaxes(1, 2), axis=(1, 2))
    skew = defect > tol * np.maximum(inv, np.linalg.norm(scaled, axis=(1, 2)))
    w = np.linalg.eigvalsh(hermitize(stack))
    bad = ~finite | skew | (w[:, 0] < EIG_FLOOR)
    if bad.any():
        k = int(np.argmax(bad))
        fault = ("has non-finite entries" if not finite[k] else
                 f"is not Hermitian (defect {defect[k] / inv[k]:.3e})" if skew[k] else
                 f"has negative eigenvalue {w[k, 0]:.3e}")
        raise InvalidSpec(f"{name.format(k)} {fault}")
    return w


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate by :func:`_require_psd`, then check unit trace; return the array.

    Raises :class:`InvalidSpec` on violation and :class:`DimensionError`
    for non-square input; messages name the matrix "rho".
    """
    rho = _require_square(rho, "rho")
    _require_psd(rho[None], "rho")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise InvalidSpec(f"rho has trace {tr}, expected 1")
    return rho


def partial_trace(rho: np.ndarray, dA: int, dB: int, side: str) -> np.ndarray:
    """Trace out one subsystem of a bipartite state on C^dA ⊗ C^dB.

    ``side`` names the subsystem traced out: ``"B"`` yields the dA×dA
    reduced state, ``"A"`` the dB×dB one.  ``rho`` must be finite.
    """
    _require_integer(dA, "dA", 1)
    _require_integer(dB, "dB", 1)
    rho = _array(rho, "rho", shape=(dA * dB, dA * dB))
    _require_finite(rho)
    four = rho.reshape(dA, dB, dA, dB)
    return np.einsum(("kikj->ij", "ikjk->ij")[_side_codes([side])[0]], four)


def entropy_of_weights(w: np.ndarray) -> float:
    """Shannon entropy in bits of a nonnegative weight vector summing to 1."""
    w = np.asarray(w, dtype=float)
    w = w[w > ENTROPY_CUTOFF]
    if w.size == 0:
        return 0.0
    return float(-np.sum(w * np.log2(w)))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """S(ρ) = −tr(ρ log2 ρ) in bits.

    The argument, named "state", must pass :func:`_require_psd`: a non-finite
    entry, a Hermitian defect or an eigenvalue below −1e−10 raises
    :class:`InvalidSpec`, and eigenvalues in [−1e−10, 0) are clipped to 0.
    """
    rho = _require_square(rho, "rho")
    return entropy_of_weights(np.clip(_require_psd(rho[None], "state")[0], 0.0, None))


def fourier_matrix(d: int) -> np.ndarray:
    """Unitary discrete Fourier matrix, F[j,k] = exp(2πi·jk/d)/√d."""
    _require_integer(d, "d")
    if d < 1:
        raise DimensionError(f"dimension must be positive, got {d}")
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * (j * k % d) / d) / np.sqrt(d)


def random_unitary(d: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Haar-distributed d×d unitary: the Q of a complex Gaussian G = QR with diag(R) > 0.

    Q's columns take the phases of R's diagonal, which makes Q Haar distributed
    (Mezzadri, Notices AMS 54, 592, 2007).  With ``count``, a stack of that
    many, shape (count, d, d), each bit-identical to the draw from its own G.
    ``d`` ≥ 1 and ``count`` ≥ 0 are integers.
    """
    _require_integer(d, "d", 1)
    if count is not None:
        _require_integer(count, "count", 0)
    _require_generator(rng)
    shape = (d, d) if count is None else (count, d, d)
    Q, R = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    r = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (r / np.abs(r))[..., None, :]

"""Constructors for two-qudit state families.

A circulant state on C^d ⊗ C^d is block diagonal over the cyclic sectors
Σ_n = span{e_i ⊗ e_{i+n}} and is fully described by d Hermitian PSD
matrices a^(0..d−1) whose traces sum to 1: entry a^(n)_{ij} of sector n
sits at row i·d + (i+n mod d), column j·d + (j+n mod d) of the dense
matrix.  A spec holds them as one (d, d, d) stack.  This module builds
those specs (and dense matrices) for the circulant, Bell-diagonal,
Werner-type, isotropic, orthogonal-invariant and commuting-group-invariant
families.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .linalg import (TRACE_TOL, _array, _read_only, _require_finite, _require_integer,
                     _require_psd, _require_real, _require_square, frobenius)

#: Entries smaller than this in modulus are treated as exact zeros.
ZERO_TOL = 1e-12
#: Frobenius residual below which a matrix counts as sector-block-diagonal.
CIRCULANT_RESIDUAL_TOL = 1e-10
#: Largest local dimension accepted: at d = 32 analyze's start screen already holds
#: a (2, 256·d, d²) complex array of 1.7·10⁷ entries (268 MB), besides its kept
#: 267 MB candidate table; at d = 64, 2.1 GB each.
MAX_DIMENSION = 32


@dataclass(frozen=True)
class CirculantSpec:
    """The sector matrices of a circulant state: ``a[n]`` = a^(n), a read-only (d, d, d) stack.

    A spec is frozen and keeps nothing but its stack: every closed form of
    :mod:`discordant.blocks` is decided afresh from it on each call.
    """

    d: int
    a: np.ndarray

    def __post_init__(self):
        _require_integer(self.d, "d", 1)
        a = _array(self.a, "a", shape=(self.d,) * 3).copy(order="K")  # freezing touches no caller
        object.__setattr__(self, "a", _read_only(a))

    def trace_sum(self) -> float:
        """Σ_n tr a^(n), added left to right (NumPy would pair up the terms for d ≥ 8)."""
        return float(sum(np.trace(self.a, axis1=1, axis2=2).real.tolist()))


@dataclass(frozen=True)
class NotCirculant:
    """Returned when a dense matrix has coherence between cyclic sectors."""

    residual: float


@dataclass(frozen=True)
class BellWeights:
    """Probability matrix p[m, n] over the d² maximally entangled projectors."""

    d: int
    p: np.ndarray

    def __post_init__(self):
        _require_integer(self.d, "d", 1)
        object.__setattr__(self, "p", _array(self.p, "p", float, (self.d, self.d)))


def _require_dimension(d) -> None:
    """Raise :class:`InvalidSpec` unless ``d`` is an integer with 2 ≤ d ≤ MAX_DIMENSION."""
    _require_integer(d, "d", 2, MAX_DIMENSION)


@functools.cache
def _sector_index(d: int) -> np.ndarray:
    """flat[n, i, j]: index of a^(n)_{ij} in the raveled d²×d² matrix (cached, read-only)."""
    i = np.arange(d)
    pos = i * d + (i + i[:, None]) % d  # pos[n, i] = i·d + (i+n) mod d
    return _read_only(pos[:, :, None] * (d * d) + pos[:, None, :])


def validate_circulant_spec(spec: CirculantSpec) -> None:
    """Check each a^(n) by :func:`~discordant.linalg._require_psd` (naming the first
    that fails), then Σ tr a^(n) = 1 within ``TRACE_TOL``."""
    _require_psd(spec.a, "a^({})")
    total = spec.trace_sum()
    if abs(total - 1.0) > TRACE_TOL:
        raise InvalidSpec(f"sector traces sum to {total}, expected 1")


def _require_weights(w: np.ndarray, name: str) -> None:
    """Raise :class:`InvalidSpec` unless the weights ``w`` are finite, none below
    −``ZERO_TOL``, and sum to 1 within ``TRACE_TOL``."""
    _require_finite(w, name)
    if np.any(w < -ZERO_TOL):
        raise InvalidSpec(f"negative weight {w.min():.3e} in {name}")
    total = float(w.sum())
    if abs(total - 1.0) > TRACE_TOL:
        raise InvalidSpec(f"{name} sum to {total}, expected 1")


def _bell_weights(w) -> BellWeights:
    """Coerce a weight matrix (or :class:`BellWeights`) and check it by :func:`_require_weights`."""
    if not isinstance(w, BellWeights):
        p = _require_square(w, "weights", float)
        w = BellWeights(len(p), p)
    _require_weights(w.p, "weights")
    return w


def shift_operator(d: int) -> np.ndarray:
    """Cyclic shift S with S[(n+1) mod d, n] = 1, i.e. S e_n = e_{n+1}."""
    _require_dimension(d)
    S = np.zeros((d, d), dtype=complex)
    S[(np.arange(d) + 1) % d, np.arange(d)] = 1.0
    return S


def flip_operator(d: int) -> np.ndarray:
    """Swap F of the two factors: F (x ⊗ y) = y ⊗ x."""
    _require_dimension(d)
    F = np.zeros((d * d, d * d), dtype=complex)
    i = np.arange(d)
    F[i[:, None] * d + i, i * d + i[:, None]] = 1.0
    return F


def max_entangled_projector(d: int) -> np.ndarray:
    """Projector onto (1/√d) Σ_i e_i ⊗ e_i: :func:`bell_projector` (0, 0)."""
    return bell_projector(0, 0, d)


def circulant_state(spec: CirculantSpec) -> np.ndarray:
    """The dense d²×d² matrix of a circulant spec, which must first pass
    :func:`validate_circulant_spec`."""
    validate_circulant_spec(spec)
    return _dense_states(spec.a[None])[0]


def _dense_states(a: np.ndarray) -> np.ndarray:
    """The dense d²×d² matrices of a stack of sector stacks (n, d, d, d), by one scatter."""
    n, d = a.shape[:2]
    rho = np.zeros((n, d**4), dtype=complex)
    rho[:, _sector_index(d)] = a
    return rho.reshape(n, d * d, d * d)


def project_circulant(rho: np.ndarray, d: int):
    """Extract the circulant spec of a dense matrix, or report the residual.

    Returns the :class:`CirculantSpec` when the matrix is block diagonal
    over the cyclic sectors within 1e−10 (Frobenius), else a
    :class:`NotCirculant` carrying the off-sector residual.
    """
    _require_integer(d, "d", 1)
    rho = _array(rho, "rho", shape=(d * d, d * d))
    a = rho.reshape(-1)[_sector_index(d)]
    residual = frobenius(rho - _dense_states(a[None])[0])
    if not residual <= CIRCULANT_RESIDUAL_TOL:  # a NaN residual is not circulant either
        return NotCirculant(residual)
    return CirculantSpec(d, a)


def bell_projector(m: int, n: int, d: int) -> np.ndarray:
    """Rank-1 projector onto the maximally entangled state twisted by (m, n).

    The d² projectors are mutually orthogonal and sum to the identity;
    (m, n) = (0, 0) gives the plain maximally entangled projector.  The
    indices are integers with 0 ≤ m, n ≤ d − 1.
    """
    _require_dimension(d)
    _require_integer(m, "m", 0, d - 1)
    _require_integer(n, "n", 0, d - 1)
    P = np.zeros((d * d, d * d), dtype=complex)
    P.reshape(-1)[_sector_index(d)[n]] = _bell_amplitudes(d)[m] / d
    return P


def bell_diagonal_state(w) -> CirculantSpec:
    """Circulant spec of Σ p[m,n]·(projector m,n): a^(n)_{ij} = (1/d) Σ_m p[m,n] λ^{m(i−j)}."""
    w = _bell_weights(w)
    return CirculantSpec(w.d, _bell_sectors(w.p))


def _bell_sectors(p: np.ndarray) -> np.ndarray:
    """The sector stacks of Bell weights p, (d, d) or a stack (…, d, d), unchecked."""
    d = p.shape[-1]
    return np.einsum("...mn,mij->...nij", p, _bell_amplitudes(d)) / d


@functools.cache
def _bell_amplitudes(d: int) -> np.ndarray:
    """amp[m, i, j] = λ^{m(i−j)} with λ = e^{2πi/d} (cached, read-only)."""
    i = np.arange(d)
    return _read_only(np.exp(2j * np.pi * i / d)[i[:, None, None] * (i[:, None] - i) % d])


def _lambda_sectors(kind: str, d: int, lam: float) -> np.ndarray:
    """The unchecked sector stack of ``kind`` "werner" or "isotropic"; d and λ are checked."""
    _require_dimension(d)
    _require_real(lam, "lambda")
    base = (1.0 - lam) / d**2
    a = np.repeat(np.eye(d, dtype=complex)[None] * base, d, axis=0)
    if kind == "werner":
        a[0] = np.eye(d, dtype=complex) * (lam / d + base)
        i, k = np.arange(d), np.arange(1, d)[:, None]
        a[k, i, (i + k) % d] = a[k, (i + k) % d, i] = lam / d
    else:
        a[0] = np.full((d, d), lam / d, dtype=complex) + np.eye(d) * base
    return a


def _checked_spec(a: np.ndarray) -> CirculantSpec:
    """The spec of the stack ``a``, checked by :func:`validate_circulant_spec`."""
    spec = CirculantSpec(a.shape[0], a)
    validate_circulant_spec(spec)
    return spec


def werner_state(d: int, lam: float) -> CirculantSpec:
    """Flip-symmetric circulant family with mixing parameter ``lam``.

    a^(0) = (λ/d + (1−λ)/d²)·I; for k ≥ 1, a^(k) carries (1−λ)/d² on the
    diagonal and λ/d at every position (i, i±k mod d).  For d = 2 this is
    exactly (1−λ)/d²·I⊗I + (λ/d)·F with F the swap; for larger d it is the
    Hermitian sector-diagonal family with the same one-parameter footprint
    (the swap itself mixes sectors and is not circulant).  A result that
    fails :func:`validate_circulant_spec` raises :class:`InvalidSpec`.
    """
    return _checked_spec(_lambda_sectors("werner", d, lam))


def isotropic_state(d: int, lam: float) -> CirculantSpec:
    """(1−λ)/d²·I⊗I + λ·(maximally entangled projector), as a checked circulant spec."""
    return _checked_spec(_lambda_sectors("isotropic", d, lam))


def orthogonal_invariant_state(abc, d: int) -> np.ndarray:
    """Convex mixture a·P̃_0 + b·P̃_1 + c·P̃_2 of the three invariant projectors.

    P_2 is the maximally entangled projector, P_1 the antisymmetric
    projector (I−F)/2, and P_0 = (I+F)/2 − P_2; each is normalized by its
    trace (d(d+1)/2 − 1, d(d−1)/2 and 1 respectively).  The weights must
    be three real numbers and pass :func:`_require_weights`, named "abc".
    """
    _require_dimension(d)
    a, b, c = w = _array(abc, "abc", float, (3,))
    _require_weights(w, "abc")
    F = flip_operator(d)
    eye = np.eye(d * d, dtype=complex)
    P2 = max_entangled_projector(d)
    Q_plus = (eye + F) / 2
    Q_minus = (eye - F) / 2
    P0 = Q_plus - P2
    return (
        a * P0 / (d * (d + 1) / 2 - 1)
        + b * Q_minus / (d * (d - 1) / 2)
        + c * P2
    )


def _commuting_inputs(a, dmat) -> tuple[np.ndarray, np.ndarray]:
    """(a, dmat) as arrays, checked: a square, dmat (d, d), nonnegative, zero on its diagonal."""
    a = _require_square(a, "a")
    dmat = _array(dmat, "dmat", float, a.shape)
    if np.any(dmat < -ZERO_TOL):
        raise InvalidSpec(f"negative weight {dmat.min():.3e} in dmat")
    if not np.all(np.abs(np.diag(dmat)) <= ZERO_TOL):
        raise InvalidSpec("diagonal entries of dmat must be zero")
    return a, dmat


def commuting_group_invariant_state(a: np.ndarray, dmat: np.ndarray) -> CirculantSpec:
    """Circulant spec with a^(0) = a and a^(k) = diag(dmat[i, i+k]) for k ≥ 1.

    ``dmat`` holds the nonnegative diagonal weights d_{ij} for i ≠ j (its
    diagonal must be zero).  The spec must then pass
    :func:`validate_circulant_spec`: ``a`` finite, Hermitian and PSD, and
    the total trace tr(a) + Σ_{i≠j} d_{ij} equal to 1.
    """
    a, dmat = _commuting_inputs(a, dmat)
    d = a.shape[0]
    stack = np.zeros((d, d, d), dtype=complex)
    i, k = np.arange(d), np.arange(1, d)[:, None]
    stack[k, i, i] = dmat[i, (i + k) % d]
    stack[0] = a
    return _checked_spec(stack)


def ppt_check_commuting(a: np.ndarray, dmat: np.ndarray) -> bool:
    """Positivity of the partial transpose: |a_{ij}|² ≤ d_{ij}·d_{ji} for all i ≠ j.

    The inputs follow the rules of :func:`commuting_group_invariant_state` and must be finite.
    """
    a, dmat = _commuting_inputs(a, dmat)
    _require_finite(a, "a")
    _require_finite(dmat, "dmat")
    off = ~np.eye(a.shape[0], dtype=bool)
    return not np.any(off & (np.abs(a) ** 2 > dmat * dmat.T + 1e-12))

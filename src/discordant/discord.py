"""Numeric discord oracle.

Mutual information, measurement-conditioned entropies, classical
correlation C (the supremum of extracted information over rank-1
projective measurements on one side) and discord D = I − C, all in bits.

One optimizer serves every d.  A measurement is the column basis of a
unitary U, and C = S(ρ_other) − min_U f(U) with f(U) = Σ_k p_k S(σ_k/p_k)
the entropy left after measuring.  A stack of bases is scored at once:
one contraction gives every conditional state σ_k, one batched
eigendecomposition gives f and its closed-form Riemannian gradient on
U(d).  A seeded screen (identity, Fourier basis, a few hundred Haar
draws, scored by eigenvalues alone) picks the starts, and steepest
descent along the geodesics U ← exp(μΩ)U (Abrudan, Eriksson & Koivunen,
IEEE TSP 2008) refines them together, both measured sides in one stack.
Each step length μ is the minimizer of a parabola fitted to the last
trial (Nocedal & Wright, Numerical Optimization, §3.5).
Computing discord is NP-complete (Huang, NJP 16, 033027, 2014), so the
search keeps several starts and stays heuristic: every
returned C is an achieved value, hence a certified lower bound on the
supremum, and D a certified upper bound on the discord.  Zero/nonzero
verdicts should rely on d ∈ {2, 3}, where start coverage is dense.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InvalidMeasurement
from .linalg import fourier_matrix, partial_trace, von_neumann_entropy

#: Measurement outcome weights below this are treated as never occurring.
P_UNDERFLOW = 1e-14
#: |I − C| below this is reported as exactly zero discord.
ZERO_CLIP = 1e-9
#: Haar-random candidate bases scored, with the identity and Fourier bases,
#: to pick the descent starts.
SCREEN_DRAWS = 254
#: Angle scale of the seeded rotation applied to each picked start.
START_KICK = 0.05
#: Armijo fraction: a step μ is accepted if it lowers f by ARMIJO·μ‖Ω‖².  It
#: must stay well below 1/2, where the parabola's minimizer (the next step)
#: lies exactly on the acceptance boundary.
ARMIJO = 1e-4


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal basis of C^d; column k of ``vectors`` is the k-th vector."""

    d: int
    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.shape != (self.d, self.d):
            raise DimensionError(f"expected shape ({self.d}, {self.d}), got {v.shape}")
        object.__setattr__(self, "vectors", v)

    def validate(self) -> None:
        gram = self.vectors.conj().T @ self.vectors
        if np.abs(gram - np.eye(self.d)).max() > 1e-10:
            raise InvalidMeasurement("basis vectors are not orthonormal")


@dataclass(frozen=True)
class OptimizerConfig:
    """Search-budget knobs for the classical-correlation optimizer.

    ``starts`` descents run side by side, each for at most ``max_iters``
    steps, and a start has converged once it can promise no decrease of
    more than ``f_tol`` bits.
    """

    starts: int = 24
    max_iters: int = 2000
    f_tol: float = 1e-14
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be at least 1")
        if not (np.isfinite(self.f_tol) and self.f_tol > 0):
            raise ValueError("f_tol must be finite and positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class DiscordResult:
    """Mutual information, classical correlation and discord for one side.

    ``starts_converged`` counts the optimizer starts that reached
    ``f_tol`` within ``max_iters``.
    """

    side: str
    mutual_information: float
    classical_correlation: float
    discord: float
    best_measurement: MeasurementBasis
    starts_converged: int

    def to_json(self) -> dict:
        return {
            "I": self.mutual_information,
            "C": self.classical_correlation,
            "D": self.discord,
            "side": self.side,
            "basis": [
                [[float(z.real), float(z.imag)] for z in self.best_measurement.vectors[:, k]]
                for k in range(self.best_measurement.d)
            ],
            "starts_converged": self.starts_converged,
        }


def _check_bipartite(rho: np.ndarray, d: int, sides=()) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d * d, d * d):
        raise DimensionError(f"expected shape ({d * d}, {d * d}), got {rho.shape}")
    for side in sides:
        if side not in ("A", "B"):
            raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return rho


def mutual_information(rho: np.ndarray, d: int) -> float:
    """I(ρ) = S(ρ_A) + S(ρ_B) − S(ρ) in bits."""
    rho = _check_bipartite(rho, d)
    sA = von_neumann_entropy(partial_trace(rho, d, d, "B"))
    sB = von_neumann_entropy(partial_trace(rho, d, d, "A"))
    return sA + sB - von_neumann_entropy(rho)


def _contraction(rho: np.ndarray, d: int, side: str) -> np.ndarray:
    """ρ as a d²×d² matrix R with σ = W R and M = Gᵀ Rᵀ row by row.

    Row (x, x') of R pairs the measured side's indices, column (y, y') the
    other side's: R[(x, x'), (y, y')] = ⟨x y|ρ|x' y'⟩ for side A and
    ⟨y x|ρ|y' x'⟩ for side B.
    """
    rho4 = rho.reshape(d, d, d, d)
    perm = (0, 2, 1, 3) if side == "A" else (1, 3, 0, 2)
    return rho4.transpose(perm).reshape(d * d, d * d)


def _objective(R: np.ndarray, U: np.ndarray, gradient: bool = True):
    """f(U) = Σ_k p_k S(σ_k/p_k) for stacks of S bases U, shape (..., S, d, d).

    R, shape (..., d², d²), is one contraction per leading index (one per
    measured side).  Returns f, shape (..., S), from eigenvalues alone, and
    with ``gradient`` the descent direction Ω = A − A†,
    A = Σ_k U_k U_k† M_k, M_k = Tr_other[(1⊗G_k)ρ] with
    G_k = −log₂(σ_k/p_k): along any skew-Hermitian X,
    d/dt f(exp(tX)U) at t = 0 is Tr(XΩ), and −‖Ω‖² along Ω itself.
    """
    *batch, S, d, _ = U.shape
    cols = U.swapaxes(-1, -2)
    # W[..., s, k] = (U_k U_k†)ᵀ: the k-th projector, flattened to contract with R.
    W = cols.conj()[..., None] * cols[..., None, :]
    sigma = (W.reshape(*batch, S * d, d * d) @ R).reshape(*batch, S, d, d, d)
    sigma = (sigma + sigma.conj().swapaxes(-1, -2)) / 2
    lam, V = np.linalg.eigh(sigma) if gradient else (np.linalg.eigvalsh(sigma), None)
    lam = np.clip(lam, 0.0, None)
    p = np.einsum("...kii->...k", sigma).real[..., None]
    logs = np.log2(np.maximum(lam, P_UNDERFLOW) / np.maximum(p, P_UNDERFLOW))
    used = (lam > P_UNDERFLOW) & (p > P_UNDERFLOW)
    f = -np.where(used, lam * logs, 0.0).sum(axis=(-2, -1))
    if not gradient:
        return f, None
    g = np.where(p > P_UNDERFLOW, -logs, 0.0)
    G = (V * g[..., None, :]) @ V.conj().swapaxes(-1, -2)
    M = G.swapaxes(-1, -2).reshape(*batch, S * d, d * d) @ R.swapaxes(-1, -2)
    A = (W.swapaxes(-1, -2) @ M.reshape(*batch, S, d, d, d)).sum(axis=-3)
    return f, A - A.conj().swapaxes(-1, -2)


def conditional_entropy(
    rho: np.ndarray, d: int, basis: MeasurementBasis, side: str
) -> float:
    """Σ_k p_k S(ρ_{other|k}) for a projective measurement on ``side``."""
    rho = _check_bipartite(rho, d, (side,))
    basis.validate()
    f, _ = _objective(_contraction(rho, d, side), basis.vectors[None], gradient=False)
    return float(f[0])


def _exp_i(w: np.ndarray, V: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(i·t·H) for a stack of Hermitian H = V diag(w) V†, one t per matrix."""
    return (V * np.exp(1j * t[..., None, None] * w[..., None, :])) @ V.conj().swapaxes(-1, -2)


def _start_bases(d: int, cfg: OptimizerConfig, Rs: np.ndarray, rng) -> np.ndarray:
    """Per contraction in Rs, the ``cfg.starts`` best screened bases, slightly rotated.

    The candidates (the identity, the Fourier basis and Haar draws from one
    batched QR) and the rotations are drawn once for all sides; each side
    is scored alone.  The rotation matters: for Bell-diagonal states the
    identity and Fourier bases are exact critical points, where Ω = 0 and
    descent would never leave them.
    """
    n = max(SCREEN_DRAWS, cfg.starts)
    Z = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    Q, T = np.linalg.qr(Z)
    diag = np.diagonal(T, axis1=-2, axis2=-1)
    haar = Q * (diag / np.abs(diag))[:, None, :]
    candidates = np.concatenate([np.eye(d)[None], fourier_matrix(d)[None], haar])
    Z = rng.standard_normal((cfg.starts, d, d)) + 1j * rng.standard_normal((cfg.starts, d, d))
    w, V = np.linalg.eigh(Z + Z.conj().swapaxes(-1, -2))
    kick = _exp_i(w, V, np.full(cfg.starts, START_KICK))
    scores = [_objective(R, candidates, gradient=False)[0] for R in Rs]
    return np.stack([kick @ candidates[np.argsort(f, kind="stable")[: cfg.starts]] for f in scores])


def _optimize(rho: np.ndarray, d: int, sides, cfg: OptimizerConfig | None):
    """Steepest descent of f on U(d) along geodesics U ← exp(μΩ)U, all starts at once.

    The ``len(sides) × cfg.starts`` bases descend as one stack, and each
    start follows the trajectory it would alone.  It keeps its own step μ
    and takes a trial step only if it passes the Armijo test.  The next μ,
    whether or not the trial passed, minimizes the parabola through f, the
    slope −‖Ω‖² and the trial value, within [μ/10, 4μ]; a trial that gains
    at least the slope promises sets 4μ.  A start stops once μ‖Ω‖², the
    decrease a step can still promise, is at most ``cfg.f_tol``.  Returns
    (C, best basis, converged starts) per side.
    """
    cfg = cfg or OptimizerConfig()
    R = np.stack([_contraction(rho, d, side) for side in sides])
    U = _start_bases(d, cfg, R, np.random.default_rng(cfg.seed))
    f, omega = _objective(R, U)
    mu = np.ones(f.shape)
    done = np.zeros(f.shape, dtype=bool)
    for _ in range(cfg.max_iters):
        slope = np.sum(np.abs(omega) ** 2, axis=(-2, -1))
        done |= mu * slope <= cfg.f_tol
        if done.all():
            break
        w, V = np.linalg.eigh(-1j * omega)
        trial = _exp_i(w, V, mu) @ U
        f_trial, omega_trial = _objective(R, trial)
        # f_trial = f − μ‖Ω‖² + cμ² fixes the curvature c; the minimizer is ‖Ω‖²/2c.
        excess = f_trial - f + mu * slope
        with np.errstate(divide="ignore", invalid="ignore"):
            fit = np.where(excess > 0, mu * mu * slope / (2 * excess), 4 * mu)
        ok = ~done & (f_trial <= f - ARMIJO * mu * slope)
        U = np.where(ok[..., None, None], trial, U)
        f = np.where(ok, f_trial, f)
        omega = np.where(ok[..., None, None], omega_trial, omega)
        mu = np.where(done, mu, np.clip(fit, mu / 10, 4 * mu))
    return [
        (max(von_neumann_entropy(partial_trace(rho, d, d, side)) - float(f[s, b]), 0.0),
         MeasurementBasis(d, U[s, b]), int(done[s].sum()))
        for s, (side, b) in enumerate(zip(sides, np.argmin(f, axis=-1)))
    ]


def classical_correlation(
    rho: np.ndarray, d: int, side: str, cfg: OptimizerConfig | None = None
) -> tuple[float, MeasurementBasis]:
    """Max over measurement bases of S(ρ_other) − Σ p_k S(ρ_{other|k}).

    Deterministic for a fixed ``cfg.seed``; returns the best value found
    and the maximizing basis.
    """
    rho = _check_bipartite(rho, d, (side,))
    value, basis, _ = _optimize(rho, d, (side,), cfg)[0]
    return value, basis


def discord_sides(
    rho: np.ndarray, d: int, sides, cfg: OptimizerConfig | None = None
) -> list[DiscordResult]:
    """D = I − C per measured side in ``sides``, all sides in one batched descent.

    Each side gets the result ``discord`` gives it alone.  |D| ≤ 1e−9 is
    clipped to exactly 0, and C is then reported as I so that D = I − C
    holds exactly in the result.
    """
    rho = _check_bipartite(rho, d, sides)
    info = mutual_information(rho, d)
    results = []
    for side, (value, basis, converged) in zip(sides, _optimize(rho, d, sides, cfg)):
        dval = info - value
        if abs(dval) <= ZERO_CLIP:
            dval, value = 0.0, info
        results.append(DiscordResult(side, info, value, dval, basis, converged))
    return results


def discord(
    rho: np.ndarray, d: int, side: str, cfg: OptimizerConfig | None = None
) -> DiscordResult:
    """D = I − C for one measured side; see ``discord_sides``."""
    return discord_sides(rho, d, (side,), cfg)[0]

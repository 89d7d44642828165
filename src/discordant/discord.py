"""Numeric discord oracle.

Mutual information, measurement-conditioned entropies, classical
correlation C (the supremum of extracted information over rank-1
projective measurements on one side) and discord D = I − C, all in bits.
ρ is made an array and its shape checked, by ``linalg._array``, where it is
first sliced: by ``partial_trace`` for I's marginals and by
:func:`~discordant.blocks.extract_blocks`, which alone checks the measured side.

One optimizer serves every d.  A measurement is the column basis of a
unitary U, and C = S(ρ_other) − min_U f(U) with f(U) = Σ_k p_k S(σ_k/p_k)
the entropy left after measuring.  A stack of bases is scored at once:
one contraction gives every conditional state σ_k, one batched
eigendecomposition gives f and its closed-form Riemannian gradient on
U(d).  A seeded screen picks the starts: the identity, the Fourier basis
and ``SCREEN_DRAWS`` Haar bases that the seed picks from a table of twice
as many, drawn by one batched LAPACK QR once per d and kept with their
projectors.  It scores every candidate against both measured sides in one
contraction, from closed-form eigenvalues at d = 2 and 3, which are
accurate enough to rank candidates but not to report a value: every
returned number comes from LAPACK.  Steepest descent along the geodesics
U ← exp(μΩ)U (Abrudan, Eriksson & Koivunen, IEEE TSP 2008) refines them
together, both measured sides in one stack.
Each step length μ is the minimizer of a parabola fitted to the last
trial (Nocedal & Wright, Numerical Optimization, §3.5).
Computing discord is NP-complete (Huang, NJP 16, 033027, 2014), so the
search keeps several starts and stays heuristic: every
returned C is an achieved value, hence a certified lower bound on the
supremum, and D a certified upper bound on the discord.  Zero/nonzero
verdicts should rely on d ∈ {2, 3}, where start coverage is dense.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .blocks import extract_blocks
from .errors import DimensionError, InvalidMeasurement, InvalidSpec
from .linalg import (_array, _read_only, _require_finite, _require_integer, fourier_matrix,
                     _sequence, partial_trace, random_unitary, von_neumann_entropy)
from .serialize import encode_complex_matrix

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
#: Descent steps allowed per start.
MAX_ITERS = 2000
#: A start has converged once it can promise no decrease of more than this, in bits.
F_TOL = 1e-14


@dataclass(frozen=True)
class MeasurementBasis:
    """Orthonormal basis of C^d; column k of ``vectors`` is the k-th vector."""

    d: int
    vectors: np.ndarray

    def __post_init__(self):
        _require_integer(self.d, "d", 1)
        object.__setattr__(self, "vectors", _array(self.vectors, "vectors", shape=(self.d,) * 2))

    def validate(self) -> None:
        if not np.isfinite(self.vectors).all():
            raise InvalidMeasurement("basis vectors must be finite")
        gram = self.vectors.conj().T @ self.vectors
        if np.abs(gram - np.eye(self.d)).max() > 1e-10:
            raise InvalidMeasurement("basis vectors are not orthonormal")


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budget of the classical-correlation optimizer.

    ``starts`` descents run side by side, each for at most ``MAX_ITERS``
    steps, from candidates screened with ``seed``; there are
    ``SCREEN_DRAWS`` + 2 candidates, so at most that many starts; seed ≥ 0.
    A field that is not such an integer raises :class:`InvalidSpec`.
    """

    starts: int = 24
    seed: int = 0

    def __post_init__(self):
        _require_integer(self.starts, "starts", 1, SCREEN_DRAWS + 2)
        _require_integer(self.seed, "seed", 0)


def _config(cfg) -> OptimizerConfig:
    """``cfg``, or ``OptimizerConfig()`` for None: the rule for a ``cfg`` argument, which
    raises :class:`InvalidSpec` for anything else."""
    if cfg is None:
        return OptimizerConfig()
    if not isinstance(cfg, OptimizerConfig):
        raise InvalidSpec(f"cfg must be an OptimizerConfig or None, got {type(cfg).__name__}")
    return cfg


@dataclass
class DiscordResult:
    """Mutual information, classical correlation and discord for one side.

    ``starts_converged`` counts the optimizer starts that reached
    ``F_TOL`` within ``MAX_ITERS`` steps.
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
            "basis": encode_complex_matrix(self.best_measurement.vectors.T),  # row k: vector k
            "starts_converged": self.starts_converged,
        }


def _information(rho: np.ndarray, d: int) -> tuple[float, dict]:
    """I(ρ) in bits and, keyed by measured side, the entropy of the other side's marginal.

    ``partial_trace(…, side)`` traces ``side`` out and leaves the other one.
    """
    _require_integer(d, "d", 1)  # ahead of partial_trace, which would name it dA
    other = {side: von_neumann_entropy(partial_trace(rho, d, d, side)) for side in ("A", "B")}
    return other["B"] + other["A"] - von_neumann_entropy(rho), other


def mutual_information(rho: np.ndarray, d: int) -> float:
    """I(ρ) = S(ρ_A) + S(ρ_B) − S(ρ) in bits."""
    return _information(rho, d)[0]


def _contraction(rho: np.ndarray, d: int, side: str) -> np.ndarray:
    """ρ as a d²×d² matrix R with σ = W R and M = Gᵀ Rᵀ row by row.

    R is the side's block grid turned inside out: row (x, x') pairs the
    measured side's indices, column (y, y') the other side's, and
    R[(x, x'), (y, y')] = B_yy'[x, x'] with B from :func:`extract_blocks`.
    """
    return extract_blocks(rho, d, side).transpose(2, 3, 0, 1).reshape(d * d, d * d)


def _small_eigvalsh(H: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of Hermitian matrices, shape (..., d, d).

    Closed forms at d = 2 (m ± hypot((a − b)/2, |x|)) and at d = 3 (the
    trigonometric Cardano form: Smith, Comm. ACM 4, 168, 1961; Kopp,
    Int. J. Mod. Phys. C 19, 523, 2008), ``np.linalg.eigvalsh`` above.
    Per-matrix LAPACK overhead dominates a stack of tiny matrices; the
    closed forms avoid it.  At d = 3 a near-degenerate pair is resolved
    only to about 1e-8·‖H‖: its splitting goes as √(1 − r), and rounding
    moves r by ~1e-16.
    """
    d = H.shape[-1]
    if d == 2:
        a, b = H[..., 0, 0].real, H[..., 1, 1].real
        m, r = (a + b) / 2, np.hypot((a - b) / 2, np.abs(H[..., 0, 1]))
        return np.stack([m - r, m + r], axis=-1)
    if d != 3:
        return np.linalg.eigvalsh(H)
    a0, a1, a2 = (H[..., k, k].real for k in range(3))
    q = (a0 + a1 + a2) / 3
    a0, a1, a2 = a0 - q, a1 - q, a2 - q
    x, y, z = H[..., 0, 1], H[..., 0, 2], H[..., 1, 2]
    xx, yy, zz = (w.real ** 2 + w.imag ** 2 for w in (x, y, z))
    p = np.sqrt((a0 * a0 + a1 * a1 + a2 * a2 + 2 * (xx + yy + zz)) / 6)
    det = a0 * a1 * a2 + 2 * (x * z * y.conj()).real - a0 * zz - a1 * yy - a2 * xx
    # (H − q)/p has eigenvalues 2cos(φ + 2πj/3) with cos 3φ = det((H − q)/p)/2.
    # Dividing by p one factor at a time: p³ itself underflows for p < 1e-103.
    s = np.where(p > 0, p, 1.0)
    phi = np.arccos(np.clip(det / (2 * s) / s / s, -1.0, 1.0)) / 3
    top = q + 2 * p * np.cos(phi)
    bottom = q + 2 * p * np.cos(phi + 2 * np.pi / 3)
    middle = np.minimum(np.maximum(3 * q - top - bottom, bottom), top)
    return np.stack([bottom, middle, top], axis=-1)


def _projectors(U: np.ndarray) -> np.ndarray:
    """Projector rows of stacks of bases U, shape (..., S, d, d) → (..., S, d, d, d).

    Row [..., s, k] is (U_k U_k†)ᵀ for column k of basis s, laid out to
    contract with the R of :func:`_contraction`.
    """
    cols = U.swapaxes(-1, -2)
    return cols.conj()[..., None] * cols[..., None, :]


def _objective(R: np.ndarray, U: np.ndarray, gradient: bool = True):
    """f(U) = Σ_k p_k S(σ_k/p_k) for stacks of S bases U, shape (..., S, d, d).

    See :func:`_scores`, which takes the bases' projector rows.
    """
    return _scores(R, _projectors(U), gradient)


def _scores(R: np.ndarray, W: np.ndarray, gradient: bool = True):
    """f = Σ_k p_k S(σ_k/p_k) for stacks of S bases given by their projector rows W.

    W, shape (..., S, d, d, d), comes from :func:`_projectors`.  R, shape
    (..., d², d²), is one contraction per measured side.  The leading shapes
    of W and R broadcast: the screen scores one stack of candidates against
    both sides in one product.  σ_k is used as the contraction leaves it,
    Hermitian to rounding: ``eigh`` reads its lower triangle and
    ``_small_eigvalsh`` its upper one, and p_k its real diagonal.  Returns
    f, shape (..., S), and with ``gradient`` the descent direction
    Ω = A − A†, A = Σ_k U_k U_k† M_k, M_k = Tr_other[(1⊗G_k)ρ] with
    G_k = −log₂(σ_k/p_k): along any skew-Hermitian X,
    d/dt f(exp(tX)U) at t = 0 is Tr(XΩ), and −‖Ω‖² along Ω itself.

    Without ``gradient``, f comes from ``_small_eigvalsh``, accurate enough
    to rank candidates but not to report a value: at d = 3 a near-degenerate
    σ_k can shift f by ~1e-7 bits.  Callers that return f use ``gradient``.
    """
    *own, S, d, _, _ = W.shape
    batch = np.broadcast_shapes(tuple(own), R.shape[:-2])
    sigma = (W.reshape(*own, S * d, d * d) @ R).reshape(*batch, S, d, d, d)
    lam, V = np.linalg.eigh(sigma) if gradient else (_small_eigvalsh(sigma), None)
    lam = np.maximum(lam, 0.0)
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
    basis.validate()
    if basis.d != d:
        raise DimensionError(f"expected a basis of dimension {d}, got {basis.d}")
    R = _contraction(rho, d, side)
    _require_finite(R)  # R holds every entry of ρ
    f, _ = _objective(R, basis.vectors[None])
    return float(f[0])


def _exp_i(w: np.ndarray, V: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(i·t·H) for a stack of Hermitian H = V diag(w) V†, one t per matrix."""
    return (V * np.exp(1j * t[..., None, None] * w[..., None, :])) @ V.conj().swapaxes(-1, -2)


@functools.cache
def _screen_table(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The screen's candidate bases and their projector rows (cached, read-only).

    The identity and the Fourier basis head 2·``SCREEN_DRAWS`` Haar draws,
    one batched ``random_unitary`` QR seeded by d, so the same at every call.
    """
    haar = random_unitary(d, np.random.default_rng(d), 2 * SCREEN_DRAWS)
    candidates = np.concatenate([np.eye(d, dtype=complex)[None], fourier_matrix(d)[None], haar])
    return _read_only(candidates), _read_only(_projectors(candidates))


def _start_bases(d: int, cfg: OptimizerConfig, Rs: np.ndarray, rng) -> np.ndarray:
    """Per contraction in Rs, the ``cfg.starts`` best screened bases, slightly rotated.

    The candidates, the identity, the Fourier basis and ``SCREEN_DRAWS``
    distinct Haar bases that ``rng`` picks from ``_screen_table``, and the
    rotations are drawn once for all sides.  One product of the candidates'
    cached projector rows scores every candidate against every side, from
    ``_scores``' eigenvalue-only branch; each side then keeps its own best
    ``cfg.starts``, in stable order.  The rotation matters: for
    Bell-diagonal states the identity and Fourier bases are exact critical
    points, where Ω = 0 and descent would never leave them.

    The table is built by the first call at each d and kept: its rows take
    (2·``SCREEN_DRAWS`` + 2)·d³·16 bytes, 0.22 MB at d = 3, 18 MB at
    d = 13 and 267 MB at d = 32 (``MAX_DIMENSION``), and each call gathers
    the half it scores.
    """
    table, rows = _screen_table(d)
    haar = 2 + rng.choice(2 * SCREEN_DRAWS, SCREEN_DRAWS, replace=False)
    picked = np.concatenate([[0, 1], haar])
    Z = rng.standard_normal((cfg.starts, d, d)) + 1j * rng.standard_normal((cfg.starts, d, d))
    w, V = np.linalg.eigh(Z + Z.conj().swapaxes(-1, -2))
    kick = _exp_i(w, V, np.full(cfg.starts, START_KICK))
    scores, _ = _scores(Rs, rows[picked][None], gradient=False)
    best = picked[np.argsort(scores, axis=-1, kind="stable")[:, : cfg.starts]]
    return kick @ table[best]


def _optimize(rho: np.ndarray, d: int, sides, cfg: OptimizerConfig):
    """Steepest descent of f on U(d) along geodesics U ← exp(μΩ)U, all starts at once.

    The ``len(sides) × cfg.starts`` bases descend as one stack, and each
    start follows the trajectory it would alone.  It keeps its own step μ
    and takes a trial step only if it passes the Armijo test.  The next μ,
    whether or not the trial passed, minimizes the parabola through f, the
    slope −‖Ω‖² and the trial value, within [μ/10, 4μ]; a trial that gains
    at least the slope promises sets 4μ.  A start stops once μ‖Ω‖², the
    decrease a step can still promise, is at most ``F_TOL``.  Returns
    (min f, best basis, converged starts) per side.
    """
    R = np.stack([_contraction(rho, d, side) for side in sides])
    U = _start_bases(d, cfg, R, np.random.default_rng(cfg.seed))
    f, omega = _objective(R, U)
    mu = np.ones(f.shape)
    done = np.zeros(f.shape, dtype=bool)
    for it in range(MAX_ITERS + 1):
        slope = (omega.real ** 2 + omega.imag ** 2).sum(axis=(-2, -1))
        done |= mu * slope <= F_TOL
        if done.all() or it == MAX_ITERS:  # the last pass only tests the last step
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
        mu = np.where(done, mu, np.minimum(np.maximum(fit, mu / 10), 4 * mu))
    return [
        (float(f[s, b]), MeasurementBasis(d, U[s, b]), int(done[s].sum()))
        for s, b in enumerate(np.argmin(f, axis=-1))
    ]


def discord_sides(
    rho: np.ndarray, d: int, sides, cfg: OptimizerConfig | None = None
) -> list[DiscordResult]:
    """D = I − C per measured side in ``sides``, all sides in one batched descent.

    Each side gets the result ``discord`` gives it alone.  |D| ≤ 1e−9 is
    clipped to exactly 0, and C is then reported as I so that D = I − C
    holds exactly in the result.  No side gives no result.  ``cfg`` goes
    through :func:`_config`.
    """
    cfg = _config(cfg)
    if not len(_sequence(sides, "sides")):
        return []
    info, other = _information(rho, d)
    results = []
    for side, (f, basis, converged) in zip(sides, _optimize(rho, d, sides, cfg)):
        value = max(other[side] - f, 0.0)
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

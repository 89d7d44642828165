"""Random-family generators, controlled perturbations, and batch suites.

The suites cross-check the two independent zero-discord routes against
each other on freshly generated families: closed-form checkers against
the general block-commutation test, and both against the numeric
measurement-optimization oracle.  They power the ``verify`` command and
the acceptance tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .blocks import (
    _chunks,
    bell_zero_discord_check,
    circulant_theorem_check,
    generate_zero_discord,
    is_prime,
    structural_verdicts,
)
from .discord import OptimizerConfig, discord
from .errors import PrimeRequired
from .states import CirculantSpec, bell_diagonal_state, circulant_state, orthogonal_invariant_state

#: Numeric discord at or below this confirms a structural zero verdict.
NUMERIC_ZERO_TOL = 1e-6
#: Numeric discord at or above this confirms a structural nonzero verdict.
NUMERIC_NONZERO_TOL = 1e-5

PERTURBATION_KINDS = ("modulus", "diagonal", "phase")


def random_psd(d: int, rng: np.random.Generator) -> np.ndarray:
    """Dense random positive definite matrix G·G† + 0.05·I (complex Gaussian G)."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return G @ G.conj().T + 0.05 * np.eye(d)


def random_phases(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random phase angles with the first pinned to 0."""
    phi = rng.uniform(-np.pi, np.pi, size=d)
    phi[0] = 0.0
    return phi


def random_zero_discord_spec(
    d: int, side: str, rng: np.random.Generator
) -> CirculantSpec:
    """Random valid circulant spec with vanishing discord on ``side``."""
    return generate_zero_discord(random_psd(d, rng), random_phases(d, rng), side)


def perturb_spec(
    spec: CirculantSpec,
    kind: str,
    epsilon: float,
    rng: np.random.Generator,
) -> CirculantSpec:
    """Break a zero-discord family while keeping the sector matrices valid.

    ``modulus`` shrinks the off-diagonal of one sector by (1−ε);
    ``diagonal`` bumps one sector's (0,0) entry by ε/d² and renormalizes;
    ``phase`` conjugates one sector by a diagonal unitary with angles of
    magnitude ε (unabsorbable for odd d; falls back to ``modulus`` at
    d = 2 where single-sector phases are always absorbable).
    """
    if kind not in PERTURBATION_KINDS:
        raise ValueError(f"kind must be one of {PERTURBATION_KINDS}, got {kind!r}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    d = spec.d
    a = spec.a.copy()
    if kind == "phase" and d == 2:
        kind = "modulus"
    if kind == "modulus":
        k = int(rng.integers(0, d))
        a[k] = (1 - epsilon) * a[k] + epsilon * np.diag(np.diag(a[k]))
    elif kind == "diagonal":
        k = int(rng.integers(0, d))
        bump = epsilon / d**2
        a[k, 0, 0] += bump
        a /= 1 + bump
    else:
        k = int(rng.integers(1, d))
        g = rng.standard_normal(d)
        g -= g[0]
        peak = np.abs(g).max()
        if peak <= 1e-12:
            g = np.arange(d, dtype=float)
            peak = float(d - 1)
        w = np.exp(1j * epsilon * g / peak)
        a[k] = w[:, None] * a[k] * w.conj()[None, :]
    return CirculantSpec(d, a)


def random_classical_bell(
    d: int, alpha: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Weights p[m, n] = π_{(m+nα) mod d} for a random π summing to 1/d."""
    pi = rng.dirichlet(np.ones(d)) / d
    m, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return pi[(m + n * alpha) % d], pi


def random_nonclassical_bell(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random weight matrix whose residue classes all spread by more than 0.02."""
    while True:
        p = rng.dirichlet(np.ones(d * d)).reshape(d, d)
        if not bell_zero_discord_check(p, tol=0.02).zero_discord:
            return p


@dataclass
class SuiteResult:
    """Pass/fail tally of one verification suite."""

    name: str
    passed: int = 0
    failed: int = 0
    skipped: bool = False
    details: list = field(default_factory=list)

    def record(self, ok: bool, detail: str = "") -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if detail:
                self.details.append(detail)

    def to_json(self) -> dict:
        return asdict(self)


def _draw(d: int, t: int, rng: np.random.Generator, perturbed: bool, low: float = 0.02):
    """Draw ``t`` of a suite: (side, spec, kind), the side A for even ``t``, else B.

    With ``perturbed`` the zero-discord spec is broken by the ``t``-th kind
    with ε ~ U[low, 0.15); otherwise ``kind`` is None.
    """
    side = "AB"[t % 2]
    spec = random_zero_discord_spec(d, side, rng)
    kind = None
    if perturbed:
        kind = PERTURBATION_KINDS[t % len(PERTURBATION_KINDS)]
        spec = perturb_spec(spec, kind, float(rng.uniform(low, 0.15)), rng)
    return side, spec, kind


def _theorem_and_general(d: int, draws: int, rng, tol: float, perturbed):
    """(t, closed-form zero, general zero) per draw t, one stacked general call per chunk.

    A chunk's draws make the rng calls that draws one at a time make, in order.
    Their states are not re-validated: :func:`generate_zero_discord` and
    :func:`perturb_spec` make valid specs by construction, as the tests pin.
    """
    for chunk in _chunks(d, draws):
        drawn = [_draw(d, t, rng, perturbed(t)) for t in chunk]
        rhos = [circulant_state(spec, validate=False) for _, spec, _ in drawn]
        general = structural_verdicts(rhos, d, [side for side, _, _ in drawn], tol)
        for t, (side, spec, _), verdict in zip(chunk, drawn, general):
            yield t, circulant_theorem_check(spec, side, tol).zero_discord, verdict.zero_discord


def run_verify(
    d: int,
    seed: int = 0,
    tol: float = 1e-9,
    draws: int = 20,
    starts: int = 24,
) -> tuple[list[SuiteResult], bool]:
    """Run the cross-check suites for one prime dimension.

    Suites: generator/checker closure, closed-form vs general-criterion
    equivalence (on valid and perturbed families), Bell weight-space
    classification, perturbation sensitivity, and (for d < 5) numeric
    agreement on a small subsample.
    """
    if not is_prime(d):
        raise PrimeRequired(f"verification suites require a prime dimension, got d={d}")
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")
    # made here so that a bad ``starts`` is rejected at every d, not only
    # where the numeric suite runs
    cfg = OptimizerConfig(starts=starts, seed=seed)
    root = np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(s) for s in root.spawn(5)]
    results = []

    suite = SuiteResult("generator-checker-closure")
    for t, theorem, general in _theorem_and_general(d, draws, rngs[0], tol, lambda t: False):
        suite.record(theorem and general, f"draw {t}: theorem={theorem} general={general}")
    results.append(suite)

    suite = SuiteResult("criterion-equivalence")
    for t, theorem, general in _theorem_and_general(d, draws, rngs[1], tol, lambda t: t % 2 == 1):
        suite.record(theorem == general, f"draw {t}: theorem={theorem} general={general}")
    results.append(suite)

    suite = SuiteResult("bell-classification")
    for chunk in _chunks(d, draws):  # even draws are classical on the line alpha = t // 2 mod d
        weights = [random_nonclassical_bell(d, rngs[2]) if t % 2
                   else random_classical_bell(d, t // 2 % d, rngs[2])[0] for t in chunk]
        rhos = [circulant_state(bell_diagonal_state(p), validate=False)
                for t, p in zip(chunk, weights) if t % 2 == 0]
        general = structural_verdicts([rho for rho in rhos for _ in "AB"], d, "AB" * len(rhos), tol)
        pairs = zip(general[::2], general[1::2])  # sides A and B of each classical draw
        for t, p in zip(chunk, weights):
            zero = bell_zero_discord_check(p, tol).zero_discord
            if t % 2:
                suite.record(not zero, f"draw {t}: random weights accepted")
            else:
                a, b = next(pairs)
                ok = zero and a.zero_discord and b.zero_discord
                suite.record(ok, f"draw {t}: classical alpha={t // 2 % d} verdict={zero}")
    results.append(suite)

    suite = SuiteResult("perturbation-sensitivity")
    for t in range(draws):
        side, spec, kind = _draw(d, t, rngs[3], perturbed=True)
        verdict = circulant_theorem_check(spec, side, tol)
        suite.record(
            not verdict.zero_discord and verdict.witness is not None,
            f"draw {t}: kind={kind} verdict={verdict.zero_discord}",
        )
    results.append(suite)

    suite = SuiteResult("numeric-agreement", skipped=d >= 5)
    for t in range(0 if suite.skipped else 6):
        side, spec, _ = _draw(d, t, rngs[4], perturbed=t >= 3, low=0.05)
        rho = circulant_state(spec, validate=False)
        dval = discord(rho, d, side, replace(cfg, seed=seed + t)).discord
        if t < 3:
            suite.record(dval <= NUMERIC_ZERO_TOL, f"draw {t}: D={dval:.2e} not ~0")
        else:
            suite.record(dval >= NUMERIC_NONZERO_TOL, f"draw {t}: D={dval:.2e} not >0")
    results.append(suite)

    all_pass = all(r.failed == 0 for r in results)
    return results, all_pass


def o2_simplex_rows(
    grid: int = 101,
    every: int = 10,
    tol: float = 1e-9,
    seed: int = 0,
    starts: int = 24,
):
    """Rows of the d=2 orthogonal-invariant simplex scan.

    Yields dicts over the (b, c) grid (a = 1−b−c ≥ 0): separability flag
    (b, c ≤ 1/2), zero-discord flag (b = c within tol), and — every
    ``every``-th emitted point — the numeric discord.
    """
    if grid < 1 or every < 0:
        raise ValueError(f"need grid ≥ 1 and every ≥ 0 (0 = never), got {grid} and {every}")
    values = np.linspace(0.0, 1.0, grid)
    cfg = OptimizerConfig(starts=starts, seed=seed)
    emitted = 0
    for b in values:
        for c in values:
            a = 1.0 - b - c
            if a < -1e-12:
                continue
            a = max(a, 0.0)
            row = {
                "b": float(b),
                "c": float(c),
                "separable": int(b <= 0.5 + 1e-12 and c <= 0.5 + 1e-12),
                "zero_discord": int(abs(b - c) <= tol),
                "numeric_discord": None,
            }
            if every > 0 and emitted % every == 0:
                rho = orthogonal_invariant_state((a, float(b), float(c)), 2)
                row["numeric_discord"] = discord(rho, 2, "A", cfg).discord
            emitted += 1
            yield row

"""The analysis pipeline, random-family generators, perturbations and batch suites.

:func:`analyze` sets the structural routes against the numeric oracle on
one state.  The suites cross-check the two zero-discord routes against
each other on freshly generated families: closed-form checkers against
the general block-commutation test, and both against the numeric
measurement-optimization oracle.  There a structural zero must read
``agree`` under :func:`analyze`'s outcome rule, and a perturbed draw fails
only at D = 0: its D is an upper bound, so a small one is no evidence
against the nonzero, but D = 0 says the optimizer reached a measurement
of discord ≤ ``ZERO_CLIP``.  They power the ``verify`` command and the
acceptance tests.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .blocks import (
    DEFAULT_TOL,
    _bell_labels,
    _bell_spreads,
    _bell_verdicts,
    _chunks,
    _completely_classical,
    _theorem_verdicts,
    _zero_discord_stacks,
    bell_zero_discord_check,
    circulant_necessary_conditions,
    generate_zero_discord,
    is_prime,
    structural_verdicts,
)
from .discord import OptimizerConfig, _config, discord, discord_sides
from .errors import InvalidSpec, PrimeRequired
from .linalg import _require_generator, _require_integer, _require_real, _sequence
from .serialize import LoadedState
from .states import (
    CirculantSpec,
    _bell_sectors,
    _dense_states,
    _require_dimension,
    orthogonal_invariant_state,
    project_circulant,
)

#: Numeric discord at or below this confirms a structural zero verdict.
NUMERIC_ZERO_TOL = 1e-6
#: Numeric discord at or above this confirms a structural nonzero verdict.
NUMERIC_NONZERO_TOL = 1e-5
#: ``analyze`` outcomes, from best to worst.
_OUTCOMES = ("agree", "inconclusive", "disagree")

PERTURBATION_KINDS = ("modulus", "diagonal", "phase")
#: Largest simplex ``grid``: ``simplex`` holds all grid·(grid + 1)/2 rows in memory.
MAX_GRID = 1001
#: Every line of a nonclassical Bell draw spreads by more than this (4/d² where smaller).
_NONCLASSICAL_SPREAD = 0.02


def _outcome(zero: bool, dval: float) -> str:
    """How one side's numeric D bears on its structural verdict.

    Only a structural zero can be contradicted: the reported D is an upper
    bound on the discord, so a small D may be a tiny true discord or an
    optimizer short of the optimum, and is inconclusive.  A structural zero
    with D in the gap between the numeric thresholds is inconclusive too,
    and a NaN D agrees with no verdict.
    """
    if zero:
        if dval <= NUMERIC_ZERO_TOL:
            return "agree"
        return "inconclusive" if dval <= NUMERIC_NONZERO_TOL else "disagree"
    return "agree" if dval >= NUMERIC_NONZERO_TOL else "inconclusive"


def analyze(state: LoadedState, sides: list, tol: float, cfg: OptimizerConfig | None) -> dict:
    """The ``analyze`` report: every structural route that applies to ``state``, each side's
    numeric D judged against its general-criterion verdict, and the worst side's outcome.
    An empty or repeated side list raises :class:`InvalidSpec`; ``cfg`` goes through
    :func:`~discordant.discord._config`."""
    sides = list(_sequence(sides, "sides"))
    if not sides or len(set(sides)) < len(sides):
        raise InvalidSpec(f"sides must name each analyzed side once, got {sides}")
    d, cfg = state.d, _config(cfg)
    spec = state.spec if state.spec is not None else project_circulant(state.rho, d)

    report: dict = {
        "kind": state.kind,
        "d": d,
        "sides": sides,
        "tolerances": {
            "structural": tol,
            "numeric_zero": NUMERIC_ZERO_TOL,
            "numeric_nonzero": NUMERIC_NONZERO_TOL,
        },
        "seed": cfg.seed,
        "structural": {},
        "numeric": {},
        "circulant_theorem": None,
        "necessary_conditions": None,
        "completely_classical": None,
        "bell_theorem": None,
    }

    structural = structural_verdicts([state.rho] * len(sides), d, sides, tol)
    report["structural"] = {side: verdict.to_json() for side, verdict in zip(sides, structural)}

    if isinstance(spec, CirculantSpec) and is_prime(d):
        # both sides in one stack: the only φ fit, which complete classicality reuses
        theorem = _theorem_verdicts(np.stack([spec.a, spec.a]), "AB", tol)
        report["circulant_theorem"] = {side: theorem["AB".index(side)].to_json() for side in sides}
        report["necessary_conditions"] = {
            side: circulant_necessary_conditions(spec, side, tol) for side in sides
        }
        report["completely_classical"] = _completely_classical(spec, tol, theorem).to_json()
    if state.weights is not None and is_prime(d):
        report["bell_theorem"] = bell_zero_discord_check(state.weights, tol).to_json()

    outcome = "agree"
    for side, verdict, result in zip(sides, structural, discord_sides(state.rho, d, sides, cfg)):
        report["numeric"][side] = result.to_json()
        outcome = max(outcome, _outcome(verdict.zero_discord, result.discord), key=_OUTCOMES.index)
    report["outcome"] = outcome
    report["agreement"] = outcome != "disagree"
    return report


def _psd(G: np.ndarray) -> np.ndarray:
    """G·G† + 0.05·I for a matrix G or a stack of them, each product the one a lone G gets."""
    return G @ G.conj().swapaxes(-1, -2) + 0.05 * np.eye(G.shape[-1])


def random_psd(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random G·G† + 0.05·I, G complex Gaussian with its real part drawn first, in one call."""
    g = rng.standard_normal((2, d, d))
    return _psd(g[0] + 1j * g[1])


def random_phases(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random phase angles with the first pinned to 0."""
    phi = rng.uniform(-np.pi, np.pi, size=d)
    phi[0] = 0.0
    return phi


def random_zero_discord_spec(d: int, side: str, rng: np.random.Generator) -> CirculantSpec:
    """Random valid circulant spec with vanishing discord on ``side``, at prime d ≤ 32."""
    _require_dimension(d)
    _require_generator(rng)
    return generate_zero_discord(random_psd(d, rng), random_phases(d, rng), side)


def _perturbation(d: int, kind: str, rng: np.random.Generator) -> tuple:
    """The rng draws of one ``kind`` perturbation: (kind applied, sector k, angles g or None)."""
    if kind == "phase" and d == 2:
        kind = "modulus"
    if kind == "phase":
        return kind, int(rng.integers(1, d)), rng.standard_normal(d)
    return kind, int(rng.integers(0, d)), None


def _perturb(a: np.ndarray, kind: str, rows, epsilon, k, g=None) -> None:
    """Apply drawn perturbations of one ``kind`` to rows ``rows`` of an (n, d, d, d) stack, in place.

    Row rows[r] is perturbed by ε = epsilon[r] in its sector k[r], with the
    angles g[r] of an (m, d) stack for the phase kind: the (kind, k, g) of
    :func:`_perturbation`.  All the rows go in one broadcast, each bit for
    bit what it gets alone; :func:`perturb_spec` passes one row.
    """
    d = a.shape[-1]
    eps = np.asarray(epsilon, dtype=float)[:, None, None]
    sector = a[rows, k]
    if kind == "modulus":
        diagonal, at = np.zeros_like(sector), np.arange(d)
        diagonal[:, at, at] = sector[:, at, at]
        a[rows, k] = (1 - eps) * sector + eps * diagonal
    elif kind == "diagonal":
        bump = eps[:, 0, 0] / d**2
        a[rows, k, 0, 0] += bump
        a[rows] /= (1 + bump)[:, None, None, None]
    else:
        g = g - g[:, :1]
        peak = np.abs(g).max(axis=1)
        flat = peak <= 1e-12
        g[flat], peak[flat] = np.arange(d, dtype=float), d - 1
        w = np.exp(1j * eps[:, 0] * g / peak[:, None])
        a[rows, k] = w[:, :, None] * sector * w.conj()[:, None, :]


def perturb_spec(
    spec: CirculantSpec, kind: str, epsilon: float, rng: np.random.Generator
) -> CirculantSpec:
    """Break a zero-discord family while keeping the sector matrices valid.

    ``modulus`` shrinks the off-diagonal of one sector by (1−ε);
    ``diagonal`` bumps one sector's (0,0) entry by ε/d² and renormalizes;
    ``phase`` conjugates one sector by a diagonal unitary with angles of
    magnitude ε (unabsorbable for odd d; falls back to ``modulus`` at
    d = 2 where single-sector phases are always absorbable).  ε must be
    finite and positive, and at most 1 where the kind applied is ``modulus``.
    """
    if kind not in PERTURBATION_KINDS:
        raise InvalidSpec(f"kind must be one of {PERTURBATION_KINDS}, got {kind!r}")
    _require_real(epsilon, "epsilon", positive=True)
    if epsilon > 1 and (kind == "modulus" or kind == "phase" and spec.d == 2):
        raise InvalidSpec(f"a modulus epsilon must be at most 1, got {epsilon}")
    _require_generator(rng)
    a = spec.a[None].copy()
    kind, k, g = _perturbation(spec.d, kind, rng)
    _perturb(a, kind, [0], [epsilon], [k], None if g is None else g[None])
    return CirculantSpec(spec.d, a[0])


def random_classical_bell(
    d: int, alpha: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Weights p[m, n] = π_{(m+nα) mod d} for a random π summing to 1/d."""
    pi = rng.dirichlet(np.ones(d)) / d
    return pi[_bell_labels(d)[alpha % d]], pi


def random_nonclassical_bell(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random weight matrix in which every line has a residue class spread by more than
    min(0.02, 4/d²): the weights average 1/d², so 0.02 alone rejects almost every draw
    at d ≥ 23."""
    least = min(_NONCLASSICAL_SPREAD, 4 / d**2)
    while True:
        p = rng.dirichlet(np.ones(d * d)).reshape(d, d)
        if (_bell_spreads(p[None])[1] > least).all():
            return p


@dataclass
class SuiteResult:
    """Pass/fail tally of one verification suite."""

    name: str
    passed: int = 0
    failed: int = 0
    skipped: bool = False
    details: list = field(default_factory=list)

    def record(self, ok: bool, detail: str = "", *fields) -> None:
        """Count one draw; a failing one keeps ``detail``, filled in with ``fields`` by
        ``str.format`` if any are given, so a passing draw formats nothing."""
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if detail:
                self.details.append(detail.format(*fields) if fields else detail)

    def to_json(self) -> dict:
        return asdict(self)


def _draws(d: int, ts, rng: np.random.Generator, perturbed, low: float = 0.02):
    """Draws ``ts`` of a suite: (sides, a, kinds), side A for even t, else B.

    Draw t makes the rng calls of a lone draw, in order: the seed's
    Gaussian G, into its row of one (n, 2, d, d) buffer, the phases, into
    one (n, d) array, and, if ``perturbed(t)``, ε ~ U[low, 0.15) and those
    of the t-th kind's perturbation (kind None otherwise).  The sector
    stacks are then built in one (n, d, d, d) stack ``a`` by the core of
    :func:`generate_zero_discord`, unchecked, since G·G† + 0.05·I is a
    valid seed by construction, and :func:`_perturb` changes all the rows
    of each kind in one broadcast.  Row t is bit for bit the ``a`` of the
    spec :func:`random_zero_discord_spec` and :func:`perturb_spec` make
    from the same draws.  No :class:`CirculantSpec` is made.
    """
    G, phi = np.empty((len(ts), 2, d, d)), np.empty((len(ts), d))
    sides, kinds, cuts = [], [], {}
    for row, t in enumerate(ts):
        sides.append("AB"[t % 2])
        rng.standard_normal(out=G[row])
        phi[row] = random_phases(d, rng)
        kinds.append(PERTURBATION_KINDS[t % len(PERTURBATION_KINDS)] if perturbed(t) else None)
        if kinds[-1]:
            epsilon = rng.uniform(low, 0.15)
            kind, k, g = _perturbation(d, kinds[-1], rng)
            cuts.setdefault(kind, []).append((row, epsilon, k, g))
    a = _zero_discord_stacks(_psd(G[:, 0] + 1j * G[:, 1]), phi, sides)
    for kind, cut in cuts.items():
        rows, epsilon, k, g = zip(*cut)
        _perturb(a, kind, list(rows), epsilon, list(k), None if g[0] is None else np.array(g))
    return sides, a, kinds


def _theorem_and_general(d: int, draws: int, rng, tol: float, perturbed):
    """(t, closed-form zero, general zero) per draw t, both criteria decided per round.

    A round holds as many draws as one stack holds sector stacks (d³
    entries each), sides mixed.  :func:`_draws` makes them as one sector
    array, which goes as it is to one :func:`_theorem_verdicts` call; its
    dense states are built by one scatter per sub-chunk of as many as one
    stack of the general criterion holds, each decided by one
    :func:`structural_verdicts` call.  Neither the seeds nor the states
    are checked: :func:`generate_zero_discord` from a ``_psd`` seed and
    :func:`perturb_spec` make valid specs by construction, as the tests pin.
    """
    for chunk in _chunks(d**3, draws):
        sides, a, _ = _draws(d, chunk, rng, perturbed)
        theorem, general = _theorem_verdicts(a, sides, tol), []
        for sub in _chunks(d**4, len(chunk)):
            general += structural_verdicts(_dense_states(a[sub.start : sub.stop]), d,
                                           sides[sub.start : sub.stop], tol)
        for t, closed, verdict in zip(chunk, theorem, general):
            yield t, closed.zero_discord, verdict.zero_discord


def _bell_classification(d: int, draws: int, rng, tol: float) -> SuiteResult:
    """The Bell weight-space suite: odd draws must be rejected, even draws classical.

    A round holds as many draws as one stack holds sector stacks.  Its
    draws come from :func:`random_nonclassical_bell` and
    :func:`random_classical_bell`, whose weights are valid by construction,
    and go unchecked as one stack to one :func:`_bell_verdicts` call.  The
    classical draws' states (each the ``circulant_state(bell_diagonal_state(p))``
    of its weights) go on sides A and B, by :func:`_bell_sectors` and one
    scatter, to one :func:`structural_verdicts` call per sub-chunk of as
    many draws as one stack holds pairs of states (one draw if fewer).
    """
    suite = SuiteResult("bell-classification")
    for chunk in _chunks(d**3, draws):
        weights = np.array([random_nonclassical_bell(d, rng) if t % 2
                            else random_classical_bell(d, t // 2 % d, rng)[0] for t in chunk])
        sectors, general = _bell_sectors(weights[np.array(chunk) % 2 == 0]), []
        for sub in _chunks(2 * d**4, len(sectors)):  # each state on sides A and B
            rhos = _dense_states(np.repeat(sectors[sub.start : sub.stop], 2, axis=0))
            general += structural_verdicts(rhos, d, "AB" * len(sub), tol)
        pairs = zip(general[::2], general[1::2])  # sides A and B of each classical draw
        for t, verdict in zip(chunk, _bell_verdicts(weights, tol)):
            zero = verdict.zero_discord
            if t % 2:
                suite.record(not zero, "draw {}: random weights accepted", t)
            else:
                a, b = (v.zero_discord for v in next(pairs))
                suite.record(zero and a and b, "draw {}: classical alpha={} verdict={} "
                             "general A={} B={}", t, t // 2 % d, zero, a, b)
    return suite


def run_verify(d: int, seed: int = 0, tol: float = DEFAULT_TOL, draws: int = 20,
               starts: int = OptimizerConfig.starts) -> tuple[list[SuiteResult], bool]:
    """Run the cross-check suites for one prime dimension d ≤ ``MAX_DIMENSION``.

    Suites: generator/checker closure, closed-form vs general-criterion
    equivalence (on valid and perturbed families), Bell weight-space
    classification, perturbation sensitivity, and (for d < 5) numeric
    agreement on a small subsample.  The structural suites go in rounds
    of as many draws as one stack holds sector stacks (d³ entries each),
    sides mixed: a round's draws become one (n, d, d, d) sector array,
    each kind's perturbed rows changed in one broadcast (or one stack of
    Bell weights), which each closed-form criterion decides in one call;
    only the general criterion's dense states are built, by one scatter
    per sub-chunk of as many as one of its stacks holds.  The report, and
    the generator states, are those a draw-at-a-time run gives.  A draw's
    detail is formatted only when it fails.  A ``d``, ``draws``,
    ``starts`` or ``seed`` out of its integer bounds, or a non-finite
    ``tol``, raises :class:`InvalidSpec`.
    """
    _require_dimension(d)
    if not is_prime(d):
        raise PrimeRequired(f"verification suites require a prime dimension, got d={d}")
    _require_integer(draws, "draws", 1)
    _require_real(tol, "tol")
    # made here so that a bad ``starts`` is rejected at every d, not only
    # where the numeric suite runs
    cfg = OptimizerConfig(starts=starts, seed=seed)
    root = np.random.SeedSequence(seed)
    rngs = [np.random.default_rng(s) for s in root.spawn(5)]
    results = []

    suite = SuiteResult("generator-checker-closure")
    for t, theorem, general in _theorem_and_general(d, draws, rngs[0], tol, lambda t: False):
        suite.record(theorem and general, "draw {}: theorem={} general={}", t, theorem, general)
    results.append(suite)

    suite = SuiteResult("criterion-equivalence")
    for t, theorem, general in _theorem_and_general(d, draws, rngs[1], tol, lambda t: t % 2 == 1):
        suite.record(theorem == general, "draw {}: theorem={} general={}", t, theorem, general)
    results.append(suite)

    results.append(_bell_classification(d, draws, rngs[2], tol))

    suite = SuiteResult("perturbation-sensitivity")
    for chunk in _chunks(d**3, draws):
        sides, a, kinds = _draws(d, chunk, rngs[3], lambda t: True)
        for t, kind, verdict in zip(chunk, kinds, _theorem_verdicts(a, sides, tol)):
            suite.record(not verdict.zero_discord and verdict.witness is not None,
                         "draw {}: kind={} verdict={}", t, kind, verdict.zero_discord)
    results.append(suite)

    suite = SuiteResult("numeric-agreement", skipped=d >= 5)
    if not suite.skipped:
        sides, a, _ = _draws(d, range(6), rngs[4], lambda t: t >= 3, low=0.05)
        for t, (side, rho) in enumerate(zip(sides, _dense_states(a))):
            dval = discord(rho, d, side, replace(cfg, seed=seed + t)).discord
            suite.record(_outcome(True, dval) == "agree" if t < 3 else dval > 0,
                         "draw {}: D={:.2e} {}", t, dval, "not ~0" if t < 3 else "not >0")
    results.append(suite)

    all_pass = all(r.failed == 0 for r in results)
    return results, all_pass


def o2_simplex_rows(
    grid: int = 101,
    every: int = 10,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
    starts: int = OptimizerConfig.starts,
):
    """Rows of the d=2 orthogonal-invariant simplex scan, as a lazy iterator.

    Its dicts run over the (b, c) grid (a = 1−b−c ≥ 0): separability flag
    (b, c ≤ 1/2), zero-discord flag (b = c within tol), and — every
    ``every``-th emitted point (0 = never) — the numeric discord.  An integer
    out of its bounds (1 ≤ grid ≤ ``MAX_GRID``, every ≥ 0, and those of
    :class:`OptimizerConfig`) or a non-finite ``tol`` raises :class:`InvalidSpec`
    at the call, before any row is asked for.
    """
    _require_integer(grid, "grid", 1, MAX_GRID)
    _require_integer(every, "every", 0)
    _require_real(tol, "tol")
    cfg = OptimizerConfig(starts=starts, seed=seed)
    values = np.linspace(0.0, 1.0, grid).tolist()
    points = ((b, c) for b in values for c in values if 1.0 - b - c >= -1e-12)
    return (_o2_row(b, c, tol, cfg, every > 0 and k % every == 0)
            for k, (b, c) in enumerate(points))


def _o2_row(b: float, c: float, tol: float, cfg: OptimizerConfig, numeric: bool) -> dict:
    """The :func:`o2_simplex_rows` row of (b, c), with the numeric discord if ``numeric``."""
    rho = orthogonal_invariant_state((max(1.0 - b - c, 0.0), b, c), 2) if numeric else None
    return {"b": b, "c": c, "separable": int(b <= 0.5 + 1e-12 and c <= 0.5 + 1e-12),
            "zero_discord": int(abs(b - c) <= tol),
            "numeric_discord": None if rho is None else discord(rho, 2, "A", cfg).discord}

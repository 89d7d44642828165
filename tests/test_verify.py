"""Cross-check suites and the d=2 simplex scan."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

from discordant import blocks, verify
from discordant.blocks import (
    bell_zero_discord_check,
    circulant_theorem_check,
    generate_zero_discord,
    structural_discord_zero,
)
from discordant.discord import OptimizerConfig
from discordant.errors import InvalidSpec, PrimeRequired
from discordant.serialize import parse_state
from discordant.states import (
    MAX_DIMENSION,
    BellWeights,
    _dense_states,
    bell_diagonal_state,
    validate_circulant_spec,
)
from discordant.verify import (
    PERTURBATION_KINDS,
    o2_simplex_rows,
    perturb_spec,
    random_classical_bell,
    random_nonclassical_bell,
    random_zero_discord_spec,
    run_verify,
)


PRIMES = (2, 3, 5, 7, 11, 13)


def test_random_zero_discord_spec_valid_and_zero():
    # verify builds its states from these specs without validating them again
    rng = np.random.default_rng(0)
    for d in PRIMES:
        for side in ("A", "B"):
            spec = random_zero_discord_spec(d, side, rng)
            validate_circulant_spec(spec)
            assert circulant_theorem_check(spec, side).zero_discord, (d, side)


def test_perturbations_stay_valid_and_break_zero():
    rng = np.random.default_rng(1)
    for epsilon in (0.02, 0.149):  # the ends of verify's ε ~ U[0.02, 0.15)
        for d in PRIMES:
            for side in ("A", "B"):
                for kind in PERTURBATION_KINDS:
                    spec = random_zero_discord_spec(d, side, rng)
                    pert = perturb_spec(spec, kind, epsilon, rng)
                    validate_circulant_spec(pert)
                    case = (epsilon, d, side, kind)
                    assert not circulant_theorem_check(pert, side).zero_discord, case


def test_perturb_epsilon_bounds():
    rng = np.random.default_rng(2)
    spec = random_zero_discord_spec(3, "A", rng)
    with pytest.raises(InvalidSpec, match="finite and positive"):
        perturb_spec(spec, "modulus", 0.0, rng)
    with pytest.raises(InvalidSpec, match="kind must be one of"):
        perturb_spec(spec, "wobble", 0.1, rng)


@pytest.mark.parametrize("kind", PERTURBATION_KINDS)
@pytest.mark.parametrize("d", [2, 3])
def test_perturb_rejects_epsilon_that_breaks_validity(d, kind):
    # ε = inf used to give non-finite entries for every kind, and a modulus ε
    # above 1 a sector with a negative eigenvalue (−0.43 at d = 3, ε = 5)
    rng = np.random.default_rng(5)
    spec = random_zero_discord_spec(d, "A", rng)
    for epsilon in (np.inf, np.nan):
        with pytest.raises(InvalidSpec, match="finite and positive"):
            perturb_spec(spec, kind, epsilon, rng)
    modulus = kind == "modulus" or (kind == "phase" and d == 2)  # the d = 2 fallback
    for epsilon in (1.0 + 1e-9, 5.0):
        if modulus:
            with pytest.raises(InvalidSpec, match="at most 1"):
                perturb_spec(spec, kind, epsilon, rng)
        else:
            validate_circulant_spec(perturb_spec(spec, kind, epsilon, rng))
    validate_circulant_spec(perturb_spec(spec, kind, 1.0, rng))


def test_random_bell_families():
    # the Bell suite decides these weights without checking them again
    for d in PRIMES:
        for seed in range(4):
            rng = np.random.default_rng(seed)
            for alpha in (-1, 0, 1, d):
                p, pi = random_classical_bell(d, alpha, rng)
                assert p.shape == (d, d)
                bell_diagonal_state(BellWeights(d, p))
                assert pi.sum() == pytest.approx(1 / d, abs=1e-12)
                q = random_nonclassical_bell(d, rng)
                assert q.shape == (d, d)
                bell_diagonal_state(BellWeights(d, q))


def test_nonclassical_bell_draws_return_at_large_d():
    # the weights average 1/d², so a fixed spread of 0.02 accepted no draw at
    # d = 29 or 31 and the generator never returned; here a draw must come
    # within 100 candidates, and the Bell test must reject it

    class Counted:
        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def dirichlet(self, alpha):
            self.calls += 1
            assert self.calls <= 100, "no candidate accepted"
            return self.rng.dirichlet(alpha)

    for d in (29, 31):
        for seed in (0, 1):
            p = random_nonclassical_bell(d, Counted(np.random.default_rng(seed)))
            assert _spread_exceeds(p, d, 4 / d**2)
            assert not bell_zero_discord_check(p).zero_discord


def test_run_verify_d2_passes():
    results, all_pass = run_verify(2, seed=7, draws=8, starts=12)
    assert all_pass
    names = [r.name for r in results]
    assert names == [
        "generator-checker-closure",
        "criterion-equivalence",
        "bell-classification",
        "perturbation-sensitivity",
        "numeric-agreement",
    ]
    for r in results:
        assert r.failed == 0
        assert not r.skipped


def test_run_verify_d5_skips_numeric():
    results, all_pass = run_verify(5, seed=7, draws=6)
    assert all_pass
    numeric = [r for r in results if r.name == "numeric-agreement"]
    assert numeric[0].skipped


@pytest.mark.parametrize("zero, dval, outcome", [
    (True, 0.0, "agree"),
    (True, 1e-6, "agree"),
    (True, np.nextafter(1e-6, 1), "inconclusive"),
    (True, 1e-5, "inconclusive"),
    (True, np.nextafter(1e-5, 1), "disagree"),
    (False, np.nextafter(1e-5, 0), "inconclusive"),
    (False, 1e-5, "agree"),
])
def test_outcome_rule_bands(zero, dval, outcome):
    # a structural zero is confirmed up to numeric_zero, contradicted only
    # above numeric_nonzero; a structural nonzero is confirmed from numeric_nonzero
    assert verify._outcome(zero, float(dval)) == outcome


def test_outcome_rule_never_agrees_on_nan():
    # a NaN D confirms no verdict: the numeric suite fails it on every draw
    assert verify._outcome(True, float("nan")) == "disagree"
    assert verify._outcome(False, float("nan")) == "inconclusive"


def test_numeric_agreement_suite_records_each_band(monkeypatch):
    # draws 0-2 are structural zeros and 3-5 perturbed; each draw's optimizer
    # seed is seed + t, so the stub hands draw t its D by the seed
    values = [1e-6, np.nextafter(1e-6, 1), 2e-5, 1e-5, np.nextafter(1e-5, 0), 0.0]
    monkeypatch.setattr(verify, "discord", lambda rho, d, side, cfg:
                        SimpleNamespace(discord=float(values[cfg.seed])))
    results, all_pass = run_verify(2, seed=0, draws=1, starts=2)
    suite = results[-1]
    assert not all_pass and suite.name == "numeric-agreement"
    assert (suite.passed, suite.failed) == (3, 3)
    assert suite.details == [
        "draw 1: D=1.00e-06 not ~0",
        "draw 2: D=2.00e-05 not ~0",
        "draw 5: D=0.00e+00 not >0",
    ]


@pytest.mark.parametrize("d, seed", [(2, 27), (3, 41)])
def test_a_perturbed_draw_of_small_discord_passes(d, seed, monkeypatch):
    # draw 5's D lies between the numeric thresholds, which analyze reads as inconclusive;
    # the suite used to fail it, so verify exited 1 on a correct program
    found, numeric = [], verify.discord
    monkeypatch.setattr(verify, "discord", lambda *args: found.append(numeric(*args)) or found[-1])
    results, all_pass = run_verify(d, seed=seed, draws=1, starts=2)
    assert 0 < found[5].discord < verify.NUMERIC_NONZERO_TOL
    assert all_pass and (results[-1].passed, results[-1].failed) == (6, 0)


@pytest.mark.parametrize("d", [7, 11, 13])
def test_run_verify_large_d_passes(d):
    results, all_pass = run_verify(d, seed=7, draws=2)
    assert all_pass
    for r in results:
        if r.name == "numeric-agreement":
            assert r.skipped and r.passed == r.failed == 0
        else:
            assert not r.skipped and (r.passed, r.failed) == (2, 0), r.name


@pytest.mark.parametrize("d", PRIMES)
def test_stacked_draws_keep_draw_order(d, monkeypatch):
    # one-state stacks, the default stacks and one stack for everything give
    # the same report, and each criterion sees the same states, specs and
    # weights in the same order, bit for bit; at a negative tolerance closure
    # and Bell draws fail, so their details count too
    failures = 0
    for tol in (1e-9, -1.0):
        for seed in range(3):
            reports, seen = [], []
            for chunk in (1, blocks._CHUNK_ENTRIES, 10**9):
                inputs = {"general": [], "theorem": [], "bell": []}

                def general(rhos, d, sides, tol):
                    inputs["general"] += [(np.asarray(r).tobytes(), s) for r, s in zip(rhos, sides)]
                    return blocks.structural_verdicts(rhos, d, sides, tol)

                def theorem(a, sides, tol):
                    inputs["theorem"] += [(row.tobytes(), s) for row, s in zip(a, sides)]
                    return blocks._theorem_verdicts(a, sides, tol)

                def bell(p, tol):
                    inputs["bell"] += [row.tobytes() for row in p]
                    return blocks._bell_verdicts(p, tol)

                with monkeypatch.context() as m:
                    m.setattr(blocks, "_CHUNK_ENTRIES", chunk)
                    m.setattr(verify, "structural_verdicts", general)
                    m.setattr(verify, "_theorem_verdicts", theorem)
                    m.setattr(verify, "_bell_verdicts", bell)
                    results, all_pass = run_verify(d, seed=seed, tol=tol, starts=2)
                reports.append(json.dumps([all_pass] + [r.to_json() for r in results]))
                seen.append(inputs)
            assert reports[0] == reports[1] == reports[2], (tol, seed)
            assert seen[0] == seen[1] == seen[2], (tol, seed)
            assert [len(seen[0][k]) for k in ("general", "theorem", "bell")] == [60, 60, 20]
            failures += sum(len(r.details) for r in results)
    assert failures >= 3 * 20  # every closure draw fails at tol = -1.0


def _bell_suite_by_draw(d, draws, rng, tol):
    """The Bell suite one draw at a time through the public generators and criteria."""
    suite, states = verify.SuiteResult("bell-classification"), []
    for t in range(draws):
        if t % 2:
            p = random_nonclassical_bell(d, rng)
            suite.record(not bell_zero_discord_check(p, tol).zero_discord,
                         f"draw {t}: random weights accepted")
            continue
        p = random_classical_bell(d, t // 2 % d, rng)[0]
        rho = _dense_states(bell_diagonal_state(p).a[None])[0]
        states.append(rho.tobytes())
        zero = bell_zero_discord_check(p, tol).zero_discord
        a, b = (structural_discord_zero(rho, d, side, tol).zero_discord for side in "AB")
        suite.record(zero and a and b,
                     f"draw {t}: classical alpha={t // 2 % d} verdict={zero} general A={a} B={b}")
    return suite, states


@pytest.mark.parametrize("d", PRIMES)
def test_bell_suite_equals_draw_by_draw_run(d, monkeypatch):
    # the stacked Bell suite gives the report, the states and the generator
    # state after the suite of a run that draws, builds and decides one draw
    # at a time; at d = 2, seed 13, random_nonclassical_bell rejects the
    # first candidates of draws 11 and 19 inside one chunk
    seed, draws = 13 if d == 2 else 0, 20
    rejected, states = [], []

    def spreads(p):
        classes, spread = blocks._bell_spreads(p)
        rejected.extend((spread <= verify._NONCLASSICAL_SPREAD).any(axis=1).tolist())
        return classes, spread

    def general(rhos, d, sides, tol):
        states.extend(np.asarray(r).tobytes() for r in rhos[::2])  # each state's side A
        return blocks.structural_verdicts(rhos, d, sides, tol)

    monkeypatch.setattr(verify, "_bell_spreads", spreads)
    monkeypatch.setattr(verify, "structural_verdicts", general)
    stream = np.random.SeedSequence(seed).spawn(5)[2]  # the Bell suite's stream in run_verify
    for tol in (1e-9, -1.0):
        stacked, lone = np.random.default_rng(stream), np.random.default_rng(stream)
        rejected.clear(), states.clear()
        suite = verify._bell_classification(d, draws, stacked, tol)
        assert sum(rejected) >= (d == 2), tol
        want, want_states = _bell_suite_by_draw(d, draws, lone, tol)
        assert suite.to_json() == want.to_json(), tol
        assert states == want_states, tol
        assert stacked.bit_generator.state == lone.bit_generator.state, tol

        rejected.clear()
        results, all_pass = run_verify(d, seed=seed, tol=tol, draws=draws, starts=2)
        assert sum(rejected) >= (d == 2), tol
        with monkeypatch.context() as m:
            m.setattr(verify, "_bell_classification", lambda *a: _bell_suite_by_draw(*a)[0])
            want, want_pass = run_verify(d, seed=seed, tol=tol, draws=draws, starts=2)
        assert [r.to_json() for r in results] == [r.to_json() for r in want], tol
        assert all_pass == want_pass == (tol > 0)


def _lone_zero_discord_spec(d, side, rng):
    """random_zero_discord_spec by its rng calls: a complex Gaussian seed, then the phases."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    phi = rng.uniform(-np.pi, np.pi, size=d)
    phi[0] = 0.0
    return generate_zero_discord(G @ G.conj().T + 0.05 * np.eye(d), phi, side)


def _lone_perturbation(spec, kind, epsilon, rng):
    """perturb_spec by its rng calls: the sector k, then (phase kind) the angles g."""
    d, a = spec.d, spec.a.copy()
    if kind == "phase" and d == 2:
        kind = "modulus"
    k = int(rng.integers(1, d)) if kind == "phase" else int(rng.integers(0, d))
    if kind == "modulus":
        a[k] = (1 - epsilon) * a[k] + epsilon * np.diag(np.diag(a[k]))
    elif kind == "diagonal":
        bump = epsilon / d**2
        a[k, 0, 0] += bump
        a /= 1 + bump
    else:
        g = rng.standard_normal(d)
        g = g - g[0]
        peak = np.abs(g).max()
        if peak <= 1e-12:
            g, peak = np.arange(d, dtype=float), float(d - 1)
        w = np.exp(1j * epsilon * g / peak)
        a[k] = w[:, None] * a[k] * w.conj()[None, :]
    return a


def _spread_exceeds(p, d, tol):
    """Whether every line's residue classes of p spread by more than tol."""
    m, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    lines = [(m + n * alpha) % d for alpha in range(d)] + [n]
    return all(max(np.ptp(p[labels == c]) for c in range(d)) > tol for labels in lines)


@pytest.mark.parametrize("d", PRIMES)
def test_public_generators_keep_rng_contract(d):
    # the generators the benchmark pools are built with return what their
    # rng calls, made one at a time, give, and leave the generator where
    # those calls leave it
    for seed in range(4):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for alpha in (0, 1, d + 1):
            p, pi = random_classical_bell(d, alpha, rng)
            want_pi = ref.dirichlet(np.ones(d)) / d
            m, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
            assert pi.tobytes() == want_pi.tobytes()
            assert p.tobytes() == want_pi[(m + n * alpha) % d].tobytes()
        for _ in range(3):
            while True:
                want = ref.dirichlet(np.ones(d * d)).reshape(d, d)
                if _spread_exceeds(want, d, 0.02):
                    break
            assert random_nonclassical_bell(d, rng).tobytes() == want.tobytes()
        for t, kind in enumerate(PERTURBATION_KINDS * 2):
            side, epsilon = "AB"[t % 2], 0.02 + 0.02 * t
            spec = random_zero_discord_spec(d, side, rng)
            want = _lone_zero_discord_spec(d, side, ref)
            assert spec.a.tobytes() == want.a.tobytes()
            got = perturb_spec(spec, kind, epsilon, rng)
            assert got.a.tobytes() == _lone_perturbation(want, kind, epsilon, ref).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state, seed


@pytest.mark.parametrize("d", [2, 3, 5, 13])
def test_gaussian_draws_both_parts_in_one_call(d):
    # random_psd's one (2, d, d) draw is the stream of a real d×d draw, then an imaginary one
    rng, ref = np.random.default_rng(40 + d), np.random.default_rng(40 + d)
    for _ in range(3):
        want = verify._psd(ref.standard_normal((d, d)) + 1j * ref.standard_normal((d, d)))
        assert verify.random_psd(d, rng).tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("d", PRIMES)
def test_stacked_draws_equal_lone_draws(d):
    # a stack of draws makes the rng calls of lone draws, in order, and each
    # row is bit for bit the spec random_zero_discord_spec and perturb_spec make
    patterns = {"none": lambda t: False, "odd": lambda t: t % 2 == 1, "all": lambda t: True}
    for name, perturbed in patterns.items():
        stacked_rng, lone_rng = np.random.default_rng(90 + d), np.random.default_rng(90 + d)
        sides, a, kinds = verify._draws(d, range(9), stacked_rng, perturbed, low=0.05)
        assert a.shape == (9, d, d, d)
        for t, (side, row, kind) in enumerate(zip(sides, a, kinds)):
            lone = random_zero_discord_spec(d, "AB"[t % 2], lone_rng)
            if perturbed(t):
                epsilon = float(lone_rng.uniform(0.05, 0.15))
                lone = perturb_spec(lone, PERTURBATION_KINDS[t % 3], epsilon, lone_rng)
            want = PERTURBATION_KINDS[t % 3] if perturbed(t) else None
            assert (side, kind) == ("AB"[t % 2], want)
            assert row.tobytes() == lone.a.tobytes(), (name, t)
        assert stacked_rng.bytes(16) == lone_rng.bytes(16), name


@pytest.mark.parametrize("d, count", [(5, 52), (7, 13)])
def test_full_chunks_of_draws_equal_lone_draws(d, count):
    # a whole chunk of the general criterion, as verify --d 5 and --d 7 draw it,
    # perturbed in one broadcast per kind, is row by row the lone draws' specs
    assert len(next(iter(blocks._chunks(d**4, 10**6)))) == count
    patterns = {"none": lambda t: False, "odd": lambda t: t % 2 == 1, "all": lambda t: True}
    for name, perturbed in patterns.items():
        stacked_rng, lone_rng = np.random.default_rng(95 + d), np.random.default_rng(95 + d)
        sides, a, kinds = verify._draws(d, range(count), stacked_rng, perturbed)
        for t, row in enumerate(a):
            lone = random_zero_discord_spec(d, "AB"[t % 2], lone_rng)
            if perturbed(t):
                epsilon = float(lone_rng.uniform(0.02, 0.15))
                lone = perturb_spec(lone, PERTURBATION_KINDS[t % 3], epsilon, lone_rng)
            assert row.tobytes() == lone.a.tobytes(), (name, t)
        assert stacked_rng.bit_generator.state == lone_rng.bit_generator.state, name


def _stack_spies(monkeypatch, seen):
    """Record (name, items, entries per item) of each stack verify hands its stages.

    A round's draws count d³ entries each, Bell weights included, since each
    stands for a sector stack; a dense stack counts its distinct states, so a
    Bell state on sides A and B is one item of d⁴ entries.
    """
    def states(x):
        return 1 if len(x) == 2 and np.array_equal(x[0], x[1]) else len(x)

    counts = {
        "_draws": lambda d, ts, *_: (len(ts), d**3),
        "_theorem_verdicts": lambda a, *_: (len(a), a.shape[-1] ** 3),
        "_bell_verdicts": lambda p, *_: (len(p), p.shape[-1] ** 3),
        "_dense_states": lambda a: (states(a), a.shape[-1] ** 4),
        "structural_verdicts": lambda rhos, d, *_: (states(rhos), d**4),
    }
    for name, count in counts.items():
        def spy(*args, _f=getattr(verify, name), _name=name, _count=count):
            seen.append((_name, *_count(*args)))
            return _f(*args)

        monkeypatch.setattr(verify, name, spy)


@pytest.mark.parametrize("d", [5, 7, 11, 13])
def test_rounds_and_dense_sub_chunks_keep_to_the_budget(d, monkeypatch):
    # at a budget of 4·d³ entries each 20-draw suite takes five rounds of 4 draws,
    # and the general criterion one state per stack; every stack holds at most the
    # budget or one item, and the report is the default budget's (at d < 5 the
    # numeric suite's six draws would go as one stack, so it is left out here)
    default, seen = run_verify(d, seed=4, starts=2), []
    budget = 4 * d**3
    with monkeypatch.context() as m:
        m.setattr(blocks, "_CHUNK_ENTRIES", budget)
        _stack_spies(m, seen)
        patched = run_verify(d, seed=4, starts=2)
    assert json.dumps([r.to_json() for r in patched[0]]) == json.dumps(
        [r.to_json() for r in default[0]])
    assert patched[1] == default[1]
    names = [name for name, _, _ in seen]
    assert names.count("_draws") == names.count("_theorem_verdicts") == 15
    assert names.count("_bell_verdicts") == 5
    assert names.count("_dense_states") == names.count("structural_verdicts") == 50
    for name, items, entries in seen:
        assert items * entries <= budget or items == 1, (name, items)


@pytest.mark.parametrize("d, draws", [(5, 80), (7, 22), (11, 4), (13, 2)])
def test_benchmark_items_take_one_round_per_suite(d, draws, monkeypatch):
    # at the verify-large-d benchmark's draw counts and the default budget, each
    # suite draws its sectors and decides its closed form in one call, and only
    # the dense states go in stacks of the general criterion's size
    seen = []
    _stack_spies(monkeypatch, seen)
    run_verify(d, seed=4, draws=draws, starts=2)
    names = [name for name, _, _ in seen]
    assert names.count("_draws") == names.count("_theorem_verdicts") == 3
    assert names.count("_bell_verdicts") == 1
    for name, items, entries in seen:
        assert items * entries <= blocks._CHUNK_ENTRIES or items == 1, (name, items)


class _Drawn(np.random.Generator):
    """A Generator whose ``integers`` draws ``k`` and ``standard_normal`` a copy of ``g``."""

    def __init__(self, k, g):
        super().__init__(np.random.PCG64())
        self.k, self.g = k, g

    def integers(self, lo, hi):
        return self.k

    def standard_normal(self, size):
        return self.g.copy()


def test_flat_phase_angles_fall_back_alike_stacked_and_alone():
    # angles with g − g[0] within 1e-12 of 0 fall back to 0 … d − 1; no rng draw
    # reaches that branch, so a stub generator hands each call its sector and angles
    d, rng = 5, np.random.default_rng(70)
    specs = [random_zero_discord_spec(d, "AB"[t % 2], rng) for t in range(4)]
    angles = [np.full(d, 0.3), rng.standard_normal(d), 1e-13 * np.arange(d) - 1.0,
              rng.standard_normal(d)]
    sectors, epsilons = [1, 2, 3, 4], [0.02, 0.05, 0.1, 0.149]
    a = np.array([spec.a for spec in specs])
    verify._perturb(a, "phase", range(4), epsilons, sectors, np.array(angles))
    for row, spec, g, k, epsilon in zip(a, specs, angles, sectors, epsilons):
        def stub():
            return _Drawn(k, g)
        want = perturb_spec(spec, "phase", epsilon, stub())
        assert row.tobytes() == want.a.tobytes()
        assert row.tobytes() == _lone_perturbation(spec, "phase", epsilon, stub()).tobytes()


def test_run_verify_requires_prime():
    with pytest.raises(PrimeRequired):
        run_verify(4)


def test_run_verify_deterministic():
    r1, _ = run_verify(3, seed=11, draws=4, starts=8)
    r2, _ = run_verify(3, seed=11, draws=4, starts=8)
    assert [x.to_json() for x in r1] == [y.to_json() for y in r2]


def test_simplex_rows_small_grid():
    rows = list(o2_simplex_rows(grid=11, every=5, tol=1e-9, seed=0))
    # grid points with b + c ≤ 1: 11+10+…+1 = 66
    assert len(rows) == 66
    sampled = [r for r in rows if r["numeric_discord"] is not None]
    assert len(sampled) == 14  # every 5th emitted point
    first = rows[0]
    assert first["b"] == 0.0 and first["c"] == 0.0
    assert first["separable"] == 1 and first["zero_discord"] == 1
    assert first["numeric_discord"] == pytest.approx(0.0, abs=1e-9)
    # vertex (1, 0) is entangled
    vertex = [r for r in rows if r["b"] == 1.0 and r["c"] == 0.0]
    assert vertex[0]["separable"] == 0 and vertex[0]["zero_discord"] == 0
    # flags follow their closed forms everywhere
    for r in rows:
        assert r["separable"] == int(r["b"] <= 0.5 + 1e-12 and r["c"] <= 0.5 + 1e-12)
        assert r["zero_discord"] == int(abs(r["b"] - r["c"]) <= 1e-9)


def test_simplex_rows_reject_non_finite_tol():
    with pytest.raises(ValueError, match="tol must be finite"):
        next(o2_simplex_rows(grid=3, every=0, tol=float("nan")))


def test_simplex_rows_checks_its_arguments_at_the_call():
    # these used to return a generator that raised only at its first next()
    with pytest.raises(InvalidSpec, match="1 ≤ grid ≤ 1001"):
        o2_simplex_rows(grid=0)
    with pytest.raises(InvalidSpec, match="tol must be finite"):
        o2_simplex_rows(grid=3, every=0, tol=float("nan"))


def test_simplex_numeric_agrees_with_flags():
    rows = [r for r in o2_simplex_rows(grid=11, every=3, seed=0)
            if r["numeric_discord"] is not None]
    for r in rows:
        if r["zero_discord"]:
            assert r["numeric_discord"] <= 1e-6
        elif abs(r["b"] - r["c"]) >= 0.05:
            assert r["numeric_discord"] >= 1e-5


def test_zero_starts_rejected_by_library():
    # starts=0 used to be replaced by 24 starts without a word
    with pytest.raises(ValueError):
        run_verify(3, draws=1, starts=0)
    # and at d ≥ 5, where the numeric suite is skipped, it used to pass
    with pytest.raises(ValueError, match="1 ≤ starts ≤ 256"):
        run_verify(5, draws=1, starts=0)
    with pytest.raises(ValueError):
        list(o2_simplex_rows(grid=3, starts=0))


def test_empty_library_runs_rejected():
    # each of these used to pass, or yield nothing, without a single draw
    for draws in (0, -2):
        with pytest.raises(ValueError):
            run_verify(3, draws=draws)
    with pytest.raises(ValueError):
        list(o2_simplex_rows(grid=0))
    with pytest.raises(ValueError):
        list(o2_simplex_rows(grid=3, every=-1))
    for grid in (1002, 10**15):
        with pytest.raises(ValueError, match="1 ≤ grid ≤ 1001"):
            next(o2_simplex_rows(grid=grid, every=0))


def test_bool_counts_rejected_by_library():
    # draws=True ran one draw per suite and grid=True, every=False yielded one row
    with pytest.raises(InvalidSpec, match="draws ≥ 1"):
        run_verify(3, draws=True)
    for kwargs, named in (({"grid": True}, "1 ≤ grid ≤ 1001"),
                          ({"grid": 3, "every": False}, "every ≥ 0"),
                          ({"grid": True, "every": False}, "1 ≤ grid ≤ 1001")):
        with pytest.raises(InvalidSpec, match=named):
            list(o2_simplex_rows(**kwargs))
    # a fractional count escaped as a TypeError from range or np.linspace, and every=2.5
    # ran with a fractional stride; a float of integral value is no count either
    for draws in (2.5, 2.0):
        with pytest.raises(InvalidSpec, match="draws ≥ 1"):
            run_verify(3, draws=draws)
    for kwargs, named in (({"grid": 2.5}, "1 ≤ grid ≤ 1001"),
                          ({"grid": 3, "every": 2.5}, "every ≥ 0"),
                          ({"grid": 3.0, "every": 0}, "1 ≤ grid ≤ 1001")):
        with pytest.raises(InvalidSpec, match=named):
            list(o2_simplex_rows(**kwargs))
    assert len(list(o2_simplex_rows(grid=np.int64(2), every=np.int64(0)))) == 3


@pytest.mark.parametrize("d", [0, 33, 1000003, 2305843009213693951, 5.0, True])
def test_run_verify_rejects_dimensions_out_of_range(d, monkeypatch):
    # d = 1000003 raised MemoryError and 2⁶¹ − 1 hung in is_prime's trial division
    monkeypatch.setattr(verify, "is_prime", None)  # a call would raise TypeError
    with pytest.raises(InvalidSpec, match=f"2 ≤ d ≤ {MAX_DIMENSION}"):
        run_verify(d, draws=1)


def test_analyze_rejects_side_lists_it_cannot_report():
    # an empty list reported "agree" with nothing decided, a repeated side was
    # listed twice over one numeric key, and a string was stored as given
    state = parse_state({"kind": "werner", "d": 2, "lambda": 0.2})
    cfg = OptimizerConfig(starts=1)
    for sides in ([], "", ["A", "A"], "BB"):
        with pytest.raises(InvalidSpec, match="once"):
            verify.analyze(state, sides, 1e-9, cfg)
    report = verify.analyze(state, "AB", 1e-9, cfg)
    assert report["sides"] == ["A", "B"]
    assert json.dumps(report) == json.dumps(verify.analyze(state, ["A", "B"], 1e-9, cfg))

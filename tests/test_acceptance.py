"""Acceptance gate: eight pinned criteria, one test per criterion.

Each test prints one PASS/FAIL line and enforces fixed tolerances and,
where stated, a wall-clock budget.  Seeds are fixed so every run checks
the same states.
"""

import time

import numpy as np

from discordant.blocks import (
    bell_zero_discord_check,
    circulant_theorem_check,
    completely_classical_check,
    generate_zero_discord,
    structural_discord_zero,
)
from discordant.discord import OptimizerConfig, discord
from discordant.linalg import partial_trace
from discordant.states import (
    BellWeights,
    CirculantSpec,
    bell_diagonal_state,
    circulant_state,
    isotropic_state,
    max_entangled_projector,
    werner_state,
)
from discordant.verify import (
    o2_simplex_rows,
    perturb_spec,
    random_nonclassical_bell,
    random_zero_discord_spec,
)

NUMERIC_ZERO = 1e-6
NUMERIC_NONZERO = 1e-5

CFG2 = OptimizerConfig(seed=0)
CFG3 = OptimizerConfig(starts=8, seed=0)


def _cfg(d):
    return CFG2 if d == 2 else CFG3


def _report(num, name, failures, elapsed, budget=None):
    ok = not failures and (budget is None or elapsed < budget)
    status = "PASS" if ok else "FAIL"
    budget_note = f", budget {budget:.0f}s" if budget else ""
    print(f"[criterion-{num}] {name}: {status} ({elapsed:.1f}s{budget_note})")
    assert not failures, f"criterion {num} ({name}): {failures[:5]}"
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {num} ({name}): runtime {elapsed:.1f}s over budget {budget}s"
        )


def x_spec(a00, a11, b00, b11, a01, b01):
    a = np.array([[a00, a01], [np.conj(a01), a11]], dtype=complex)
    b = np.array([[b00, b01], [np.conj(b01), b11]], dtype=complex)
    return CirculantSpec(2, (a, b))


def test_criterion_1_werner_isotropic_classification():
    t0 = time.monotonic()
    failures = []
    for name, build in (("werner", werner_state), ("isotropic", isotropic_state)):
        for d in (2, 3):
            for lam in (0.0, 0.2):
                rho = circulant_state(build(d, lam))
                want_zero = lam == 0.0
                for side in ("A", "B"):
                    got = structural_discord_zero(rho, d, side).zero_discord
                    if got != want_zero:
                        failures.append((name, d, lam, side, "structural", got))
                D = discord(rho, d, "A", _cfg(d)).discord
                if want_zero and D > NUMERIC_ZERO:
                    failures.append((name, d, lam, "numeric-zero", D))
                if not want_zero and D < 1e-4:
                    failures.append((name, d, lam, "numeric-nonzero", D))
    _report(1, "werner-isotropic classification", failures, time.monotonic() - t0, 30)


def _draw_x_states(rng, count):
    """(spec, conditions_hold) pairs covering zero, partly-broken and generic."""
    draws = []
    third = count // 3
    for t in range(count):
        if t < third:  # exactly on the three-condition manifold
            p, q = rng.dirichlet([3.0, 3.0]) / 2
            r = rng.uniform(0.1, 0.95) * np.sqrt(p * q)
            th1, th2 = rng.uniform(-np.pi, np.pi, 2)
            spec = x_spec(p, q, q, p, r * np.exp(1j * th1), r * np.exp(1j * th2))
        elif t < 2 * third:  # break exactly one condition by ≥ 1e−3
            which = t % 3
            diag = rng.dirichlet([4.0] * 4)
            while diag.min() < 0.05:
                diag = rng.dirichlet([4.0] * 4)
            delta = rng.uniform(1e-3, 0.05)
            if which == 0:  # a00 ≠ b11
                a00, a11 = diag[3] + delta, diag[2]
                b00, b11 = diag[2], diag[3]
            elif which == 1:  # a11 ≠ b00
                a00, a11 = diag[3], diag[2] + delta
                b00, b11 = diag[2], diag[3]
            else:
                a00, a11, b00, b11 = diag[3], diag[2], diag[2], diag[3]
            scale = a00 + a11 + b00 + b11
            a00, a11, b00, b11 = a00 / scale, a11 / scale, b00 / scale, b11 / scale
            cap = 0.9 * min(np.sqrt(a00 * a11), np.sqrt(b00 * b11))
            ra = rb = rng.uniform(0.02, cap)
            if which == 2:  # |a01| ≠ |b01|
                ra = max(rb - rng.uniform(1e-3, rb / 2), 1e-4)
            th1, th2 = rng.uniform(-np.pi, np.pi, 2)
            spec = x_spec(
                a00, a11, b00, b11, ra * np.exp(1j * th1), rb * np.exp(1j * th2)
            )
        else:  # generic: all conditions broken by ≥ 1e−3
            while True:
                diag = rng.dirichlet([4.0] * 4)
                a00, a11, b00, b11 = diag
                if (
                    diag.min() >= 0.05
                    and abs(a00 - b11) >= 1e-3
                    and abs(a11 - b00) >= 1e-3
                ):
                    break
            ra = rng.uniform(0.3, 0.9) * np.sqrt(a00 * a11)
            rb = rng.uniform(0.3, 0.9) * np.sqrt(b00 * b11)
            while abs(ra - rb) < 1e-3:
                rb = rng.uniform(0.3, 0.9) * np.sqrt(b00 * b11)
            th1, th2 = rng.uniform(-np.pi, np.pi, 2)
            spec = x_spec(
                a00, a11, b00, b11, ra * np.exp(1j * th1), rb * np.exp(1j * th2)
            )
        a, b = spec.a
        conditions = (
            abs(a[0, 0] - b[1, 1]) <= 1e-12
            and abs(a[1, 1] - b[0, 0]) <= 1e-12
            and abs(abs(a[0, 1]) - abs(b[0, 1])) <= 1e-12
        )
        draws.append((spec, conditions))
    return draws


def test_criterion_2_x_state_conditions():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    failures = []
    for i, (spec, conditions) in enumerate(_draw_x_states(rng, 1000)):
        rho = circulant_state(spec)
        verdict = structural_discord_zero(rho, 2, "A").zero_discord
        if verdict != conditions:
            failures.append((i, "structural-vs-conditions", verdict, conditions))

    # numeric sign agreement on decisively-placed states
    for _ in range(8):
        p, q = rng.dirichlet([3.0, 3.0]) / 2
        r = rng.uniform(0.1, 0.95) * np.sqrt(p * q)
        th = rng.uniform(-np.pi, np.pi)
        spec = x_spec(p, q, q, p, r * np.exp(1j * th), r)
        D = discord(circulant_state(spec), 2, "A", CFG2).discord
        if D > NUMERIC_ZERO:
            failures.append(("numeric-zero", D))
    for _ in range(8):
        delta = rng.uniform(0.05, 0.12)
        b11, b00 = np.maximum(rng.dirichlet([3.0, 3.0]) / 2, 0.08)
        diag = np.array([b11 + delta, b00, b00, b11])
        diag /= diag.sum()
        a00, a11, b00, b11 = diag
        r = 0.8 * min(np.sqrt(a00 * a11), np.sqrt(b00 * b11))
        spec = x_spec(a00, a11, b00, b11, r, r)
        D = discord(circulant_state(spec), 2, "A", CFG2).discord
        if D < NUMERIC_NONZERO:
            failures.append(("numeric-nonzero", D))
    _report(2, "x-state three conditions", failures, time.monotonic() - t0, 60)


def test_criterion_3_circulant_iff_both_sides():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    kinds = ("modulus", "diagonal", "phase")
    failures = []
    numeric_jobs = []
    for d in (2, 3, 5):
        for side in ("A", "B"):
            for i in range(200):
                spec = random_zero_discord_spec(d, side, rng)
                verdict = circulant_theorem_check(spec, side)
                rho = circulant_state(spec)
                general = structural_discord_zero(rho, d, side)
                if not (verdict.zero_discord and general.zero_discord):
                    failures.append((d, side, i, "generated-not-zero"))
                pert = perturb_spec(
                    spec, kinds[i % 3], rng.uniform(0.02, 0.15), rng
                )
                pverdict = circulant_theorem_check(pert, side)
                pgeneral = structural_discord_zero(circulant_state(pert), d, side)
                if pverdict.zero_discord or pverdict.witness is None:
                    failures.append((d, side, i, "perturbed-passed-theorem"))
                if pgeneral.zero_discord or pgeneral.witness is None:
                    failures.append((d, side, i, "perturbed-passed-general"))
            if d in (2, 3):
                for j in range(5):
                    numeric_jobs.append(
                        (d, side, random_zero_discord_spec(d, side, rng), True)
                    )
                    strong = perturb_spec(
                        random_zero_discord_spec(d, side, rng),
                        kinds[j % 3],
                        rng.uniform(0.05, 0.15),
                        rng,
                    )
                    numeric_jobs.append((d, side, strong, False))
    for d, side, spec, want_zero in numeric_jobs:
        D = discord(circulant_state(spec), d, side, _cfg(d)).discord
        if want_zero and D > NUMERIC_ZERO:
            failures.append((d, side, "numeric-zero", D))
        if not want_zero and D < NUMERIC_NONZERO:
            failures.append((d, side, "numeric-nonzero", D))
    _report(3, "circulant iff, both sides", failures, time.monotonic() - t0, 300)


def _classical_family(d, rng):
    m = 0.9 / (d * d * (d - 1))
    a0 = np.eye(d, dtype=complex) / d**2
    for i in range(d):
        for j in range(i + 1, d):
            a0[i, j] = m * np.exp(1j * rng.uniform(-np.pi, np.pi))
            a0[j, i] = np.conj(a0[i, j])
    phi = np.concatenate([[0.0], rng.uniform(-np.pi, np.pi, d - 1)])
    return generate_zero_discord(a0, phi, "A")


def test_criterion_4_complete_classicality():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    failures = []
    for d in (2, 3):
        for rep in range(3):
            spec = _classical_family(d, rng)
            if not completely_classical_check(spec).zero_discord:
                failures.append((d, rep, "classical-rejected"))
            rho = circulant_state(spec)
            for side in ("A", "B"):
                D = discord(rho, d, side, _cfg(d)).discord
                if D > NUMERIC_ZERO:
                    failures.append((d, rep, side, "numeric-zero", D))

            mats = [m.copy() for m in spec.a]
            mats[0][0, 0] += 0.01
            total = sum(np.trace(m).real for m in mats)
            broken = CirculantSpec(d, [m / total for m in mats])
            if completely_classical_check(broken).zero_discord:
                failures.append((d, rep, "broken-accepted"))
            rho_b = circulant_state(broken)
            for side in ("A", "B"):
                D = discord(rho_b, d, side, _cfg(d)).discord
                if D < NUMERIC_NONZERO:
                    failures.append((d, rep, side, "numeric-nonzero", D))
    _report(4, "complete classicality", failures, time.monotonic() - t0)


def test_criterion_5_bell_classification():
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    failures = []
    for d in (2, 3, 5):
        for alpha in range(d):
            for _ in range(3):
                pi = rng.dirichlet(np.ones(d)) / d
                while (
                    np.min(
                        np.abs(np.subtract.outer(pi, pi))[~np.eye(d, dtype=bool)]
                    )
                    < 1e-4
                ):
                    pi = rng.dirichlet(np.ones(d)) / d
                m, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
                p = pi[(m + n * alpha) % d]
                verdict = bell_zero_discord_check(p)
                if not verdict.zero_discord or verdict.alpha != alpha:
                    failures.append((d, alpha, "alpha-recovery", verdict.alpha))
                elif np.abs(np.asarray(verdict.pi) - pi).max() > 1e-12:
                    failures.append((d, alpha, "pi-recovery"))
                rho = circulant_state(bell_diagonal_state(BellWeights(d, p)))
                for side in ("A", "B"):
                    if not structural_discord_zero(rho, d, side).zero_discord:
                        failures.append((d, alpha, side, "structural"))
        # degenerate uniform case resolves to the smallest α
        uniform = bell_zero_discord_check(np.full((d, d), 1 / d**2))
        if not uniform.zero_discord or uniform.alpha != 0:
            failures.append((d, "uniform-smallest-alpha", uniform.alpha))

    per_d = {2: 34, 3: 33, 5: 33}
    for d, count in per_d.items():
        for _ in range(count):
            q = random_nonclassical_bell(d, rng)
            if bell_zero_discord_check(q).zero_discord:
                failures.append((d, "nonclassical-accepted"))

    for d in (2, 3):
        for _ in range(2):
            pi = rng.dirichlet(np.ones(d)) / d
            alpha = int(rng.integers(0, d))
            m, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
            rho = circulant_state(
                bell_diagonal_state(BellWeights(d, pi[(m + n * alpha) % d]))
            )
            D = discord(rho, d, "A", _cfg(d)).discord
            if D > NUMERIC_ZERO:
                failures.append((d, "numeric-zero", D))
        for _ in range(2):
            q = random_nonclassical_bell(d, rng)
            rho = circulant_state(bell_diagonal_state(BellWeights(d, q)))
            D = discord(rho, d, "A", _cfg(d)).discord
            if D < NUMERIC_NONZERO:
                failures.append((d, "numeric-nonzero", D))

    # the (d + 1)-th line: p[m, n] = π_n, from its own generator
    rng_n = np.random.default_rng(55)
    for d in (2, 3, 5):
        for rep in range(3):
            pi = rng_n.dirichlet(np.ones(d)) / d
            p = np.tile(pi, (d, 1))
            verdict = bell_zero_discord_check(p)
            if not verdict.zero_discord or verdict.line != "n" or verdict.alpha is not None:
                failures.append((d, "line-n-recovery", verdict.alpha, verdict.line))
            elif np.abs(np.asarray(verdict.pi) - pi).max() > 1e-12:
                failures.append((d, "line-n-pi-recovery"))
            rho = circulant_state(bell_diagonal_state(BellWeights(d, p)))
            for side in ("A", "B"):
                if not structural_discord_zero(rho, d, side).zero_discord:
                    failures.append((d, "line-n", side, "structural"))
            if d in (2, 3) and rep == 0:
                D = discord(rho, d, "A", _cfg(d)).discord
                if D > NUMERIC_ZERO:
                    failures.append((d, "line-n-numeric-zero", D))
    _report(5, "bell-diagonal classification", failures, time.monotonic() - t0, 120)


def test_criterion_6_pure_state_discord():
    t0 = time.monotonic()
    failures = []
    for d in (2, 3):
        res = discord(max_entangled_projector(d), d, "A", _cfg(d))
        if abs(res.mutual_information - 2 * np.log2(d)) > 1e-9:
            failures.append((d, "mutual-information", res.mutual_information))
        if abs(res.discord - np.log2(d)) > 1e-5:
            failures.append((d, "discord", res.discord))
    _report(6, "pure-state discord", failures, time.monotonic() - t0)


def test_criterion_7_o2_simplex():
    t0 = time.monotonic()
    failures = []
    count = sampled = 0
    for row in o2_simplex_rows(grid=101, every=10, tol=1e-9, seed=0):
        count += 1
        b, c = row["b"], row["c"]
        if row["zero_discord"] != int(abs(b - c) <= 1e-9):
            failures.append((b, c, "zero-flag"))
        if row["separable"] != int(b <= 0.5 + 1e-12 and c <= 0.5 + 1e-12):
            failures.append((b, c, "separable-flag"))
        D = row["numeric_discord"]
        if D is None:
            continue
        sampled += 1
        if abs(b - c) <= 1e-9 and D > NUMERIC_ZERO:
            failures.append((b, c, "numeric-zero", D))
        if abs(b - c) >= 0.05 and D < NUMERIC_NONZERO:
            failures.append((b, c, "numeric-nonzero", D))
    if count != 5151 or sampled != 516:
        failures.append(("coverage", count, sampled))
    _report(7, "O(2) simplex scan", failures, time.monotonic() - t0, 60)


def test_criterion_8_bell_marginal_symmetry():
    t0 = time.monotonic()
    rng = np.random.default_rng(8)
    failures = []
    for d in (2, 3):
        for rep in range(25):
            p = rng.dirichlet(np.ones(d * d)).reshape(d, d)
            rho = circulant_state(bell_diagonal_state(BellWeights(d, p)))
            for traced in ("A", "B"):
                marginal = partial_trace(rho, d, d, traced)
                if np.abs(marginal - np.eye(d) / d).max() > 1e-12:
                    failures.append((d, rep, traced, "marginal"))
            DA = discord(rho, d, "A", _cfg(d)).discord
            DB = discord(rho, d, "B", _cfg(d)).discord
            if abs(DA - DB) > 2e-6:
                failures.append((d, rep, "side-gap", DA, DB))
    _report(8, "bell marginal symmetry", failures, time.monotonic() - t0)

"""Block analysis: structural criteria, theorem checkers, decomposition."""

import dataclasses
import json

import numpy as np
import pytest

from discordant.blocks import (
    CRITERION_BELL,
    CRITERION_CIRCULANT,
    CRITERION_COMMUTATION,
    CRITERION_DIAGONAL,
    DEFAULT_TOL,
    DEGENERACY_GAP,
    REASSEMBLY_TOL,
    _fit_phases,
    _generic_weights,
    _shifts,
    bell_zero_discord_check,
    circulant_necessary_conditions,
    circulant_theorem_check,
    classical_decomposition,
    completely_classical_check,
    extract_blocks,
    generate_zero_discord,
    is_prime,
    phase_family,
    structural_discord_zero,
)
from discordant.discord import _fixed_candidates
from discordant.errors import DimensionError, InvalidSpec, PreconditionError, PrimeRequired
from discordant.linalg import fourier_matrix, random_unitary
from discordant.states import (
    ZERO_TOL,
    BellWeights,
    CirculantSpec,
    _sector_index,
    bell_diagonal_state,
    circulant_state,
    isotropic_state,
    werner_state,
)
from discordant.verify import (
    PERTURBATION_KINDS,
    perturb_spec,
    random_classical_bell,
    random_nonclassical_bell,
    random_phases,
    random_psd,
    random_zero_discord_spec,
)

from test_states import x_state_spec


def classical_x_spec(p=0.3, q=0.2, r=0.1, theta=0.7):
    """X-state satisfying the side-A zero-discord conditions exactly."""
    return x_state_spec(
        a00=p, a11=q, b00=q, b11=p, a01=r * np.exp(1j * theta), b01=r
    )


def test_is_prime():
    assert [n for n in range(2, 12) if is_prime(n)] == [2, 3, 5, 7, 11]
    assert not is_prime(1)


def test_extract_blocks_product_state():
    rng = np.random.default_rng(0)
    a = rng.random((2, 2)) + 1j * rng.random((2, 2))
    a = a @ a.conj().T
    a /= np.trace(a).real
    b = rng.random((2, 2)) + 1j * rng.random((2, 2))
    b = b @ b.conj().T
    b /= np.trace(b).real
    rho = np.kron(a, b)
    dec = extract_blocks(rho, 2, "B")
    # side-B blocks of a product state are a_{ij}·b
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(dec[i, j], a[i, j] * b, atol=1e-13)
    dec_a = extract_blocks(rho, 2, "A")
    for k in range(2):
        for l in range(2):
            np.testing.assert_allclose(dec_a[k, l], b[k, l] * a, atol=1e-13)


def test_extract_blocks_x_state_layout():
    rho = circulant_state(
        x_state_spec(0.4, 0.1, 0.3, 0.2, 0.05, 0.02j), validate=True
    )
    dec = extract_blocks(rho, 2, "A")
    np.testing.assert_allclose(dec[0, 0], np.diag([0.4, 0.2]), atol=0)
    np.testing.assert_allclose(dec[1, 1], np.diag([0.3, 0.1]), atol=0)
    np.testing.assert_allclose(
        dec[0, 1], np.array([[0, 0.05], [-0.02j, 0]]), atol=0
    )


def test_structural_zero_on_diagonal_state():
    rho = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
    for side in ("A", "B"):
        verdict = structural_discord_zero(rho, 2, side)
        assert verdict.zero_discord
        assert verdict.criterion == CRITERION_COMMUTATION
        assert verdict.witness is None


def test_structural_nonzero_on_werner():
    rho = circulant_state(werner_state(2, 0.5, validate=False), validate=False)
    for side in ("A", "B"):
        verdict = structural_discord_zero(rho, 2, side)
        assert not verdict.zero_discord
        assert verdict.witness is not None
        assert verdict.witness["kind"] == "off-diagonal-block"


def test_structural_x_state_three_conditions():
    # zero on side A exactly when a00=b11, a11=b00, |a01|=|b01|
    zero = circulant_state(classical_x_spec(), validate=True)
    assert structural_discord_zero(zero, 2, "A").zero_discord
    assert not structural_discord_zero(zero, 2, "B").zero_discord  # b00 ≠ a00 here

    broken_diag = circulant_state(
        x_state_spec(0.31, 0.2, 0.2, 0.29, 0.1, 0.1), validate=True
    )
    assert not structural_discord_zero(broken_diag, 2, "A").zero_discord

    broken_mod = circulant_state(
        x_state_spec(0.3, 0.2, 0.2, 0.3, 0.1, 0.05), validate=True
    )
    assert not structural_discord_zero(broken_mod, 2, "A").zero_discord


def _pairwise_oracle(rho, d, side, tol=1e-9):
    """Brute-force reference: every block normal and every pair commuting."""
    blocks = extract_blocks(rho, d, side).reshape(d * d, d, d)
    norms = [np.linalg.norm(B) for B in blocks]
    for B, nB in zip(blocks, norms):
        Bd = B.conj().T
        if np.linalg.norm(B @ Bd - Bd @ B) > tol * max(1.0, nB**2):
            return False
    for p in range(d * d):
        for q in range(p + 1, d * d):
            comm = blocks[p] @ blocks[q] - blocks[q] @ blocks[p]
            if np.linalg.norm(comm) > tol * max(1.0, norms[p] * norms[q]):
                return False
    return True


def _oracle_cases():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5, 7):
        for side in ("A", "B"):
            spec = random_zero_discord_spec(d, side, rng)
            yield f"zero d={d} {side}", d, circulant_state(spec)
            for kind in PERTURBATION_KINDS:
                pert = perturb_spec(spec, kind, float(rng.uniform(0.02, 0.15)), rng)
                yield f"{kind} d={d} {side}", d, circulant_state(pert)
    for d in (2, 3, 5):
        for alpha in range(d):
            p, _ = random_classical_bell(d, alpha, rng)
            yield f"classical bell d={d} alpha={alpha}", d, circulant_state(bell_diagonal_state(p))
        p = random_nonclassical_bell(d, rng)
        yield f"bell d={d}", d, circulant_state(bell_diagonal_state(p))
    for d in (2, 3):
        for lam in (0.0, 0.2, -0.2):
            yield f"werner d={d} lambda={lam}", d, circulant_state(werner_state(d, lam))
        for lam in (0.0, 0.4):
            yield f"isotropic d={d} lambda={lam}", d, circulant_state(isotropic_state(d, lam))


def test_structural_matches_pairwise_oracle():
    zeros = nonzeros = 0
    for name, d, rho in _oracle_cases():
        for side in ("A", "B"):
            want = _pairwise_oracle(rho, d, side)
            assert structural_discord_zero(rho, d, side).zero_discord == want, (name, side)
            zeros += want
            nonzeros += not want
    assert zeros >= 30 and nonzeros >= 30  # both outcomes are exercised


def _classical_state(p, U, local, side):
    """Σ p_k |u_k⟩⟨u_k| ⊗ ρ_k with the |u_k⟩ on the measured side."""
    d = len(p)
    terms = [np.outer(U[:, k], U[:, k].conj()) for k in range(d)]
    if side == "A":
        return sum(p[k] * np.kron(terms[k], local[k]) for k in range(d))
    return sum(p[k] * np.kron(local[k], terms[k]) for k in range(d))


def _random_density(d, rng):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    r = m @ m.conj().T
    return r / np.trace(r).real


def _assert_decomposes(rho, d, side):
    parts = classical_decomposition(rho, d, side)
    if side == "A":
        recon = sum(p * np.kron(np.outer(v, v.conj()), sigma) for p, v, sigma in parts)
    else:
        recon = sum(p * np.kron(sigma, np.outer(v, v.conj())) for p, v, sigma in parts)
    assert np.linalg.norm(recon - rho) <= REASSEMBLY_TOL


def test_near_degenerate_classical_states_are_zero():
    # two equal local states whose weights differ by less than, about, and
    # more than the eigenvalue gap the basis search treats as degenerate
    rng = np.random.default_rng(5)
    for d in (2, 3, 5, 7):
        for gap in (0.0, 1e-12, 1e-9, 1e-8, 1e-7, 1e-4):
            for side in ("A", "B"):
                p = rng.dirichlet(np.ones(d))
                p[1] = p[0] + gap
                p /= p.sum()
                local = [_random_density(d, rng) for _ in range(d)]
                local[1] = local[0]
                rho = _classical_state(p, random_unitary(d, rng), local, side)
                verdict = structural_discord_zero(rho, d, side)
                assert verdict.zero_discord, (d, gap, side, verdict.witness)
                _assert_decomposes(rho, d, side)


def test_one_block_near_degenerate_pair_is_zero():
    # B_00 alone has an eigenvalue gap just around DEGENERACY_GAP while the
    # other blocks separate the same pair widely: a basis taken from B_00
    # first mixes that pair by ~1e-8 and its off-diagonal test fails
    for gap in (0.5, 1.0, 1.2, 2.0, 5.0):
        for seed in range(16):
            rng = np.random.default_rng(seed)
            U = random_unitary(2, rng)
            local = [_random_density(2, rng), _random_density(2, rng)]
            p1 = float(rng.uniform(0.3, 0.5))
            p0 = (p1 * local[1][0, 0].real + gap * DEGENERACY_GAP) / local[0][0, 0].real
            p = np.array([p0, p1]) / (p0 + p1)
            rho = _classical_state(p, U, local, "A")
            verdict = structural_discord_zero(rho, 2, "A")
            assert verdict.zero_discord, (gap, seed, verdict.witness)
            _assert_decomposes(rho, 2, "A")


def test_off_diagonal_witness_exceeds_its_tolerance():
    rng = np.random.default_rng(9)
    for d in (2, 3, 5):
        for side in ("A", "B"):
            spec = perturb_spec(random_zero_discord_spec(d, side, rng), "phase", 0.05, rng)
            rho = circulant_state(spec)
            verdict = structural_discord_zero(rho, d, side)
            witness = verdict.witness
            assert not verdict.zero_discord and witness["kind"] == "off-diagonal-block"
            blocks = extract_blocks(rho, d, side)
            T = verdict.basis.conj().T @ blocks @ verdict.basis
            off = np.linalg.norm(T - T * np.eye(d), axis=(-2, -1))
            scale = np.maximum(1.0, np.linalg.norm(blocks, axis=(-2, -1)))
            i, j = witness["block"]
            assert witness["tolerance"] == pytest.approx(1e-9 * scale[i, j])
            assert off[i, j] == pytest.approx(witness["offdiagonal_norm"], rel=1e-12)
            assert off[i, j] > witness["tolerance"]
            assert off[i, j] / scale[i, j] == pytest.approx((off / scale).max(), rel=1e-12)


def test_classical_decomposition_d13():
    rng = np.random.default_rng(13)
    for side in ("A", "B"):
        rho = circulant_state(random_zero_discord_spec(13, side, rng))
        _assert_decomposes(rho, 13, side)


def test_classical_decomposition_matches_per_side_einsum():
    # σ_k from the block view; the per-side contractions of ρ are the reference
    rng = np.random.default_rng(23)
    for d in (2, 3, 5):
        for side in ("A", "B"):
            local = [_random_density(d, rng) for _ in range(d)]
            weights, basis = rng.dirichlet(np.ones(d)), random_unitary(d, rng)
            states = [circulant_state(random_zero_discord_spec(d, side, rng)),
                      _classical_state(weights, basis, local, side)]
            for rho in states:
                U = structural_discord_zero(rho, d, side).basis
                rho4 = rho.reshape(d, d, d, d)
                if side == "A":
                    sigma = np.einsum("ak,abcd,ck->kbd", U.conj(), rho4, U)
                else:
                    sigma = np.einsum("bk,abcd,dk->kac", U.conj(), rho4, U)
                for k, (p, v, cond) in enumerate(classical_decomposition(rho, d, side)):
                    assert np.array_equal(v, U[:, k])
                    assert abs(p - np.trace(sigma[k]).real) <= 1e-13
                    assert np.abs(p * cond - (sigma[k] + sigma[k].conj().T) / 2).max() <= 1e-13


def test_phase_family_relations():
    rng = np.random.default_rng(1)
    d = 3
    m = rng.random((d, d)) + 1j * rng.random((d, d))
    a0 = m @ m.conj().T
    a0 /= d * np.trace(a0).real
    phi = np.array([0.0, 0.9, -1.3])
    for side in ("A", "B"):
        mats = phase_family(a0, phi, side)
        assert len(mats) == d
        np.testing.assert_allclose(mats[0], a0, atol=0)
        for k in range(d):
            np.testing.assert_allclose(
                np.abs(np.diag(mats[k])),
                np.abs(np.diag(a0)[(np.arange(d) + k) % d])
                if side == "A"
                else np.abs(np.diag(a0)),
                atol=1e-13,
            )


def _phase_family_loop(a0, phi, side):
    """Reference: the window sums and the sector matrices built one k at a time."""
    d = a0.shape[0]
    psi = np.zeros((d, d))
    for k in range(1, d):
        psi[k] = psi[k - 1] + phi[(np.arange(d) + k - 1) % d]
    idx = np.arange(d)
    mats = []
    for k in range(d):
        phase = np.exp(1j * (psi[k][:, None] - psi[k][None, :]))
        base = a0[np.ix_((idx + k) % d, (idx + k) % d)] if side == "A" else a0
        mats.append(phase * base)
    return mats


def test_phase_family_matches_loop_reference_exactly():
    rng = np.random.default_rng(19)
    for d in (2, 3, 5, 13):
        a0 = random_psd(d, rng)
        for phi in (random_phases(d, rng), np.zeros(d), -np.zeros(d)):
            for side in ("A", "B"):
                got = phase_family(a0, phi, side)
                want = _phase_family_loop(a0, phi, side)
                assert isinstance(got, list) and len(got) == d
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes(), (d, side)


def test_circulant_theorem_round_trip_both_sides():
    rng = np.random.default_rng(2)
    for d in (2, 3, 5):
        for side in ("A", "B"):
            m = rng.random((d, d)) + 1j * rng.random((d, d))
            a0 = m @ m.conj().T + 0.1 * np.eye(d)
            a0 /= d * np.trace(a0).real
            phi = np.concatenate([[0.0], rng.uniform(-np.pi, np.pi, d - 1)])
            spec = CirculantSpec(d, phase_family(a0, phi, side))
            verdict = circulant_theorem_check(spec, side)
            assert verdict.zero_discord, (d, side)
            assert verdict.criterion == CRITERION_CIRCULANT
            np.testing.assert_allclose(
                np.mod(verdict.fitted_phases - phi, 2 * np.pi) % (2 * np.pi),
                0.0,
                atol=1e-9,
            )
            # the general commutation route agrees
            rho = circulant_state(spec, validate=True)
            assert structural_discord_zero(rho, d, side).zero_discord


def _fit_phases_loop(spec, side):
    """Reference: the constraint edges built entry by entry, then the same BFS."""
    d, a = spec.d, spec.a
    edges = []
    if side == "B":
        for i in range(d):
            for j in range(i + 1, d):
                if abs(a[0][i, j]) <= ZERO_TOL:
                    continue
                for k in range(d - 1):
                    z0, z1 = a[k][i, j], a[k + 1][i, j]
                    if abs(z0) > ZERO_TOL and abs(z1) > ZERO_TOL:
                        edges.append(((i + k) % d, (j + k) % d, float(np.angle(z1) - np.angle(z0))))
    else:
        for m in range(d):
            for c in range(1, d):
                if abs(a[0][m, (m + c) % d]) <= ZERO_TOL:
                    continue
                for k in range(d - 1):
                    z0 = a[k][(m - k) % d, (m + c - k) % d]
                    r1, c1 = (m - k - 1) % d, (m + c - k - 1) % d
                    z1 = a[k + 1][r1, c1]
                    if abs(z0) > ZERO_TOL and abs(z1) > ZERO_TOL:
                        edges.append((r1, c1, float(np.angle(z1) - np.angle(z0))))
    adj = {n: [] for n in range(d)}
    for u, v, delta in edges:
        adj[u].append((v, -delta))
        adj[v].append((u, delta))
    phi = np.zeros(d)
    visited = [False] * d
    for root in range(d):
        if visited[root]:
            continue
        visited[root] = True
        queue = [root]
        while queue:
            u = queue.pop(0)
            for v, delta in adj[u]:
                if not visited[v]:
                    visited[v] = True
                    phi[v] = phi[u] + delta
                    queue.append(v)
    phi = np.angle(np.exp(1j * phi))
    phi[0] = 0.0
    return phi


def test_fit_phases_matches_loop_reference_exactly():
    rng = np.random.default_rng(17)
    for d in (2, 3, 5, 7, 13):
        for gen_side in ("A", "B"):
            spec = random_zero_discord_spec(d, gen_side, rng)
            sparse = [m.copy() for m in spec.a]
            for m in sparse:
                m[np.abs(m) < np.median(np.abs(m))] = 0
            specs = [spec, CirculantSpec(d, tuple(sparse))]
            specs += [perturb_spec(spec, kind, 0.1, rng) for kind in PERTURBATION_KINDS]
            for s in specs:
                for side in ("A", "B"):
                    np.testing.assert_array_equal(_fit_phases(s, side), _fit_phases_loop(s, side))


def test_circulant_theorem_identity_phases():
    # φ = 0 family: a^(k) are plain shifted copies (side A) or repeats (side B)
    d = 3
    a0 = np.full((d, d), 1 / (d * d), dtype=complex)
    for side in ("A", "B"):
        spec = CirculantSpec(d, phase_family(a0, np.zeros(d), side))
        verdict = circulant_theorem_check(spec, side)
        assert verdict.zero_discord
        np.testing.assert_allclose(verdict.fitted_phases, 0.0, atol=1e-10)


def test_circulant_theorem_perturbation_witness():
    rng = np.random.default_rng(3)
    d = 3
    m = rng.random((d, d)) + 1j * rng.random((d, d))
    a0 = m @ m.conj().T + 0.1 * np.eye(d)
    a0 /= d * np.trace(a0).real
    phi = np.array([0.0, 1.1, -0.4])
    mats = [x.copy() for x in phase_family(a0, phi, "A")]
    mats[1][0, 1] *= np.exp(0.2j)  # knock one entry off the required relation
    mats[1][1, 0] = np.conj(mats[1][0, 1])
    spec = CirculantSpec(d, mats)
    verdict = circulant_theorem_check(spec, "A")
    assert not verdict.zero_discord
    assert verdict.witness["kind"] == "relation-violation"
    assert verdict.witness["delta"] > verdict.witness["tolerance"]


def test_circulant_theorem_diagonal_family():
    d = 3
    mats = [np.diag([0.1, 0.15, 0.05]).astype(complex) for _ in range(d)]
    total = sum(np.trace(m).real for m in mats)
    mats = [m / total for m in mats]
    verdict = circulant_theorem_check(CirculantSpec(d, mats), "A")
    assert verdict.zero_discord
    assert verdict.criterion == CRITERION_DIAGONAL


def test_circulant_theorem_sparse_pattern():
    # zero entries contribute no phase constraints; disconnected constraint
    # graphs must still verify
    d = 5
    a0 = np.diag([0.05, 0.03, 0.04, 0.05, 0.03]).astype(complex)
    a0[0, 1] = a0[1, 0] = 0.02  # single off-diagonal orbit
    phi = np.array([0.0, 0.7, 2.1, -0.9, 0.3])
    spec = CirculantSpec(d, phase_family(a0, phi, "B"))
    verdict = circulant_theorem_check(spec, "B")
    assert verdict.zero_discord


def test_circulant_theorem_requires_prime():
    mats = [np.eye(4, dtype=complex) / 16 for _ in range(4)]
    with pytest.raises(PrimeRequired):
        circulant_theorem_check(CirculantSpec(4, mats), "A")


def test_necessary_conditions_reports():
    # Werner sectors share one diagonal, so diagonal invariance holds, but the
    # off-diagonal modulus pattern fails on side A at d=3.
    spec = werner_state(3, 0.2)
    report = circulant_necessary_conditions(spec, "A")
    assert not report["passed"]
    failed = {f["condition"] for f in report["failures"]}
    assert failed  # at least one named condition fails
    ok = circulant_necessary_conditions(classical_x_spec(), "A")
    assert ok["passed"] and not ok["failures"]


def _necessary_conditions_loop(spec, side, tol=DEFAULT_TOL):
    """Reference: every entry condition checked one entry at a time."""
    d, a = spec.d, spec.a
    if all(abs(m[i, j]) <= ZERO_TOL for m in a for i in range(d) for j in range(d) if i != j):
        return []
    thr = tol * max(1.0, max(np.linalg.norm(m) for m in a))
    failures = []
    for n in range(1, d):
        for i in range(d):
            for j in range(d):
                ref = a[0][i, j] if side == "B" else a[0][(i + n) % d, (j + n) % d]
                got = a[n][i, j]
                if i == j:
                    if abs(got - ref) > thr:
                        name = "diagonal-invariance" if side == "B" else "diagonal-shift"
                        failures.append((name, n, [i, j], got.real, ref.real))
                elif abs(abs(got) - abs(ref)) > thr:
                    name = "offdiagonal-modulus" if side == "B" else "offdiagonal-modulus-shift"
                    failures.append((name, n, [i, j], abs(got), abs(ref)))
    return failures


def test_necessary_conditions_match_loop_reference():
    rng = np.random.default_rng(23)
    checked = 0
    for d in (2, 3, 5, 13):
        specs = [werner_state(d, 0.2, validate=False)]
        for gen_side in ("A", "B"):
            spec = random_zero_discord_spec(d, gen_side, rng)
            sparse = [m.copy() for m in spec.a]
            for m in sparse:
                m[np.abs(m) < np.median(np.abs(m))] = 0
            specs += [spec, CirculantSpec(d, tuple(sparse))]
            specs += [perturb_spec(spec, kind, 0.1, rng) for kind in PERTURBATION_KINDS]
            specs.append(CirculantSpec(d, tuple(random_psd(d, rng) / d**2 for _ in range(d))))
        for spec in specs:
            for side in ("A", "B"):
                report = circulant_necessary_conditions(spec, side)
                want = _necessary_conditions_loop(spec, side)
                assert report["passed"] == (not want)
                got = report["failures"]
                assert [(f["condition"], f["n"], f["entry"]) for f in got] == \
                    [w[:3] for w in want], (d, side)
                for f, w in zip(got, want):
                    assert abs(f["got"] - w[3]) <= 4e-16 * abs(w[3])
                    assert abs(f["want"] - w[4]) <= 4e-16 * abs(w[4])
                checked += len(want)
    assert checked > 100  # the specs do exercise failing conditions


def test_generate_zero_discord_contract():
    rng = np.random.default_rng(4)
    d = 5
    m = rng.random((d, d)) + 1j * rng.random((d, d))
    a0 = m @ m.conj().T + 0.2 * np.eye(d)
    phi = np.concatenate([[0.0], rng.uniform(-np.pi, np.pi, d - 1)])
    for side in ("A", "B"):
        spec = generate_zero_discord(a0, phi, side)
        assert abs(spec.trace_sum() - 1.0) < 1e-12
        rho = circulant_state(spec, validate=True)
        assert structural_discord_zero(rho, d, side).zero_discord
        assert circulant_theorem_check(spec, side).zero_discord


def test_generate_zero_discord_rejections():
    with pytest.raises(PrimeRequired):
        generate_zero_discord(np.eye(4), np.zeros(4), "A")
    with pytest.raises(InvalidSpec):
        generate_zero_discord(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2), "A")
    with pytest.raises(InvalidSpec):
        generate_zero_discord(np.zeros((2, 2)), np.zeros(2), "A")
    neg = np.diag([1.0, -0.5])
    with pytest.raises(InvalidSpec):
        generate_zero_discord(neg, np.zeros(2), "A")


def test_completely_classical_check():
    d = 3
    rng = np.random.default_rng(5)
    m = 0.5 / (d * d * (d - 1))
    a0 = np.eye(d, dtype=complex) / d**2
    for i in range(d):
        for j in range(i + 1, d):
            a0[i, j] = m * np.exp(1j * rng.uniform(-np.pi, np.pi))
            a0[j, i] = np.conj(a0[i, j])
    phi = np.concatenate([[0.0], rng.uniform(-np.pi, np.pi, d - 1)])
    spec = CirculantSpec(d, phase_family(a0, phi, "A"))
    verdict = completely_classical_check(spec)
    assert verdict.zero_discord
    assert verdict.side == "both"

    # breaking the uniform diagonal is caught with a witness
    mats = [x.copy() for x in spec.a]
    mats[0][0, 0] += 0.01
    total = sum(np.trace(x).real for x in mats)
    broken = CirculantSpec(d, [x / total for x in mats])
    verdict = completely_classical_check(broken)
    assert not verdict.zero_discord
    assert verdict.witness is not None


def test_completely_classical_diagonal_states():
    # any all-diagonal spec is diagonal in the computational product basis,
    # uniform or not
    d = 2
    lopsided = [np.diag([0.3, 0.2]).astype(complex), np.diag([0.3, 0.2]).astype(complex)]
    verdict = completely_classical_check(CirculantSpec(d, lopsided))
    assert verdict.zero_discord
    assert verdict.criterion == CRITERION_DIAGONAL

    # with off-diagonal coherence present, a nonuniform diagonal is fatal
    verdict = completely_classical_check(classical_x_spec())
    assert not verdict.zero_discord
    assert verdict.witness["kind"] == "nonuniform-diagonal"


def _constant_modulus_family(d, rng):
    """Side-A family of a^(0) = I/d² plus constant-modulus, random-phase off-diagonals."""
    a0 = np.eye(d, dtype=complex) / d**2
    iu = np.triu_indices(d, 1)
    a0[iu] = 0.9 / (d * d * (d - 1)) * np.exp(1j * rng.uniform(-np.pi, np.pi, len(iu[0])))
    a0 = a0 + np.triu(a0, 1).conj().T
    return CirculantSpec(d, phase_family(a0, random_phases(d, rng), "A"))


def _two_sided_specs(d, rng):
    """(label, spec) pairs: Bell α-lines and π_n, circulant a^(0) families, and more."""
    specs = []
    for alpha in range(d):
        p, _ = random_classical_bell(d, alpha, rng)
        specs.append(("bell-alpha", bell_diagonal_state(BellWeights(d, p))))
    pi_n = np.tile(rng.dirichlet(np.ones(d)) / d, (d, 1))  # p[m, n] = π_n
    specs.append(("bell-pi-n", bell_diagonal_state(BellWeights(d, pi_n))))
    F = fourier_matrix(d)
    for side in ("A", "B"):
        # a circulant a^(0): constant diagonal, moduli that depend on the offset j − i
        a0 = (F * rng.uniform(0.2, 1.0, d)) @ F.conj().T
        a0 /= d * np.trace(a0).real
        specs.append(("circulant-a0", CirculantSpec(d, phase_family(a0, random_phases(d, rng), side))))
    specs += [("constant-modulus", _constant_modulus_family(d, rng)) for _ in range(2)]
    specs += [("zero-" + side, random_zero_discord_spec(d, side, rng)) for side in ("A", "B")]
    specs += [("werner", werner_state(d, 0.05)), ("isotropic", isotropic_state(d, 0.3))]
    return specs


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_completely_classical_equals_general_criterion_on_both_sides(d):
    rng = np.random.default_rng(40 + d)
    for label, spec in _two_sided_specs(d, rng):
        rho = circulant_state(spec, validate=True)
        sides = {side: structural_discord_zero(rho, d, side).zero_discord for side in ("A", "B")}
        verdict = completely_classical_check(spec)
        assert verdict.zero_discord == (sides["A"] and sides["B"]), (d, label, sides)
        if label.startswith(("bell", "circulant")):
            assert verdict.zero_discord, (d, label)
        if label == "constant-modulus":
            # classical on both sides at d = 2, 3; discordant on side B from d = 5
            assert verdict.zero_discord == (d <= 3), (d, label)
            if d > 3:
                assert verdict.witness["side"] == "B"
                assert verdict.witness["kind"] == "relation-violation"


def test_bell_check_recovers_alpha_and_pi():
    rng = np.random.default_rng(6)
    for d in (2, 3, 5):
        for alpha in range(d):
            pi = rng.dirichlet(np.ones(d)) / d
            while np.min(np.abs(np.subtract.outer(pi, pi)[~np.eye(d, dtype=bool)])) < 1e-4:
                pi = rng.dirichlet(np.ones(d)) / d
            m, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
            p = pi[(m + n * alpha) % d]
            verdict = bell_zero_discord_check(p)
            assert verdict.zero_discord
            assert verdict.criterion == CRITERION_BELL
            assert verdict.side == "both"
            assert verdict.alpha == alpha
            np.testing.assert_allclose(verdict.pi, pi, atol=1e-12)


def test_bell_check_uniform_picks_smallest_alpha():
    d = 3
    p = np.full((d, d), 1 / 9)
    verdict = bell_zero_discord_check(p)
    assert verdict.zero_discord and verdict.alpha == 0


def test_bell_check_rejects_nonclassical():
    p = np.array([[0.5, 0.1], [0.25, 0.15]])
    verdict = bell_zero_discord_check(p)
    assert not verdict.zero_discord
    assert verdict.witness["kind"] == "residue-class-spread"
    assert verdict.witness["spread"] > 0
    with pytest.raises(PrimeRequired):
        bell_zero_discord_check(np.full((4, 4), 1 / 16))


def test_bell_check_line_n_and_best_line():
    d = 3
    p = np.tile([0.125, 0.0625, 0.14583333333333331], (d, 1))  # p[m, n] = π_n
    verdict = bell_zero_discord_check(p)
    assert verdict.zero_discord
    assert verdict.alpha is None and verdict.line == "n"
    np.testing.assert_allclose(verdict.pi, p[0], atol=1e-15)
    report = verdict.to_json()
    assert report["alpha"] is None and report["line"] == "n"
    # the α-lines come first, so uniform weights still report α = 0 and no line
    uniform = bell_zero_discord_check(np.full((d, d), 1 / d**2)).to_json()
    assert uniform["alpha"] == 0 and uniform["line"] is None
    # the spread witness names the closest line on the same terms
    near_n = p.copy()
    near_n[0, 0] += 0.01
    near_n[1, 0] -= 0.01
    witness = bell_zero_discord_check(near_n).witness
    assert witness["best_alpha"] is None and witness["best_line"] == "n"
    assert witness["spread"] == pytest.approx(0.02, abs=1e-12)
    near_alpha, _ = random_classical_bell(d, 1, np.random.default_rng(9))
    near_alpha[0, 0] += 0.01
    near_alpha[1, 1] -= 0.01
    witness = bell_zero_discord_check(near_alpha).witness
    assert witness["best_alpha"] == 1 and witness["best_line"] is None


def test_bell_classical_state_is_structurally_zero_both_sides():
    rng = np.random.default_rng(7)
    d = 3
    pi = rng.dirichlet(np.ones(d)) / d
    m, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    p = pi[(m + n * 2) % d]
    rho = circulant_state(bell_diagonal_state(BellWeights(d, p)), validate=True)
    for side in ("A", "B"):
        assert structural_discord_zero(rho, d, side).zero_discord


def test_classical_decomposition_diagonal():
    rho = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
    parts = classical_decomposition(rho, 2, "A")
    assert len(parts) == 2
    assert sum(p for p, _, _ in parts) == pytest.approx(1.0, abs=1e-12)
    recon = sum(
        p * np.kron(np.outer(v, v.conj()), sigma) for p, v, sigma in parts
    )
    np.testing.assert_allclose(recon, rho, atol=1e-10)


def test_classical_decomposition_x_state():
    rho = circulant_state(classical_x_spec(), validate=True)
    parts = classical_decomposition(rho, 2, "A")
    recon = sum(
        p * np.kron(np.outer(v, v.conj()), sigma) for p, v, sigma in parts
    )
    np.testing.assert_allclose(recon, rho, atol=1e-9)
    for p, v, sigma in parts:
        assert p >= 0
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(sigma)[0] > -1e-10
        assert np.trace(sigma).real == pytest.approx(1.0, abs=1e-10)


def test_classical_decomposition_side_b():
    rho = circulant_state(classical_x_spec(), validate=True).conj()
    # conjugating swaps nothing structurally here; build a genuine side-B
    # classical state instead via the generator
    rng = np.random.default_rng(8)
    m = rng.random((3, 3)) + 1j * rng.random((3, 3))
    a0 = m @ m.conj().T + 0.2 * np.eye(3)
    spec = generate_zero_discord(a0, np.array([0.0, 0.5, -0.8]), "B")
    rho = circulant_state(spec, validate=True)
    parts = classical_decomposition(rho, 3, "B")
    recon = sum(
        p * np.kron(sigma, np.outer(v, v.conj())) for p, v, sigma in parts
    )
    np.testing.assert_allclose(recon, rho, atol=1e-9)


def test_classical_decomposition_requires_zero_discord():
    rho = circulant_state(werner_state(2, -0.5), validate=True)
    with pytest.raises(PreconditionError):
        classical_decomposition(rho, 2, "A")


def test_classical_decomposition_maximally_mixed():
    # fully degenerate blocks exercise the eigenbasis refinement fallback
    rho = np.eye(9, dtype=complex) / 9
    parts = classical_decomposition(rho, 3, "A")
    recon = sum(
        p * np.kron(np.outer(v, v.conj()), sigma) for p, v, sigma in parts
    )
    np.testing.assert_allclose(recon, rho, atol=1e-10)


def test_isotropic_necessary_conditions_fail():
    spec = isotropic_state(3, 0.4)
    report = circulant_necessary_conditions(spec, "B")
    assert not report["passed"]


def test_generate_zero_discord_rejects_unknown_side():
    a0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    with pytest.raises(ValueError, match="side must be 'A' or 'B'"):
        generate_zero_discord(a0, np.array([0.0, 0.4, -1.1]), "C")


def test_generate_zero_discord_rejects_non_finite_seeds():
    a0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    phases = np.array([0.0, 0.4, -1.1])
    bad = a0.copy()
    bad[0, 1] = np.nan  # used to end in LinAlgError from the eigensolver
    with pytest.raises(InvalidSpec):
        generate_zero_discord(bad, phases, "A")
    with pytest.raises(InvalidSpec):  # used to return a spec with NaN entries
        generate_zero_discord(a0, np.array([0.0, np.nan, 0.3]), "B")


def test_phase_angles_must_match_the_dimension():
    # a length-1 φ used to be ignored (the φ = 0 family came back), a
    # length-2 one to end in a NumPy broadcast error
    a0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    for phi in ([0.4], [0.0, 0.4], np.zeros(4), np.zeros((3, 1))):
        for side in "AB":
            with pytest.raises(DimensionError, match="expected 3 phase angles"):
                phase_family(a0, phi, side)
            with pytest.raises(DimensionError, match="expected 3 phase angles"):
                generate_zero_discord(a0, phi, side)


def test_nan_tolerance_never_reads_as_zero_discord():
    # every closed-form threshold test must fail on a NaN tolerance, as the
    # general criterion and the Bell test already do
    rng = np.random.default_rng(24)
    nan = float("nan")
    zero = random_zero_discord_spec(3, "A", rng)
    for spec in (zero, perturb_spec(zero, "modulus", 0.1, rng)):
        rho = circulant_state(spec)
        for side in "AB":
            assert not circulant_theorem_check(spec, side, nan).zero_discord
            assert not circulant_necessary_conditions(spec, side, nan)["passed"]
            assert not structural_discord_zero(rho, 3, side, nan).zero_discord
        assert not completely_classical_check(spec, nan).zero_discord
    p, _ = random_classical_bell(3, 1, rng)
    assert not bell_zero_discord_check(p, nan).zero_discord


def _memo_specs(d, rng):
    """Zero on A and on B, one per perturbation kind, a classical Bell and an all-diagonal spec."""
    specs = [random_zero_discord_spec(d, side, rng) for side in ("A", "B")]
    specs += [
        perturb_spec(random_zero_discord_spec(d, "AB"[n % 2], rng), kind, 0.1, rng)
        for n, kind in enumerate(PERTURBATION_KINDS)
    ]
    specs.append(bell_diagonal_state(random_classical_bell(d, 1, rng)[0]))
    weights = rng.dirichlet(np.ones(d * d)).reshape(d, d)
    specs.append(CirculantSpec(d, [np.diag(w).astype(complex) for w in weights]))
    return specs


def _closed_forms_json(spec, tol=DEFAULT_TOL, reverse=False):
    """The closed forms' JSON, called in the analyze command's order (or reversed)."""
    calls = [
        (f"theorem-{s}", lambda s=s: circulant_theorem_check(spec, s, tol).to_json()) for s in "AB"
    ]
    calls += [
        (f"necessary-{s}", lambda s=s: circulant_necessary_conditions(spec, s, tol)) for s in "AB"
    ]
    calls.append(("complete", lambda: completely_classical_check(spec, tol).to_json()))
    return {name: json.dumps(call()) for name, call in calls[:: -1 if reverse else 1]}


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_closed_forms_do_not_depend_on_what_the_spec_was_asked_before(d):
    # a spec keeps its scale, φ = 0 stacks, fits and witnesses; answers must
    # not change with call order, on repeat, or on a fresh copy of the stack
    rng = np.random.default_rng(70 + d)
    for spec in _memo_specs(d, rng):
        shown = repr(spec)
        first = _closed_forms_json(spec)
        assert _closed_forms_json(spec) == first
        assert _closed_forms_json(spec, reverse=True) == first
        fresh = CirculantSpec(d, spec.a)
        assert _closed_forms_json(fresh, reverse=True) == first
        assert repr(spec) == shown == repr(fresh)
        assert [f.name for f in dataclasses.fields(spec)] == ["d", "a"]


def test_edited_verdicts_do_not_change_later_ones():
    # the witness and φ a verdict carries are kept with the spec: a caller
    # that edits them must not reach the next verdict
    spec = _constant_modulus_family(5, np.random.default_rng(71))
    checks = [lambda: circulant_theorem_check(spec, "B"), lambda: completely_classical_check(spec)]
    for check in checks:
        want = json.dumps(check().to_json())
        verdict = check()
        assert verdict.witness["kind"] == "relation-violation"
        for key, value in list(verdict.witness.items()):
            if isinstance(value, list):
                value[0] = -1
            else:
                verdict.witness[key] = "edited"
        verdict.witness["extra"] = True
        with pytest.raises(ValueError):
            verdict.fitted_phases[1] = 0.0
        assert json.dumps(check().to_json()) == want
    # a necessary-conditions report is built afresh on every call
    spec = werner_state(3, 0.2)
    for side in "AB":
        want = json.dumps(circulant_necessary_conditions(spec, side))
        report = circulant_necessary_conditions(spec, side)
        assert report["failures"]
        for failure in report["failures"]:
            failure["entry"][0] = -1
            failure["got"] = "edited"
        report["failures"].append({"condition": "extra"})
        report["passed"] = "edited"
        assert json.dumps(circulant_necessary_conditions(spec, side)) == want


def test_each_tolerance_gets_its_own_verdict():
    spec = _constant_modulus_family(5, np.random.default_rng(72))
    for first, second in ((1e-9, 1.0), (1.0, 1e-9)):
        spec = CirculantSpec(5, spec.a)
        verdicts = {tol: circulant_theorem_check(spec, "B", tol) for tol in (first, second)}
        assert not verdicts[1e-9].zero_discord and verdicts[1e-9].witness is not None
        assert verdicts[1.0].zero_discord and verdicts[1.0].witness is None
        np.testing.assert_array_equal(
            verdicts[1e-9].fitted_phases, verdicts[1.0].fitted_phases
        )
        assert not completely_classical_check(spec, 1e-9).zero_discord
        assert completely_classical_check(spec, 1.0).zero_discord


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_kept_arrays_are_read_only(d):
    rng = np.random.default_rng(73 + d)
    kept = [_generic_weights(d), _fixed_candidates(d), _shifts(d), _sector_index(d)]
    for spec in _memo_specs(d, rng):
        _closed_forms_json(spec)  # keeps the scale, flag, φ = 0 stacks, φ and witnesses
        kept += [v for v in spec._derived.values() if isinstance(v, np.ndarray)]
    assert len(kept) > 4
    for array in kept:
        assert not array.flags.writeable

"""Block analysis: structural criteria, theorem checkers, decomposition."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discordant import blocks as blocks_module
from discordant import verify as verify_module
from discordant.blocks import (
    CRITERION_BELL,
    CRITERION_CIRCULANT,
    CRITERION_COMMUTATION,
    CRITERION_DIAGONAL,
    DEFAULT_TOL,
    REASSEMBLY_TOL,
    StructuralVerdict,
    _fit_phases,
    _generic_weights,
    _norm_grids,
    _phase_paths,
    _reassembly_bound,
    _shifts,
    _theorem_verdicts,
    bell_zero_discord_check,
    circulant_necessary_conditions,
    circulant_theorem_check,
    classical_decomposition,
    completely_classical_check,
    extract_blocks,
    generate_zero_discord,
    is_prime,
    structural_discord_zero,
    structural_verdicts,
)
from discordant.discord import OptimizerConfig, _screen_table
from discordant.errors import DimensionError, InvalidSpec, PreconditionError, PrimeRequired
from discordant.serialize import LoadedState, _parse
from discordant.linalg import _side_codes, fourier_matrix, hermitize, random_unitary
from discordant.states import (
    ZERO_TOL,
    BellWeights,
    CirculantSpec,
    _dense_states,
    _lambda_sectors,
    _sector_index,
    bell_diagonal_state,
    circulant_state,
    flip_operator,
    isotropic_state,
    project_circulant,
    validate_circulant_spec,
    werner_state,
)
from discordant.verify import (
    PERTURBATION_KINDS,
    analyze,
    perturb_spec,
    random_classical_bell,
    random_nonclassical_bell,
    random_phases,
    random_psd,
    random_zero_discord_spec,
    run_verify,
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
    assert not is_prime(-7) and is_prime(np.int64(7))
    for n in (True, 7.0):  # True used to read as 1, and 7.0 as a prime
        with pytest.raises(InvalidSpec, match=f"^n must be an integer, got {n!r}$"):
            is_prime(n)


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
        x_state_spec(0.4, 0.1, 0.3, 0.2, 0.05, 0.02j)
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
    rho = _parse({"kind": "werner", "d": 2, "lambda": 0.5}).rho
    for side in ("A", "B"):
        verdict = structural_discord_zero(rho, 2, side)
        assert not verdict.zero_discord
        assert verdict.witness is not None
        assert verdict.witness["kind"] == "off-diagonal-block"


def test_structural_x_state_three_conditions():
    # zero on side A exactly when a00=b11, a11=b00, |a01|=|b01|
    zero = circulant_state(classical_x_spec())
    assert structural_discord_zero(zero, 2, "A").zero_discord
    assert not structural_discord_zero(zero, 2, "B").zero_discord  # b00 ≠ a00 here

    broken_diag = circulant_state(
        x_state_spec(0.31, 0.2, 0.2, 0.29, 0.1, 0.1)
    )
    assert not structural_discord_zero(broken_diag, 2, "A").zero_discord

    broken_mod = circulant_state(
        x_state_spec(0.3, 0.2, 0.2, 0.3, 0.1, 0.05)
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


def _near_degenerate_states(rng):
    """(d, size, gap, side, ρ): clusters of equal local states whose weights step by less
    than, about, and more than 1e-8, in pairs at every d, of every size 2 … d at d = 5, 7."""
    cases = [(d, 2) for d in (2, 3, 5, 7)]
    cases += [(d, size) for d in (5, 7) for size in range(3, d + 1)]
    for d, size in cases:
        for gap in (0.0, 1e-12, 1e-9, 1e-8, 1e-7, 1e-4):
            for side in ("A", "B"):
                p = rng.dirichlet(np.ones(d))
                p[:size] = p[0] + gap * np.arange(size)
                p /= p.sum()
                local = [_random_density(d, rng) for _ in range(d)]
                local[1:size] = [local[0]] * (size - 1)
                yield d, size, gap, side, _classical_state(p, random_unitary(d, rng), local, side)


def test_near_degenerate_classical_states_are_zero():
    for d, size, gap, side, rho in _near_degenerate_states(np.random.default_rng(5)):
        verdict = structural_discord_zero(rho, d, side)
        assert verdict.zero_discord, (d, size, gap, side, verdict.witness)
        _assert_decomposes(rho, d, side)


def test_one_block_near_degenerate_pair_is_zero():
    # B_00 alone has an eigenvalue gap just around 1e-8 while the
    # other blocks separate the same pair widely: a basis taken from B_00
    # first mixes that pair by ~1e-8 and its off-diagonal test fails
    for gap in (0.5, 1.0, 1.2, 2.0, 5.0):
        for seed in range(16):
            rng = np.random.default_rng(seed)
            U = random_unitary(2, rng)
            local = [_random_density(2, rng), _random_density(2, rng)]
            p1 = float(rng.uniform(0.3, 0.5))
            p0 = (p1 * local[1][0, 0].real + gap * 1e-8) / local[0][0, 0].real
            p = np.array([p0, p1]) / (p0 + p1)
            rho = _classical_state(p, U, local, "A")
            verdict = structural_discord_zero(rho, 2, "A")
            assert verdict.zero_discord, (gap, seed, verdict.witness)
            _assert_decomposes(rho, 2, "A")


def test_off_diagonal_witness_exceeds_its_tolerance():
    rng = np.random.default_rng(9)
    cases = [
        (d, side, circulant_state(perturb_spec(random_zero_discord_spec(d, side, rng), "phase",
                                               0.05, rng)))
        for d in (2, 3, 5) for side in ("A", "B")
    ]
    # Werner states, and isotropic states, whose generic block combination is degenerate
    cases += [(d, side, circulant_state(spec)) for d in (5, 7)
              for spec in (werner_state(d, 0.2 / d), isotropic_state(d, 0.3)) for side in "AB"]
    for d, side, rho in cases:
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


def _offdiagonal_loop(blocks, U):
    """Reference: one block row i at a time, its transposed blocks B_ij, j ≥ i, as one
    ((d − i)·d, d) matrix taken through conj(U), transposed back and taken through U;
    both norms by np.linalg.norm, as the row-by-row values for i ≤ j."""
    d = U.shape[0]
    idx = np.arange(d)
    off, scale = [], []
    for i in range(d):
        Bt = blocks[i, i:].swapaxes(-1, -2).copy()  # Bt[j − i] = B_ijᵀ
        P = (Bt.reshape(-1, d) @ U.conj()).reshape(-1, d, d).swapaxes(-1, -2).copy()
        T = (P.reshape(-1, d) @ U).reshape(-1, d, d)  # T[j − i] = U†B_ijU
        T[:, idx, idx] = 0.0
        off.append(np.linalg.norm(T, axis=(-2, -1)))
        scale.append(np.linalg.norm(Bt, axis=(-2, -1)))
    return np.concatenate(off), np.maximum(1.0, np.concatenate(scale))


def _verdict_json_from(off, scale, d, side, tol=DEFAULT_TOL):
    """The general criterion's verdict JSON, decided from given values for the blocks i ≤ j.

    The witness is the first block, row by row, within 1e-12 relative of the largest off/scale.
    """
    witness = None
    if not np.all(off <= tol * scale):
        rel = off / scale
        t = np.flatnonzero(rel >= (1 - 1e-12) * rel.max())[0]
        i, j = (int(k[t]) for k in np.triu_indices(d))
        witness = {"kind": "off-diagonal-block", "block": [i, j],
                   "offdiagonal_norm": float(off[t]), "tolerance": float(tol * scale[t])}
    return json.dumps({"side": side, "zero_discord": witness is None,
                       "criterion": CRITERION_COMMUTATION, "alpha": None, "line": None,
                       "phases": None, "pi": None, "witness": witness})


def _structural_cases(d, rng):
    """Zero specs on each side with their three perturbations, Bell, Werner, near-degenerate."""
    for gen_side in ("A", "B"):
        spec = random_zero_discord_spec(d, gen_side, rng)
        yield circulant_state(spec)
        for kind in PERTURBATION_KINDS:
            yield circulant_state(perturb_spec(spec, kind, float(rng.uniform(0.02, 0.15)), rng))
    p, _ = random_classical_bell(d, 1 % d, rng)
    yield circulant_state(bell_diagonal_state(p))
    yield circulant_state(bell_diagonal_state(random_nonclassical_bell(d, rng)))
    yield circulant_state(werner_state(d, 0.2 / d))
    for gap, side in ((0.0, "A"), (1e-9, "B"), (1e-7, "A")):
        p = rng.dirichlet(np.ones(d))
        p[1] = p[0] + gap
        p /= p.sum()
        local = [_random_density(d, rng) for _ in range(d)]
        local[1] = local[0]
        yield _classical_state(p, random_unitary(d, rng), local, side)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_offdiagonal_norms_match_loop_reference_exactly(d):
    rng = np.random.default_rng(40 + d)
    zeros = nonzeros = 0
    for rho in _structural_cases(d, rng):
        for side in ("A", "B"):
            verdict = structural_discord_zero(rho, d, side)
            blocks = extract_blocks(rho, d, side)
            got = _norm_grids(blocks[None], verdict.basis[None])
            want = _offdiagonal_loop(blocks, verdict.basis)
            assert got[0][0].tobytes() == want[0].tobytes(), side
            assert got[1][0].tobytes() == want[1].tobytes(), side
            assert json.dumps(verdict.to_json()) == _verdict_json_from(*want, d, side)
            zeros += verdict.zero_discord
            nonzeros += not verdict.zero_discord
    assert zeros >= 6 and nonzeros >= 6  # both outcomes, witnesses included, are compared


def _common_basis_reference(blocks, d):
    """The candidate basis one pair at a time: the eigenbasis of its generic block combination."""
    return np.linalg.eigh(hermitize(np.einsum("ij,ijkl->kl", _generic_weights(d), blocks)))[1]


def _stack_cases(d, rng):
    """_structural_cases plus perturbations down to ε = 1e-5, isotropic and maximally mixed states."""
    yield from _structural_cases(d, rng)
    for n, eps in enumerate((1e-3, 1e-4, 1e-5)):
        spec = random_zero_discord_spec(d, "AB"[n % 2], rng)
        for kind in PERTURBATION_KINDS:
            yield circulant_state(perturb_spec(spec, kind, eps, rng))
    yield circulant_state(isotropic_state(d, 0.3))
    yield circulant_state(isotropic_state(d, 0.0))  # every block a multiple of I


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_structural_verdicts_match_per_pair_reference(d, monkeypatch):
    rng = np.random.default_rng(60 + d)
    pairs = [(rho, side) for rho in _stack_cases(d, rng) for side in "AB"]
    pairs = [pairs[n] for n in rng.permutation(len(pairs))]  # sides mixed in one call
    rhos, sides = [rho for rho, _ in pairs], "".join(side for _, side in pairs)
    references = []
    for rho, side in pairs:
        blocks = extract_blocks(rho, d, side)
        U = _common_basis_reference(blocks, d)
        references.append((U, _offdiagonal_loop(blocks, U)))
    for tol in (1e-9, 1e-3):
        want = [_verdict_json_from(*grids, d, side, tol)
                for (_, grids), side in zip(references, sides)]
        for chunk in (1, d**4 - 1, 10**9):  # one row, a state split into rows, the whole stack
            monkeypatch.setattr(blocks_module, "_CHUNK_ENTRIES", chunk)
            got = structural_verdicts(rhos, d, sides, tol)
            assert [json.dumps(v.to_json()) for v in got] == want, (tol, chunk)
            for verdict, (U, _) in zip(got, references):
                assert verdict.basis.tobytes() == U.tobytes(), (tol, chunk)
        zeros = sum(v.zero_discord for v in got)
        assert zeros >= 6 and len(got) - zeros >= 6
        # a witness is the first block of largest norm, and B_ij precedes its mirror B_ji
        assert all(i <= j for i, j in (v.witness["block"] for v in got if not v.zero_discord))
    assert structural_verdicts([], d, [], 1e-9) == []


def test_witness_ties_go_to_the_first_block_in_row_major_order():
    # a d = 2 Bell state's blocks B_00 and B_11 have equal off-diagonal norms, and
    # rounding used to pick [1, 1]; the first of the blocks within 1e-12 is reported
    p = [[0.3520509473225625, 0.14291356912363498], [0.07052404444407975, 0.43451143910972284]]
    rho = circulant_state(bell_diagonal_state(p))
    verdicts = structural_verdicts([rho, rho], 2, "AB")
    assert [v.witness["block"] for v in verdicts] == [[0, 0], [0, 0]]


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_norm_grids_match_per_block_products(d):
    # the batched products agree with U† @ B_ij @ U block by block, to rounding, in
    # their off-diagonal norms and their diagonals, and every lower block B_ji, which
    # is never read, has the norms of its mirror B_ij
    rng = np.random.default_rng(80 + d)
    upper = np.triu_indices(d)
    for rho in _stack_cases(d, rng):
        for side in "AB":
            blocks = extract_blocks(rho, d, side)
            U = _common_basis_reference(blocks, d)
            T = U.conj().T @ blocks @ U
            want_off = np.linalg.norm(T - T * np.eye(d), axis=(-2, -1))
            want_scale = np.maximum(1.0, np.linalg.norm(blocks, axis=(-2, -1)))
            off, scale, diagonals = (values[0] for values in _norm_grids(blocks[None], U[None]))
            for want in (want_off, want_off.T):  # (i, j), then the lower block (j, i)
                assert (np.abs(off - want[upper]) <= 1e-14 * want_scale[upper]).all(), side
            for want in (want_scale, want_scale.T):
                assert (np.abs(scale - want[upper]) <= 1e-14 * want_scale[upper]).all(), side
            want_diagonals = T.diagonal(axis1=-2, axis2=-1)[upper]
            error = np.abs(diagonals - want_diagonals).max(axis=-1)
            assert (error <= 1e-14 * want_scale[upper]).all(), side


def test_structural_verdicts_ignore_memory_layout():
    # a Fortran-ordered or strided copy of a state gets the verdicts, witnesses
    # and bases of the C-ordered state; the norm grids once kept the diagonal
    # of such a state's transformed blocks and read zero-discord states as nonzero
    rng = np.random.default_rng(33)

    def strided(rho):
        wide = np.zeros((rho.shape[0], 2 * rho.shape[1]), dtype=complex)
        wide[:, ::2] = rho
        return wide[:, ::2]

    for d in (3, 5):
        rhos = list(_stack_cases(d, rng))
        for side in "AB":
            want = structural_verdicts(rhos, d, side * len(rhos))
            assert any(v.zero_discord for v in want)
            for layout in (np.asfortranarray, strided):
                for got in (structural_verdicts([layout(r) for r in rhos], d, side * len(rhos)),
                            [structural_discord_zero(layout(r), d, side) for r in rhos]):
                    assert [v.to_json() for v in got] == [v.to_json() for v in want]
                    assert [v.basis.tobytes() for v in got] == [v.basis.tobytes() for v in want]


def test_structural_verdicts_rejects_bad_pairs():
    rho = circulant_state(werner_state(3, 0.1))
    with pytest.raises(DimensionError, match="2 states and 1 sides"):
        structural_verdicts([rho, rho], 3, "A")
    with pytest.raises(InvalidSpec, match="side must be 'A' or 'B'"):
        structural_verdicts([rho, rho], 3, ["A", "C"])
    with pytest.raises(DimensionError):
        structural_verdicts([rho[:4, :4]], 3, "B")
    # the one-pair calls name the caller's matrix, not the stack of one they make
    for call in (structural_discord_zero, classical_decomposition):
        with pytest.raises(DimensionError, match=r"^rho must have shape \(9, 9\), got \(4, 4\)$"):
            call(np.eye(4) / 4, 3, "A")


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


def _dense_reassembly_residual(rho, d, side, U):
    """The reassembly residual formed in full: every block B_yz taken into U, σ_k[y, z] =
    (U†B_yzU)_kk, and ‖B − Σ_k σ_k ⊗ |k⟩⟨k|‖_F over the whole grid."""
    blocks = extract_blocks(rho, d, side)
    sigma = np.moveaxis((U.conj().T @ blocks @ U).diagonal(axis1=-2, axis2=-1), -1, 0)
    reassembled = np.einsum("xk,wk,kyz->yzxw", U, U.conj(), sigma, optimize=True)
    return np.linalg.norm(blocks - reassembled)


def _lower_block_defect(rho, d, side, rng):
    """ρ with a non-Hermitian defect of norm 1e-6 in its block (d − 1, 0) on ``side``, which
    the Hermitian part of the generic combination does not see."""
    rho, H = rho.copy(), hermitize(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    E = 1j * H / _generic_weights(d)[d - 1, 0]
    E *= 1e-6 / np.linalg.norm(E)
    if side == "B":
        rho[(d - 1) * d :, :d] += E
    else:
        rho[d - 1 :: d, ::d] += E
    return rho


def test_reassembly_bound_holds_against_the_dense_residual():
    # on zero states the bound from the verdict's norms is as tight as a dense reassembly
    rng = np.random.default_rng(20)
    zeros = [(d, side, circulant_state(random_zero_discord_spec(d, side, rng)))
             for d in (2, 3, 5, 7, 11, 13, 17) for side in "AB"]
    zeros += [(d, side, circulant_state(bell_diagonal_state(random_classical_bell(d, 1, rng)[0])))
              for d in (2, 3, 5, 7) for side in "AB"]
    zeros += [(3, side, np.eye(9, dtype=complex) / 9) for side in "AB"]
    zeros += [(d, side, rho) for d, _, _, side, rho in _near_degenerate_states(rng)]
    for d, side, rho in zeros:
        verdict = structural_discord_zero(rho, d, side)
        assert verdict.zero_discord, (d, side)
        bound = _reassembly_bound(rho, verdict)
        dense = _dense_reassembly_residual(rho, d, side, verdict.basis)
        scale = max(1.0, np.linalg.norm(rho))
        assert dense - 1e-15 * scale <= bound <= dense + 1e-14 * scale, (d, side, bound, dense)
    # a loose zero and a defect in a block the verdict does not read: the bound still holds
    cases = []
    for side in "AB":
        spec = perturb_spec(random_zero_discord_spec(3, side, rng), "modulus", 1e-3, rng)
        cases.append((3, side, 1e-2, circulant_state(spec)))
    for d, side in ((3, "A"), (5, "B")):
        rho = circulant_state(random_zero_discord_spec(d, side, rng))
        cases.append((d, side, DEFAULT_TOL, _lower_block_defect(rho, d, side, rng)))
    for d, side, tol, rho in cases:
        verdict = structural_discord_zero(rho, d, side, tol)
        assert verdict.zero_discord, (d, side)
        dense = _dense_reassembly_residual(rho, d, side, verdict.basis)
        assert _reassembly_bound(rho, verdict) >= dense > REASSEMBLY_TOL, (d, side)


def test_classical_decomposition_reads_the_verdict_without_a_second_pass(monkeypatch):
    # one block view and one rotation of the upper blocks decide and decompose
    calls = []
    for name in ("extract_blocks", "_norm_grids"):
        def counted(*args, _name=name, _f=getattr(blocks_module, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(blocks_module, name, counted)
    rho = circulant_state(random_zero_discord_spec(5, "B", np.random.default_rng(2)))
    classical_decomposition(rho, 5, "B")
    assert calls == ["extract_blocks", "_norm_grids"]


def _phase_family(a0, phi, side):
    """The d sector matrices of a^(0) and φ on ``side``, unnormalized and unchecked: the
    cores that generate_zero_discord and verify's draws build every family with."""
    ref = blocks_module._reference_stack(np.asarray(a0, complex)[None], _side_codes([side]))
    return blocks_module._family_stack(ref[0], np.asarray(phi, dtype=float))


def test_phase_family_relations():
    rng = np.random.default_rng(1)
    d = 3
    m = rng.random((d, d)) + 1j * rng.random((d, d))
    a0 = m @ m.conj().T
    a0 /= d * np.trace(a0).real
    phi = np.array([0.0, 0.9, -1.3])
    for side in ("A", "B"):
        mats = _phase_family(a0, phi, side)
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


def _window_sums(phi):
    """Ψ_k(i) = Σ_{s<k} φ_{(i+s) mod d}, shape (d, d), summed one k at a time."""
    d = len(phi)
    psi = np.zeros((d, d))
    for k in range(1, d):
        psi[k] = psi[k - 1] + phi[(np.arange(d) + k - 1) % d]
    return psi


def _phase_family_loop(a0, phi, side):
    """Reference: the sector matrices D_k·ref_k·D_k†, D_k = diag(v), v = e^{iΨ_k}, built one
    k at a time as v_i·ref_ij·conj(v_j)."""
    d, idx = a0.shape[0], np.arange(a0.shape[0])
    mats = []
    for k, psi in enumerate(_window_sums(phi)):
        v = np.exp(1j * psi)
        base = a0[np.ix_((idx + k) % d, (idx + k) % d)] if side == "A" else a0
        mats.append(v[:, None] * base * v.conj()[None, :])
    return mats


def test_phase_family_matches_loop_reference_exactly():
    rng = np.random.default_rng(19)
    for d in (2, 3, 5, 13):
        a0 = random_psd(d, rng)
        for phi in (random_phases(d, rng), np.zeros(d), -np.zeros(d)):
            for side in ("A", "B"):
                got = _phase_family(a0, phi, side)
                want = _phase_family_loop(a0, phi, side)
                assert len(got) == d
                for g, w in zip(got, want):
                    assert g.tobytes() == w.tobytes(), (d, side)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_family_stack_of_both_sides_matches_loop_reference(d):
    # a stack of both sides gives each row the loop's bytes, also for angles with −0.0,
    # ±π, large |φ| and equal window sums (φ = 0), on seeds whose entries have zero
    # parts of either sign
    rng = np.random.default_rng(60 + d)
    special = np.array([-0.0, 0.0, np.pi, -np.pi, 1e3, -1e3])
    signed = np.diag(rng.random(d)).astype(complex)
    signed[0, -1], signed[-1, 0] = complex(-0.0, 0.0), complex(0.0, -0.0)
    seeds = [random_psd(d, rng), random_psd(d, rng).real + 0j, signed]
    phis = [random_phases(d, rng), rng.choice(special, d), rng.uniform(-1e3, 1e3, d),
            np.zeros(d), -np.zeros(d), rng.choice(special, d)]
    cases = [(seed, phi, side) for seed in seeds for phi in phis for side in "AB"]
    a0, phi, sides = (np.array(x) for x in zip(*cases))
    got = blocks_module._family_stack(
        blocks_module._reference_stack(a0, blocks_module._side_codes(sides)), phi)
    for n, case in enumerate(cases):
        for k, want in enumerate(_phase_family_loop(*case)):
            assert got[n, k].tobytes() == want.tobytes(), (n, k)


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_family_stack_is_the_paper_family_to_rounding(d):
    # D_k·ref_k·D_k† equals the paper's e^{i(Ψ_k(i) − Ψ_k(j))}·ref_k to rounding, which
    # grows with |Ψ| and |ref|; it is Hermitian only to rounding, and every family that
    # generate_zero_discord and verify's draws build still passes validation
    rng = np.random.default_rng(70 + d)
    for phi in (random_phases(d, rng), rng.uniform(-1e3, 1e3, d)):
        for side in "AB":
            a0 = random_psd(d, rng)
            psi = _window_sums(phi)
            ref = blocks_module._reference_stack(a0[None], _side_codes([side]))[0]
            paper = np.exp(1j * (psi[:, :, None] - psi[:, None, :])) * ref
            bound = 1e-15 * max(1.0, np.abs(psi).max()) * max(1.0, np.abs(ref).max())
            assert np.abs(_phase_family(a0, phi, side) - paper).max() <= bound, (side, bound)
            validate_circulant_spec(generate_zero_discord(a0, phi, side))
    sides, a, kinds = verify_module._draws(d, range(6), rng, lambda t: t % 3 == 0)
    assert sides == list("ABABAB") and kinds.count(None) == 4
    for stack in a:
        validate_circulant_spec(CirculantSpec(d, stack))


def test_circulant_theorem_round_trip_both_sides():
    rng = np.random.default_rng(2)
    for d in (2, 3, 5):
        for side in ("A", "B"):
            m = rng.random((d, d)) + 1j * rng.random((d, d))
            a0 = m @ m.conj().T + 0.1 * np.eye(d)
            a0 /= d * np.trace(a0).real
            phi = np.concatenate([[0.0], rng.uniform(-np.pi, np.pi, d - 1)])
            spec = CirculantSpec(d, _phase_family(a0, phi, side))
            verdict = circulant_theorem_check(spec, side)
            assert verdict.zero_discord, (d, side)
            assert verdict.criterion == CRITERION_CIRCULANT
            np.testing.assert_allclose(
                np.mod(verdict.fitted_phases - phi, 2 * np.pi) % (2 * np.pi),
                0.0,
                atol=1e-9,
            )
            # the general commutation route agrees
            rho = circulant_state(spec)
            assert structural_discord_zero(rho, d, side).zero_discord


def _fit_phases_loop(spec, side):
    """Reference: each entry's path walked edge by edge, the first path within 1e-12
    relative of the strongest kept."""
    d, a = spec.d, spec.a
    fits = []
    for i in range(d):
        for j in range(i + 1, d):
            s = j - i
            if side == "B":
                path = [a[k][i, j] for k in range(d)]
                x = j - 1  # the cycle of step s lacks the edge (i − 1, j − 1)
            else:
                path = [a[k][(i - k) % d, (j - k) % d] for k in range(d)]
                x = j  # the cycle of step s lacks the edge (i, j)
            strength, phi = min(z.real ** 2 + z.imag ** 2 for z in path), np.zeros(d)
            for _ in range(d - 1):
                # side B: φ_{i+k} − φ_{j+k} = arg a^(k+1)_ij − arg a^(k)_ij; side A: the
                # same with u = i − k − 1 and the entries of a^(0)_{i,j} shifted by −k
                k = (x - i) % d if side == "B" else (i - 1 - x) % d
                phi[(x + s) % d] = phi[x % d] - (np.angle(path[k + 1]) - np.angle(path[k]))
                x += s
            fits.append((strength, phi - phi[0]))
    strongest = max(strength for strength, _ in fits)
    best = next(phi for strength, phi in fits if strength >= (1 - 1e-12) * strongest)
    if strongest <= ZERO_TOL**2:
        best = np.zeros(d)
    best = np.angle(np.exp(1j * best))
    best[0] = 0.0
    return best


def _zeroed_family(d, side, rng):
    """A zero-discord family whose a^(0) has its weaker half of off-diagonal pairs set to 0.

    The phase family keeps those zeros in every sector.  Each zeroed pair moves
    the eigenvalues of a^(0) by at most its modulus, which the diagonal gets back.
    """
    a0 = random_psd(d, rng)
    off = ~np.eye(d, dtype=bool)
    weak = off & (np.abs(a0) < np.median(np.abs(a0[off])))
    a0 = a0 + np.abs(a0[weak]).sum() * np.eye(d)
    a0[weak] = 0
    return generate_zero_discord(a0, random_phases(d, rng), side)


def _small_entry_family(d, side, rng, small=1e-7, noise=1e-12):
    """A zero-discord family with one off-diagonal pair of a^(0) at modulus ``small``, plus noise.

    The pair is shrunk before normalization (the diagonal gets back what the
    shrinking takes, so a^(0) stays positive definite); every sector then gets
    Hermitian Gaussian noise of scale ``noise``, far below the default tolerance.
    """
    a0 = random_psd(d, rng)
    p, q = rng.choice(d, 2, replace=False)
    big = abs(a0[p, q])
    a0[p, q] *= small / big
    a0[q, p] = np.conj(a0[p, q])
    a0 += big * np.eye(d)
    a = generate_zero_discord(a0, random_phases(d, rng), side).a
    g = rng.standard_normal((2, d, d, d))
    return CirculantSpec(d, a + noise * hermitize(g[0] + 1j * g[1]))


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11, 13])
def test_phase_paths_span_and_follow_the_theorem(d):
    entries, walks, steps = _phase_paths(d)
    pairs = list(zip(*np.triu_indices(d, 1)))
    assert entries.shape == walks.shape == (2, len(pairs), d)
    assert steps.shape == (2, len(pairs), d - 1)
    for code, side in enumerate("AB"):
        for e, (i, j) in enumerate(pairs):
            walk = walks[code, e].tolist()
            assert sorted(walk) == list(range(d)), (side, i, j)  # every node once
            # z_k, the entry in sector k: a^(k)_ij on side B, a^(k)_{i−k, j−k} on side A
            want = [(k, i, j) if side == "B" else (k, (i - k) % d, (j - k) % d) for k in range(d)]
            assert [np.unravel_index(x, (d, d, d)) for x in entries[code, e]] == want
            # the theorem: φ_u − φ_v = arg z_{k+1} − arg z_k with (u, v) = (i + k, j + k)
            # on side B and (i − k − 1, j − k − 1) on side A; step t goes from u to v
            assert sorted(steps[code, e].tolist()) == list(range(d - 1))
            for t, k in enumerate(steps[code, e].tolist()):
                u = (i + k) % d if side == "B" else (i - k - 1) % d
                assert (walk[t], walk[t + 1]) == (u, (u + j - i) % d), (side, i, j, t)


def test_fit_phases_matches_loop_reference_exactly():
    rng = np.random.default_rng(17)
    for d in (2, 3, 5, 7, 13):
        specs = []
        for gen_side in ("A", "B"):
            spec = random_zero_discord_spec(d, gen_side, rng)
            sparse = [m.copy() for m in spec.a]
            for m in sparse:
                m[np.abs(m) < np.median(np.abs(m))] = 0  # paths usable only in part
            specs += [spec, CirculantSpec(d, tuple(sparse)), _zeroed_family(d, gen_side, rng)]
            specs += [perturb_spec(spec, kind, 0.1, rng) for kind in PERTURBATION_KINDS]
            specs.append(_small_entry_family(d, gen_side, rng))
        for side in ("A", "B"):
            stacked = _fit_phases(np.array([s.a for s in specs]), [side] * len(specs))
            for s, row in zip(specs, stacked):
                want = _fit_phases_loop(s, side)
                np.testing.assert_array_equal(_fit_phases(s.a[None], [side])[0], want)
                np.testing.assert_array_equal(row, want)


def test_tied_paths_fit_the_same_phases_whatever_the_last_bits():
    # at d = 3 every path ties on the side opposite a zero family, here one with a phase
    # perturbation, and on a nonclassical Bell state; raising one path's weakest entry
    # by 1e-14 made argmax take that path, and the phases moved by 0.19 and 2.3 rad here
    rng = np.random.default_rng(5)
    specs = [(perturb_spec(random_zero_discord_spec(3, "A", rng), "phase", 0.1, rng), "B"),
             (bell_diagonal_state(random_nonclassical_bell(3, rng)), "A")]
    for spec, side in specs:
        entries = _phase_paths(3)[0][_side_codes([side])[0]]
        strength = np.abs(spec.a.reshape(-1)[entries]).min(axis=1)
        assert strength.min() >= (1 - 1e-12) * strength.max(), strength
        fits = [circulant_theorem_check(spec, side).fitted_phases]
        for path in entries:
            a = np.array(spec.a)
            k, i, j = np.unravel_index(path[np.abs(a.reshape(-1)[path]).argmin()], a.shape)
            a[k, i, j] *= 1 + 1e-14
            a[k, j, i] = np.conj(a[k, i, j])
            fits.append(circulant_theorem_check(CirculantSpec(3, a), side).fitted_phases)
        for phi in fits:
            assert np.abs(np.angle(np.exp(1j * (phi - fits[0])))).max() <= 1e-12, (side, fits)


def test_small_entry_family_reads_zero():
    # one off-diagonal pair of a^(0) at modulus 1e-7, then noise of 1e-12: the
    # breadth-first fit took the small pair's phases and read 98 of these 240 as
    # nonzero.  The general criterion is not asserted here: it reads 6 as
    # nonzero, as the noise turns its eigenbasis where the small pair leaves a
    # narrow gap.
    for d in (3, 5, 7):
        for side in "AB":
            rng = np.random.default_rng([6, d, ord(side)])
            specs = [_small_entry_family(d, side, rng) for _ in range(40)]
            theorem = _theorem_verdicts(np.array([s.a for s in specs]), [side] * len(specs),
                                        DEFAULT_TOL)
            assert all(v.zero_discord for v in theorem), (d, side)


def test_circulant_theorem_identity_phases():
    # φ = 0 family: a^(k) are plain shifted copies (side A) or repeats (side B)
    d = 3
    a0 = np.full((d, d), 1 / (d * d), dtype=complex)
    for side in ("A", "B"):
        spec = CirculantSpec(d, _phase_family(a0, np.zeros(d), side))
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
    mats = [x.copy() for x in _phase_family(a0, phi, "A")]
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
    spec = CirculantSpec(d, _phase_family(a0, phi, "B"))
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
        specs = [CirculantSpec(d, _lambda_sectors("werner", d, 0.2))]
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
        rho = circulant_state(spec)
        assert structural_discord_zero(rho, d, side).zero_discord
        assert circulant_theorem_check(spec, side).zero_discord


def test_generate_zero_discord_rejections():
    with pytest.raises(PrimeRequired):
        generate_zero_discord(np.eye(4), np.zeros(4), "A")
    with pytest.raises(InvalidSpec, match="a0 is not Hermitian"):
        generate_zero_discord(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros(2), "A")
    with pytest.raises(InvalidSpec, match="a0 must have positive trace"):
        generate_zero_discord(np.zeros((2, 2)), np.zeros(2), "A")
    neg = np.diag([1.0, -0.5])
    with pytest.raises(InvalidSpec, match="a0 has negative eigenvalue"):
        generate_zero_discord(neg, np.zeros(2), "A")
    a0 = np.eye(3) / 3
    for bad in (np.nan, np.inf):
        seed = a0.astype(complex)
        seed[0, 1] = bad
        with pytest.raises(InvalidSpec, match="a0 has non-finite entries"):
            generate_zero_discord(seed, np.zeros(3), "B")
        with pytest.raises(InvalidSpec, match="phases has non-finite entries"):
            generate_zero_discord(a0, [0.0, bad, 0.0], "B")
    # ‖a0 − a0†‖_F is exactly 2δ here, and max(1, ‖a0‖_F) is 1
    for delta, hermitian in ((1e-10, False), (2.5e-11, True)):
        skew = a0.astype(complex)
        skew[1, 1] += 1j * delta
        if hermitian:
            spec = generate_zero_discord(skew, np.zeros(3), "A")
            assert circulant_theorem_check(spec, "A").zero_discord
        else:
            with pytest.raises(InvalidSpec, match="a0 is not Hermitian"):
                generate_zero_discord(skew, np.zeros(3), "A")


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
    spec = CirculantSpec(d, _phase_family(a0, phi, "A"))
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
    return CirculantSpec(d, _phase_family(a0, random_phases(d, rng), "A"))


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
        specs.append(("circulant-a0", CirculantSpec(d, _phase_family(a0, random_phases(d, rng), side))))
    specs += [("constant-modulus", _constant_modulus_family(d, rng)) for _ in range(2)]
    specs += [("zero-" + side, random_zero_discord_spec(d, side, rng)) for side in ("A", "B")]
    specs += [("werner", werner_state(d, 0.05)), ("isotropic", isotropic_state(d, 0.3))]
    return specs


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_completely_classical_equals_general_criterion_on_both_sides(d):
    rng = np.random.default_rng(40 + d)
    for label, spec in _two_sided_specs(d, rng):
        rho = circulant_state(spec)
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


def _complete_from_theorem(spec, tol):
    """Complete classicality composed from the public theorem: the uniform-diagonal
    precheck, then the side A and B verdicts of one-pair calls."""
    if (np.abs(spec.a[:, ~np.eye(spec.d, dtype=bool)]) <= ZERO_TOL).all():
        return StructuralVerdict(True, "both", CRITERION_DIAGONAL)
    diag, want = np.diag(spec.a[0]), 1.0 / spec.d**2
    scale = max(1.0, *(np.linalg.norm(m) for m in spec.a))
    for i, x in enumerate(diag):
        if not abs(x - want) <= tol * scale:
            witness = {"kind": "nonuniform-diagonal", "entry": [i, i], "got": float(x.real), "want": want}
            return StructuralVerdict(False, "both", CRITERION_CIRCULANT, witness=witness)
    side_a, side_b = (circulant_theorem_check(spec, side, tol) for side in "AB")
    inner = side_b if side_a.zero_discord else side_a
    if inner.zero_discord:
        return StructuralVerdict(True, "both", CRITERION_CIRCULANT, fitted_phases=side_a.fitted_phases)
    witness = {**inner.witness, "side": inner.side}
    return StructuralVerdict(False, "both", CRITERION_CIRCULANT, witness=witness,
                             fitted_phases=inner.fitted_phases)


def _analyze_closed_forms(spec, side, tol, monkeypatch):
    """The closed-form keys of the ``analyze`` report for ``spec`` (its numeric part stubbed out)."""
    loaded = LoadedState("circulant", spec.d, _dense_states(spec.a[None])[0], spec=spec)
    monkeypatch.setattr(verify_module, "discord_sides", lambda rho, d, sides, cfg: [])
    sides = ["A", "B"] if side == "both" else [side]
    report = json.loads(json.dumps(analyze(loaded, sides, tol, OptimizerConfig())))
    return {key: report[key] for key in
            ("circulant_theorem", "necessary_conditions", "completely_classical")}


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_analyze_closed_forms_equal_the_public_calls(d, monkeypatch):
    # analyze composes its closed forms from the public calls: each key equals
    # the call on a fresh spec, for every --side, and the completely-classical
    # verdict equals the one composed from the public theorem
    rng = np.random.default_rng(70 + d)
    specs = [spec for _, spec in _two_sided_specs(d, rng)]  # classical Bell: uniform diagonal
    zeros = specs[-4:-2]  # zero on side A, then on side B
    specs += [perturb_spec(spec, kind, 0.05, rng) for spec in zeros for kind in PERTURBATION_KINDS]
    weights = rng.dirichlet(np.ones(d * d)).reshape(d, d)
    specs.append(CirculantSpec(d, [np.diag(w).astype(complex) for w in weights]))
    specs += [CirculantSpec(d, 40.0 * spec.a) for spec in specs[:2]]  # scales above 1
    seen = set()
    for tol in (1e-9, 1e-3):
        for spec in specs:
            fresh = CirculantSpec(d, spec.a.copy())
            complete = completely_classical_check(fresh, tol).to_json()
            assert complete == _complete_from_theorem(fresh, tol).to_json()
            seen.add((complete["criterion"], complete["zero_discord"],
                      (complete["witness"] or {}).get("kind")))
            for side, sides in (("both", "AB"), ("A", "A"), ("B", "B")):
                got = _analyze_closed_forms(spec, side, tol, monkeypatch)
                want = json.loads(json.dumps({
                    "circulant_theorem": {
                        s: circulant_theorem_check(fresh, s, tol).to_json() for s in sides},
                    "necessary_conditions": {
                        s: circulant_necessary_conditions(fresh, s, tol) for s in sides},
                    "completely_classical": complete,
                }))
                assert got == want, (side, tol)
                assert list(got["circulant_theorem"]) == list(sides)
                assert list(got["necessary_conditions"]) == list(sides)
    assert {(CRITERION_DIAGONAL, True, None), (CRITERION_CIRCULANT, True, None),
            (CRITERION_CIRCULANT, False, "nonuniform-diagonal")} <= seen
    # the uniform-diagonal constant-modulus family fails side B from d = 5
    assert ((CRITERION_CIRCULANT, False, "relation-violation") in seen) == (d > 3)


def test_completely_classical_precheck_fits_no_phases(monkeypatch):
    # a nonuniform a^(0) diagonal decides before the theorem, so no φ is fitted
    rng = np.random.default_rng(73)
    specs = [classical_x_spec(), werner_state(3, 0.1), isotropic_state(5, 0.3)]
    specs += [perturb_spec(random_zero_discord_spec(d, "B", rng), "diagonal", 0.05, rng)
              for d in (3, 5, 7)]
    monkeypatch.setattr(blocks_module, "_fit_phases", _no_call)
    for spec in specs:
        verdict = completely_classical_check(spec)
        assert not verdict.zero_discord
        assert verdict.witness["kind"] == "nonuniform-diagonal"
        assert verdict.fitted_phases is None


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
    rho = circulant_state(bell_diagonal_state(BellWeights(d, p)))
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
    rho = circulant_state(classical_x_spec())
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
    rho = circulant_state(classical_x_spec()).conj()
    # conjugating swaps nothing structurally here; build a genuine side-B
    # classical state instead via the generator
    rng = np.random.default_rng(8)
    m = rng.random((3, 3)) + 1j * rng.random((3, 3))
    a0 = m @ m.conj().T + 0.2 * np.eye(3)
    spec = generate_zero_discord(a0, np.array([0.0, 0.5, -0.8]), "B")
    rho = circulant_state(spec)
    parts = classical_decomposition(rho, 3, "B")
    recon = sum(
        p * np.kron(sigma, np.outer(v, v.conj())) for p, v, sigma in parts
    )
    np.testing.assert_allclose(recon, rho, atol=1e-9)


def test_classical_decomposition_requires_zero_discord():
    rho = circulant_state(werner_state(2, -0.5))
    with pytest.raises(PreconditionError):
        classical_decomposition(rho, 2, "A")


def test_classical_decomposition_reads_the_lower_blocks_the_criterion_skips():
    # the general criterion reads only blocks B_ij with i ≤ j, taking B_ji as B_ij†;
    # a non-Hermitian defect of norm 1e-6 in one lower block, chosen so that the
    # Hermitian part of the generic combination G does not see it, leaves the
    # verdict zero, but the decomposition reassembles every block and refuses it
    rng = np.random.default_rng(17)
    for d in (3, 5):
        W = _generic_weights(d)
        for side in "AB":
            rho = circulant_state(random_zero_discord_spec(d, side, rng)).copy()
            i, j = 0, d - 1
            H = hermitize(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            E = 1j * H / W[j, i]  # W_ji·E is anti-Hermitian, so hermitize(G) drops it
            E *= 1e-6 / np.linalg.norm(E)
            if side == "B":
                rho[j * d : (j + 1) * d, i * d : (i + 1) * d] += E
            else:
                rho[j::d, i::d] += E
            B = extract_blocks(rho, d, side)
            defect = np.abs(B - B.swapaxes(0, 1).conj().swapaxes(-1, -2)).max(axis=(-2, -1))
            assert set(zip(*np.nonzero(defect > 1e-12))) == {(i, j), (j, i)}  # B_ji ≠ B_ij† only
            assert structural_discord_zero(rho, d, side).zero_discord, (d, side)
            with pytest.raises(PreconditionError, match="reassembly residual"):
                classical_decomposition(rho, d, side)


def test_classical_decomposition_maximally_mixed():
    # every block is a multiple of I, so the generic combination is fully degenerate
    rho = np.eye(9, dtype=complex) / 9
    parts = classical_decomposition(rho, 3, "A")
    recon = sum(
        p * np.kron(np.outer(v, v.conj()), sigma) for p, v, sigma in parts
    )
    np.testing.assert_allclose(recon, rho, atol=1e-10)


def test_classical_decomposition_gives_empty_outcomes_the_mixed_conditional():
    # |0⟩⟨0| ⊗ σ measured on side A: outcomes 1 and 2 have p = 0, and their
    # conditional state, undefined, is the maximally mixed one
    d, sigma = 3, np.array([0.5, 0.3, 0.2])
    a = np.zeros((d, d, d), dtype=complex)
    a[:, 0, 0] = sigma
    rho = circulant_state(CirculantSpec(d, a))
    np.testing.assert_array_equal(rho, np.kron(np.diag([1.0, 0, 0]), np.diag(sigma)))
    parts = classical_decomposition(rho, d, "A")
    assert [p for p, _, _ in parts] == [1.0, 0.0, 0.0]
    np.testing.assert_allclose(parts[0][2], np.diag(sigma), atol=1e-15)
    for _, _, cond in parts[1:]:
        np.testing.assert_array_equal(cond, np.eye(d) / d)


def test_classical_decomposition_rejects_a_loose_zero_that_does_not_reassemble():
    # at tol 1e-2 a modulus perturbation of 1e-3 reads zero, but the blocks in
    # its basis are off-diagonal by far more than REASSEMBLY_TOL
    rng = np.random.default_rng(5)
    for side in "AB":
        spec = perturb_spec(random_zero_discord_spec(3, side, rng), "modulus", 1e-3, rng)
        rho = circulant_state(spec)
        assert structural_discord_zero(rho, 3, side, 1e-2).zero_discord
        with pytest.raises(PreconditionError, match="reassembly residual"):
            classical_decomposition(rho, 3, side, 1e-2)


def test_isotropic_necessary_conditions_fail():
    spec = isotropic_state(3, 0.4)
    report = circulant_necessary_conditions(spec, "B")
    assert not report["passed"]


def test_generate_zero_discord_rejects_a_non_square_seed():
    with pytest.raises(DimensionError, match="a0 must be square"):
        generate_zero_discord(np.eye(3)[:2], np.zeros(3), "A")


@pytest.mark.parametrize("make", [generate_zero_discord], ids=["generate_zero_discord"])
def test_seed_and_phases_are_checked_alike(make):
    a0, phi = np.diag([0.5, 0.3, 0.2]).astype(complex), np.array([0.0, 0.4, -1.1])
    for seed in (np.ones((2, 3)), np.ones(3), np.zeros((0, 0))):
        with pytest.raises(DimensionError, match="a0 must be square and nonempty"):
            make(seed, phi, "A")
    with pytest.raises(DimensionError, match="expected 3 phase angles"):
        make(a0, phi[:2], "B")
    nan = a0.copy()
    nan[0, 1] = np.nan
    with pytest.raises(InvalidSpec, match="a0 has non-finite entries"):
        make(nan, phi, "A")
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidSpec, match="phases has non-finite entries"):
            make(a0, np.array([0.0, bad, 0.3]), "B")


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
                _phase_family(a0, phi, side)
            with pytest.raises(DimensionError, match="expected 3 phase angles"):
                generate_zero_discord(a0, phi, side)


_TOL_ENTRY_POINTS = {
    "structural_verdicts": lambda spec, p, tol: structural_verdicts(
        [circulant_state(spec)] * 2, spec.d, "AB", tol),
    "structural_discord_zero": lambda spec, p, tol: structural_discord_zero(
        circulant_state(spec), spec.d, "A", tol),
    "_theorem_verdicts": lambda spec, p, tol: _theorem_verdicts(
        np.stack([spec.a, spec.a]), "AB", tol),
    "circulant_theorem_check": lambda spec, p, tol: circulant_theorem_check(spec, "B", tol),
    "circulant_necessary_conditions": lambda spec, p, tol: circulant_necessary_conditions(
        spec, "A", tol),
    "completely_classical_check": lambda spec, p, tol: completely_classical_check(spec, tol),
    "bell_zero_discord_check": lambda spec, p, tol: bell_zero_discord_check(p, tol),
    "run_verify": lambda spec, p, tol: run_verify(3, draws=1, tol=tol),
}


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("entry", list(_TOL_ENTRY_POINTS))
def test_nonfinite_tolerance_is_rejected(entry, tol):
    # a NaN tolerance used to put the invalid JSON token NaN into witnesses,
    # and an infinite one called every state zero-discord; a negative one stays allowed
    rng = np.random.default_rng(24)
    spec = perturb_spec(random_zero_discord_spec(3, "A", rng), "modulus", 0.1, rng)
    p, _ = random_classical_bell(3, 1, rng)
    call = _TOL_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match="tol must be finite"):
        call(spec, p, tol)
    call(spec, p, -1.0)


@pytest.mark.parametrize("tol", ["x", None, True, [0.1]])
@pytest.mark.parametrize("entry", list(_TOL_ENTRY_POINTS))
def test_a_tolerance_that_is_no_real_number_is_rejected(entry, tol):
    # a string or None escaped as a bare TypeError, and a list was broadcast into the thresholds
    rng = np.random.default_rng(24)
    spec = perturb_spec(random_zero_discord_spec(3, "A", rng), "modulus", 0.1, rng)
    p, _ = random_classical_bell(3, 1, rng)
    with pytest.raises(InvalidSpec, match="^tol must be a real number, got "):
        _TOL_ENTRY_POINTS[entry](spec, p, tol)


def _closed_form_specs(d, rng):
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
    # answers must not change with call order, on repeat, or on a fresh
    # copy of the stack, and a spec's fields stay its dimension and stack
    rng = np.random.default_rng(70 + d)
    for spec in _closed_form_specs(d, rng):
        shown = repr(spec)
        first = _closed_forms_json(spec)
        assert _closed_forms_json(spec) == first
        assert _closed_forms_json(spec, reverse=True) == first
        fresh = CirculantSpec(d, spec.a)
        assert _closed_forms_json(fresh, reverse=True) == first
        assert repr(spec) == shown == repr(fresh)
        assert [f.name for f in dataclasses.fields(spec)] == ["d", "a"]


def test_edited_verdicts_do_not_change_later_ones():
    # a caller that edits the witness or φ a verdict carries must not reach
    # the next verdict: each verdict's φ is a new array of its own
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
        verdict.fitted_phases[1:] = -7.0
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
    kept = [_generic_weights(d), *_screen_table(d), _shifts(d), _sector_index(d),
            *_phase_paths(d)]
    for array in kept:
        assert not array.flags.writeable


def test_tolerance_sweep_answers_as_a_fresh_spec():
    # one spec asked at 100 tolerances in turn answers each as a fresh copy does
    rng = np.random.default_rng(26)
    spec = perturb_spec(random_zero_discord_spec(5, "B", rng), "phase", 0.1, rng)
    tols = np.geomspace(1e-12, 1.0, 100).tolist()
    verdicts = {tol: _closed_forms_json(spec, tol) for tol in tols}
    for tol, want in verdicts.items():
        assert _closed_forms_json(CirculantSpec(5, spec.a), tol) == want, tol
    zeros = {json.loads(v["theorem-B"])["zero_discord"] for v in verdicts.values()}
    assert zeros == {False, True}  # the sweep crosses the verdict's threshold


def _batch_specs(d, rng):
    """Mixed specs: zero on each side, each perturbation kind, all-diagonal,
    zeroed off-diagonal pairs (keep-masks differ), classical Bell, unnormalized."""
    specs = [random_zero_discord_spec(d, side, rng) for side in "AB"]
    specs += [perturb_spec(random_zero_discord_spec(d, "AB"[n % 2], rng), kind, 0.05, rng)
              for n, kind in enumerate(PERTURBATION_KINDS)]
    weights = rng.dirichlet(np.ones(d * d)).reshape(d, d)
    specs.append(CirculantSpec(d, [np.diag(w).astype(complex) for w in weights]))
    for side in "AB":
        sparse = random_zero_discord_spec(d, side, rng).a.copy()
        sparse[:, 0, 1] = sparse[:, 1, 0] = 0.0  # a zero pair: no usable phase there
        specs.append(CirculantSpec(d, sparse))
    specs.append(bell_diagonal_state(random_classical_bell(d, 1 % d, rng)[0]))
    specs += [CirculantSpec(d, 40.0 * spec.a) for spec in specs[:3]]  # scales above 1
    return specs


@pytest.mark.parametrize("d", [2, 3, 5, 7, 11])
def test_batched_closed_forms_equal_lone_calls(d):
    # each verdict of a mixed stack, witness and phases included, is the JSON
    # of the one-pair call on a fresh spec, byte for byte
    rng = np.random.default_rng(80 + d)
    specs = _batch_specs(d, rng)
    pairs = [(spec, side) for spec in specs for side in "AB"]
    pairs = [pairs[n] for n in rng.permutation(len(pairs))]
    for tol in (DEFAULT_TOL, 1e-3, -1.0):
        stacked = _theorem_verdicts(np.array([s.a for s, _ in pairs]), [s for _, s in pairs], tol)
        for (spec, side), verdict in zip(pairs, stacked):
            lone = circulant_theorem_check(CirculantSpec(d, spec.a), side, tol)
            assert json.dumps(verdict.to_json()) == json.dumps(lone.to_json()), (side, tol)
            if lone.fitted_phases is not None:
                assert verdict.fitted_phases.tobytes() == lone.fitted_phases.tobytes()
        kinds = {(v.criterion, v.zero_discord) for v in stacked}
        if tol == DEFAULT_TOL:
            assert {(CRITERION_DIAGONAL, True), (CRITERION_CIRCULANT, True),
                    (CRITERION_CIRCULANT, False)} <= kinds
    weights = [random_classical_bell(d, alpha, rng)[0] for alpha in range(d)]
    weights += [random_nonclassical_bell(d, rng) for _ in range(3)]
    weights.append(np.full((d, d), 1.0 / d**2))
    weights = [weights[n] for n in rng.permutation(len(weights))]
    for tol in (DEFAULT_TOL, 1e-2, -1.0):
        stacked = blocks_module._bell_verdicts(np.array(weights), tol)  # the stack verify decides
        lone = [bell_zero_discord_check(p, tol) for p in weights]
        assert [json.dumps(v.to_json()) for v in stacked] == [json.dumps(v.to_json()) for v in lone]
        if tol == DEFAULT_TOL:
            assert {v.zero_discord for v in stacked} == {True, False}
    assert _theorem_verdicts(np.empty((0, d, d, d)), [], DEFAULT_TOL) == []


def test_batched_closed_forms_reject_bad_stacks():
    # a side other than A or B breaks the one side rule anywhere in the stack
    a = werner_state(3, 0.1).a
    with pytest.raises(DimensionError, match="2 specs and 1 sides"):
        _theorem_verdicts(np.stack([a, a]), "A", DEFAULT_TOL)
    with pytest.raises(InvalidSpec, match="side must be 'A' or 'B', got 'C'"):
        _theorem_verdicts(np.stack([a, a]), ["A", "C"], DEFAULT_TOL)


def test_theorem_core_checks_its_stack():
    # the stacked core that verify calls keeps the public function's checks
    a = random_zero_discord_spec(3, "A", np.random.default_rng(1)).a[None]
    core = blocks_module._theorem_verdicts
    with pytest.raises(ValueError, match="tol must be finite"):
        core(a, "A", float("nan"))
    with pytest.raises(DimensionError, match="1 specs and 2 sides"):
        core(a, "AB", DEFAULT_TOL)
    with pytest.raises(DimensionError):
        core(a[:, :2], "A", DEFAULT_TOL)
    with pytest.raises(DimensionError):
        core(a[0], "ABC", DEFAULT_TOL)
    with pytest.raises(PrimeRequired):
        core(np.zeros((1, 4, 4, 4), dtype=complex), "A", DEFAULT_TOL)
    with pytest.raises(ValueError, match="side must be 'A' or 'B'"):
        core(a, "C", DEFAULT_TOL)
    assert core(a[:0], "", DEFAULT_TOL) == []
    want = circulant_theorem_check(CirculantSpec(3, a[0]), "A")
    assert json.dumps(core(a, "A", DEFAULT_TOL)[0].to_json()) == json.dumps(want.to_json())


@pytest.mark.parametrize("d", [2, 3, 5, 7])
def test_necessary_conditions_fit_no_phases(d, monkeypatch):
    # the prechecks never read φ, so they do not fit it, and report the
    # failures the entry-by-entry reference finds
    rng = np.random.default_rng(60 + d)
    specs = [spec for _, spec in _two_sided_specs(d, rng)] + _batch_specs(d, rng)
    specs.append(isotropic_state(d, 0.3))
    monkeypatch.setattr(blocks_module, "_fit_phases", _no_call)
    for tol in (1e-9, 1e-3, -1.0):
        for spec in specs:
            for side in "AB":
                got = circulant_necessary_conditions(spec, side, tol)
                want = _necessary_conditions_loop(spec, side, tol)
                assert got["passed"] == (not want), (side, tol)
                assert [(f["condition"], f["n"], f["entry"]) for f in got["failures"]] == \
                    [w[:3] for w in want], (side, tol)


def _no_call(*args):
    raise AssertionError("called")


def test_bell_check_raises_each_bad_matrix_error():
    # each bad weight matrix raises its own error, as an array and, where it
    # is d×d, as BellWeights; valid BellWeights answer as their array does
    rng = np.random.default_rng(5)
    good = [random_classical_bell(3, alpha, rng)[0] for alpha in range(3)]
    good += [random_nonclassical_bell(3, rng) for _ in range(3)]
    nan, neg, heavy = good[0].copy(), good[1].copy(), 1.5 * good[2]
    nan[1, 2] = np.nan
    neg[0, 0], neg[0, 1] = -0.01, neg[0, 1] + neg[0, 0] + 0.01
    bad = {
        "non-finite": (nan, InvalidSpec, "weights has non-finite entries"),
        "negative": (neg, InvalidSpec, "negative weight"),
        "wrong sum": (heavy, InvalidSpec, "weights sum to"),
        "non-square": (np.full((3, 4), 1 / 12), DimensionError, "weights must be square"),
        "flat": (np.full(9, 1 / 9), DimensionError, "weights must be square"),
        "non-prime": (np.full((4, 4), 1 / 16), PrimeRequired, "prime dimension"),
    }
    for kind, (w, error, message) in bad.items():
        forms = [w] if w.ndim != 2 or w.shape[0] != w.shape[1] else [w, BellWeights(len(w), w)]
        for form in forms:
            with pytest.raises(error, match=message):
                bell_zero_discord_check(form)
    as_objects = [bell_zero_discord_check(BellWeights(3, w)).to_json() for w in good]
    assert as_objects == [bell_zero_discord_check(w).to_json() for w in good]


def test_closed_form_scale_is_the_sector_norms():
    # max(1, maxₙ ‖a^(n)‖_F), each norm the one np.linalg.norm forms over a sector
    rng = np.random.default_rng(81)
    for d in (2, 3, 5, 7, 13):
        for factor in (1.0, 3.0, 40.0):
            a = factor * random_zero_discord_spec(d, "AB"[d % 2], rng).a
            want = max(1.0, float(np.linalg.norm(a, axis=(1, 2)).max()))
            assert blocks_module._scales(a) == want
            assert blocks_module._scales(a[None])[0] == want


@settings(deadline=None, max_examples=40)
@given(d=st.sampled_from((3, 5, 7)), side=st.sampled_from("AB"),
       kind=st.sampled_from((None, *PERTURBATION_KINDS)), eps=st.floats(0.02, 0.15),
       seed=st.integers(0, 2**32 - 1))
def test_party_swap_exchanges_the_sides_verdicts(d, side, kind, eps, seed):
    # F ρ F swaps the parties: b^((−m) mod d)[(i+m) mod d, (j+m) mod d] = a^(m)[i, j].
    # Perturbations of ε ≥ 0.02 keep the specs far from the tolerance.
    rng = np.random.default_rng(seed)
    spec = random_zero_discord_spec(d, side, rng)
    if kind is not None:
        spec = perturb_spec(spec, kind, eps, rng)
    rho = circulant_state(spec)
    F = flip_operator(d)
    swapped = project_circulant(F @ rho @ F, d)
    for m in range(d):
        j = (np.arange(d) + m) % d
        np.testing.assert_array_equal(swapped.a[-m % d][np.ix_(j, j)], spec.a[m])
    for own, other in ("AB", "BA"):
        assert (circulant_theorem_check(spec, own).zero_discord
                == circulant_theorem_check(swapped, other).zero_discord)
        assert (structural_discord_zero(rho, d, own).zero_discord
                == structural_discord_zero(circulant_state(swapped), d, other).zero_discord)

"""Numeric oracle: mutual information, conditional entropy, discord."""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from discordant.blocks import bell_zero_discord_check, structural_discord_zero
from discordant.discord import (
    DiscordResult,
    MeasurementBasis,
    OptimizerConfig,
    _contraction,
    _objective,
    _small_eigvalsh,
    classical_correlation,
    conditional_entropy,
    discord,
    discord_sides,
    mutual_information,
)
from discordant.errors import InvalidMeasurement
from discordant.linalg import (
    fourier_matrix,
    partial_trace,
    random_unitary,
    von_neumann_entropy,
)
from discordant.states import (
    BellWeights,
    bell_diagonal_state,
    circulant_state,
    max_entangled_projector,
    werner_state,
)
from discordant.verify import (
    NUMERIC_NONZERO_TOL,
    NUMERIC_ZERO_TOL,
    perturb_spec,
    random_classical_bell,
    random_zero_discord_spec,
)

from test_blocks import classical_x_spec

CFG2 = OptimizerConfig(seed=0)
CFG3 = OptimizerConfig(starts=8, seed=0)


def computational_basis(d):
    return MeasurementBasis(d, np.eye(d, dtype=complex))


def test_mutual_information_oracles():
    assert mutual_information(np.eye(4, dtype=complex) / 4, 2) == pytest.approx(
        0.0, abs=1e-12
    )
    assert mutual_information(max_entangled_projector(2), 2) == pytest.approx(
        2.0, abs=1e-12
    )
    assert mutual_information(max_entangled_projector(3), 3) == pytest.approx(
        2 * np.log2(3), abs=1e-12
    )
    # classically correlated bit pair carries 1 bit
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert mutual_information(rho, 2) == pytest.approx(1.0, abs=1e-12)


def test_conditional_entropy_oracles():
    basis = computational_basis(2)
    assert conditional_entropy(
        np.eye(4, dtype=complex) / 4, 2, basis, "A"
    ) == pytest.approx(1.0, abs=1e-12)
    # measuring A of P+ in any basis collapses B to a pure state
    assert conditional_entropy(
        max_entangled_projector(2), 2, basis, "A"
    ) == pytest.approx(0.0, abs=1e-12)
    # correlated bits measured in the ± basis stay fully mixed
    plus_minus = MeasurementBasis(
        2, np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    )
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert conditional_entropy(rho, 2, plus_minus, "A") == pytest.approx(
        1.0, abs=1e-12
    )
    assert conditional_entropy(rho, 2, basis, "A") == pytest.approx(0.0, abs=1e-12)


def test_conditional_entropy_rejects_bad_basis():
    skew = MeasurementBasis(2, np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(InvalidMeasurement):
        conditional_entropy(np.eye(4, dtype=complex) / 4, 2, skew, "A")


def test_classical_correlation_product_state():
    rho = np.kron(np.diag([0.7, 0.3]), np.diag([0.6, 0.4])).astype(complex)
    value, basis = classical_correlation(rho, 2, "A", CFG2)
    assert value == pytest.approx(0.0, abs=1e-9)
    basis.validate()


def test_classical_correlation_bell_pair():
    value, _ = classical_correlation(max_entangled_projector(2), 2, "A", CFG2)
    assert value == pytest.approx(1.0, abs=1e-9)


def test_classical_x_state_has_zero_discord():
    rho = circulant_state(classical_x_spec(), validate=True)
    res = discord(rho, 2, "A", CFG2)
    assert res.discord == 0.0
    assert res.classical_correlation == pytest.approx(
        res.mutual_information, abs=1e-9
    )


def test_pure_state_discord_is_entanglement_entropy():
    for d, cfg in ((2, CFG2), (3, CFG3)):
        res = discord(max_entangled_projector(d), d, "A", cfg)
        assert res.mutual_information == pytest.approx(2 * np.log2(d), abs=1e-9)
        assert res.discord == pytest.approx(np.log2(d), abs=1e-5)


def test_werner_half_is_discordant():
    rho = circulant_state(werner_state(2, -0.5), validate=True)
    res = discord(rho, 2, "A", CFG2)
    assert res.discord > 1e-3
    assert res.classical_correlation <= res.mutual_information + 1e-9


def test_discord_deterministic():
    rho = circulant_state(werner_state(3, 0.2), validate=True)
    r1 = discord(rho, 3, "A", CFG3)
    r2 = discord(rho, 3, "A", CFG3)
    assert r1.discord == r2.discord
    assert r1.classical_correlation == r2.classical_correlation
    np.testing.assert_array_equal(
        r1.best_measurement.vectors, r2.best_measurement.vectors
    )


def test_discord_local_unitary_invariance():
    rng = np.random.default_rng(9)
    rho = circulant_state(werner_state(2, 0.25), validate=True)
    U = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    rotated = U @ rho @ U.conj().T
    d1 = discord(rho, 2, "A", CFG2).discord
    d2 = discord(rotated, 2, "A", CFG2).discord
    assert abs(d1 - d2) <= 2e-6


def test_discord_nonnegative_and_bounded():
    rng = np.random.default_rng(10)
    for _ in range(5):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        res = discord(rho, 2, "B", CFG2)
        assert res.discord >= 0.0
        assert res.classical_correlation <= res.mutual_information + 1e-9


def test_discord_result_json():
    res = discord(max_entangled_projector(2), 2, "A", CFG2)
    obj = res.to_json()
    assert set(obj) == {"I", "C", "D", "side", "basis", "starts_converged"}
    assert obj["side"] == "A"
    assert len(obj["basis"]) == 2
    assert len(obj["basis"][0]) == 2 and len(obj["basis"][0][0]) == 2
    assert isinstance(res, DiscordResult)


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(starts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(f_tol=0.0)
    for f_tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            OptimizerConfig(f_tol=f_tol)
    with pytest.raises(ValueError):
        OptimizerConfig(seed=-1)
    for max_iters in (0, -5):
        with pytest.raises(ValueError):
            OptimizerConfig(max_iters=max_iters)
    for field in ("starts", "max_iters", "seed"):
        with pytest.raises(ValueError):
            OptimizerConfig(**{field: 2.5})


def _bloch_scan_discord(rho, side, n_theta=41, n_phi=80):
    """Brute-force D over a (θ, φ) grid of d = 2 measurement bases."""
    best = np.inf
    for theta in np.linspace(0.0, np.pi, n_theta):
        for phi in np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False):
            c, s, e = np.cos(theta / 2), np.sin(theta / 2), np.exp(1j * phi)
            basis = MeasurementBasis(2, np.array([[c, -s / e], [s * e, c]]))
            best = min(best, conditional_entropy(rho, 2, basis, side))
    s_other = von_neumann_entropy(partial_trace(rho, 2, 2, side))
    return mutual_information(rho, 2) - (s_other - best)


def test_optimizer_beats_bloch_scan_at_d2():
    rng = np.random.default_rng(4)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    dense = m @ m.conj().T
    states = [
        circulant_state(werner_state(2, 0.3), validate=True),
        circulant_state(classical_x_spec(), validate=True),
        dense / np.trace(dense).real,
    ]
    for rho in states:
        for side in ("A", "B"):
            d_opt = discord(rho, 2, side, OptimizerConfig(seed=1)).discord
            assert d_opt <= _bloch_scan_discord(rho, side) + 1e-9


def _random_full_rank_state(d, rng):
    m = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    rho = m @ m.conj().T + 0.1 * np.eye(d * d)
    return rho / np.trace(rho).real


def _exp_skew(X):
    """exp(X) for skew-Hermitian X, through the eigenbasis of −iX."""
    w, V = np.linalg.eigh(-1j * X)
    return (V * np.exp(1j * w)) @ V.conj().T


def test_riemannian_gradient_matches_finite_differences():
    # Both sides stacked in one call: R is (2, d², d²), U is (2, 1, d, d).
    rng = np.random.default_rng(21)
    h = 1e-5
    for d in (2, 3):
        for _ in range(3):
            rho = _random_full_rank_state(d, rng)
            R = np.stack([_contraction(rho, d, side) for side in ("A", "B")])
            U = np.stack([random_unitary(d, rng)[None] for _ in range(2)])
            f, omega = _objective(R, U)
            for s in range(2):
                f_one, omega_one = _objective(R[s], U[s])
                np.testing.assert_array_equal(f[s], f_one)
                np.testing.assert_array_equal(omega[s], omega_one)
            Z = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
            X = (Z - Z.conj().swapaxes(-1, -2)) / 2
            f_plus, _ = _objective(R, np.stack([_exp_skew(h * x) @ u for x, u in zip(X, U)]),
                                   gradient=False)
            f_minus, _ = _objective(R, np.stack([_exp_skew(-h * x) @ u for x, u in zip(X, U)]),
                                    gradient=False)
            for s in range(2):
                numeric = (f_plus[s, 0] - f_minus[s, 0]) / (2 * h)
                analytic = np.trace(X[s] @ omega[s, 0]).real
                assert abs(numeric - analytic) <= 1e-6 * abs(analytic)


def _eigh_conditional_entropy(rho, d, vectors, side):
    """Σ_k p_k S(σ_k/p_k) from explicit conditional states and a full ``eigh``."""
    rho4 = rho.reshape(d, d, d, d)
    total = 0.0
    for k in range(d):
        v = vectors[:, k]
        if side == "A":
            sigma = np.einsum("x,xyzw,z->yw", v.conj(), rho4, v)
        else:
            sigma = np.einsum("y,xyzw,w->xz", v.conj(), rho4, v)
        lam, _ = np.linalg.eigh((sigma + sigma.conj().T) / 2)
        p = lam.sum()
        lam = lam[lam > 1e-14]
        total -= float(np.sum(lam * np.log2(lam / p)))
    return total


def test_conditional_entropy_matches_eigh_reference():
    rng = np.random.default_rng(23)
    for d in (2, 3):
        for side in ("A", "B"):
            for _ in range(4):
                rho = _random_full_rank_state(d, rng)
                basis = MeasurementBasis(d, random_unitary(d, rng))
                got = conditional_entropy(rho, d, basis, side)
                want = _eigh_conditional_entropy(rho, d, basis.vectors, side)
                assert abs(got - want) <= 1e-13


def _sides_states(d, rng):
    zero = random_zero_discord_spec(d, "A", rng)
    p, _ = random_classical_bell(d, 1, rng)
    return [
        circulant_state(zero),
        circulant_state(perturb_spec(zero, "modulus", 0.1, rng)),
        circulant_state(werner_state(d, 0.2)),
        # classical Bell: Ω = 0 at the identity and Fourier bases
        circulant_state(bell_diagonal_state(BellWeights(d, p))),
    ]


def test_discord_sides_equals_separate_calls():
    rng = np.random.default_rng(29)
    for d in (2, 3):
        for n, rho in enumerate(_sides_states(d, rng)):
            for starts in (1, 3):
                cfg = OptimizerConfig(starts=starts, seed=n)
                both = discord_sides(rho, d, ("A", "B"), cfg)
                assert [r.side for r in both] == ["A", "B"]
                for side, got in zip(("A", "B"), both):
                    alone = discord(rho, d, side, cfg)
                    assert got.classical_correlation == alone.classical_correlation
                    assert got.discord == alone.discord
                    assert got.mutual_information == alone.mutual_information
                    assert got.starts_converged == alone.starts_converged
                    np.testing.assert_array_equal(
                        got.best_measurement.vectors, alone.best_measurement.vectors
                    )


def test_discord_sides_rejects_unknown_side():
    with pytest.raises(ValueError):
        discord_sides(np.eye(4, dtype=complex) / 4, 2, ("A", "C"))


def test_step_rule_converges_in_few_iterations():
    # Each step length is the minimizer of the parabola through f, the slope
    # −‖Ω‖² and the trial value.  These states need at most 12 iterations
    # with it; doubling and halving the step needed 33 to 39 on every one.
    max_iters = 24
    rng = np.random.default_rng(28)
    states = [circulant_state(werner_state(3, lam)) for lam in (0.1, 0.2)]
    for n, kind in enumerate(("modulus", "diagonal", "phase")):
        spec = random_zero_discord_spec(3, "AB"[n % 2], rng)
        states.append(circulant_state(perturb_spec(spec, kind, 0.1, rng)))
    for n, rho in enumerate(states):
        capped = discord_sides(rho, 3, ("A", "B"),
                               OptimizerConfig(starts=2, max_iters=max_iters, seed=n))
        full = discord_sides(rho, 3, ("A", "B"), OptimizerConfig(starts=2, seed=n))
        for got, want in zip(capped, full):
            assert got.starts_converged == 2
            assert abs(got.classical_correlation - want.classical_correlation) <= 1e-12


PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _luo_discord(rho):
    """Luo's closed form (PRA 77, 042303, 2008) for two-qubit Bell-diagonal ρ.

    c_i = Tr ρ(σ_i⊗σ_i); I = 2 − S(ρ) since both marginals are maximally
    mixed, and C = Σ± (1±c)/2·log₂(1±c) with c = max|c_i|.
    """
    corr = np.array([[np.trace(rho @ np.kron(a, b)).real for b in PAULI] for a in PAULI])
    assert np.abs(corr - np.diag(np.diag(corr))).max() <= 1e-12  # Bell-diagonal
    c = np.abs(np.diag(corr)).max()
    classical = sum((1 + s * c) / 2 * np.log2(1 + s * c) for s in (1, -1) if 1 + s * c > 0)
    return 2 - von_neumann_entropy(rho) - classical


def _luo_states(rng):
    """Two-qubit Bell-diagonal states: six random, three with near-degenerate |c_i|."""
    states = [
        circulant_state(bell_diagonal_state(BellWeights(2, w.reshape(2, 2))))
        for w in rng.dirichlet(np.ones(4), size=6)
    ]
    # near-degenerate |c_i|: two correlations within δ of each other in
    # modulus, so measuring along either axis is optimal to within ~δ bits
    for delta in (0.0, 1e-12, 1e-9):
        c1 = rng.uniform(0.2, 0.6)
        c = rng.permutation([c1, -(c1 - delta), rng.uniform(-0.2, 0.2)])
        states.append((np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, PAULI))) / 4)
    return states


def test_bell_diagonal_matches_luo_closed_form():
    states = _luo_states(np.random.default_rng(8))
    for n, rho in enumerate(states):
        reference = _luo_discord(rho)
        for side in ("A", "B"):
            got = discord(rho, 2, side, OptimizerConfig(seed=n)).discord
            assert got == pytest.approx(reference, abs=1e-9)


def test_classical_bell_d3_leaves_stationary_starts():
    # For these states the identity and Fourier bases are exact critical
    # points (Ω = 0), so descent must start from screened, rotated bases.
    rng = np.random.default_rng(17)
    for alpha in range(3):
        for seed in range(3):
            p, _ = random_classical_bell(3, alpha, rng)
            rho = circulant_state(bell_diagonal_state(BellWeights(3, p)))
            assert bell_zero_discord_check(p).zero_discord
            for side in ("A", "B"):
                _, omega = _objective(
                    _contraction(rho, 3, side), np.stack([np.eye(3), fourier_matrix(3)])
                )
                assert np.abs(omega).max() <= 1e-12
                assert structural_discord_zero(rho, 3, side).zero_discord
                res = discord(rho, 3, side, OptimizerConfig(starts=2, seed=seed))
                assert res.discord == 0.0


def test_start_converged_on_last_allowed_step():
    # A start that meets f_tol on its last allowed step has converged: with
    # max_iters = 6 the first start stops where it stops with 7.
    rho = circulant_state(werner_state(3, 0.2))
    got = discord_sides(rho, 3, ("A",), OptimizerConfig(starts=2, max_iters=6, seed=0))[0]
    more = discord_sides(rho, 3, ("A",), OptimizerConfig(starts=2, max_iters=7, seed=0))[0]
    assert got.classical_correlation == more.classical_correlation
    assert got.starts_converged == 1


def _hermitian_stacks(d, rng, n=300):
    """Random, rank-1, scalar, zero and doubly-degenerate stacks of d×d Hermitian matrices."""
    Z = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    V = np.linalg.qr(Z)[0]
    w = rng.normal(size=(n, d))
    w[:, 1] = w[:, 0]
    return {
        "random": Z + Z.conj().swapaxes(-1, -2),
        "rank-1": Z[..., :, :1] @ Z[..., :, :1].conj().swapaxes(-1, -2),
        "scalar": rng.normal(size=(n, 1, 1)) * np.eye(d),
        "zero": np.zeros((n, d, d), dtype=complex),
        "degenerate": (V * w[:, None, :]) @ V.conj().swapaxes(-1, -2),
    }


def test_small_eigvalsh_matches_lapack():
    rng = np.random.default_rng(31)
    for d in (2, 3):
        for kind, H in _hermitian_stacks(d, rng).items():
            rel = 1e-14 if d == 2 or kind == "random" else 1e-7
            err = np.abs(_small_eigvalsh(H) - np.linalg.eigvalsh(H)).max(axis=-1)
            assert (err <= rel * np.linalg.norm(H, axis=(-2, -1))).all(), (d, kind)
    H = _hermitian_stacks(4, rng)["random"]
    np.testing.assert_array_equal(_small_eigvalsh(H), np.linalg.eigvalsh(H))


@settings(deadline=None)
@given(
    st.sampled_from((2, 3)).flatmap(
        lambda d: arrays(float, (2, d, d), elements=st.floats(-10, 10, allow_subnormal=False))
    )
)
def test_small_eigvalsh_ascending_with_trace_sum(parts):
    H = (parts[0] + parts[0].T) / 2 + 1j * (parts[1] - parts[1].T) / 2
    w = _small_eigvalsh(H[None])[0]
    assert (np.diff(w) >= 0).all()
    assert abs(w.sum() - np.trace(H).real) <= 1e-12 * np.linalg.norm(H)


def _numeric_verdict(dval):
    return "zero" if dval <= NUMERIC_ZERO_TOL else "nonzero" if dval >= NUMERIC_NONZERO_TOL else "gap"


def test_screen_eigenvalues_do_not_change_results(monkeypatch):
    # The closed-form screen only ranks candidates: with LAPACK in its place
    # every state gets the same D, verdict and converged-start count.
    rng = np.random.default_rng(37)
    cases = [(d, rho) for d in (2, 3) for rho in _sides_states(d, rng)]
    cases += [(2, rho) for rho in _luo_states(rng)]

    def run():
        return [discord_sides(rho, d, ("A", "B"), OptimizerConfig(starts=4, seed=n))
                for n, (d, rho) in enumerate(cases)]

    closed = run()
    # the package's ``discord`` function shadows the submodule of that name
    module = importlib.import_module("discordant.discord")
    monkeypatch.setattr(module, "_small_eigvalsh", np.linalg.eigvalsh)
    lapack = run()
    for got, want in zip(closed, lapack):
        for a, b in zip(got, want):
            assert abs(a.discord - b.discord) <= 1e-12
            assert _numeric_verdict(a.discord) == _numeric_verdict(b.discord)
            assert a.starts_converged == b.starts_converged

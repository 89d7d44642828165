"""State factory: sector placement, named families, projectors."""

import re

import numpy as np
import pytest

from discordant.blocks import bell_zero_discord_check
from discordant.errors import DimensionError, InvalidSpec
from discordant.linalg import check_density_matrix, partial_trace
from discordant.serialize import _parse
from discordant.states import (
    BellWeights,
    CirculantSpec,
    NotCirculant,
    _dense_states,
    _lambda_sectors,
    bell_diagonal_state,
    bell_projector,
    circulant_state,
    commuting_group_invariant_state,
    flip_operator,
    isotropic_state,
    max_entangled_projector,
    orthogonal_invariant_state,
    ppt_check_commuting,
    project_circulant,
    shift_operator,
    validate_circulant_spec,
    werner_state,
)


def x_state_spec(a00, a11, b00, b11, a01, b01):
    """d=2 circulant spec from the six X-state parameters."""
    a = np.array([[a00, a01], [np.conj(a01), a11]], dtype=complex)
    b = np.array([[b00, b01], [np.conj(b01), b11]], dtype=complex)
    return CirculantSpec(2, (a, b))


def test_shift_operator_cycles_basis():
    S = shift_operator(3)
    e0 = np.zeros(3)
    e0[0] = 1
    np.testing.assert_array_equal(S @ e0, [0, 1, 0])
    np.testing.assert_allclose(np.linalg.matrix_power(S, 3), np.eye(3), atol=0)
    with pytest.raises(InvalidSpec, match="2 ≤ d ≤ 32"):
        shift_operator(1)


_CONSTRUCTORS = {
    "werner_state": lambda d: werner_state(d, 0.1),
    "isotropic_state": lambda d: isotropic_state(d, 0.1),
    "orthogonal_invariant_state": lambda d: orthogonal_invariant_state((1.0, 0.0, 0.0), d),
    "shift_operator": shift_operator,
    "flip_operator": flip_operator,
    "max_entangled_projector": max_entangled_projector,
    "bell_projector": lambda d: bell_projector(0, 0, d),
}


@pytest.mark.parametrize("d", [0, 1, 2.0, True, 33, 10**10])
@pytest.mark.parametrize("name", list(_CONSTRUCTORS))
def test_constructors_share_the_dimension_rule(name, d):
    # each used to apply its own rule: a float d raised TypeError, d = 10**10
    # NumPy's ValueError, d = 0 ZeroDivisionError, and d < 2 a 1×1 matrix
    with pytest.raises(InvalidSpec, match="2 ≤ d ≤ 32"):
        _CONSTRUCTORS[name](d)


def test_flip_operator_swaps_tensor_factors():
    F = flip_operator(2)
    v = np.kron([1, 2], [3, 4]).astype(complex)
    w = np.kron([3, 4], [1, 2]).astype(complex)
    np.testing.assert_allclose(F @ v, w, atol=0)


def test_x_state_dense_layout():
    rho = circulant_state(
        x_state_spec(0.4, 0.1, 0.3, 0.2, 0.05 + 0.02j, 0.07j)
    )
    np.testing.assert_allclose(np.diag(rho), [0.4, 0.3, 0.2, 0.1], atol=0)
    assert rho[0, 3] == 0.05 + 0.02j
    assert rho[1, 2] == 0.07j
    assert rho[2, 1] == -0.07j
    assert rho[3, 0] == 0.05 - 0.02j
    assert rho[0, 1] == rho[0, 2] == rho[1, 0] == 0


def test_d3_sector_placement():
    # Sector n=1 entry (i,j)=(0,2) lands at row 0·3+1=1, col 2·3+(2+1 mod 3)=6.
    a = [np.zeros((3, 3), dtype=complex) for _ in range(3)]
    np.fill_diagonal(a[0], 1 / 9)
    np.fill_diagonal(a[1], 1 / 9)
    np.fill_diagonal(a[2], 1 / 9)
    a[1][0, 2] = 0.01
    a[1][2, 0] = 0.01
    rho = circulant_state(CirculantSpec(3, a))
    assert rho[1, 6] == 0.01
    assert rho[6, 1] == 0.01


def test_sector_block_diagonality():
    # Each sector contributes only to positions with (col−row) ≡ n·(d+1) pattern:
    # the union over sectors of index pairs is disjoint.
    rng = np.random.default_rng(3)
    mats = []
    for _ in range(3):
        m = rng.random((3, 3)) + 1j * rng.random((3, 3))
        m = m @ m.conj().T
        mats.append(m)
    total = sum(np.trace(m).real for m in mats)
    mats = [m / total for m in mats]
    spec = CirculantSpec(3, mats)
    rho = circulant_state(spec)
    back = project_circulant(rho, 3)
    assert isinstance(back, CirculantSpec)
    for got, want in zip(back.a, spec.a):
        np.testing.assert_allclose(got, want, atol=1e-13)


def test_project_circulant_flags_cross_sector_coherence():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = rho[1, 0] = 0.05  # couples sector-0 and sector-1 subspaces
    out = project_circulant(rho, 2)
    assert isinstance(out, NotCirculant)
    assert out.residual > 0.05


def test_validate_circulant_spec_rejections():
    bad_herm = CirculantSpec(2, [np.array([[0.5, 0.1], [0.2, 0.0]]), np.eye(2) * 0.25])
    with pytest.raises(InvalidSpec):
        validate_circulant_spec(bad_herm)
    bad_trace = CirculantSpec(2, [np.eye(2) * 0.25, np.eye(2) * 0.3])
    with pytest.raises(InvalidSpec):
        validate_circulant_spec(bad_trace)
    bad_psd = CirculantSpec(
        2, [np.array([[0.5, 0.4], [0.4, 0.1]]), np.eye(2) * 0.2]
    )
    with pytest.raises(InvalidSpec):
        validate_circulant_spec(bad_psd)


def test_bell_projector_basics():
    for d in (2, 3):
        np.testing.assert_allclose(
            bell_projector(0, 0, d), max_entangled_projector(d), atol=1e-13
        )
        total = sum(bell_projector(m, n, d) for m in range(d) for n in range(d))
        np.testing.assert_allclose(total, np.eye(d * d), atol=1e-12)
        for m in range(d):
            for n in range(d):
                P = bell_projector(m, n, d)
                np.testing.assert_allclose(P @ P, P, atol=1e-12)
                assert np.trace(P).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(InvalidSpec, match="^m must be an integer with 0 ≤ m ≤ 1, got 2$"):
        bell_projector(2, 0, 2)


def test_bell_projectors_orthogonal():
    d = 3
    projs = [bell_projector(m, n, d) for m in range(d) for n in range(d)]
    for i, P in enumerate(projs):
        for j, Q in enumerate(projs):
            want = 1.0 if i == j else 0.0
            assert np.trace(P @ Q).real == pytest.approx(want, abs=1e-12)


def test_bell_weights_and_projection_reject_wrong_shapes():
    with pytest.raises(DimensionError, match=r"^p must have shape \(2, 2\), got \(3, 3\)$"):
        BellWeights(2, np.full((3, 3), 1 / 9))
    with pytest.raises(DimensionError, match=r"^rho must have shape \(4, 4\), got \(3, 3\)$"):
        project_circulant(np.eye(3) / 3, 2)


def test_max_entangled_projector_is_bell_projector_00():
    # both read one table of Bell amplitudes, so they agree bit for bit
    for d in range(2, 33):
        assert max_entangled_projector(d).tobytes() == bell_projector(0, 0, d).tobytes()


def test_bell_diagonal_state_matches_projector_mixture():
    rng = np.random.default_rng(4)
    for d in (2, 3, 5):
        p = rng.dirichlet(np.ones(d * d)).reshape(d, d)
        spec = bell_diagonal_state(BellWeights(d, p))
        rho = circulant_state(spec)
        ref = sum(
            p[m, n] * bell_projector(m, n, d) for m in range(d) for n in range(d)
        )
        np.testing.assert_allclose(rho, ref, atol=1e-12)
        for side in ("A", "B"):
            np.testing.assert_allclose(
                partial_trace(rho, d, d, side), np.eye(d) / d, atol=1e-12
            )


def test_werner_d2_matches_flip_form():
    for lam in (0.2, -0.5):
        rho = circulant_state(werner_state(2, lam))
        ref = (1 - lam) / 4 * np.eye(4) + lam / 2 * flip_operator(2)
        np.testing.assert_allclose(rho, ref, atol=1e-14)


def test_werner_validation_range():
    # λ=1 at d=2 is not PSD; raw assembly still works for serialization.
    with pytest.raises(InvalidSpec):
        werner_state(2, 1.0)
    raw = _parse({"kind": "werner", "d": 2, "lambda": 1.0}).spec
    np.testing.assert_allclose(
        np.linalg.eigvalsh(raw.a[0]), [0.5, 0.5], atol=1e-14
    )
    # boundary of the PSD range is accepted
    check_density_matrix(_parse({"kind": "werner", "d": 2, "lambda": 1 / 3}).rho)
    check_density_matrix(_parse({"kind": "werner", "d": 3, "lambda": 0.25}).rho)


def test_isotropic_oracles():
    rho = circulant_state(isotropic_state(3, 0.5))
    np.testing.assert_allclose(np.diag(rho)[[0, 4, 8]], [2 / 9] * 3, atol=1e-14)
    np.testing.assert_allclose(
        circulant_state(isotropic_state(3, 1.0)),
        max_entangled_projector(3),
        atol=1e-14,
    )
    with pytest.raises(InvalidSpec):
        isotropic_state(3, -0.2)  # below −1/(d²−1)


def _family_loop(d, lam, werner):
    """The docstring formulas entry by entry: each entry a coefficient times 0 or 1, as a complex."""
    base = (1 - lam) / d**2
    a = np.empty((d, d, d), dtype=complex)
    for n in range(d):
        for i in range(d):
            for j in range(d):
                if n == 0:
                    a[n, i, j] = (lam / d + base) * (i == j) if werner else lam / d + base * (i == j)
                elif werner and j in ((i + n) % d, (i - n) % d):
                    a[n, i, j] = lam / d
                else:
                    a[n, i, j] = base * (i == j)
    return a


@pytest.mark.parametrize("lam", [-0.2, 0.0, 0.05, 1 / 3, 1.0, 2.5])
def test_lambda_families_match_their_formulas_bit_for_bit(lam):
    # tobytes, not ==: a negative background lays -0.0 off the diagonal, and
    # the same values with other zero signs would compare equal
    for d in range(2, 14):
        for kind, werner in (("werner", True), ("isotropic", False)):
            got = _lambda_sectors(kind, d, lam).tobytes()
            assert got == _family_loop(d, lam, werner).tobytes(), (kind, d)


def test_orthogonal_invariant_state():
    rho = orthogonal_invariant_state((0.2, 0.5, 0.3), 2)
    check_density_matrix(rho)
    # entry (0,3) carries (2c − a)/4
    assert rho[0, 3] == pytest.approx((2 * 0.3 - 0.2) / 4, abs=1e-14)
    with pytest.raises(InvalidSpec):
        orthogonal_invariant_state((0.5, 0.6, 0.3), 2)  # weights not a simplex point


def test_orthogonal_invariant_vertices():
    # (a,b,c)=(1,0,0) is the normalized symmetric-traceless projector.
    rho = orthogonal_invariant_state((1.0, 0.0, 0.0), 2)
    check_density_matrix(rho)
    F = flip_operator(2)
    P_plus = max_entangled_projector(2)
    P0 = (np.eye(4) + F) / 2 - P_plus
    np.testing.assert_allclose(rho, P0 / 2, atol=1e-13)


def test_commuting_group_invariant_state():
    a = np.array([[0.1, 0.05], [0.05, 0.1]], dtype=complex)
    dmat = np.array([[0.0, 0.4], [0.4, 0.0]])
    spec = commuting_group_invariant_state(a, dmat)
    rho = circulant_state(spec)
    np.testing.assert_allclose(np.diag(rho), [0.1, 0.4, 0.4, 0.1], atol=1e-14)
    assert rho[0, 3] == 0.05
    assert ppt_check_commuting(a, dmat)
    assert not ppt_check_commuting(np.array([[0.1, 0.7], [0.7, 0.1]]), dmat)
    with pytest.raises(InvalidSpec):
        commuting_group_invariant_state(a, np.array([[0.1, 0.4], [0.4, 0.0]]))
    with pytest.raises(InvalidSpec):
        commuting_group_invariant_state(a, np.array([[0.0, 0.3], [0.3, 0.0]]))


def test_ppt_check_commuting_checks_its_inputs():
    # each of these used to answer True or raise NumPy's broadcasting error
    a, dmat = np.eye(2) * 0.1, np.array([[0.0, 0.4], [0.4, 0.0]])
    with pytest.raises(InvalidSpec, match="a has non-finite entries"):
        ppt_check_commuting(np.full((2, 2), np.nan), dmat)
    with pytest.raises(InvalidSpec, match="dmat has non-finite entries"):
        ppt_check_commuting(a, np.array([[0.0, np.inf], [0.4, 0.0]]))
    with pytest.raises(InvalidSpec, match=re.escape("negative weight -1.000e+00 in dmat")):
        ppt_check_commuting(a, np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(InvalidSpec, match="diagonal entries of dmat must be zero"):
        ppt_check_commuting(a, np.array([[0.1, 0.4], [0.4, 0.0]]))
    with pytest.raises(DimensionError, match=re.escape("dmat must have shape (2, 2), got (3, 3)")):
        ppt_check_commuting(a, np.zeros((3, 3)))
    with pytest.raises(DimensionError, match="a must be square"):
        ppt_check_commuting(np.zeros(2), dmat)


def test_spec_shape_errors():
    with pytest.raises(DimensionError):
        CirculantSpec(2, [np.eye(2)])
    with pytest.raises(DimensionError):
        CirculantSpec(2, [np.eye(3), np.eye(3)])


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _sector_positions(d, n):
    i = np.arange(d)
    return i * d + (i + n) % d


def _place_loop(stack, d):
    """Dense matrix with stack[n] placed sector by sector."""
    rho = np.zeros((d * d, d * d), dtype=complex)
    for n in range(d):
        pos = _sector_positions(d, n)
        rho[np.ix_(pos, pos)] = stack[n]
    return rho


@pytest.mark.parametrize("d", [2, 3, 5, 13])
def test_sector_layout_matches_loop_oracle(d):
    rng = np.random.default_rng(d)
    stack = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
    rho = _dense_states(stack[None])[0]
    assert _same_bits(rho, _place_loop(stack, d))

    positions = [_sector_positions(d, n) for n in range(d)]
    assert _same_bits(project_circulant(rho, d).a, [rho[np.ix_(p, p)] for p in positions])
    noisy = rho + 1e-3 * rng.standard_normal(rho.shape)
    sectors = [noisy[np.ix_(p, p)] for p in positions]
    assert project_circulant(noisy, d).residual == np.linalg.norm(noisy - _place_loop(sectors, d))

    i = np.arange(d)
    phases = np.exp(2j * np.pi * i / d)
    for m, n in [(0, 0), (1, 0), (0, d - 1), (d - 1, 1), (d // 2, d - 2)]:
        want = np.zeros((d * d, d * d), dtype=complex)
        pos = _sector_positions(d, n)
        want[np.ix_(pos, pos)] = phases[(m * (i[:, None] - i[None, :])) % d] / d
        assert _same_bits(bell_projector(m, n, d), want)

    want = np.zeros((d * d, d * d), dtype=complex)
    want[np.ix_(i * d + i, i * d + i)] = 1.0 / d
    assert _same_bits(max_entangled_projector(d), want)


def test_spec_stack_accepts_sequences_and_is_read_only():
    mats = [np.eye(2) / 4, np.array([[0.25, 0.1j], [-0.1j, 0.25]])]
    arr = np.array(mats, dtype=complex)
    for given in (mats, tuple(mats), arr):
        spec = CirculantSpec(2, given)
        assert spec.a.shape == (2, 2, 2) and spec.a.dtype == complex
        assert _same_bits(spec.a, arr)
        with pytest.raises(ValueError):
            spec.a[0, 0, 0] = 1.0
    assert arr.flags.writeable  # the caller's array is copied, not frozen
    arr[0, 0, 0] = 7.0
    assert spec.a[0, 0, 0] == 0.25
    with pytest.raises(DimensionError):
        CirculantSpec(2, [np.eye(2), np.eye(3)])  # ragged
    with pytest.raises(DimensionError):
        CirculantSpec(2, [np.eye(2), [[1.0, 0.0], [0.0]]])
    with pytest.raises(DimensionError):
        CirculantSpec(2, np.eye(2))


def _first_failure_loop(spec):
    """The message of the first failing per-sector check, one sector at a time."""
    for n, m in enumerate(spec.a):
        if not np.isfinite(m).all():
            return f"a^({n}) has non-finite entries"
        if np.linalg.norm(m - m.conj().T) > 1e-12 * max(1.0, np.linalg.norm(m)):
            return f"a^({n}) is not Hermitian"
        w = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if w[0] < -1e-10:
            return f"a^({n}) has negative eigenvalue {w[0]:.3e}"
    return None


def test_validate_names_first_failing_sector_like_loop():
    rng = np.random.default_rng(17)
    checked = set()
    for d in (2, 3, 5):
        for _ in range(40):
            stack = np.array(isotropic_state(d, 0.3).a)
            for n in rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False):
                fault = int(rng.integers(3))
                if fault == 0:
                    stack[n, rng.integers(d), rng.integers(d)] = [np.nan, np.inf][rng.integers(2)]
                elif fault == 1:
                    stack[n, 0, 1] += 0.05
                else:
                    stack[n] -= 0.5 * np.eye(d)
            spec = CirculantSpec(d, stack)
            want = _first_failure_loop(spec)
            assert want is not None
            checked.add(next(k for k in ("non-finite", "Hermitian", "negative") if k in want))
            with pytest.raises(InvalidSpec, match=re.escape(want)):
                validate_circulant_spec(spec)
    assert checked == {"non-finite", "Hermitian", "negative"}


def test_non_finite_weights_and_sectors_are_rejected():
    for bad in (np.nan, np.inf):
        p = np.full((3, 3), 1 / 9)
        p[0, 0] = bad
        for call in (bell_zero_discord_check, bell_diagonal_state,
                     lambda q: bell_diagonal_state(BellWeights(3, q))):
            with pytest.raises(InvalidSpec, match="finite"):
                call(p)
        stack = np.array(werner_state(3, 0.2).a)
        stack[1, 2, 2] = bad
        with pytest.raises(InvalidSpec, match=re.escape("a^(1) has non-finite entries")):
            circulant_state(CirculantSpec(3, stack))


def test_commuting_state_rejects_invalid_a():
    dmat = np.array([[0.0, 0.4], [0.4, 0.0]])
    for a in (
        np.array([[0.1, 0.05], [0.0, 0.1]]),  # not Hermitian
        np.array([[0.1, 0.3], [0.3, 0.1]]),  # not PSD
        np.array([[0.2, 0.05], [0.05, 0.1]]),  # total trace 1.1
    ):
        with pytest.raises(InvalidSpec):
            commuting_group_invariant_state(a, dmat)


def test_commuting_state_rejects_non_finite_entries():
    # each of these used to yield a spec holding NaN, or to drop the NaN
    a, dmat = np.eye(2) * 0.1, np.array([[0.0, 0.4], [0.4, 0.0]])
    with pytest.raises(InvalidSpec, match="non-finite"):
        commuting_group_invariant_state(np.array([[0.1, np.nan], [np.nan, 0.1]]), dmat)
    with pytest.raises(InvalidSpec, match="non-finite"):
        commuting_group_invariant_state(a, np.array([[0.0, np.nan], [0.4, 0.0]]))
    with pytest.raises(InvalidSpec, match="diagonal"):
        commuting_group_invariant_state(a, np.array([[np.nan, 0.4], [0.4, 0.0]]))


def test_project_circulant_rejects_nan_residual():
    rho = circulant_state(werner_state(3, 0.2))
    rho[0, 1] = np.nan  # off-sector: a NaN residual must not count as circulant
    out = project_circulant(rho, 3)
    assert isinstance(out, NotCirculant)
    assert np.isnan(out.residual)

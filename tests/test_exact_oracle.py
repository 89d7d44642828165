"""An exact oracle for the prime-d circulant theorem: quarter-turn families in Python integers.

With φ_n ∈ {0, π/2, π, 3π/2}, every factor e^{i(Ψ_k(i) − Ψ_k(j))} of a zero family is one of
1, i, −1, −i, so a Gaussian-integer a^(0) gives a Gaussian-integer family.  Scaling it by a
float rounds each real and imaginary part on its own, and rounding is sign-symmetric, so
fl(s·i^q·z) = i^q·fl(s·z): the float state is exactly zero-discord on its side.  Its entries
are dyadic, so one power of two makes them Gaussian integers.  A side's blocks form a family
closed under †, so discord on that side is zero iff the blocks commute pairwise (Dakić,
Vedral & Brukner, PRL 105, 190502, 2010), which integers decide with no tolerance.
"""

import numpy as np
import pytest

from discordant.blocks import (
    circulant_theorem_check,
    completely_classical_check,
    structural_discord_zero,
)
from discordant.states import CirculantSpec, circulant_state

_UNITS = (1, 1j, -1, -1j)
DIMENSIONS = (2, 3, 5, 7)


def _exact_zero(rho, d, side) -> bool:
    """Whether ρ has zero discord on ``side``, decided in Python integers: the blocks of ρ,
    operators on ``side`` indexed by the other side's basis, commute pairwise."""
    ratios = [x.as_integer_ratio() for x in np.stack([rho.real, rho.imag]).ravel().tolist()]
    scale = max(q for _, q in ratios)  # each q is a power of two
    ints = np.array([n * (scale // q) for n, q in ratios], dtype=object).reshape(2, d, d, d, d)
    # ints[:, i, k, j, l] holds ρ[i·d + k, j·d + l], with i, j on side A and k, l on side B
    re, im = (x.transpose((1, 3, 0, 2) if side == "A" else (0, 2, 1, 3)).reshape(d * d, d, d)
              for x in ints)
    for x in range(d * d - 1):  # X = B[x] against every later Y = B[y], y > x
        y = slice(x + 1, None)
        real = re[x] @ re[y] - im[x] @ im[y] - re[y] @ re[x] + im[y] @ im[x]  # of X·Y − Y·X
        imag = re[x] @ im[y] + im[x] @ re[y] - re[y] @ im[x] - im[y] @ re[x]
        if real.any() or imag.any():
            return False
    return True


def _quarter_turn_spec(a0, q, side) -> CirculantSpec:
    """The zero family on ``side`` of the Gaussian-integer a^(0) ``a0`` with φ_n = q_n·π/2:
    slice k is i^(Ψ_k(i) − Ψ_k(j))·a^(0)_{i+k, j+k} on side A and i^(Ψ_k(i) − Ψ_k(j))·a^(0)_{ij}
    on side B, Ψ_k(i) = Σ_{s<k} q_{(i+s) mod d}, scaled to unit trace part by part."""
    d = len(a0)
    a = np.empty((d, d, d), complex)
    for k in range(d):
        psi = [sum(q[(i + s) % d] for s in range(k)) for i in range(d)]
        for i in range(d):
            for j in range(d):
                ref = a0[(i + k) % d, (j + k) % d] if side == "A" else a0[i, j]
                a[k, i, j] = _UNITS[(psi[i] - psi[j]) % 4] * ref
    s = 1 / (d * np.trace(a0).real)
    scaled = np.empty_like(a)
    scaled.real, scaled.imag = a.real * s, a.imag * s
    return CirculantSpec(d, scaled)


def _seeds(d, rng):
    """Gaussian-integer seeds a^(0), each Hermitian and positive definite: a random one, a
    circulant one, whose uniform diagonal takes complete classicality past its precheck,
    and a diagonal one, classical outright."""
    g = rng.integers(-2, 3, (2, d, d))
    G = g[0] + 1j * g[1]
    h = rng.integers(-2, 3, d) + 1j * rng.integers(-2, 3, d)
    h[0], h[d // 2 + 1:] = 4 * d, np.conj(h[1:(d + 1) // 2][::-1])
    if d % 2 == 0:
        h[d // 2] = h[d // 2].real
    circulant = h[(np.arange(d)[None, :] - np.arange(d)[:, None]) % d]
    return {"random": G @ G.conj().T + d * np.eye(d), "circulant": circulant,
            "diagonal": np.diag(rng.integers(1, 5, d)).astype(complex)}


def _cases():
    """(d, side, kind, spec): every seed's zero family on each side, at each d."""
    for d in DIMENSIONS:
        rng = np.random.default_rng(d)
        for kind, a0 in _seeds(d, rng).items():
            for side in "AB":
                yield d, side, kind, _quarter_turn_spec(a0, rng.integers(0, 4, d).tolist(), side)


def test_the_routes_equal_the_oracle_on_quarter_turn_families():
    seen = set()
    for d, side, kind, spec in _cases():
        rho = circulant_state(spec)
        truth = {s: _exact_zero(rho, d, s) for s in "AB"}
        assert truth[side], (d, kind, side)  # the family is zero on its own side
        for s in "AB":
            assert circulant_theorem_check(spec, s).zero_discord == truth[s], (d, kind, side, s)
            assert structural_discord_zero(rho, d, s).zero_discord == truth[s], (d, kind, side, s)
            seen.add(truth[s])
        both = truth["A"] and truth["B"]
        assert completely_classical_check(spec).zero_discord == both, (d, kind, side)
    assert seen == {True, False}


def _perturbed(spec, k, delta) -> CirculantSpec:
    """``spec`` with δ on the larger part of a^(k)_01, and on a^(k)_10 to keep a^(k) Hermitian.

    This changes the entry's modulus, which no φ absorbs (a δ across the entry would turn its
    phase, which φ absorbs to within δ²/|a^(k)_01|), so the state is nonzero."""
    a = spec.a.copy()
    z = a[k, 0, 1]
    step = (delta * (np.sign(z.real) or 1.0) if abs(z.real) >= abs(z.imag)
            else 1j * delta * np.sign(z.imag))
    a[k, 0, 1] += step
    a[k, 1, 0] += np.conj(step)
    return CirculantSpec(spec.d, a)


def _perturbed_cases(dimensions=DIMENSIONS):
    """(d, side, kind, k, spec) for every non-diagonal case at k = 1 and k = d − 1."""
    for d, side, kind, spec in _cases():
        if kind != "diagonal" and d in dimensions:
            for k in sorted({1, d - 1}):
                yield d, side, kind, k, spec


def _reads(spec, side) -> tuple[bool, bool]:
    """The zero verdicts of the theorem and of the general criterion on ``side``."""
    return (circulant_theorem_check(spec, side).zero_discord,
            structural_discord_zero(circulant_state(spec), spec.d, side).zero_discord)


@pytest.mark.parametrize("delta, reads_zero", [(2.0**-20, False), (2.0**-45, True)],
                         ids=["2^-20", "2^-45"])
def test_a_hermitian_perturbation_reads_by_its_size(delta, reads_zero):
    # at k = 1 and k = d − 1 both routes see 2^-20 (9.5e-7) and neither 2^-45 (2.8e-14), at
    # tol = 1e-9
    for d, side, kind, k, spec in _perturbed_cases():
        perturbed = _perturbed(spec, k, delta)
        assert not _exact_zero(circulant_state(perturbed), d, side), (d, side, kind, k)
        assert _reads(perturbed, side) == (reads_zero, reads_zero), (d, side, kind, k)


def test_the_detection_floor_of_each_route():
    # the floor is the first e at which δ = 2^-e reads zero.  The theorem compares entries
    # against tol = 1e-9, which lies between 2^-30 and 2^-29, so its floor is 30 everywhere;
    # the general criterion measures a block's Frobenius norm, and its floor is never lower.
    # The printed ranges are the band two exact routes may differ in
    floors = {}
    for d, side, kind, k, spec in _perturbed_cases((3, 5)):
        reads = {e: _reads(_perturbed(spec, k, 2.0**-e), side) for e in range(28, 37)}
        theorem, general = (min([e for e, zero in reads.items() if zero[r]], default=None)
                            for r in (0, 1))
        assert theorem == 30, (d, side, kind, k, reads)
        assert general is not None and theorem <= general <= 36, (d, side, kind, k, reads)
        for route, floor in (("theorem", theorem), ("general", general)):
            floors.setdefault((route, d, side), []).append(floor)
    for (route, d, side), found in sorted(floors.items()):
        print(f"[floor] {route} d={d} side={side}: e = {min(found)}…{max(found)}")

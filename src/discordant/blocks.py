"""Block decompositions of bipartite states and structural zero-discord criteria.

A bipartite state decomposes as ρ = Σ_ij e_ij ⊗ B_ij (side B blocks) or
ρ = Σ_αβ A_αβ ⊗ e_αβ (side A blocks).  Discord measured on a side vanishes
iff that side's blocks are normal and mutually commute, i.e. one unitary U
diagonalizes them all; then ρ = Σ_k p_k |u_k⟩⟨u_k| ⊗ ρ_k on that side
(Dakić, Vedral & Brukner, PRL 105, 190502, 2010).  The general criterion,
:func:`structural_verdicts`, decides each side's pairs as one stack of
block views: U is the eigenbasis of one generic Hermitian combination of
each pair's blocks, all found by one batched ``eigh``, and zero discord
holds iff every U†B_ijU with i ≤ j (two GEMMs per state) is diagonal
within tolerance; a Hermitian state has B_ji = B_ij†, so the blocks below
the diagonal repeat those norms and are not read.  Each
verdict keeps U and the diagonals of those products, the σ_k of that sum,
which :func:`classical_decomposition` reads off with no second pass over
the blocks.  An exact degeneracy of the combination needs no split: on a
commuting normal family it holds equal eigenvalues of every block, where
any basis serves.

For circulant states at prime local dimension the same question has a
closed form: the sector matrices must be phase-and-shift images of a^(0)
under a diagonal unitary V = diag(e^{iφ_n}) with φ_0 = 0,

    side A:  a^(k)_{ij} = e^{i(Ψ_k(i) − Ψ_k(j))} · a^(0)_{i+k, j+k}
    side B:  a^(k)_{ij} = e^{i(Ψ_k(i) − Ψ_k(j))} · a^(0)_{ij}

with Ψ_k(i) = Σ_{s<k} φ_{(i+s) mod d} (indices mod d), i.e. each sector is
a^(0), shifted on side A, conjugated by D_k = diag(e^{iΨ_k(i)}).  The checkers
here fit the φ_n from the entry phases and then verify every relation,
so a valid family is always recognized and any violation yields a
concrete witness.  One stacked core decides (sector stack, side) pairs,
each verdict equal to the one-pair :func:`circulant_theorem_check`.  The
necessary conditions use its scale and φ = 0 stack and fit no φ;
complete classicality takes its verdicts on both sides unless the
diagonal decides first.  Nothing is kept per spec; what is kept depends
on d alone: the index and weight tables, and the path along which each
off-diagonal entry of a^(0) relates the φ_n.  At prime d one entry's
path visits every n once, so it spans on its own; the fit reads φ along
the path of the entry whose smallest modulus over the sectors is
largest (the first within 1e-12 relative), so that no tiny entry sets a
phase, and a path is still a spanning tree, so the fit stays free of 2π wraps.
Bell-diagonal states additionally admit a weight-space test,
:func:`bell_zero_discord_check`: discord vanishes iff p is constant on
the classes of one of the d + 1 lines of Z_d × Z_d, p[m, n] =
π_{(m + nα) mod d} for some α or p[m, n] = π_n; its stacked core takes
the weights ``verify`` draws unchecked.  Every criterion rejects a
non-finite tolerance with :class:`InvalidSpec`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    InvalidSpec,
    PreconditionError,
    PrimeRequired,
)
from .linalg import (_array, _read_only, _require_finite, _require_integer, _require_psd,
                     _require_real, _require_square, _sequence, _side_codes, frobenius, hermitize)
from .states import ZERO_TOL, CirculantSpec, _bell_weights

#: Default tolerance for structural checks.
DEFAULT_TOL = 1e-9
#: Reassembly residual allowed for classical decompositions.
REASSEMBLY_TOL = 1e-8
#: Step of the Weyl sequence that phases the generic block combination.
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
#: Complex entries one stack may span, sides mixed: 32768 holds 52 dense states of
#: the general criterion at d = 5, 13 at d = 7, 2 at d = 11 and one at d = 13, and
#: ``run_verify``'s rounds of sector stacks hold 262, 95, 24 and 14 draws there.  It
#: read more verify-large-d items per ref than 16384, 49152 and 65536 in each of 4
#: rotating rounds (ROADMAP, settled).
_CHUNK_ENTRIES = 32768

CRITERION_COMMUTATION = "general-commutation"
CRITERION_CIRCULANT = "circulant-theorem"
CRITERION_BELL = "bell-theorem"
CRITERION_DIAGONAL = "diagonal-classical"

#: Names of the (diagonal, off-diagonal) necessary conditions per side.
_CONDITIONS = {
    "A": ("diagonal-shift", "offdiagonal-modulus-shift"),
    "B": ("diagonal-invariance", "offdiagonal-modulus"),
}


def is_prime(n: int) -> bool:
    """Primality by trial division (dimensions here are tiny); ``n`` must be an integer."""
    _require_integer(n, "n")
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _require_prime(d: int) -> None:
    if not is_prime(d):
        raise PrimeRequired(f"closed-form criteria require a prime dimension, got d={d}")


@dataclass
class StructuralVerdict:
    """Outcome of a structural zero-discord test."""

    zero_discord: bool
    side: str  # "A", "B", or "both"
    criterion: str
    witness: dict | None = None
    #: The fitted angles φ_n of V = diag(e^{iφ_n}), φ_0 = 0 (fitted afresh for each call).
    fitted_phases: np.ndarray | None = None
    alpha: int | None = None
    #: "n" when a Bell verdict rests on the line p[m, n] = π_n, else None.
    line: str | None = None
    pi: np.ndarray | None = None
    #: The basis a general-commutation verdict tested the blocks in (not serialized).
    basis: np.ndarray | None = field(default=None, repr=False)
    #: Its diag(U†B_ijU) and ‖offdiag(U†B_ijU)‖_F per block, i ≤ j (not serialized).
    diagonals: np.ndarray | None = field(default=None, repr=False)
    offdiagonal_norms: np.ndarray | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        phases, pi = (None if x is None else np.asarray(x, dtype=float).tolist()
                      for x in (self.fitted_phases, self.pi))
        return {
            "side": self.side,
            "zero_discord": self.zero_discord,
            "criterion": self.criterion,
            "alpha": self.alpha,
            "line": self.line,
            "phases": phases,
            "pi": pi,
            "witness": self.witness,
        }


def extract_blocks(rho: np.ndarray, d: int, side: str) -> np.ndarray:
    """Slice a d²×d² state into its side-A or side-B block grid, shape (d, d, d, d).

    Side B: blocks[i, j][k, l] = ρ[i·d+k, j·d+l] (operators on the second
    factor).  Side A: blocks[α, β][i, j] = ρ[i·d+α, j·d+β] (operators on
    the first factor).  A stack of states, shape (..., d², d²), gives a
    stack of grids.  The grid is a read-only view of ρ, not a copy, and
    the one place the package spells out a side's layout.  A wrong shape
    raises :class:`DimensionError`, a side other than "A" or "B" or a ``d``
    that is not an integer ≥ 1 :class:`InvalidSpec`.
    """
    _require_integer(d, "d", 1)
    rho = _array(rho, "rho", shape=(..., d * d, d * d))
    four = rho.reshape(rho.shape[:-2] + (d, d, d, d))  # [..., i, k, j, l] = ρ[i·d+k, j·d+l]
    if _side_codes([side])[0]:  # side B
        blocks = four.swapaxes(-3, -2)
    else:
        n = four.ndim - 4  # [..., k, l, i, j]
        blocks = four.transpose(*range(n), n + 1, n + 3, n, n + 2)
    return _read_only(blocks)


def _chunks(entries: int, count: int):
    """Ranges cutting 0 … count − 1 into runs of as many items of ``entries`` complex entries
    each (d⁴ for a dense state, d³ for a sector stack) as one stack holds (≥ 1)."""
    step = max(1, _CHUNK_ENTRIES // entries)
    return (range(t, min(t + step, count)) for t in range(0, count, step))


def structural_verdicts(rhos, d: int, sides, tol: float = DEFAULT_TOL) -> list[StructuralVerdict]:
    """The general criterion for each (state, side) pair of ``zip(rhos, sides)``, in order.

    Zero iff every block has ‖offdiag(U†B_ijU)‖_F ≤ tol·max(1, ‖B_ij‖_F) in
    the U of :func:`_common_bases`, the eigenbasis of one generic Hermitian
    combination of the blocks, i.e. iff the blocks are normal and commute.
    Each state must be Hermitian, as every checked one is (to
    ``HERMITICITY_TOL``), for only the blocks with i ≤ j are read (see
    :func:`_norm_grids`).  Pairs go in input order in stacks of at most
    ``_CHUNK_ENTRIES`` dense entries (one state if larger), the criterion's only
    memory budget, each decided side by side on one :func:`extract_blocks` view
    and one :func:`_norm_grids` pass per side; results equal those of one pair
    at a time, bit for bit.  Each verdict keeps U in ``basis``, and its
    ``diagonals`` and ``offdiagonal_norms`` (see :func:`_norm_grids`) as views
    of its stack's arrays; a nonzero one's witness is the block (i, j), i ≤ j,
    of largest relative off-diagonal norm ‖offdiag‖/scale:
    the first in row-major order within 1e-12 relative of the largest, so that
    rounding does not choose among blocks of equal norm.  A state of the wrong
    shape raises :class:`DimensionError`, a non-finite one or a ``d`` that is not
    an integer ≥ 1 :class:`InvalidSpec`; each stack is made an array as it is sliced.
    """
    _require_real(tol, "tol")
    _require_integer(d, "d", 1)
    if len(_sequence(rhos, "rhos")) != len(_sequence(sides, "sides")):
        raise DimensionError(f"got {len(rhos)} states and {len(sides)} sides")
    verdicts, m = [], d * (d + 1) // 2
    for chunk in _chunks(d**4, len(sides)):
        at, n = sides[chunk.start : chunk.stop], len(chunk)
        # C order fixes _common_bases' order of summation; a C-ordered stack's slice is a view
        states = np.ascontiguousarray(_array(rhos[chunk.start : chunk.stop], "rhos"))
        U, diag = np.empty((n, d, d), complex), np.empty((n, m, d), complex)
        off, scale = np.empty((2, n, m))
        for side in dict.fromkeys(at):
            rows = np.array([i for i, s in enumerate(at) if s == side])
            grid = extract_blocks(states if len(rows) == n else states[rows], d, side)
            U[rows] = basis = _common_bases(grid, d)
            off[rows], scale[rows], diag[rows] = _norm_grids(grid, basis)
        thr = tol * scale
        zero = (off <= thr).all(axis=-1)
        failing, witnesses = np.nonzero(~zero)[0], {}
        if failing.size:  # each failing pair's block, gathered field by field
            rel = off / scale
            worst = (rel >= (1 - 1e-12) * rel.max(axis=-1, keepdims=True)).argmax(axis=-1)[failing]
            fields = (failing, _upper_pairs(d)[worst], off[failing, worst], thr[failing, worst])
            witnesses = {row: {"kind": "off-diagonal-block", "block": block,
                               "offdiagonal_norm": norm, "tolerance": bound}
                         for row, block, norm, bound in zip(*(x.tolist() for x in fields))}
        for i, (side, z) in enumerate(zip(at, zero.tolist())):
            verdicts.append(StructuralVerdict(
                z, side, CRITERION_COMMUTATION, witness=witnesses.get(i), basis=U[i],
                diagonals=diag[i], offdiagonal_norms=off[i]))
    return verdicts


@functools.cache
def _upper_pairs(d: int) -> np.ndarray:
    """[i, j] of each block with i ≤ j of a d×d grid, row by row (cached, read-only)."""
    return _read_only(np.stack(np.triu_indices(d), axis=-1))


def structural_discord_zero(
    rho: np.ndarray, d: int, side: str, tol: float = DEFAULT_TOL
) -> StructuralVerdict:
    """The general criterion for one state and side: :func:`structural_verdicts` of one."""
    return structural_verdicts(_array(rho, "rho", shape=(d * d, d * d))[None], d, [side], tol)[0]


def _norm_grids(blocks: np.ndarray, U: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """‖offdiag(U†B_ijU)‖_F, max(1, ‖B_ij‖_F), (n, d(d + 1)/2) each, and diag(U†B_ijU), i ≤ j.

    The (n, d, d, d, d) grids are one side's block view of a stack of
    Hermitian states and U is (n, d, d).  There B_ji = B_ij†, so U†B_jiU is
    the adjoint of U†B_ijU with the same norms: only blocks with i ≤ j are
    read, and their values come row by row, (0, 0) … (0, d − 1), (1, 1) ….
    All of them go at once, as C-ordered transposes Bt = Bᵀ that take two
    GEMMs per state: stacked Bt times conj(U) give (U†B)ᵀ, and their
    transposes, stacked, times U give U†BU.  Each temporary holds
    n·d³(d + 1)/2 entries, about half of the n states' own, so the stacks of
    :func:`structural_verdicts` are its only budget.  Both norms equal those
    ``np.linalg.norm`` forms on each product and transposed block, bit for bit.
    """
    n, d = U.shape[:2]
    Bt = np.empty((n, d * (d + 1) // 2, d, d), complex)
    # B_rj, j ≥ r, row by row, as C-ordered transposes
    np.concatenate([blocks[:, r, r:] for r in range(d)], axis=1, out=Bt.swapaxes(-1, -2))
    scale = _squared_norms(Bt)
    P = (Bt.reshape(n, -1, d) @ U.conj()).reshape(Bt.shape)  # (U†B)ᵀ, block by block
    del Bt  # each temporary is freed once read, so that at most two are alive
    P = np.ascontiguousarray(P.swapaxes(-1, -2))
    T = (P.reshape(n, -1, d) @ U).reshape(P.shape)  # U†BU
    del P
    diag = T.diagonal(axis1=-2, axis2=-1).copy()
    T.reshape(-1, d * d)[:, :: d + 1] = 0.0
    return np.sqrt(_squared_norms(T)), np.maximum(1.0, np.sqrt(scale)), diag


def _squared_norms(X: np.ndarray) -> np.ndarray:
    """Σ |x|² over the last two axes: the sum of conj(x)·x that ``np.linalg.norm`` forms."""
    Y = X.conj()
    Y *= X  # in place, so no second temporary of X's size
    return np.add.reduce(Y.real, axis=(-2, -1))


def _diagonal_flags(a: np.ndarray) -> np.ndarray:
    """Whether each (…, d, d, d) sector stack has all off-diagonal entries within ZERO_TOL of 0."""
    off = np.abs(a)
    off.reshape(a.shape[:-2] + (-1,))[..., :: a.shape[-1] + 1] = 0.0  # each sector's diagonal
    return np.maximum.reduce(off.reshape(a.shape[:-3] + (-1,)), axis=-1) <= ZERO_TOL


def _scales(a: np.ndarray) -> np.ndarray:
    """max(1, maxₙ ‖a^(n)‖_F) per (…, d, d, d) sector stack.

    Each sector's norm is the one ``np.linalg.norm`` forms over the last two axes, bit for bit.
    """
    return np.maximum(1.0, np.sqrt(np.maximum.reduce(_squared_norms(a), axis=-1)))


@functools.cache
def _shifts(d: int) -> np.ndarray:
    """shifts[k, i] = (i + k) mod d (cached, read-only)."""
    return _read_only((np.arange(d)[:, None] + np.arange(d)) % d)


@functools.cache
def _sector_entries(d: int) -> np.ndarray:
    """entries[c, (k, i, j)]: the flat position in a^(0) of entry (i, j) of slice k of a
    side-c φ = 0 family, c = 0 (A) or 1 (B), shape (2, d³) (cached, read-only).

    Row i of slice k reads row (i + k) mod d of a^(0) on side A and row i on
    side B, and column j the column that row j reads.
    """
    rows = np.stack([_shifts(d), np.tile(np.arange(d), (d, 1))])  # rows[c, k, i]
    return _read_only((rows[..., :, None] * d + rows[..., None, :]).reshape(2, -1))


def _reference_stack(a0: np.ndarray, codes: list) -> np.ndarray:
    """The φ = 0 family of each seed of a0 (n, d, d) on its side (see :func:`_side_codes`).

    Shape (n, d, d, d); slice k is a^(0)_{i+k, j+k} on side A and a^(0) on side B.
    """
    n, d = len(codes), a0.shape[-1]
    ref = a0.reshape(n, d * d)[np.arange(n)[:, None], _sector_entries(d)[codes]]
    return ref.reshape(n, d, d, d)


def _family_stack(ref: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The phase families of the φ = 0 stacks ``ref`` (…, d, d, d) and angles φ (…, d).

    Slice k is D_k·ref_k·D_k†, D_k = diag(v), v(i) = e^{iΨ_k(i)} with the window
    sums Ψ_k(i) = Σ_{s<k} φ_{(i+s) mod d}: v_i·ref_ij·conj(v_j) in one broadcast,
    one exponential per slice and node (v = 1 on slice 0), each stack as it is alone.
    It equals the paper's e^{i(Ψ_k(i) − Ψ_k(j))}·ref_ij, and is Hermitian, to rounding.
    """
    lead, d = ref.shape[:-3], ref.shape[-1]
    if phi.shape != lead + (d,):
        raise DimensionError(f"expected {d} phase angles, got shape {phi.shape[len(lead):]}")
    psi = np.zeros(lead + (d, d))
    psi[..., 1:, :] = np.add.accumulate(phi[..., _shifts(d)[:-1]], axis=-2)
    v = np.exp(1j * psi)
    return v[..., :, None] * ref * v[..., None, :].conj()


@functools.cache
def _phase_paths(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The path of each off-diagonal entry (i, j), i < j, of a^(0) through the φ_n (cached, read-only).

    The entry's copies z_k in sectors k = 0 … d − 1 (a^(k)_{ij} on side B,
    a^(k)_{i−k, j−k} on side A, indices mod d) give φ_u − φ_{u+s} =
    arg z_{k+1} − arg z_k with s = j − i and u = i + k (side B) or
    u = i − k − 1 (side A).  At prime d these d − 1 edges are a cycle of
    step s less one edge, so they form a path through all d nodes, walked
    from node j − 1 (side B) or j (side A) in steps of s.  Returns, with a
    leading side-code axis (see :func:`_side_codes`): the flat positions of
    the z_k in a (d, d, d) stack (2, E, d), the nodes in walk order
    (2, E, d), and the edge k each step of the walk takes (2, E, d − 1).
    """
    i, j = (x[:, None] for x in np.triu_indices(d, 1))
    k = np.arange(d)
    walks = np.stack([(j + (j - i) * k) % d, (j - 1 + (j - i) * k) % d])
    steps = np.stack([i - 1 - walks[0], walks[1] - i])[..., :-1] % d
    entries = [np.ravel_multi_index(np.broadcast_arrays(k, r % d, c % d), (d, d, d))
               for r, c in ((i - k, j - k), (i, j))]
    return _read_only(np.stack(entries)), _read_only(walks), _read_only(steps)


def _fit_phases(a: np.ndarray, sides) -> np.ndarray:
    """Fit the angles φ_n (n, d) of each sector stack of ``a`` (n, d, d, d) from its entry phases.

    Each stack reads φ along one :func:`_phase_paths` path, node 0 at 0:
    that of the entry whose smallest modulus over the sectors is largest,
    so no tiny entry sets a phase, or the first within 1e-12 relative of it,
    so that rounding does not pick among tied paths (at d = 3 all tie on
    the side opposite a zero family).  In a zero-discord family an entry keeps
    one modulus in every sector, so its path is usable whole or not at
    all; a stack whose best path has an entry of modulus ≤ 1e−12 gets
    φ = 0.  The relations are then checked everywhere, so the path decides
    only which φ a nonzero verdict reports.
    """
    n, d = a.shape[:2]
    entries, walks, steps = _phase_paths(d)
    codes, rows = _side_codes(sides), np.arange(n)[:, None]
    z = a.reshape(n, -1)[rows[:, :, None], entries[codes]]
    # each path's smallest |z|², exact per entry (np.abs rounds some entries differently in a
    # long array than alone, which could break a tie between paths differently in a stack)
    strength = np.minimum.reduce(z.real ** 2 + z.imag ** 2, axis=-1)
    best = np.maximum.reduce(strength, axis=1)
    path = (codes, (strength >= (1 - 1e-12) * best[:, None]).argmax(axis=1))
    z = z[rows[:, 0], path[1]]
    arg = np.arctan2(z.imag, z.real)
    delta = arg[:, :-1] - arg[:, 1:]  # φ_{u+s} − φ_u per edge k
    fit = np.zeros((n, d))
    fit[:, 1:] = np.add.accumulate(delta[rows, steps[path]], axis=1)  # in walk order
    phi = np.empty((n, d))
    phi[rows, walks[path]] = fit
    phi -= phi[:, :1]
    phi[best <= ZERO_TOL**2] = 0.0
    # a zero of φ may carry either sign (delta is x − y, not −(y − x)); e^{iφ} drops it,
    # since i·(±0) has imaginary part +0 and e^{±0} = 1
    e = np.exp(1j * phi)
    return np.arctan2(e.imag, e.real)


def _theorem_verdicts(a: np.ndarray, sides, tol: float) -> list[StructuralVerdict]:
    """The theorem for each pair of ``zip(a, sides)``, ``a`` a (n, d, d, d) stack of sector stacks.

    Checks the tolerance (finite), the lengths (equal), the stack's shape
    and that d is prime.  The whole stack takes one gather of its φ = 0
    stacks, one scale per stack and one :func:`_fit_phases` call, and its
    relations are checked in one broadcast; one reduce finds the
    all-diagonal stacks, which are classical outright.  Each verdict equals
    the one-pair call, bit for bit.  A failing stack's witness is its
    lexicographically first violation (in k, i, j); the failing stacks'
    witnesses are gathered together, one array and one ``tolist`` per
    field, k, i and j unravelled by ``divmod``.
    """
    _require_real(tol, "tol")
    if len(a) != len(sides):
        raise DimensionError(f"got {len(a)} specs and {len(sides)} sides")
    if not len(a):
        return []
    d = a.shape[-1]
    _array(a, "a", shape=(len(a), d, d, d))
    _require_prime(d)
    n = len(a)
    thr = tol * _scales(a)
    phis = _fit_phases(a, sides)
    family = _family_stack(_reference_stack(a[:, 0], _side_codes(sides)), phis).reshape(n, -1)
    a2 = a.reshape(n, -1)
    delta = np.abs(family - a2)
    bad = ~(delta <= thr[:, None])
    diagonal = _diagonal_flags(a)
    failing, witnesses = np.nonzero(np.logical_or.reduce(bad, axis=1) & ~diagonal)[0], {}
    if failing.size:  # each failing stack's first violation, gathered field by field
        at = bad[failing].argmax(axis=1)
        k, entry = np.divmod(at, d * d)
        fields = (failing, k, *np.divmod(entry, d), family[failing, at], a2[failing, at],
                  delta[failing, at], thr[failing])
        witnesses = {row: {"kind": "relation-violation", "k": k, "entry": [i, j],
                           "expected": [e.real, e.imag], "actual": [v.real, v.imag],
                           "delta": dv, "tolerance": tv}
                     for row, k, i, j, e, v, dv, tv in zip(*(x.tolist() for x in fields))}
    verdicts = []
    for row, (side, classical) in enumerate(zip(sides, diagonal.tolist())):
        if classical:
            verdicts.append(StructuralVerdict(True, side, CRITERION_DIAGONAL))
            continue
        witness = witnesses.get(row)
        verdicts.append(StructuralVerdict(
            witness is None, side, CRITERION_CIRCULANT, witness=witness, fitted_phases=phis[row]
        ))
    return verdicts


def circulant_theorem_check(
    spec: CirculantSpec, side: str, tol: float = DEFAULT_TOL
) -> StructuralVerdict:
    """Closed-form zero-discord test for circulant states at prime d.

    Fits phase angles from the sector-matrix entries and verifies the full
    phase-and-shift relation for every sector; all-diagonal specs are
    classical outright.  φ is fitted afresh on every call, so the verdict's
    array is its own.  This is :func:`_theorem_verdicts` of one pair.
    """
    return _theorem_verdicts(spec.a[None], [side], tol)[0]


def circulant_necessary_conditions(
    spec: CirculantSpec, side: str, tol: float = DEFAULT_TOL
) -> dict:
    """Modulus and diagonal prechecks implied by the zero-discord form.

    Side B requires |a^(n)_{ij}| = |a^(0)_{ij}| off the diagonal and
    a^(n)_{kk} = a^(0)_{kk}; side A the same with a^(0) indices shifted
    by n.  These are necessary, not sufficient (phases are not checked,
    and no φ is fitted).  The scale and φ = 0 stack are those the theorem
    uses.  Returns a new report ``{"side", "passed", "diagonal_classical",
    "failures"}`` on every call; each failure is ``{"condition", "n",
    "entry": [i, j], "got", "want"}``, in (n, i, j) order.
    """
    _require_real(tol, "tol")
    _require_prime(spec.d)
    codes = _side_codes([side])
    a, d = spec.a, spec.d
    if _diagonal_flags(a):
        return {"side": side, "passed": True, "diagonal_classical": True, "failures": []}
    thr = tol * _scales(a)
    got, want = a[1:], _reference_stack(a[None, 0], codes)[0, 1:]
    eye = np.eye(d, dtype=bool)
    got_abs, want_abs = np.abs(got), np.abs(want)
    fail = ~(np.abs(np.where(eye, got - want, got_abs - want_abs)) <= thr)
    got, want = np.where(eye, got.real, got_abs), np.where(eye, want.real, want_abs)
    names = _CONDITIONS[side]
    failures = [
        {"condition": names[i != j], "n": n + 1, "entry": [i, j], "got": g, "want": w}
        for n, i, j, g, w in zip(*(idx.tolist() for idx in fail.nonzero()),
                                 got[fail].tolist(), want[fail].tolist())
    ]
    return {"side": side, "passed": not failures, "diagonal_classical": False,
            "failures": failures}


def _completely_classical(spec: CirculantSpec, tol: float, theorem=None) -> StructuralVerdict:
    """:func:`completely_classical_check`, reading ``theorem`` (the spec's theorem verdicts
    on sides A and B, fitted here if None) only when the diagonal does not decide."""
    _require_real(tol, "tol")
    _require_prime(spec.d)
    a, d = spec.a, spec.d
    if _diagonal_flags(a):
        return StructuralVerdict(True, "both", CRITERION_DIAGONAL)
    diag, target = np.diag(a[0]), 1.0 / d**2
    uneven = np.flatnonzero(~(np.abs(diag - target) <= tol * _scales(a)))
    if uneven.size:
        i = int(uneven[0])
        witness = {"kind": "nonuniform-diagonal", "entry": [i, i],
                   "got": float(diag[i].real), "want": target}
        return StructuralVerdict(False, "both", CRITERION_CIRCULANT, witness=witness)
    theorem = theorem or _theorem_verdicts(np.stack([spec.a, spec.a]), "AB", tol)
    failing = [v for v in theorem if not v.zero_discord]
    first = failing[0] if failing else theorem[0]
    witness = {**first.witness, "side": first.side} if failing else None
    return StructuralVerdict(not failing, "both", CRITERION_CIRCULANT, witness=witness,
                             fitted_phases=first.fitted_phases)


def completely_classical_check(spec: CirculantSpec, tol: float = DEFAULT_TOL) -> StructuralVerdict:
    """Test whether discord vanishes on both sides simultaneously.

    All-diagonal specs are classical outright.  Otherwise a^(0) must have
    the uniform diagonal 1/d² (the side-A relation shifts every sector's
    diagonal, the side-B relation keeps it, so both pin it to a constant),
    and the theorem must pass on side A and on side B, both decided by
    one :func:`_theorem_verdicts` call, which the precheck's failure
    skips.  A zero verdict carries side A's phases; a nonzero one
    the first failing side's witness (with its ``side``) and phases.
    """
    return _completely_classical(spec, tol)


def _zero_discord_stacks(a0: np.ndarray, phi: np.ndarray, sides) -> np.ndarray:
    """The sector stacks (n, d, d, d) of :func:`generate_zero_discord` for n seeds at once, unchecked.

    Stack i comes from the seed a0[i] (a0 is (n, d, d)), the angles φ[i]
    (φ is (n, d)) and ``sides[i]``: each seed is hermitized and scaled so
    that its sector traces sum to 1, and the families are built in one
    broadcast, each bit for bit the one a lone seed gives.
    """
    a0 = hermitize(a0)
    d, tr = a0.shape[-1], np.trace(a0, axis1=-2, axis2=-1).real
    return _family_stack(_reference_stack(a0 / (d * tr)[:, None, None], _side_codes(sides)), phi)


def generate_zero_discord(a0: np.ndarray, phases, side: str) -> CirculantSpec:
    """Build the zero-discord circulant family seeded by a^(0) and phases.

    The seed must be square at prime d with finite phases, pass
    :func:`~discordant.linalg._require_psd` as "a0" with a Hermitian
    tolerance of 1e−10 relative, and have positive trace; it is
    symmetrized and scaled so the sector traces sum to 1, and the output
    passes :func:`circulant_theorem_check` on the chosen side by
    construction.  A bad seed raises :class:`InvalidSpec`.
    """
    a0 = _require_square(a0, "a0")
    d = a0.shape[0]
    _require_prime(d)
    phi = _array(phases, "phases", float)
    _require_finite(phi, "phases")
    _require_psd(a0[None], "a0", tol=1e-10)  # looser than a state's: the seed is hermitized
    if np.trace(a0).real <= ZERO_TOL:
        raise InvalidSpec("a0 must have positive trace")
    return CirculantSpec(d, _zero_discord_stacks(a0[None], phi[None], [side])[0])


@functools.cache
def _bell_labels(d: int) -> np.ndarray:
    """labels[α, m, n]: the class of (m, n) on each line, shape (d + 1, d, d) (cached, read-only).

    Line α < d labels (m, n) by (m + nα) mod d, line d by n.
    """
    m, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return _read_only(np.concatenate([(m + n * np.arange(d)[:, None, None]) % d, n[None]]))


@functools.cache
def _bell_classes(d: int) -> np.ndarray:
    """Flat positions in p of each line's classes, shape (d + 1, d²) (cached, read-only)."""
    labels = _bell_labels(d).reshape(d + 1, d * d)
    return _read_only(np.argsort(labels, axis=1, kind="stable"))


def _bell_spreads(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """classes[item, line, class, member] of a prime-d (n, d, d) stack, and each line's spread."""
    n, d = p.shape[:2]
    _require_prime(d)
    # C order for every n, so that each class sums in the order a lone matrix's does
    classes = p.reshape(n, d * d).take(_bell_classes(d), axis=1).reshape(n, d + 1, d, d)
    spread = np.maximum.reduce(classes, axis=-1) - np.minimum.reduce(classes, axis=-1)
    return classes, np.maximum.reduce(spread, axis=-1)


def _bell_verdicts(p: np.ndarray, tol: float) -> list[StructuralVerdict]:
    """:func:`bell_zero_discord_check` of each matrix of a nonempty (n, d, d) stack, unchecked."""
    classes, spread = _bell_spreads(p)
    d = p.shape[1]
    ok = spread <= tol
    zero = np.logical_or.reduce(ok, axis=1)
    named = np.where(zero, ok.argmax(axis=1), spread.argmin(axis=1))  # first zero line, else best
    means = np.add.reduce(classes, axis=-1) / d  # every class's π, as np.mean forms it
    fields = (zero, named, np.minimum.reduce(spread, axis=1))  # a nonzero line's best spread
    lines = [(alpha, None) for alpha in range(d)] + [(None, "n")]
    verdicts = []
    for i, (z, at, least) in enumerate(zip(*(x.tolist() for x in fields))):
        alpha, line = lines[at]
        if z:
            verdict = StructuralVerdict(True, "both", CRITERION_BELL, alpha=alpha, line=line,
                                        pi=means[i, at])
            verdicts.append(verdict)
            continue
        witness = {"kind": "residue-class-spread", "best_alpha": alpha, "best_line": line,
                   "spread": least, "tolerance": float(tol)}
        verdicts.append(StructuralVerdict(False, "both", CRITERION_BELL, witness=witness))
    return verdicts


def bell_zero_discord_check(w, tol: float = DEFAULT_TOL) -> StructuralVerdict:
    """Weight-space zero-discord test for Bell-diagonal states at prime d.

    Discord vanishes (on both sides at once) iff p is constant on the
    classes of one of the d + 1 lines through the origin of Z_d × Z_d:
    p[m, n] = π_{(m+nα) mod d} for some α, or p[m, n] = π_n.  The α-lines
    are scanned first, so the smallest qualifying α is reported (``line``
    None); the last line reports ``line`` "n" and ``alpha`` None.  The
    recovered π values come with either.
    """
    _require_real(tol, "tol")
    return _bell_verdicts(_bell_weights(w).p[None], tol)[0]


@functools.cache
def _generic_weights(d: int) -> np.ndarray:
    """Z + Z† for Weyl phases Z_ij = e^{2πi·frac(n·golden)}, n = 1..d² (cached, read-only)."""
    Z = np.exp(2j * np.pi * (np.arange(1, d * d + 1).reshape(d, d) * _GOLDEN % 1.0))
    return _read_only(Z + Z.conj().T)


def _common_bases(grid: np.ndarray, d: int) -> np.ndarray:
    """A candidate common eigenbasis U, (n, d, d), per grid of one side's block grids (n, d, d, d, d).

    U is the eigenbasis of the generic combination G = Σ W_ij B_ij (W
    Hermitian, Weyl-sequence phases), all grids in one batched ``eigh``;
    G's gaps are typically as wide as the whole family's.  On a commuting
    normal family G acts on joint eigenvector k as Σ W_ij λ_k(B_ij), so an
    exactly degenerate eigenspace of G (barring a cancellation among the
    weights) is one where every block is scalar and any basis serves, and
    a cluster of gap g spreads the blocks there by only about g/|W|.  One
    ``einsum`` sums G over the :func:`extract_blocks` view, whose layout
    fixes the order of summation, so each U is bit for bit the one a lone
    pair gets.  A non-finite G, that is a state with a non-finite entry,
    raises :class:`InvalidSpec` before the ``eigh``.
    """
    G = np.einsum("ij,nijkl->nkl", _generic_weights(d), grid)
    _require_finite(G)  # the combinations carry every entry, so this checks the states for free
    return np.linalg.eigh(hermitize(G))[1]


def classical_decomposition(
    rho: np.ndarray, d: int, side: str, tol: float = DEFAULT_TOL
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Decompose a zero-discord state as Σ p_k |k⟩⟨k| ⊗ ρ_k on the given side.

    A view of the :func:`structural_discord_zero` verdict that it certifies:
    the |k⟩ are the columns of its basis U, and on the side's block grid B
    (see :func:`extract_blocks`) σ_k[y, z] = (U†B_yzU)_kk are its
    ``diagonals`` for y ≤ z and their conjugates below, so that B_yz ≈
    Σ_k σ_k[y, z] |k⟩⟨k| on either side.  Returns (p_k, |k⟩, σ_k/p_k)
    triples.  Raises :class:`PreconditionError` when the verdict is nonzero
    or :func:`_reassembly_bound` exceeds ``REASSEMBLY_TOL``.
    """
    verdict = structural_discord_zero(rho, d, side, tol)
    if not verdict.zero_discord:
        raise PreconditionError(f"state has nonzero structural discord on side {side}: "
                                f"{verdict.witness}")
    residual = _reassembly_bound(rho, verdict)
    if residual > REASSEMBLY_TOL:
        raise PreconditionError(f"classical reassembly residual {residual:.3e} exceeds "
                                f"{REASSEMBLY_TOL}")
    (y, z), sigma = _upper_pairs(d).T, np.empty((d, d, d), complex)  # σ_k[y, z]
    sigma[:, z, y] = verdict.diagonals.T.conj()  # B_zy = B_yz†
    sigma[:, y, z] = verdict.diagonals.T
    result = []
    for p, u, s in zip(np.trace(sigma, axis1=1, axis2=2).real.tolist(), verdict.basis.T, sigma):
        if p >= 1e-14:
            result.append((p, u, hermitize(s) / p))
        else:  # an empty outcome, whose conditional state is the maximally mixed one
            result.append((max(p, 0.0), u, np.eye(d, dtype=complex) / d))
    return result


def _reassembly_bound(rho: np.ndarray, verdict: StructuralVerdict) -> float:
    """A bound on ‖B − Σ_k σ_k ⊗ |k⟩⟨k|‖_F over the whole grid, from ρ's zero ``verdict``.

    With e = ‖U†U − 1‖_F ≥ ‖UU† − 1‖₂, each block's B − U diag(U†BU) U† has
    norm at most (1 + e)·off + e(2 + e)·‖B‖_F.  A block with i < j stands for
    its mirror too (c = 2, a diagonal block c = 1) up to ‖B_ji − B_ij†‖_F,
    which the term ‖ρ − ρ†‖_F covers, as the verdict never read that block.
    """
    U, (i, j) = verdict.basis, _upper_pairs(len(verdict.basis)).T
    rho, e = np.asarray(rho, complex), frobenius(U.conj().T @ U - np.eye(len(U)))
    off = math.sqrt(np.where(i == j, 1.0, 2.0) @ verdict.offdiagonal_norms**2)
    return (1 + e) * off + e * (2 + e) * 2**0.5 * frobenius(rho) + frobenius(rho - rho.conj().T)

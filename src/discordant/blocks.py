"""Block decompositions of bipartite states and structural zero-discord criteria.

A bipartite state decomposes as ρ = Σ_ij e_ij ⊗ B_ij (side B blocks) or
ρ = Σ_αβ A_αβ ⊗ e_αβ (side A blocks).  Discord measured on a side vanishes
iff that side's blocks are normal and mutually commute, i.e. one unitary U
diagonalizes them all; then ρ = Σ_k p_k |u_k⟩⟨u_k| ⊗ ρ_k on that side
(Dakić, Vedral & Brukner, PRL 105, 190502, 2010).  The general criterion,
:func:`structural_discord_zero`, finds a candidate U once by sequential
refinement over Hermitian combinations of the blocks and declares zero
discord iff every U†B_ijU is diagonal within tolerance;
:func:`classical_decomposition` turns the same U into that sum.

For circulant states at prime local dimension the same question has a
closed form: the sector matrices must be phase-and-shift images of a^(0)
under a diagonal unitary V = diag(e^{iφ_n}) with φ_0 = 0,

    side A:  a^(k)_{ij} = e^{i(Ψ_k(i) − Ψ_k(j))} · a^(0)_{i+k, j+k}
    side B:  a^(k)_{ij} = e^{i(Ψ_k(i) − Ψ_k(j))} · a^(0)_{ij}

with Ψ_k(i) = Σ_{s<k} φ_{(i+s) mod d} (indices mod d).  The checkers here
fit the φ_n from the entry phases and then verify every relation, so a
valid family is always recognized and any violation yields a concrete
witness.  A spec is immutable, so its scale, all-diagonal flag, φ = 0
stacks, fitted φ and witnesses are each made once and kept with it; the
per-d index and weight tables are cached.  Bell-diagonal states additionally
admit a weight-space test: discord vanishes iff p is constant on the classes
of one of the d + 1 lines of Z_d × Z_d, p[m, n] = π_{(m + nα) mod d} for some
α or p[m, n] = π_n.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionError,
    InvalidSpec,
    PreconditionError,
    PrimeRequired,
)
from .linalg import EIG_FLOOR, _read_only, frobenius, hermitize
from .states import ZERO_TOL, CirculantSpec, _bell_weights

#: Default tolerance for structural checks.
DEFAULT_TOL = 1e-9
#: Eigenvalue gaps below this count as degenerate when building eigenbases.
DEGENERACY_GAP = 1e-8
#: Reassembly residual allowed for classical decompositions.
REASSEMBLY_TOL = 1e-8
#: Step of the Weyl sequence that phases the generic block combination.
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

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
    """Primality by trial division (dimensions here are tiny)."""
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
    #: The fitted angles φ_n of V = diag(e^{iφ_n}), φ_0 = 0 (read-only; kept with the spec).
    fitted_phases: np.ndarray | None = None
    alpha: int | None = None
    #: "n" when a Bell verdict rests on the line p[m, n] = π_n, else None.
    line: str | None = None
    pi: np.ndarray | None = None
    #: The basis a general-commutation verdict tested the blocks in (not serialized).
    basis: np.ndarray | None = field(default=None, repr=False)

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "zero_discord": self.zero_discord,
            "criterion": self.criterion,
            "alpha": self.alpha,
            "line": self.line,
            "phases": None if self.fitted_phases is None else [float(x) for x in self.fitted_phases],
            "pi": None if self.pi is None else [float(x) for x in self.pi],
            "witness": self.witness,
        }


def extract_blocks(rho: np.ndarray, d: int, side: str) -> np.ndarray:
    """Slice a d²×d² state into its side-A or side-B block grid, shape (d, d, d, d).

    Side B: blocks[i, j][k, l] = ρ[i·d+k, j·d+l] (operators on the second
    factor).  Side A: blocks[α, β][i, j] = ρ[i·d+α, j·d+β] (operators on
    the first factor).  The grid is a read-only view of ρ, not a copy, and
    the one place the package spells out a side's layout.  A wrong shape
    raises :class:`DimensionError`, a side other than "A" or "B"
    ``ValueError``.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d * d, d * d):
        raise DimensionError(f"expected shape ({d * d}, {d * d}), got {rho.shape}")
    four = rho.reshape(d, d, d, d)
    if side == "B":
        blocks = four.transpose(0, 2, 1, 3)
    elif side == "A":
        blocks = four.transpose(1, 3, 0, 2)
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return _read_only(blocks)


def structural_discord_zero(
    rho: np.ndarray, d: int, side: str, tol: float = DEFAULT_TOL
) -> StructuralVerdict:
    """Zero discord on a side iff one unitary U diagonalizes all of that side's blocks.

    U comes from :func:`_common_basis`.  The verdict is zero iff every
    block satisfies ‖offdiag(U†B_ijU)‖_F ≤ tol·max(1, ‖B_ij‖_F), which
    holds iff the blocks are normal and mutually commute; it costs d²
    block transforms instead of O(d⁴) commutators.  The verdict keeps U
    in ``basis``, which :func:`classical_decomposition` reuses; on
    failure the witness names the block with the largest relative
    off-diagonal norm in U (lexicographically first on ties).
    """
    blocks = extract_blocks(rho, d, side)
    U = _common_basis(blocks, d)
    Uh = U.conj().T
    idx = np.arange(d)
    off, scale = np.empty((d, d)), np.empty((d, d))
    for i in range(d):  # one block row at a time: temporaries stay at d³ entries
        T = Uh @ blocks[i] @ U
        T[:, idx, idx] = 0.0
        off[i] = np.linalg.norm(T, axis=(-2, -1))
        scale[i] = np.linalg.norm(blocks[i], axis=(-2, -1))
    scale = np.maximum(1.0, scale)
    if np.all(off <= tol * scale):
        return StructuralVerdict(True, side, CRITERION_COMMUTATION, basis=U)
    i, j = np.unravel_index(np.argmax(off / scale), off.shape)
    return StructuralVerdict(
        False,
        side,
        CRITERION_COMMUTATION,
        witness={
            "kind": "off-diagonal-block",
            "block": [int(i), int(j)],
            "offdiagonal_norm": float(off[i, j]),
            "tolerance": float(tol * scale[i, j]),
        },
        basis=U,
    )


def _once(spec: CirculantSpec, key, make):
    """``make()`` for this spec and key, made on first use and kept (a spec never changes)."""
    return spec._derived[key] if key in spec._derived else spec._derived.setdefault(key, make())


def _all_diagonal(spec: CirculantSpec) -> bool:
    return _once(spec, "all-diagonal",
                 lambda: bool(np.abs(spec.a[:, ~np.eye(spec.d, dtype=bool)]).max() <= ZERO_TOL))


@functools.cache
def _shifts(d: int) -> np.ndarray:
    """shifts[k, i] = (i + k) mod d (cached, read-only)."""
    return _read_only((np.arange(d)[:, None] + np.arange(d)) % d)


def _reference_stack(a0: np.ndarray, side: str) -> np.ndarray:
    """The φ = 0 family: slice k is a^(0)_{i+k, j+k} (side A) or a^(0) (side B), read-only."""
    d = a0.shape[0]
    if side == "A":
        s = _shifts(d)
        return _read_only(a0[s[:, :, None], s[:, None, :]])
    if side == "B":
        return _read_only(np.repeat(a0[None], d, axis=0))
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def _spec_reference(spec: CirculantSpec, side: str) -> np.ndarray:
    return _once(spec, ("reference", side), lambda: _reference_stack(spec.a[0], side))


def _psi_table(phi: np.ndarray) -> np.ndarray:
    """Window sums Ψ[k, i] = Σ_{s<k} φ_{(i+s) mod d}."""
    d = phi.shape[0]
    return np.cumsum(np.vstack([np.zeros(d), phi[_shifts(d)[:-1]]]), axis=0)


def _family_stack(ref: np.ndarray, phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (ref.shape[0],):
        raise DimensionError(f"expected {ref.shape[0]} phase angles, got shape {phi.shape}")
    psi = _psi_table(phi)
    phase = np.exp(1j * (psi[:, :, None] - psi[:, None, :]))
    return phase * ref


def phase_family(a0: np.ndarray, phi: np.ndarray, side: str) -> list[np.ndarray]:
    """Build the d sector matrices generated by a^(0) and phase angles φ."""
    return list(_family_stack(_reference_stack(np.asarray(a0, dtype=complex), side), phi))


def _fit_phases(spec: CirculantSpec, side: str) -> np.ndarray:
    """Fit the angles φ_n from entry phases of the sector matrices.

    Every consecutive pair of sector matrices supplies pure difference
    constraints φ_u − φ_v = δ between two indices; these are propagated
    breadth-first over the constraint graph.  Node 0 (and the smallest
    node of any separate component) is anchored at 0 — per-component
    offsets drop out of every window sum the relations use, so the
    subsequent full verification is unaffected by the anchoring choice.
    Entries with modulus below 1e−12 carry no usable phase and produce
    no constraint.
    """
    d, a = spec.d, spec.a
    k = np.arange(d - 1)
    # Edges in (entry, k) order, rows the entries of a^(0) and columns k:
    # the breadth-first pass, and so φ, depends on this order.
    if side == "B":
        i, j = np.divmod(np.arange(d * d), d)
        upper = i < j
        i, j = i[upper], j[upper]
        z = a[:, i, j].T  # z[entry, k] = a^(k)_ij
        z0, z1 = z[:, :-1], z[:, 1:]
        us, vs = (i[:, None] + k) % d, (j[:, None] + k) % d
        anchor = z[:, 0]
    else:
        m, c = np.divmod(np.arange(d * (d - 1)), d - 1)
        c += 1
        z0 = a[k, (m[:, None] - k) % d, (m[:, None] + c[:, None] - k) % d]
        us, vs = (m[:, None] - k - 1) % d, (m[:, None] + c[:, None] - k - 1) % d
        z1 = a[k + 1, us, vs]
        anchor = a[0, m, (m + c) % d]
    keep = (np.abs(anchor)[:, None] > ZERO_TOL) & (np.abs(z0) > ZERO_TOL) & (np.abs(z1) > ZERO_TOL)
    deltas = np.angle(z1[keep]) - np.angle(z0[keep])
    adj: list[list[tuple[int, float]]] = [[] for _ in range(d)]
    for u, v, delta in zip(us[keep].tolist(), vs[keep].tolist(), deltas.tolist()):
        adj[u].append((v, -delta))  # φ_v = φ_u − δ
        adj[v].append((u, delta))   # φ_u = φ_v + δ
    phi = np.zeros(d)
    visited = [False] * d
    for root in range(d):
        if visited[root]:
            continue
        visited[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, delta in adj[u]:
                if not visited[v]:
                    visited[v] = True
                    phi[v] = phi[u] + delta
                    queue.append(v)
    phi = np.angle(np.exp(1j * phi))
    phi[0] = 0.0
    return phi


def _spec_scale(spec: CirculantSpec) -> float:
    return _once(spec, "scale", lambda: max(1.0, max(frobenius(m) for m in spec.a)))


def _verify_phase_family(spec: CirculantSpec, phi: np.ndarray, side: str, tol: float):
    """Compare every sector matrix against the phase-generated family.

    Returns None when all entries match within tol·max(1, scale), else the
    lexicographically first violation (in k, i, j) as a witness dict.
    """
    a = spec.a
    family = _family_stack(_spec_reference(spec, side), phi)
    delta = np.abs(family - a)
    thr = tol * _spec_scale(spec)
    bad = ~(delta <= thr)
    if not bad.any():
        return None
    k, i, j = np.argwhere(bad)[0]
    return {
        "kind": "relation-violation",
        "k": int(k),
        "entry": [int(i), int(j)],
        "expected": [float(family[k, i, j].real), float(family[k, i, j].imag)],
        "actual": [float(a[k, i, j].real), float(a[k, i, j].imag)],
        "delta": float(delta[k, i, j]),
        "tolerance": float(thr),
    }


def circulant_theorem_check(
    spec: CirculantSpec, side: str, tol: float = DEFAULT_TOL
) -> StructuralVerdict:
    """Closed-form zero-discord test for circulant states at prime d.

    Fits phase angles from the sector-matrix entries and verifies the full
    phase-and-shift relation for every sector; all-diagonal specs are
    classical outright.  φ is fitted once per spec and side, the witness
    found once per tol; each verdict gets φ read-only and its own witness.
    """
    _require_prime(spec.d)
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if _all_diagonal(spec):
        return StructuralVerdict(True, side, CRITERION_DIAGONAL)
    phi = _once(spec, ("phases", side), lambda: _read_only(_fit_phases(spec, side)))
    witness = _once(spec, ("check", side, tol), lambda: _verify_phase_family(spec, phi, side, tol))
    if witness is not None:  # a copy of the kept one, which holds numbers and lists of numbers
        witness = {key: list(v) if isinstance(v, list) else v for key, v in witness.items()}
    return StructuralVerdict(
        witness is None, side, CRITERION_CIRCULANT, witness=witness, fitted_phases=phi
    )


def circulant_necessary_conditions(
    spec: CirculantSpec, side: str, tol: float = DEFAULT_TOL
) -> dict:
    """Modulus and diagonal prechecks implied by the zero-discord form.

    Side B requires |a^(n)_{ij}| = |a^(0)_{ij}| off the diagonal and
    a^(n)_{kk} = a^(0)_{kk}; side A the same with a^(0) indices shifted
    by n.  These are necessary, not sufficient (phases are not checked).
    The spec's scale and φ = 0 stack are those the theorem uses, made once.
    Returns a new report ``{"side", "passed", "diagonal_classical",
    "failures"}`` on every call; each failure is ``{"condition", "n",
    "entry": [i, j], "got", "want"}``, in (n, i, j) order.
    """
    _require_prime(spec.d)
    if side not in ("A", "B"):
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if _all_diagonal(spec):
        return {"side": side, "passed": True, "diagonal_classical": True, "failures": []}
    a = spec.a
    got, ref = a[1:], _spec_reference(spec, side)[1:]
    diag = np.eye(spec.d, dtype=bool)
    got_abs, ref_abs = np.abs(got), np.abs(ref)
    fail = ~(np.abs(np.where(diag, got - ref, got_abs - ref_abs)) <= tol * _spec_scale(spec))
    got, ref = np.where(diag, got.real, got_abs), np.where(diag, ref.real, ref_abs)
    names = _CONDITIONS[side]
    failures = [
        {"condition": names[i != j], "n": n + 1, "entry": [i, j],
         "got": float(got[n, i, j]), "want": float(ref[n, i, j])}
        for n, i, j in zip(*(idx.tolist() for idx in fail.nonzero()))
    ]
    return {"side": side, "passed": not failures, "diagonal_classical": False, "failures": failures}


def generate_zero_discord(a0: np.ndarray, phases, side: str) -> CirculantSpec:
    """Build the zero-discord circulant family seeded by a^(0) and phases.

    The finite input matrix is symmetrized, checked PSD, and scaled so
    the sector traces sum to 1; the output passes
    :func:`circulant_theorem_check` on the chosen side by construction.
    """
    a0 = np.asarray(a0, dtype=complex)
    if a0.ndim != 2 or a0.shape[0] != a0.shape[1]:
        raise DimensionError(f"a0 must be square, got {a0.shape}")
    d = a0.shape[0]
    _require_prime(d)
    phi = np.asarray(phases, dtype=float)
    if not (np.isfinite(a0).all() and np.isfinite(phi).all()):
        raise InvalidSpec("a0 and the phases must be finite")
    if frobenius(a0 - a0.conj().T) > 1e-10 * max(1.0, frobenius(a0)):
        raise InvalidSpec("a0 is not Hermitian")
    a0 = hermitize(a0)
    if np.linalg.eigvalsh(a0)[0] < EIG_FLOOR:
        raise InvalidSpec("a0 is not positive semidefinite")
    tr = float(np.trace(a0).real)
    if tr <= ZERO_TOL:
        raise InvalidSpec("a0 must have positive trace")
    return CirculantSpec(d, _family_stack(_reference_stack(a0 / (d * tr), side), phi))


def completely_classical_check(
    spec: CirculantSpec, tol: float = DEFAULT_TOL
) -> StructuralVerdict:
    """Test whether discord vanishes on both sides simultaneously.

    All-diagonal specs are classical outright.  Otherwise a^(0) must have
    the uniform diagonal 1/d² (the side-A relation shifts every sector's
    diagonal, the side-B relation keeps it, so both pin it to a constant),
    and :func:`circulant_theorem_check` must pass on side A and on side B.
    A zero verdict carries side A's phases; a nonzero one the first
    failing side's witness (with its ``side``) and phases; the theorem reuses earlier fits.
    """
    _require_prime(spec.d)
    if _all_diagonal(spec):
        return StructuralVerdict(True, "both", CRITERION_DIAGONAL)
    diag = np.diag(spec.a[0])
    target = 1.0 / spec.d**2
    bad = np.flatnonzero(~(np.abs(diag - target) <= tol * _spec_scale(spec)))
    if bad.size:
        i = int(bad[0])
        return StructuralVerdict(
            False,
            "both",
            CRITERION_CIRCULANT,
            witness={
                "kind": "nonuniform-diagonal",
                "entry": [i, i],
                "got": float(diag[i].real),
                "want": target,
            },
        )
    side_a = circulant_theorem_check(spec, "A", tol)
    inner = circulant_theorem_check(spec, "B", tol) if side_a.zero_discord else side_a
    if inner.zero_discord:
        return StructuralVerdict(True, "both", CRITERION_CIRCULANT, fitted_phases=side_a.fitted_phases)
    return StructuralVerdict(
        False,
        "both",
        inner.criterion,
        witness={**inner.witness, "side": inner.side},
        fitted_phases=inner.fitted_phases,
    )


def bell_zero_discord_check(w, tol: float = DEFAULT_TOL) -> StructuralVerdict:
    """Weight-space zero-discord test for Bell-diagonal states at prime d.

    Discord vanishes (on both sides at once) iff p is constant on the
    classes of one of the d + 1 lines through the origin of Z_d × Z_d:
    p[m, n] = π_{(m+nα) mod d} for some α, or p[m, n] = π_n.  The α-lines
    are scanned first, so the smallest qualifying α is reported (``line``
    None); the last line reports ``line`` "n" and ``alpha`` None.  The
    recovered π values come with either.
    """
    w = _bell_weights(w)
    d = w.d
    _require_prime(d)
    m, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    labels = (m + n * np.arange(d)[:, None, None]) % d  # labels[α, m, n]
    labels = np.concatenate([labels, n[None]]).reshape(d + 1, d * d)
    order = np.argsort(labels, axis=1, kind="stable")
    classes = w.p.ravel()[order].reshape(d + 1, d, d)  # [line, class, member]
    spread = (classes.max(axis=2) - classes.min(axis=2)).max(axis=1)
    lines = [(alpha, None) for alpha in range(d)] + [(None, "n")]
    ok = np.flatnonzero(spread <= tol)
    if ok.size:
        alpha, line = lines[ok[0]]
        pi = classes[ok[0]].mean(axis=1)
        return StructuralVerdict(True, "both", CRITERION_BELL, alpha=alpha, line=line, pi=pi)
    best = int(np.argmin(spread))
    alpha, line = lines[best]
    return StructuralVerdict(
        False,
        "both",
        CRITERION_BELL,
        witness={
            "kind": "residue-class-spread",
            "best_alpha": alpha,
            "best_line": line,
            "spread": float(spread[best]),
            "tolerance": float(tol),
        },
    )


@functools.cache
def _generic_weights(d: int) -> np.ndarray:
    """Z + Z† for Weyl phases Z_ij = e^{2πi·frac(n·golden)}, n = 1..d² (cached, read-only)."""
    Z = np.exp(2j * np.pi * (np.arange(1, d * d + 1).reshape(d, d) * _GOLDEN % 1.0))
    return _read_only(Z + Z.conj().T)


def _hermitian_generators(blocks: np.ndarray, d: int):
    """Hermitian matrices that all commute iff the blocks (B_ji = B_ij†) are normal and commute.

    First a fixed generic combination Σ W_ij B_ij (W Hermitian, with
    Weyl-sequence phases): its eigenvalue gaps are typically as wide as
    the whole family's, so one ``eigh`` usually separates every common
    eigenvector, and no split rests on a single block's near-degenerate
    pair.  Then the spanning set B_ii, B_ij + B_ji, i(B_ij − B_ji) for
    whatever that left degenerate.
    """
    yield np.einsum("ij,ijkl->kl", _generic_weights(d), blocks)
    for i in range(d):
        yield blocks[i, i]
    for i in range(d):
        for j in range(i + 1, d):
            yield blocks[i, j] + blocks[j, i]
            yield 1j * (blocks[i, j] - blocks[j, i])


def _common_basis(blocks: np.ndarray, d: int) -> np.ndarray:
    """Unitary whose columns diagonalize every block of a commuting normal family.

    Diagonalizes the Hermitian generators one after another, each inside
    the eigenspaces (eigenvalue gaps ≤ DEGENERACY_GAP) that the earlier
    ones left degenerate, and stops once every eigenspace is
    one-dimensional.  Deterministic.  For any other family the result is
    just some unitary, which the off-diagonal test then rejects.
    """
    U = np.eye(d, dtype=complex)
    groups = [list(range(d))]
    for g in _hermitian_generators(blocks, d):
        if not groups:
            break
        new_groups = []
        for grp in groups:
            V = U[:, grp]
            w, v = np.linalg.eigh(hermitize(V.conj().T @ g @ V))
            U[:, grp] = V @ v
            start = 0
            for t in range(1, len(grp) + 1):
                if t == len(grp) or w[t] - w[t - 1] > DEGENERACY_GAP:
                    if t - start > 1:
                        new_groups.append(grp[start:t])
                    start = t
        groups = new_groups
    return U


def classical_decomposition(
    rho: np.ndarray, d: int, side: str, tol: float = DEFAULT_TOL
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Decompose a zero-discord state as Σ p_k |k⟩⟨k| ⊗ ρ_k on the given side.

    The |k⟩ are the columns of the common eigenbasis U behind the
    :func:`structural_discord_zero` verdict, so the decomposition is that
    verdict's certificate.  On the side's block grid B (see
    :func:`extract_blocks`), σ_k[y, y'] = (U†B_yy'U)_kk and the
    reassembly is B_yy' = Σ_k σ_k[y, y'] |k⟩⟨k|, the same for either
    side.  Returns (p_k, |k⟩, σ_k/p_k) triples.  Raises
    :class:`PreconditionError` when the verdict is nonzero or the
    reassembly residual exceeds ``REASSEMBLY_TOL``.
    """
    verdict = structural_discord_zero(rho, d, side, tol)
    if not verdict.zero_discord:
        raise PreconditionError(
            f"state has nonzero structural discord on side {side}: {verdict.witness}"
        )
    U = verdict.basis
    blocks = extract_blocks(rho, d, side)
    sigma = np.einsum("xk,yzxw,wk->kyz", U.conj(), blocks, U, optimize=True)
    reassembled = np.einsum("xk,wk,kyz->yzxw", U, U.conj(), sigma, optimize=True)
    residual = frobenius(blocks - reassembled)
    if residual > REASSEMBLY_TOL:
        raise PreconditionError(
            f"classical reassembly residual {residual:.3e} exceeds {REASSEMBLY_TOL}"
        )
    result = []
    for k in range(d):
        p = float(np.trace(sigma[k]).real)
        if p >= 1e-14:
            cond = hermitize(sigma[k]) / p
        else:
            p = max(p, 0.0)
            cond = np.eye(d, dtype=complex) / d
        result.append((p, U[:, k], cond))
    return result

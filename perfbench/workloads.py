"""Seeded item pools for the three benchmark workloads.

Every item is one ``discordant`` command line plus the outcome the
benchmark expects from it.  States are built only through public package
functions (``random_zero_discord_spec``, ``perturb_spec``,
``random_classical_bell``, ``random_nonclassical_bell`` and the family
constructors) and handed to the program as state JSON files, so the
program sees nothing but its documented input format.

Why each workload exists:

- ``analyze-d3``: the general multi-start optimizer in ``discord`` does
  about 99% of the work (seconds per side against about a millisecond
  structural); a faster or unified optimizer must show its gain here.
- ``analyze-d2``: the d = 2 Bloch-grid path runs instead of the general
  one, items are cheap, and ``cli``/``serialize``/``states``/``blocks``
  overhead is a visible share; an optimizer that helps d = 3 but slows
  d = 2 shows up here.  It also carries malformed inputs that must be
  rejected with exit code 2.
- ``verify-large-d``: ``discordant verify`` at prime d in {5, 7, 11, 13},
  where the numeric suite is skipped, so ``blocks``, ``states`` and the
  ``verify`` generators do all of the work and ``discord`` none; a faster
  structural routine must show its gain here and leave ``analyze-*`` flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import discordant as dc
from discordant.verify import random_classical_bell, random_nonclassical_bell

#: Optimizer starts per side on the analyze workloads (the identity and the
#: Fourier basis, then a final polish).  The CLI default of 24 makes one
#: d = 3 item take about 9 s on a 2-core host, too few items per run for a
#: steady median; with 2 starts the optimizer still does ~99% of the work and
#: 20 items take ~28 s (median item-time spread over five seeds: 4.3%,
#: against 9.4% with 4 starts).
ANALYZE_STARTS = 2

#: Draws per suite for ``verify --d``: chosen so that every d costs about the
#: same (~2 s on a 2-core host), keeping the item-time distribution unimodal.
VERIFY_DRAWS = {5: 80, 7: 22, 11: 4, 13: 2}

#: Largest |D − D_ref| still counted as matching a known reference.
REF_TOL = 1e-6


@dataclass
class Item:
    """One command line and what it must produce."""

    kind: str
    argv: list
    state: dict | None = None
    exit_code: int = 0  # 2 for inputs the program must reject
    zero: dict = field(default_factory=dict)  # side -> expected structural verdict
    ref: dict = field(default_factory=dict)  # side -> known discord in bits
    draws: int = 0  # verify items: draws per suite


@dataclass
class Outcome:
    """Result of checking one item's run against its expectation."""

    ok: bool  # exit code and every check as expected
    wrong: bool  # output contradicts a known answer
    detail: str = ""
    ref_error: float | None = None


def _sides(zero_a, zero_b) -> dict:
    return {"A": zero_a, "B": zero_b}


def _analyze(kind, state, rng, *, zero, ref=None, exit_code=0) -> Item:
    argv = ["analyze", None, "--side", "both", "--starts", str(ANALYZE_STARTS),
            "--seed", str(int(rng.integers(2**31)))]
    return Item(kind, argv, state, exit_code, zero, ref or {})


def _zero_items(d: int, rng, cycle: int) -> list:
    """Constructed zero-discord specs on each side, then one perturbed per kind."""
    items = []
    for side in ("A", "B"):
        spec = dc.random_zero_discord_spec(d, side, rng)
        items.append(_analyze(f"zero-{side}", dc.circulant_to_json(spec), rng,
                              zero={side: True}, ref={side: 0.0}))
    for n, kind in enumerate(("modulus", "diagonal", "phase")):
        side = "AB"[(cycle + n) % 2]
        spec = dc.random_zero_discord_spec(d, side, rng)
        spec = dc.perturb_spec(spec, kind, float(rng.uniform(0.05, 0.15)), rng)
        items.append(_analyze(f"perturbed-{kind}", dc.circulant_to_json(spec), rng,
                              zero={side: False}))
    return items


def _bell_items(d: int, rng, cycle: int) -> list:
    p, _ = random_classical_bell(d, cycle % d, rng)
    classical = _analyze("bell-classical", dc.bell_to_json(d, p), rng,
                         zero=_sides(True, True), ref={"A": 0.0, "B": 0.0})
    p = random_nonclassical_bell(d, rng)
    nonclassical = _analyze("bell-nonclassical", dc.bell_to_json(d, p), rng,
                            zero=_sides(False, False))
    return [classical, nonclassical]


def _family_items(d: int, rng, werner_max: float) -> list:
    """Werner and isotropic members with λ > 0 (nonzero discord), plus P⁺_d."""
    lam = float(rng.uniform(0.05, werner_max))
    werner = _analyze("werner", {"kind": "werner", "d": d, "lambda": lam}, rng,
                      zero=_sides(False, False))
    lam = float(rng.uniform(0.05, 0.95))
    iso = _analyze("isotropic", {"kind": "isotropic", "d": d, "lambda": lam}, rng,
                   zero=_sides(False, False))
    pure = _analyze("isotropic-pure", {"kind": "isotropic", "d": d, "lambda": 1.0}, rng,
                    zero=_sides(False, False), ref={"A": math.log2(d), "B": math.log2(d)})
    return [werner, iso, pure]


def _orthogonal_items(rng) -> list:
    """Dense O(2)-invariant states: zero discord iff b = c (both sides)."""
    b = float(rng.uniform(0.05, 0.45))
    rho = dc.orthogonal_invariant_state((1.0 - 2 * b, b, b), 2)
    zero = _analyze("orthogonal-b=c", dc.dense_to_json(rho, 2), rng,
                    zero=_sides(True, True), ref={"A": 0.0, "B": 0.0})
    b = float(rng.uniform(0.0, 0.3))
    c = b + float(rng.uniform(0.05, 0.3))
    if rng.integers(2):
        b, c = c, b
    rho = dc.orthogonal_invariant_state((1.0 - b - c, b, c), 2)
    nonzero = _analyze("orthogonal-b!=c", dc.dense_to_json(rho, 2), rng,
                       zero=_sides(False, False))
    return [zero, nonzero]


def _malformed_items(rng) -> list:
    """Inputs the program must reject with exit code 2.

    The NaN entry sits in the maximally mixed state, where it slips past
    validation; the NaN Werner parameter makes the PSD check raise.
    """
    mixed = dc.circulant_state(dc.isotropic_state(2, 0.0))
    nan_dense = dc.dense_to_json(mixed, 2)
    nan_dense["rho"][0][0] = [float("nan"), 0.0]
    rho = dc.orthogonal_invariant_state(tuple(rng.dirichlet(np.ones(3))), 2)
    shift = float(rho[3, 3].real + rng.uniform(0.05, 0.2))
    rho[0, 0] += shift
    rho[3, 3] -= shift  # negative diagonal entry: not PSD, trace still 1
    return [
        _analyze(kind, state, rng, zero={}, exit_code=2)
        for kind, state in (
            ("dense-nan", nan_dense),
            ("werner-nan", {"kind": "werner", "d": 2, "lambda": float("nan")}),
            ("dense-not-psd", dc.dense_to_json(rho, 2)),
        )
    ]


def _analyze_d3(rng, cycle: int) -> list:
    return _zero_items(3, rng, cycle) + _family_items(3, rng, werner_max=0.25) \
        + _bell_items(3, rng, cycle)


def _analyze_d2(rng, cycle: int) -> list:
    return _zero_items(2, rng, cycle) + _family_items(2, rng, werner_max=0.33) \
        + _bell_items(2, rng, cycle) + _orthogonal_items(rng) + _malformed_items(rng)


def _verify_large_d(rng, cycle: int) -> list:
    return [Item(f"verify-d{d}",
                 ["verify", "--d", str(d), "--draws", str(draws), "--format", "json",
                  "--seed", str(int(rng.integers(2**31)))],
                 draws=draws)
            for d, draws in VERIFY_DRAWS.items()]


#: workload name -> (one generator cycle, cycles in a run's item pool,
#: set-up warm-up command line).  A single d = 3 item's time varies by ~10%
#: between repeats on a shared 2-core host, and d = 3 item costs differ
#: between seeds more than that, so on ``analyze-d3`` the spread of a run's
#: median between seeds falls with the number of distinct items: its pool is
#: 40 items, one ~56 s pass on such a host.  The other pools take ~10 s a pass
#: and a 15 s run repeats them.
WORKLOADS = {
    "analyze-d3": (_analyze_d3, 4, ["analyze", "--family", "isotropic", "--d", "3",
                                    "--lambda", "0.5", "--starts", "1"]),
    "analyze-d2": (_analyze_d2, 2, ["analyze", "--family", "werner", "--d", "2",
                                    "--lambda", "0.1"]),
    "verify-large-d": (_verify_large_d, 1, ["verify", "--d", "5", "--draws", "4"]),
}


def items(workload: str, seed: int, traced: bool = False) -> list:
    """The deterministic item pool for ``workload`` from ``seed``.

    The pool holds whole generator cycles, malformed inputs included, and a
    run repeats it in whole passes, so which items fail depends on the seed
    and the program alone, never on how many items the time allows.  A
    traced run runs each item twice and its pool is a single cycle.
    """
    cycle, cycles, _ = WORKLOADS[workload]
    if traced:
        cycles = 1
    rng = np.random.default_rng(seed)
    return [item for n in range(cycles) for item in cycle(rng, n)]


def check(item: Item, code, report: dict | None) -> Outcome:
    """Compare one run (exit code or exception text, parsed JSON) with the item.

    An item fails when its exit code differs from the expected one, which
    also covers structural/numeric disagreement (exit 3) and uncaught
    exceptions.  It is wrong when its output contradicts a known answer: a
    constructed verdict, or a discord value with a known reference.
    """
    if item.draws:
        return _check_verify(item, code, report)
    wrong, detail, ref_error = False, "", None
    if report is not None and item.exit_code == 0:
        for side, zero in item.zero.items():
            got = report["structural"][side]["zero_discord"]
            if got != zero:
                wrong, detail = True, f"side {side}: structural zero={got}, expected {zero}"
        for side, want in item.ref.items():
            err = abs(report["numeric"][side]["D"] - want)
            ref_error = err if ref_error is None else max(ref_error, err)
        if ref_error is not None and not ref_error <= REF_TOL:
            wrong, detail = True, f"|D - D_ref| = {ref_error:.3e}"
    if code != item.exit_code:
        detail = f"exit {code!r}, expected {item.exit_code}" + (f"; {detail}" if detail else "")
    elif code == 0 and report is None:
        detail = "no JSON report"
    return Outcome(not detail, wrong, detail, ref_error)


def _check_verify(item: Item, code, report: dict | None) -> Outcome:
    if report is None:
        return Outcome(False, False, f"exit {code!r}, no JSON report")
    for suite in report["suites"]:
        if suite["failed"]:
            return Outcome(False, True, f"suite {suite['name']} failed {suite['failed']}")
        if suite["name"] == "numeric-agreement":
            if not suite["skipped"]:
                return Outcome(False, False, "numeric suite ran at d >= 5")
        elif suite["passed"] != item.draws:
            return Outcome(False, False, f"suite {suite['name']}: {suite['passed']}/{item.draws}")
    if code != 0:
        return Outcome(False, False, f"exit {code!r}, expected 0")
    return Outcome(True, False)

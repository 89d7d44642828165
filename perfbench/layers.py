"""Per-layer rows: median wall time per call of public package functions.

Each row times one public function on inputs drawn from the run's seed.
Rows name only public functions, so they survive rewrites of the private
helpers behind them (the unitary parametrization and the Bloch-grid
objective are covered by ``discord.one_start_s.d3`` and
``discord.objective_s.*``).  The comment on each group says which
end-to-end metric the row should move.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
from pathlib import Path
from time import perf_counter

import discordant as dc
from discordant import cli
from discordant.verify import random_classical_bell
from tracing import Tracer, self_times
from workloads import ANALYZE_STARTS


def _median_call(fn, calls: int) -> float:
    times = []
    for _ in range(calls):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _zero_rho(d: int, rng):
    spec = dc.random_zero_discord_spec(d, "A", rng)
    return spec, dc.circulant_state(spec)


def _basis(d: int, rng):
    return dc.MeasurementBasis(d, dc.random_unitary(d, rng))


def _traced_self(argv: list, layer: str, calls: int) -> float:
    """Median over calls of the self time of ``layer`` in one CLI command."""
    values = []
    for _ in range(calls):
        tracer = Tracer()
        with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
            tracer.call("cli.main", cli.main, (argv,), {}, item=0)
        own = self_times(tracer.spans)
        values.append(sum(t for s, t in zip(tracer.spans, own) if s.layer == layer))
    return statistics.median(values)


def measure(rng, work: Path) -> tuple[dict, dict]:
    """Return ({row: median seconds per call or ratio}, {row: calls})."""
    rows: dict = {}
    calls: dict = {}

    def row(name, fn, n):
        rows[name] = _median_call(fn, n)
        calls[name] = n

    # discord: should move item_s.p50 on analyze-d2 (d2 rows) and
    # analyze-d3 (d3 rows); flat on verify-large-d.
    cfg = dc.OptimizerConfig(starts=ANALYZE_STARTS, seed=int(rng.integers(2**31)))
    one = dc.OptimizerConfig(starts=1, seed=int(rng.integers(2**31)))
    spec2 = dc.perturb_spec(dc.random_zero_discord_spec(2, "A", rng), "modulus", 0.1, rng)
    rho2 = dc.circulant_state(spec2)
    spec3 = dc.perturb_spec(dc.random_zero_discord_spec(3, "A", rng), "phase", 0.1, rng)
    rho3 = dc.circulant_state(spec3)
    row("discord.call_s.d2", lambda: dc.discord(rho2, 2, "A", cfg), 5)
    results = []
    row("discord.call_s.d3", lambda: results.append(dc.discord(rho3, 3, "A", cfg)), 3)
    row("discord.one_start_s.d3", lambda: dc.discord(rho3, 3, "B", one), 3)
    basis2, basis3 = _basis(2, rng), _basis(3, rng)
    row("discord.objective_s.d2", lambda: dc.conditional_entropy(rho2, 2, basis2, "A"), 300)
    row("discord.objective_s.d3", lambda: dc.conditional_entropy(rho3, 3, basis3, "A"), 300)
    row("discord.mutual_information_s.d3", lambda: dc.mutual_information(rho3, 3), 300)
    # Useful outcomes over attempts: guards ref_error_bits and failed_frac.
    rows["discord.starts_converged_frac"] = (
        sum(r.starts_converged for r in results) / (len(results) * cfg.starts))
    calls["discord.starts_converged_frac"] = len(results) * cfg.starts

    # blocks: structural and theorem rows should move verify-large-d and
    # stay flat on analyze-*; decomposition has no end-to-end caller.
    for d in (3, 5, 7, 11, 13):
        spec, rho = _zero_rho(d, rng)
        n = 3 if d >= 11 else 10
        row(f"blocks.structural_s.d{d}",
            lambda: dc.structural_discord_zero(rho, d, "A"), n)
        row(f"blocks.theorem_s.d{d}", lambda: dc.circulant_theorem_check(spec, "A"), 3 * n)
        if d in (3, 7, 13):
            row(f"blocks.decomposition_s.d{d}",
                lambda: dc.classical_decomposition(rho, d, "A"), n)
    # Marginal for analyze-*.
    p3, _ = random_classical_bell(3, 1, rng)
    row("blocks.bell_s.d3", lambda: dc.bell_zero_discord_check(p3), 300)
    row("blocks.necessary_s.d3", lambda: dc.circulant_necessary_conditions(spec3, "A"), 300)
    row("blocks.complete_s.d3", lambda: dc.completely_classical_check(spec3), 300)

    # states: assembly moves verify-large-d, projection analyze-d2.
    zero3 = dc.random_zero_discord_spec(3, "B", rng)
    zero13 = dc.random_zero_discord_spec(13, "B", rng)
    row("states.assemble_s.d3", lambda: dc.circulant_state(zero3), 300)
    row("states.assemble_s.d13", lambda: dc.circulant_state(zero13), 100)
    dense2 = dc.orthogonal_invariant_state(tuple(rng.dirichlet([1.0, 1.0, 1.0])), 2)
    row("states.project_s.d2", lambda: dc.project_circulant(dense2, 2), 300)

    # serialize: parsing the state JSON the analyze workloads read.
    obj2 = json.loads(json.dumps(dc.dense_to_json(dense2, 2)))
    obj3 = json.loads(json.dumps(dc.circulant_to_json(zero3)))
    row("serialize.parse_s.d2", lambda: dc.parse_state(obj2), 300)
    row("serialize.parse_s.d3", lambda: dc.parse_state(obj3), 300)

    # linalg: the entropy and partial trace every analyze item calls.
    row("linalg.entropy_s.d3", lambda: dc.von_neumann_entropy(rho3), 300)
    row("linalg.partial_trace_s.d3", lambda: dc.partial_trace(rho3, 3, 3, "B"), 300)

    # Self time of the command front-end (analyze-d2) and of the verify
    # generators and bookkeeping (verify-large-d).
    path = work / "layer-d2.json"
    path.write_text(json.dumps(dc.dense_to_json(dense2, 2)))
    rows["cli.self_s"] = _traced_self(["analyze", str(path)], "cli", 5)
    calls["cli.self_s"] = 5
    rows["verify.self_s"] = _traced_self(
        ["verify", "--d", "7", "--draws", "4", "--format", "json",
         "--seed", str(int(rng.integers(2**31)))], "verify", 5)
    calls["verify.self_s"] = 5
    return rows, calls

"""Benchmark for the ``discordant`` package: one workload, one seed, one run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload analyze-d3 --seed 1 --seconds 15 --trace 0

Each item is one ``discordant`` command run in this process through
``discordant.cli.main`` (a closed loop with a single caller), against the
package under ``src/`` of the checkout.  The seed fixes a pool of items;
the run repeats the pool in whole passes until its time is up, so every
item runs equally often, and at least once.  Every run of an item has its
exit code and JSON output checked against the outcome its generator
expects.  ``attempted`` counts the pool's items and ``failed`` those with
a run that missed its expected outcome, so both depend on the seed and
the program, not on the host's speed.

Item times are reported twice: in seconds, and in ``ref`` units, the time
of a fixed reference kernel measured just before and after each item.  On
a shared host the CPU speed one process gets drifts by up to ~1.7x over
seconds to minutes; the kernel slows down with it, so a time in ``ref``
units keeps the program's cost and drops most of the host's drift.  On a
2-core host the quartile spread of the median item time over five seeds
on ``analyze-d2`` was 11% in seconds and 1.4% in ``ref`` units.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(import plus first call, median over fresh processes), ``item_ref.p50``,
``items_per_ref`` and ``peak_rss_mb``.  With ``--trace 1`` each item runs
twice, untraced and traced, and the run reports the per-layer metrics:
the rows of ``layers.py``, each layer's share of item self time, and the
tracing overhead.  The second-to-last output line is the full report
(environment block, times in seconds, tail percentiles, failure share,
reference error, call counts); the last line is the summary object
``{"correct", "attempted", "failed", "metrics"}``.  Reports and spans are
also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Pin BLAS/OpenMP to one thread before NumPy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("DISCORDANT_SEED", None)  # it would override every item's --seed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_RUNS = 5

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _load_package():
    """Import the package from this checkout's ``src/``, or exit non-zero."""
    if not (SRC / "discordant" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {SRC / 'discordant'}")
    sys.path.insert(0, str(SRC))
    import discordant

    if Path(discordant.__file__).resolve().parent != SRC / "discordant":
        sys.exit(f"perfbench: imported {discordant.__file__}, not the checkout's package")


def _environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import contextlib, io
from discordant import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main({argv!r})
print(time.perf_counter() - t0)
sys.exit(code)
"""


def _setup_seconds(warmup: list) -> list:
    """Import plus first call, each in a fresh interpreter."""
    code = _SETUP_CHILD.format(src=str(SRC), argv=warmup)
    times = []
    for _ in range(SETUP_RUNS):
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=150)
        if res.returncode != 0:
            sys.exit(f"perfbench: set-up run failed: {res.stderr.strip()}")
        times.append(float(res.stdout.strip().splitlines()[-1]))
    return times


#: Share of each item's duration spent timing the reference kernel after it.
REFERENCE_SHARE = 0.1


def _reference_unit(m, u, rho4) -> None:
    """One ``ref``: interpreter work around tiny einsum and eigensolve calls.

    The mix resembles the package's inner loops, so host slowdowns scale
    both alike.  It uses nothing from the package: a change to the program
    cannot move it.
    """
    import numpy as np

    for _ in range(20):
        np.linalg.eigvalsh(m)
        np.einsum("ak,abcd,ck->kbd", u, rho4, u)
        sum(x * x for x in range(30))


def reference_window(seconds: float) -> tuple[int, float]:
    """Run whole reference units for at least ``seconds``: (units, elapsed)."""
    import numpy as np

    m = np.arange(27.0).reshape(3, 3, 3) % 5
    m = m + m.transpose(0, 2, 1)
    u = np.eye(3)
    rho4 = np.arange(81.0).reshape(3, 3, 3, 3)
    units, t0 = 0, perf_counter()
    while True:
        _reference_unit(m, u, rho4)
        units += 1
        elapsed = perf_counter() - t0
        if elapsed >= seconds:
            return units, elapsed


class Runner:
    """Runs items through ``cli.main`` and keeps per-item records."""

    def __init__(self, workdir: Path):
        from discordant import cli

        self.main = cli.main
        self.path = workdir / "item.json"
        self.records: list[dict] = []

    def run(self, index, item, check, tracer=None) -> dict:
        argv = [str(self.path) if a is None else a for a in item.argv]
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = self.main(argv)
                else:
                    with tracer.installed():
                        code = tracer.call("cli.main", self.main, (argv,), {},
                                           item=len(self.records))
        except Exception as exc:  # an uncaught error is a failed item, not a crash
            code = f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        try:
            report = json.loads(out.getvalue())
        except json.JSONDecodeError:
            report = None
        outcome = check(item, code, report)
        rec = {"item": index, "kind": item.kind, "traced": tracer is not None,
               "seconds": elapsed, "ok": outcome.ok, "wrong": outcome.wrong,
               "detail": outcome.detail, "ref_error": outcome.ref_error}
        self.records.append(rec)
        return rec


def _tail(values: list) -> dict | None:
    """Highest whole percentile with at least ten items beyond it (nearest rank)."""
    n = len(values)
    ordered = sorted(values)
    for pct in range(99, 49, -1):
        rank = math.ceil(n * pct / 100)
        if n - rank >= 10:
            return {"value": ordered[rank - 1], "percentile": pct, "n": n}
    return None


def _summary(records: list) -> dict:
    secs = [r["seconds"] for r in records]
    refs = [r["seconds"] / r["ref_s"] for r in records]
    errors = [r["ref_error"] for r in records if r["ref_error"] is not None]
    failures = [r for r in records if not r["ok"]]
    failed_items = {r["item"] for r in failures}
    n_items = len({r["item"] for r in records})
    return {
        "n": len(records),
        "distinct_items": n_items,
        "item_s.p50": statistics.median(secs),
        "item_s.tail": _tail(secs),
        "items_per_s": len(secs) / sum(secs),
        "item_ref.p50": statistics.median(refs),
        "item_ref.tail": _tail(refs),
        "items_per_ref": len(refs) / sum(refs),
        "reference_unit_s.p50": statistics.median(r["ref_s"] for r in records),
        "failed_frac": len(failed_items) / n_items,
        "ref_error_bits": max(errors) if errors else None,
        "failures": sorted({f"{r['kind']}: {r['detail']}" for r in failures}),
    }


def _layer_shares(tracer) -> tuple[dict, dict]:
    """Each layer's self time over total item time, and its span count."""
    from tracing import LAYERS, self_times

    own = self_times(tracer.spans)
    total = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    shares = {f"{layer}.self_frac": sum(t for s, t in zip(tracer.spans, own)
                                         if s.layer == layer) / total
              for layer in LAYERS}
    calls = {layer: sum(1 for s in tracer.spans if s.layer == layer) for layer in LAYERS}
    return shares, calls


def _measure_items(args, runner, pool, check, tracer) -> None:
    """Repeat the item pool in whole passes until ``args.seconds`` have passed,
    so that every item runs equally often.

    Each item's ``ref_s`` is the reference unit's time over the windows
    just before and just after it.
    """
    before = reference_window(0.05)
    deadline = perf_counter() + args.seconds
    n = 0
    while n % len(pool) or perf_counter() < deadline:
        index = n % len(pool)
        item = pool[index]
        if item.state is not None:
            runner.path.write_text(json.dumps(item.state))
        if tracer is None:
            recs = [runner.run(index, item, check)]
        else:  # untraced and traced back to back, alternating which goes first
            order = (None, tracer) if n % 2 == 0 else (tracer, None)
            recs = [runner.run(index, item, check, t) for t in order]
        after = reference_window(REFERENCE_SHARE * sum(r["seconds"] for r in recs))
        for rec in recs:
            rec["ref_s"] = (before[1] + after[1]) / (before[0] + after[0])
        before = after
        n += 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    _load_package()
    import numpy as np

    import layers
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(workloads.WORKLOADS)}")
    report: dict = {"environment": _environment(args)}
    trace = args.trace == 1
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if not trace:
            setup = _setup_seconds(workloads.WORKLOADS[args.workload][2])
            report["setup_s"] = {"value": statistics.median(setup), "runs": setup}
        runner = Runner(Path(tmp))
        tracer = Tracer() if trace else None
        _measure_items(args, runner, workloads.items(args.workload, args.seed, trace),
                       workloads.check, tracer)
        if trace:
            rows, row_calls = layers.measure(np.random.default_rng([args.seed, 1]), Path(tmp))

    records = runner.records
    plain = [r for r in records if not r["traced"]]
    report["items"] = _summary(plain)
    report["kinds"] = {}
    for kind in dict.fromkeys(r["kind"] for r in plain):
        secs = [r["seconds"] for r in plain if r["kind"] == kind]
        report["kinds"][kind] = {"n": len(secs), "item_s.p50": statistics.median(secs)}
    if trace:
        traced = [r for r in records if r["traced"]]
        report["traced_items"] = _summary(traced)
        shares, span_calls = _layer_shares(tracer)
        report["calls"] = {"spans": span_calls, "rows": row_calls}
        overhead = statistics.median(
            t["seconds"] / p["seconds"] for t, p in zip(traced, plain)) - 1.0
        metrics = {name: {"value": v, "unit": "ratio" if name.endswith("_frac") else "s"}
                   for name, v in rows.items()}
        metrics.update({name: {"value": v, "unit": "ratio"} for name, v in shares.items()})
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps([s.to_json() for s in tracer.spans]))
    else:
        items = report["items"]
        metrics = {
            "setup_s": {"value": report["setup_s"]["value"], "unit": "s"},
            "item_ref.p50": {"value": items["item_ref.p50"], "unit": "ref"},
            "items_per_ref": {"value": items["items_per_ref"], "unit": "1/ref"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    report["metrics"] = metrics
    result = {"correct": not any(r["wrong"] for r in records),
              "attempted": len({r["item"] for r in records}),
              "failed": len({r["item"] for r in records if not r["ok"]}), "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

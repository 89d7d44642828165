"""Command-line front-end: it parses, checks its input, calls the library and prints.

Commands: ``build`` emits state JSON for a named family, ``analyze``
prints the report of :func:`discordant.verify.analyze` on a state,
``verify`` batch-runs the cross-check suites, and ``simplex`` emits CSV
data for the d=2 orthogonal-invariant simplex.  ``build``, ``analyze``
and ``verify --format json`` print one JSON object on one line.

Exit codes: 0 success (for ``analyze``, an ``agree`` or ``inconclusive``
outcome), 1 a ``verify`` suite failed, 2 input error (a value out of its
bounds, such as ``--starts`` above 256 or a negative ``--tol``, or a state
path or family flag that would be ignored), 3 an ``analyze`` outcome of
``disagree``: a structural zero with numeric D above the nonzero
threshold.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .blocks import DEFAULT_TOL, _bell_labels
from .discord import OptimizerConfig
from .errors import DiscordantError, InvalidSpec
from .linalg import _require_finite
from .serialize import _parse, _read, bell_to_json, circulant_to_json, dense_to_json, parse_state
from .states import _require_dimension
from .verify import MAX_GRID, analyze, o2_simplex_rows, run_verify

#: The inline families and the flags each reads besides --family and --d, all required.
_FAMILY_FLAGS = {"werner": ("--lambda",), "isotropic": ("--lambda",), "bell": ("--alpha", "--pi"),
                 "orthogonal": ("--abc",)}


def _parse_floats(text: str, name: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise InvalidSpec(f"--{name} must be a comma-separated list of numbers") from None
    _require_finite(values, f"--{name}")
    return values


def _family_state(args, given: list[str]) -> dict:
    """The schema dict that the inline family flags describe; ``given`` names those set."""
    if args.d is None:
        raise InvalidSpec("--d is required with --family")
    d = args.d
    _require_dimension(d)
    fam, reads = args.family, _FAMILY_FLAGS[args.family]
    if not set(reads) <= set(given):
        raise InvalidSpec(f"{' and '.join(reads)} {'is' if len(reads) == 1 else 'are'} "
                          f"required for family {fam!r}")
    obj = {"kind": fam, "d": d}
    if fam in ("werner", "isotropic"):
        obj["lambda"] = args.lam
    elif fam == "orthogonal":
        obj["abc"] = _parse_floats(args.abc, "abc")
    elif fam == "bell":
        pi = np.asarray(_parse_floats(args.pi, "pi"), dtype=float)
        if pi.shape != (d,):
            raise InvalidSpec(f"--pi must list exactly {d} values")
        if np.any(pi < 0):
            raise InvalidSpec("--pi values must be nonnegative")
        p = pi[_bell_labels(d)[args.alpha % d]]
        total = float(p.sum())
        if abs(total - 1.0) > 1e-6:
            raise InvalidSpec(f"π values give total weight {total:.6f}, expected 1 (Σπ = 1/d)")
        obj["p"] = (p / total).tolist()
    return obj


def _load_input(args) -> dict:
    """The schema dict of a path or of ``--family`` flags; refuses a flag it would ignore."""
    flags = {"--family": args.family, "--d": args.d, "--lambda": args.lam, "--abc": args.abc,
             "--alpha": args.alpha, "--pi": args.pi}
    given = [flag for flag, value in flags.items() if value is not None]
    if args.input:
        if given:
            raise InvalidSpec(f"a state path takes no family flags, got {', '.join(given)}")
        return _read(args.input)
    if args.family:
        unread = [flag for flag in given
                  if flag not in ("--family", "--d", *_FAMILY_FLAGS[args.family])]
        if unread:
            raise InvalidSpec(f"family {args.family!r} does not read {', '.join(unread)}")
        return _family_state(args, given)
    raise InvalidSpec("provide a state JSON path or --family flags")


def _emit(text: str, output: str | None) -> None:
    """Write ``text`` and a newline to ``output`` or stdout: the same bytes either way."""
    text += "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    cfg = OptimizerConfig(starts=args.starts, seed=args.seed)
    loaded = parse_state(_load_input(args))
    sides = ["A", "B"] if args.side == "both" else [args.side]
    report = analyze(loaded, sides, args.tol, cfg)
    _emit(json.dumps(report), args.output)
    return 3 if report["outcome"] == "disagree" else 0


def cmd_build(args) -> int:
    loaded = _parse(_load_input(args))  # by the schema alone: build emits raw assembly
    if args.dense or loaded.spec is None:
        obj = dense_to_json(loaded.rho, loaded.d)
    elif loaded.kind == "bell":
        obj = bell_to_json(loaded.d, loaded.weights.p)
    else:
        obj = circulant_to_json(loaded.spec)
    _emit(json.dumps(obj), args.output)
    return 0


def cmd_verify(args) -> int:
    results, all_pass = run_verify(
        args.d, seed=args.seed, tol=args.tol, draws=args.draws, starts=args.starts
    )
    if args.format == "json":
        report = {"d": args.d, "seed": args.seed, "pass": all_pass,
                  "suites": [r.to_json() for r in results]}
        _emit(json.dumps(report), args.output)
    else:
        lines = []
        for r in results:
            if r.skipped:
                lines.append(f"{r.name}: skipped")
            else:
                lines.append(f"{r.name}: {r.passed}/{r.passed + r.failed}")
                for detail in r.details:
                    lines.append(f"  - {detail}")
        lines.append(f"overall: {'PASS' if all_pass else 'FAIL'}")
        _emit("\n".join(lines), args.output)
    return 0 if all_pass else 1


def cmd_simplex(args) -> int:
    lines = ["b,c,separable,zero_discord,numeric_discord"]
    for row in o2_simplex_rows(
        grid=args.grid, every=args.every, tol=args.tol, seed=args.seed, starts=args.starts
    ):
        numeric = "" if row["numeric_discord"] is None else f"{row['numeric_discord']:.12g}"
        lines.append(
            f"{row['b']:.10g},{row['c']:.10g},{row['separable']},{row['zero_discord']},{numeric}"
        )
    _emit("\n".join(lines), args.output)
    return 0


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=_FAMILY_FLAGS, help="inline state family")
    sub.add_argument("--d", type=int, help="local dimension")
    sub.add_argument("--lambda", dest="lam", type=float, help="mixing parameter")
    sub.add_argument("--abc", help="three comma-separated weights (orthogonal family)")
    sub.add_argument("--alpha", type=int, help="residue slope for a classical Bell family")
    sub.add_argument("--pi", help="comma-separated π values (classical Bell family)")


def _add_common_flags(sub: argparse.ArgumentParser, numeric: bool = True) -> None:
    if numeric:
        sub.add_argument("--seed", type=int, default=0, help="optimizer seed")
        sub.add_argument("--tol", type=float, default=DEFAULT_TOL, help="structural tolerance")
        sub.add_argument("--starts", type=int, default=OptimizerConfig.starts, help="optimizer starts")
    sub.add_argument("--output", "-o", help="write output to a file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discordant",
        description="Construct two-qudit circulant states and decide whether their "
        "discord vanishes, structurally and numerically.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("analyze", help="structural + numeric discord analysis")
    p.add_argument("input", nargs="?", help="state JSON path")
    _add_family_flags(p)
    p.add_argument("--side", choices=["A", "B", "both"], default="both")
    _add_common_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("build", help="emit state JSON for a family")
    p.add_argument("input", nargs="?", help="state JSON path to re-emit")
    _add_family_flags(p)
    p.add_argument("--dense", action="store_true", help="emit the dense matrix form")
    _add_common_flags(p, numeric=False)
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("verify", help="run the cross-check suites")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--draws", type=int, default=20, help="draws per suite")
    p.add_argument("--format", choices=["text", "json"], default="text")
    _add_common_flags(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("simplex", help="emit CSV for the d=2 invariant-state simplex")
    p.add_argument("--grid", type=int, default=101, help=f"points per axis, at most {MAX_GRID}")
    p.add_argument(
        "--every", type=int, default=10, help="numeric discord every Nth point (0 = never)"
    )
    _add_common_flags(p)
    p.set_defaults(func=cmd_simplex)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # the sign is the command line's own rule, for the library takes a negative tol;
        # a NaN fails this test too, and the library rejects an infinite one
        if not getattr(args, "tol", 0.0) >= 0:
            raise InvalidSpec("--tol must be finite and nonnegative")
        return args.func(args)
    except (DiscordantError, OSError) as exc:  # OSError: an unreadable input or output path
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front-end.

Commands: ``build`` emits state JSON for a named family, ``analyze`` runs
the structural checkers and the numeric oracle on a state and reports
their agreement, ``verify`` batch-runs the cross-check suites, and
``simplex`` emits CSV data for the d=2 orthogonal-invariant simplex.

Exit codes: 0 success/agreement, 2 input error, 3 structural/numeric
disagreement beyond tolerance.  The environment variable DISCORDANT_SEED
overrides ``--seed`` everywhere.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .blocks import (
    bell_zero_discord_check,
    circulant_necessary_conditions,
    circulant_theorem_check,
    completely_classical_check,
    is_prime,
    structural_discord_zero,
)
from .discord import OptimizerConfig, discord_sides
from .errors import DiscordantError, InvalidSpec
from .serialize import (
    LoadedState,
    bell_to_json,
    circulant_to_json,
    dense_to_json,
    load_state_file,
    parse_state,
)
from .states import CirculantSpec, project_circulant
from .verify import NUMERIC_NONZERO_TOL, NUMERIC_ZERO_TOL, o2_simplex_rows, run_verify

_FAMILIES = ("werner", "isotropic", "bell", "orthogonal")


def _effective_seed(args) -> int:
    env = os.environ.get("DISCORDANT_SEED")
    seed = args.seed
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise InvalidSpec(f"DISCORDANT_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise InvalidSpec(f"the seed must be nonnegative, got {seed}")
    return seed


def _parse_floats(text: str, name: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise InvalidSpec(f"--{name} must be a comma-separated list of numbers") from None
    if not np.isfinite(values).all():
        raise InvalidSpec(f"--{name} values must be finite")
    return values


def _family_state(args, validate: bool) -> LoadedState:
    """Parse the schema dict that the inline family flags describe."""
    if args.d is None:
        raise InvalidSpec("--d is required with --family")
    d = args.d
    fam = args.family
    obj = {"kind": fam, "d": d}
    if fam in ("werner", "isotropic"):
        if args.lam is None:
            raise InvalidSpec(f"--lambda is required for family {fam!r}")
        obj["lambda"] = args.lam
    elif fam == "orthogonal":
        if args.abc is None:
            raise InvalidSpec("--abc is required for family 'orthogonal'")
        obj["abc"] = _parse_floats(args.abc, "abc")
        if len(obj["abc"]) != 3:
            raise InvalidSpec("--abc must have exactly three values")
    elif fam == "bell":
        if args.pi is None or args.alpha is None:
            raise InvalidSpec("family 'bell' needs --alpha and --pi (π values, one per residue)")
        pi = np.asarray(_parse_floats(args.pi, "pi"), dtype=float)
        if pi.shape != (d,):
            raise InvalidSpec(f"--pi must list exactly {d} values")
        if np.any(pi < 0):
            raise InvalidSpec("--pi values must be nonnegative")
        m, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
        p = pi[(m + n * args.alpha) % d]
        total = float(p.sum())
        if abs(total - 1.0) > 1e-6:
            raise InvalidSpec(f"π values give total weight {total:.6f}, expected 1 (Σπ = 1/d)")
        obj["p"] = (p / total).tolist()
    else:
        raise InvalidSpec(f"unknown family {args.family!r}; expected one of {_FAMILIES}")
    return parse_state(obj, validate)


def _load_input(args, validate: bool) -> LoadedState:
    if getattr(args, "input", None):
        return load_state_file(args.input, validate=validate)
    if getattr(args, "family", None):
        return _family_state(args, validate)
    raise InvalidSpec("provide a state JSON path or --family flags")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_analyze(args) -> int:
    seed = _effective_seed(args)
    loaded = _load_input(args, validate=True)
    d = loaded.d
    sides = ["A", "B"] if args.side == "both" else [args.side]
    cfg = OptimizerConfig(starts=args.starts, seed=seed)

    spec = loaded.spec
    if spec is None:
        projected = project_circulant(loaded.rho, d)
        if isinstance(projected, CirculantSpec):
            spec = projected

    report: dict = {
        "kind": loaded.kind,
        "d": d,
        "sides": sides,
        "tolerances": {
            "structural": args.tol,
            "numeric_zero": NUMERIC_ZERO_TOL,
            "numeric_nonzero": NUMERIC_NONZERO_TOL,
        },
        "seed": seed,
        "structural": {},
        "numeric": {},
        "circulant_theorem": None,
        "necessary_conditions": None,
        "completely_classical": None,
        "bell_theorem": None,
    }

    structural = {}
    for side in sides:
        structural[side] = structural_discord_zero(loaded.rho, d, side, args.tol)
        report["structural"][side] = structural[side].to_json()

    if spec is not None and is_prime(d):
        report["circulant_theorem"] = {
            side: circulant_theorem_check(spec, side, args.tol).to_json() for side in sides
        }
        report["necessary_conditions"] = {
            side: circulant_necessary_conditions(spec, side, args.tol) for side in sides
        }
        report["completely_classical"] = completely_classical_check(spec, args.tol).to_json()
    if loaded.weights is not None and is_prime(d):
        report["bell_theorem"] = bell_zero_discord_check(loaded.weights, args.tol).to_json()

    agreement = True
    for side, result in zip(sides, discord_sides(loaded.rho, d, sides, cfg)):
        report["numeric"][side] = result.to_json()
        zero = structural[side].zero_discord
        if zero and result.discord > NUMERIC_NONZERO_TOL:
            agreement = False
        if not zero and result.discord < NUMERIC_ZERO_TOL:
            agreement = False
    report["agreement"] = agreement

    _emit(json.dumps(report, indent=2), args.output)
    return 0 if agreement else 3


def cmd_build(args) -> int:
    loaded = _load_input(args, validate=False)
    if args.dense or loaded.spec is None:
        obj = dense_to_json(loaded.rho, loaded.d)
    elif loaded.kind == "bell":
        obj = bell_to_json(loaded.d, loaded.weights.p)
    else:
        obj = circulant_to_json(loaded.spec)
    _emit(json.dumps(obj, indent=2), args.output)
    return 0


def cmd_verify(args) -> int:
    seed = _effective_seed(args)
    results, all_pass = run_verify(
        args.d, seed=seed, tol=args.tol, draws=args.draws, starts=args.starts
    )
    if args.format == "json":
        text = json.dumps(
            {"d": args.d, "seed": seed, "pass": all_pass,
             "suites": [r.to_json() for r in results]},
            indent=2,
        )
        _emit(text, args.output)
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
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if all_pass else 1


def cmd_simplex(args) -> int:
    seed = _effective_seed(args)
    lines = ["b,c,separable,zero_discord,numeric_discord"]
    for row in o2_simplex_rows(
        grid=args.grid, every=args.every, tol=args.tol, seed=seed, starts=args.starts
    ):
        numeric = "" if row["numeric_discord"] is None else f"{row['numeric_discord']:.12g}"
        lines.append(
            f"{row['b']:.10g},{row['c']:.10g},{row['separable']},{row['zero_discord']},{numeric}"
        )
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=_FAMILIES, help="inline state family")
    sub.add_argument("--d", type=int, help="local dimension")
    sub.add_argument("--lambda", dest="lam", type=float, help="mixing parameter")
    sub.add_argument("--abc", help="three comma-separated weights (orthogonal family)")
    sub.add_argument("--alpha", type=int, help="residue slope for a classical Bell family")
    sub.add_argument("--pi", help="comma-separated π values (classical Bell family)")


def _add_common_flags(sub: argparse.ArgumentParser, numeric: bool = True) -> None:
    if numeric:
        sub.add_argument("--seed", type=int, default=0, help="optimizer seed")
        sub.add_argument("--tol", type=float, default=1e-9, help="structural tolerance")
        sub.add_argument("--starts", type=int, default=24, help="optimizer starts")
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
    p.add_argument("--grid", type=int, default=101, help="points per axis")
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
        tol = getattr(args, "tol", 0.0)
        if not (np.isfinite(tol) and tol >= 0):
            raise InvalidSpec("--tol must be finite and nonnegative")
        for flag in ("starts", "draws", "grid"):
            if getattr(args, flag, 1) < 1:
                raise InvalidSpec(f"--{flag} must be at least 1")
        if getattr(args, "every", 0) < 0:
            raise InvalidSpec("--every must be nonnegative (0 = never)")
        return args.func(args)
    except (DiscordantError, OSError) as exc:  # OSError: an unreadable input or output path
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())

"""Command-line contract: flags, exit codes, JSON/CSV output."""

import importlib
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from discordant import blocks, cli, verify
from discordant.cli import main
from discordant.discord import OptimizerConfig
from discordant.errors import InvalidSpec
from discordant.linalg import fourier_matrix
from discordant.serialize import (
    bell_to_json,
    circulant_to_json,
    dense_to_json,
    encode_complex_matrix,
    load_state_file,
    parse_state,
)
from discordant.states import orthogonal_invariant_state, werner_state
from discordant.verify import SuiteResult


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_werner_zero(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code = main(
        ["analyze", "--family", "werner", "--d", "3", "--lambda", "0",
         "--starts", "8", "-o", str(out_path)]
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["agreement"] is True
    for side in ("A", "B"):
        assert report["structural"][side]["zero_discord"] is True
        assert report["numeric"][side]["D"] <= 1e-6
    assert report["circulant_theorem"]["A"]["zero_discord"] is True
    assert report["completely_classical"]["zero_discord"] is True
    assert report["tolerances"]["numeric_zero"] == 1e-6
    assert report["tolerances"]["numeric_nonzero"] == 1e-5


def test_analyze_isotropic_nonzero(capsys):
    code, out, _ = run_cli(
        ["analyze", "--family", "isotropic", "--d", "3", "--lambda", "0.4",
         "--starts", "8"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["agreement"] is True
    for side in ("A", "B"):
        assert report["structural"][side]["zero_discord"] is False
        assert report["numeric"][side]["D"] >= 1e-5


def test_analyze_single_side(capsys):
    code, out, _ = run_cli(
        ["analyze", "--family", "werner", "--d", "2", "--lambda", "0",
         "--side", "A"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["sides"] == ["A"]
    assert "B" not in report["numeric"]


def test_analyze_invalid_state_exits_2(capsys):
    code, _, err = run_cli(
        ["analyze", "--family", "werner", "--d", "2", "--lambda", "1"], capsys
    )
    assert code == 2
    assert "error" in err


def test_analyze_missing_input_exits_2(capsys):
    code, _, err = run_cli(["analyze"], capsys)
    assert code == 2


def test_analyze_nonexistent_file_exits_2(capsys):
    code, _, err = run_cli(["analyze", "/nonexistent/state.json"], capsys)
    assert code == 2


@pytest.mark.parametrize("case", ["directory-input", "non-utf8-input", "directory-output"])
def test_unreadable_paths_exit_2(capsys, tmp_path, case):
    # opening a directory raised IsADirectoryError and reading Latin-1 bytes
    # UnicodeDecodeError; both escaped as a traceback with exit 1
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"kind": "werner", "d": 2, "lambda": 0.3, "note": "caf\xe9"}')
    argv = {
        "directory-input": ["analyze", str(tmp_path)],
        "non-utf8-input": ["analyze", str(latin1)],
        "directory-output": ["build", "--family", "werner", "--d", "2", "--lambda", "0.3",
                             "-o", str(tmp_path)],
    }[case]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


_BELL_ARGV = ["analyze", "--family", "bell", "--d", "3", "--alpha", "1",
              "--pi", "0.2,0.1,0.033333333333333", "--starts", "2"]


def test_analyze_fits_each_side_once(capsys, monkeypatch):
    # a classical Bell state has the uniform a^(0) diagonal, so the
    # completely-classical verdict needs the theorem on both sides, whatever
    # side is analyzed: one φ fit covers side A and side B once each.  The
    # fit takes a stack of sector stacks and their sides
    fit, calls = blocks._fit_phases, []
    monkeypatch.setattr(blocks, "_fit_phases", lambda a, s: calls.append(list(s)) or fit(a, s))
    for side in ("both", "A", "B"):
        calls.clear()
        code, out, _ = run_cli(_BELL_ARGV + ["--side", side], capsys)
        report = json.loads(out)
        assert code == 0 and report["completely_classical"]["zero_discord"] is True
        assert [sorted(c) for c in calls] == [["A", "B"]], side
        asked = ["A", "B"] if side == "both" else [side]
        assert list(report["circulant_theorem"]) == list(report["necessary_conditions"]) == asked


def test_analyze_decides_the_theorem_once(capsys, monkeypatch):
    # whatever side is analyzed, the theorem is asked once, for sides A and B
    # together, and the necessary conditions once per analyzed side
    calls = []
    for name in ("_theorem_verdicts", "circulant_necessary_conditions"):
        call = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda spec, sides, tol, name=name, call=call:
                            calls.append((name, list(sides))) or call(spec, sides, tol))
    for side in ("both", "A", "B"):
        calls.clear()
        code, out, _ = run_cli(_BELL_ARGV + ["--side", side], capsys)
        assert code == 0 and json.loads(out)["completely_classical"]["zero_discord"] is True
        asked = ["A", "B"] if side == "both" else [side]
        assert calls == [("_theorem_verdicts", ["A", "B"])] + [
            ("circulant_necessary_conditions", [s]) for s in asked], side


def test_analyze_disagreement_exits_3(capsys):
    # an absurd structural tolerance declares everything zero-discord while
    # the numeric oracle still sees a discordant state
    code, out, _ = run_cli(
        ["analyze", "--family", "isotropic", "--d", "2", "--lambda", "0.9",
         "--tol", "1e6"],
        capsys,
    )
    assert code == 3
    report = json.loads(out)
    assert report["agreement"] is False


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", verify.PERTURBATION_KINDS)
def test_analyze_tiny_discord_is_inconclusive(capsys, tmp_path, d, kind):
    # perturbed by 1e-4, the state is structurally discordant while the
    # optimizer's D is at most 1e-8: an upper bound that small cannot
    # contradict the structural verdict, so it is no disagreement
    rng = np.random.default_rng(0)
    spec = verify.perturb_spec(verify.random_zero_discord_spec(d, "A", rng), kind, 1e-4, rng)
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(circulant_to_json(spec)))
    code, out, _ = run_cli(["analyze", str(state_path), "--side", "A", "--starts", "2"], capsys)
    report = json.loads(out)
    assert report["structural"]["A"]["zero_discord"] is False
    assert report["numeric"]["A"]["D"] < verify.NUMERIC_NONZERO_TOL
    assert (code, report["outcome"], report["agreement"]) == (0, "inconclusive", True)


def test_analyze_optimizer_miss_on_a_zero_state_exits_3(capsys, monkeypatch, tmp_path):
    # a structural zero is contradicted by a numeric D above the nonzero
    # threshold, here that of a fixed bad basis in place of the optimum
    module = importlib.import_module("discordant.discord")
    spec = verify.random_zero_discord_spec(3, "A", np.random.default_rng(1))
    basis = module.MeasurementBasis(3, fourier_matrix(3))

    def fixed(rho, d, sides, cfg):
        return [(module.conditional_entropy(rho, d, basis, side), basis, 0) for side in sides]

    monkeypatch.setattr(module, "_optimize", fixed)
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(circulant_to_json(spec)))
    code, out, _ = run_cli(["analyze", str(state_path), "--side", "A"], capsys)
    report = json.loads(out)
    assert report["structural"]["A"]["zero_discord"] is True
    assert report["numeric"]["A"]["D"] > verify.NUMERIC_NONZERO_TOL
    assert (code, report["outcome"], report["agreement"]) == (3, "disagree", False)


def test_analyze_report_repeats_byte_for_byte(capsys):
    # one seed gives one report, whether the screen's table is built by
    # this call or was cached by the one before
    argv = ["analyze", "--family", "isotropic", "--d", "3", "--lambda", "0.4",
            "--starts", "2", "--seed", "5"]
    importlib.import_module("discordant.discord")._screen_table.cache_clear()
    first = run_cli(argv, capsys)
    assert first[0] == 0 and json.loads(first[1])["outcome"] == "agree"
    assert run_cli(argv, capsys) == first


@pytest.mark.parametrize("command", [
    ["analyze", "--family", "werner", "--d", "2", "--lambda", "0.1"],
    ["verify", "--d", "3", "--draws", "1"],
    ["simplex", "--grid", "3"],
], ids=["analyze", "verify", "simplex"])
@pytest.mark.parametrize("starts", [257, 10**15])
def test_starts_beyond_the_screen_exit_2(capsys, command, starts):
    # --starts 10**15 ran out of memory with a traceback; a start needs a
    # screened candidate, and there are 256
    code, out, err = run_cli(command + ["--starts", str(starts)], capsys)
    assert code == 2
    assert out == ""
    assert "1 ≤ starts ≤ 256" in err


@pytest.mark.parametrize("grid", [1002, 10**15])
def test_grid_beyond_the_bound_exit_2(capsys, grid):
    # --grid 10**15 ran out of memory in np.linspace with a traceback; the
    # CSV of grid·(grid + 1)/2 rows is held in memory
    code, out, err = run_cli(["simplex", "--grid", str(grid), "--every", "0"], capsys)
    assert code == 2
    assert out == ""
    assert "1 ≤ grid ≤ 1001" in err


def test_build_analyze_round_trip(capsys, tmp_path):
    state_path = tmp_path / "state.json"
    assert main(
        ["build", "--family", "werner", "--d", "3", "--lambda", "0.1",
         "-o", str(state_path)]
    ) == 0
    obj = json.loads(state_path.read_text())
    assert obj["kind"] == "circulant"
    code, out, _ = run_cli(
        ["analyze", str(state_path), "--starts", "8"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["agreement"] is True
    assert report["structural"]["A"]["zero_discord"] is False


def test_build_bell_keeps_weights(capsys, tmp_path):
    state_path = tmp_path / "bell.json"
    assert main(
        ["build", "--family", "bell", "--d", "3", "--alpha", "1",
         "--pi", "0.1,0.13,0.10333333333333333", "-o", str(state_path)]
    ) == 0
    obj = json.loads(state_path.read_text())
    assert obj["kind"] == "bell"
    code, out, _ = run_cli(["analyze", str(state_path), "--starts", "8"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["bell_theorem"]["zero_discord"] is True
    assert report["bell_theorem"]["alpha"] == 1
    assert report["agreement"] is True


def test_build_werner_boundary_emits(capsys, tmp_path):
    # build is raw assembly: the λ=1 point serializes even though it is not PSD
    state_path = tmp_path / "raw.json"
    assert main(
        ["build", "--family", "werner", "--d", "2", "--lambda", "1",
         "-o", str(state_path)]
    ) == 0
    obj = json.loads(state_path.read_text())
    assert obj["kind"] == "circulant"
    # analyzing it fails validation
    code, _, err = run_cli(["analyze", str(state_path)], capsys)
    assert code == 2


#: kind: (d, fields of a schema-valid state that breaks the kind's invariants, whether build
#: emits it, and the message of its first fault).  build parses by the schema alone, so it
#: emits the kinds whose constructor checks nothing; the others refuse as they are built.
_BROKEN = {
    "circulant": (2, {"a": encode_complex_matrix([np.eye(2) / 4, [[0.25, 0.5], [0.5, 0.25]]])},
                  True, "a^(1) has negative eigenvalue -2.500e-01"),
    "werner": (2, {"lambda": 1}, True, "a^(1) has negative eigenvalue -5.000e-01"),
    "isotropic": (3, {"lambda": 1.5}, True, "a^(0) has negative eigenvalue -5.556e-02"),
    "dense": (2, {"rho": encode_complex_matrix(np.diag([1.2, -0.2, 0, 0]))}, True,
              "rho has negative eigenvalue -2.000e-01"),
    "bell": (2, {"p": [[0.5, 0.3], [0.3, -0.1]]}, False, "negative weight -1.000e-01 in weights"),
    "commuting": (2, {"a0": encode_complex_matrix(np.eye(2) / 4), "dmat": [[0, 0.6], [-0.1, 0]]},
                  False, "negative weight -1.000e-01 in dmat"),
    "orthogonal": (2, {"abc": [1.2, -0.2, 0]}, False, "negative weight -2.000e-01 in abc"),
}


@pytest.mark.parametrize("kind", list(_BROKEN))
def test_build_emits_only_the_kinds_built_unchecked(capsys, tmp_path, kind):
    d, fields, built, message = _BROKEN[kind]
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"kind": kind, "d": d, **fields}))
    code, out, err = run_cli(["build", str(path)], capsys)
    if built:
        assert (code, err) == (0, "")
        assert json.loads(out)["d"] == d
    else:
        assert (code, out, err) == (2, "", f"error: {message}\n")
    assert run_cli(["analyze", str(path)], capsys) == (2, "", f"error: {message}\n")


def test_a_huge_lambda_is_refused_without_a_warning(capsys, tmp_path):
    # the PSD check's norms overflowed, a RuntimeWarning that the warning policy made a crash
    path = tmp_path / "state.json"
    path.write_text('{"kind": "werner", "d": 2, "lambda": 1e200}')
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(["analyze", str(path)], capsys)
    assert (code, out, err) == (2, "", "error: a^(1) has negative eigenvalue -7.500e+199\n")


def test_build_orthogonal_dense(capsys, tmp_path):
    state_path = tmp_path / "o2.json"
    assert main(
        ["build", "--family", "orthogonal", "--d", "2", "--abc", "1,0,0",
         "-o", str(state_path)]
    ) == 0
    obj = json.loads(state_path.read_text())
    assert obj["kind"] == "dense"
    code, out, _ = run_cli(["analyze", str(state_path)], capsys)
    assert code == 0
    report = json.loads(out)
    # (a,b,c)=(1,0,0) sits on the zero-discord line b=c
    assert report["structural"]["A"]["zero_discord"] is True


def test_verify_d2_passes(capsys):
    code, out, _ = run_cli(
        ["verify", "--d", "2", "--seed", "7", "--starts", "12"], capsys
    )
    assert code == 0
    assert "overall: PASS" in out
    assert "numeric-agreement" in out


def test_verify_d5_skips_numeric(capsys):
    code, out, _ = run_cli(["verify", "--d", "5", "--seed", "7"], capsys)
    assert code == 0
    assert "numeric-agreement: skipped" in out
    assert "overall: PASS" in out


def test_verify_d4_exits_2(capsys):
    code, _, err = run_cli(["verify", "--d", "4"], capsys)
    assert code == 2
    assert "prime" in err.lower()


@pytest.mark.parametrize("argv", [
    ["analyze", "--family", "werner", "--d", "100000000000000000000", "--lambda", "0.1"],
    ["analyze", "--family", "isotropic", "--d", "10000000000", "--lambda", "0.1"],
    ["analyze", "--family", "bell", "--d", "-3", "--alpha", "0", "--pi", "1"],
    ["analyze", "--family", "bell", "--d", "33", "--alpha", "0", "--pi", "1"],
    ["build", "--family", "werner", "--d", "33", "--lambda", "0.1"],
    ["verify", "--d", "1000003", "--draws", "1"],
    ["verify", "--d", "2305843009213693951", "--draws", "1"],
    ["verify", "--d", "33", "--draws", "1"],
])
def test_dimension_out_of_range_exits_2(capsys, monkeypatch, argv):
    # these raised uncaught errors (exit 1), ran out of memory, hung in
    # is_prime, or reported "--pi must list exactly -3 values"; each is
    # rejected before any state or array is built
    for module, name in ((cli, "_bell_labels"), (cli, "parse_state"), (verify, "is_prime")):
        monkeypatch.setattr(module, name, None)  # a call would raise TypeError
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: d must be an integer with 2 ≤ d ≤ 32, got ")


@pytest.mark.parametrize("text, message", [
    ('{"kind": "isotropic", "d": 10000000000, "lambda": 0.1}', "2 ≤ d ≤ 32"),
    ("[" * 100000 + "]" * 100000, "not valid JSON"),
])
def test_unbuildable_state_file_exits_2(capsys, tmp_path, text, message):
    # NumPy's "array is too big" and json.load's RecursionError escaped uncaught
    path = tmp_path / "state.json"
    path.write_text(text)
    code, out, err = run_cli(["analyze", str(path)], capsys)
    assert (code, out) == (2, "")
    assert message in err


def test_dimension_13_is_accepted(capsys):
    code, out, _ = run_cli(["verify", "--d", "13", "--draws", "1", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["pass"] is True
    code, out, _ = run_cli(["build", "--family", "werner", "--d", "13", "--lambda", "0.1"], capsys)
    assert code == 0 and json.loads(out)["d"] == 13


def test_verify_json_format(capsys):
    code, out, _ = run_cli(
        ["verify", "--d", "3", "--seed", "1", "--draws", "4", "--starts", "8",
         "--format", "json"],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert len(report["suites"]) == 5


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_failure_exits_1(capsys, monkeypatch, fmt):
    suite = SuiteResult("generator-checker-closure", passed=1, failed=1,
                        details=["draw 1: theorem=False general=False"])
    monkeypatch.setattr(cli, "run_verify", lambda *args, **kwargs: ([suite], False))
    code, out, err = run_cli(["verify", "--d", "3", "--format", fmt], capsys)
    assert code == 1 and err == ""
    if fmt == "json":
        report = json.loads(out)
        assert report["pass"] is False
        assert report["suites"][0]["details"] == ["draw 1: theorem=False general=False"]
    else:
        assert "draw 1: theorem=False general=False" in out and "overall: FAIL" in out


def test_simplex_csv_contract(capsys, tmp_path):
    csv_path = tmp_path / "grid.csv"
    code = main(
        ["simplex", "--grid", "11", "--every", "5", "-o", str(csv_path)]
    )
    assert code == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "b,c,separable,zero_discord,numeric_discord"
    assert len(lines) == 67  # header + 66 grid points
    first = lines[1].split(",")
    assert first[:4] == ["0", "0", "1", "1"]
    assert float(first[4]) <= 1e-9
    # unsampled points leave the numeric field empty
    assert lines[2].split(",")[4] == ""


def test_simplex_rejects_other_dimensions(capsys):
    # the scan is defined for d = 2 only, so simplex has no --d flag
    with pytest.raises(SystemExit) as exc:
        main(["simplex", "--d", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["analyze", "--family", "bogus", "--d", "3"],
                                     ["build", "--family", "bogus"]])
def test_unknown_family_exits_2(capsys, command):
    # argparse's choices reject the family before any state is parsed
    with pytest.raises(SystemExit) as exc:
        main(command)
    assert exc.value.code == 2
    assert "bogus" in capsys.readouterr().err


def test_simplex_deterministic(capsys, tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["simplex", "--grid", "6", "--every", "3", "-o", str(p1)])
    main(["simplex", "--grid", "6", "--every", "3", "-o", str(p2)])
    assert p1.read_text() == p2.read_text()


def test_seed_env_override(capsys, monkeypatch):
    # DISCORDANT_SEED once overrode --seed; it is no longer read, and --seed decides
    argv = ["analyze", "--family", "werner", "--d", "2", "--lambda", "0", "--seed", "5"]
    want = run_cli(argv, capsys)
    monkeypatch.setenv("DISCORDANT_SEED", "99")
    assert run_cli(argv, capsys) == want
    assert want[0] == 0 and json.loads(want[1])["seed"] == 5


def test_seed_env_invalid(capsys, monkeypatch):
    # a DISCORDANT_SEED that is no integer, or a negative one, once exited 2
    argv = ["analyze", "--family", "werner", "--d", "2", "--lambda", "0"]
    want = run_cli(argv, capsys)
    for env in ("not-a-number", "-3"):
        monkeypatch.setenv("DISCORDANT_SEED", env)
        assert run_cli(argv, capsys) == want, env
    assert want[0] == 0


def test_bell_pi_renormalization(capsys, tmp_path):
    # π values off by ≤ 1e−6 in total weight are renormalized; each π value
    # enters the weight matrix d times, so keep the bump below 1e−6/d
    state_path = tmp_path / "bell.json"
    pi = [0.1, 0.13, 0.10333333333333333 + 2e-7]
    code = main(
        ["build", "--family", "bell", "--d", "3", "--alpha", "0",
         "--pi", ",".join(str(x) for x in pi), "-o", str(state_path)]
    )
    assert code == 0
    obj = json.loads(state_path.read_text())
    assert abs(sum(sum(row) for row in obj["p"]) - 1.0) < 1e-12
    # but a grossly wrong total is an input error
    code, _, err = run_cli(
        ["build", "--family", "bell", "--d", "3", "--alpha", "0",
         "--pi", "0.2,0.2,0.2"],
        capsys,
    )
    assert code == 2


def test_family_flag_validation(capsys):
    code, _, err = run_cli(["analyze", "--family", "werner", "--d", "3"], capsys)
    assert code == 2  # missing --lambda
    code, _, err = run_cli(
        ["analyze", "--family", "orthogonal", "--d", "2", "--abc", "1,0"], capsys
    )
    assert code == 2  # wrong arity
    code, _, err = run_cli(
        ["analyze", "--family", "bell", "--d", "3", "--alpha", "1",
         "--pi", "0.1,0.9"],
        capsys,
    )
    assert code == 2  # π arity mismatch


def test_analyze_nan_dense_file_exits_2(capsys, tmp_path):
    # the maximally mixed state with one NaN entry used to pass validation
    # and report D = -1 with "agreement": true
    obj = {"kind": "dense", "d": 2,
           "rho": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]}
    obj["rho"][0][0] = [float("nan"), 0.0]
    state_path = tmp_path / "nan.json"
    state_path.write_text(json.dumps(obj))
    code, out, err = run_cli(["analyze", str(state_path)], capsys)
    assert code == 2
    assert out == ""
    assert "non-finite" in err


def _numeric_fields() -> dict:
    """A valid state description for each numeric field of the schema, keyed by the field."""
    a0 = encode_complex_matrix([[0.3, 0.1j], [-0.1j, 0.3]])
    commuting = {"kind": "commuting", "d": 2, "a0": a0, "dmat": [[0.0, 0.2], [0.2, 0.0]]}
    return {
        "a": circulant_to_json(werner_state(2, 0.2)),
        "p": bell_to_json(2, [[0.4, 0.1], [0.3, 0.2]]),
        "abc": {"kind": "orthogonal", "d": 2, "abc": [0.2, 0.5, 0.3]},
        "rho": dense_to_json(orthogonal_invariant_state((0.2, 0.5, 0.3), 2), 2),
        "a0": commuting,
        "dmat": commuting,
        "lambda": {"kind": "werner", "d": 2, "lambda": 0.2},
    }


def _write_state(tmp_path, obj) -> str:
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _map_entries(value, f):
    return [_map_entries(v, f) for v in value] if isinstance(value, list) else f(value)


def _first_entry_true(value):
    """``value`` with its first entry replaced by true; a single number becomes [x, true, x]."""
    if not isinstance(value, list):
        return [value, True, value]
    return [_first_entry_true(value[0]) if isinstance(value[0], list) else True, *value[1:]]


@pytest.mark.parametrize("bad", ["bool", "string", "null", "mixed"])
@pytest.mark.parametrize("name", list(_numeric_fields()))
def test_non_number_entries_exit_2(capsys, tmp_path, name, bad):
    # NumPy reads true as 1.0 and "0.5" as 0.5, and a bool among floats
    # turns into a float array: only each entry's own type tells them apart
    obj = _numeric_fields()[name]
    assert run_cli(["build", _write_state(tmp_path, obj)], capsys)[0] == 0
    obj[name] = {"bool": lambda v: _map_entries(v, lambda x: x != 0),
                 "string": lambda v: _map_entries(v, repr),
                 "null": lambda v: _map_entries(v, lambda x: None),
                 "mixed": _first_entry_true}[bad](obj[name])
    code, out, err = run_cli(["analyze", _write_state(tmp_path, obj), "--starts", "1"], capsys)
    assert (code, out) == (2, "")
    assert f"field {name!r} must be a number" in err


@pytest.mark.parametrize("entry", [[1.0], [0.1, float("inf")]], ids=["ragged", "non-finite"])
def test_malformed_circulant_file_exits_2(capsys, tmp_path, entry):
    # the sector stack a is decoded as one (d, d, d) field, reported by its name
    obj = circulant_to_json(verify.random_zero_discord_spec(3, "A", np.random.default_rng(0)))
    obj["a"][1][0][2] = entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["analyze", str(path)], capsys)
    assert (code, out) == (2, "")
    assert "field 'a'" in err


@pytest.mark.parametrize("family", cli._FAMILY_FLAGS)
def test_family_without_its_flags_exits_2(capsys, family):
    code, out, err = run_cli(["analyze", "--family", family, "--d", "3"], capsys)
    assert (code, out) == (2, "")
    assert "required for family" in err
    assert sorted(re.findall(r"--\w+", err)) == sorted(cli._FAMILY_FLAGS[family])


def test_non_finite_lambda_flag_exits_2(capsys):
    for value in ("nan", "inf", "-inf"):
        for command in ("analyze", "build"):
            code, _, err = run_cli(
                [command, "--family", "werner", "--d", "2", f"--lambda={value}"], capsys
            )
            assert code == 2
            assert "finite" in err


def test_non_finite_tol_flag_exits_2(capsys):
    # a NaN tolerance made every structural comparison false, so a
    # discordant state was declared zero-discord and the run exited 3
    for command in (["analyze", "--family", "isotropic", "--d", "2", "--lambda", "0.5"],
                    ["verify", "--d", "2"], ["simplex"]):
        for value in ("nan", "inf"):
            code, _, err = run_cli(command + ["--tol", value], capsys)
            assert code == 2
            assert "finite" in err


def test_non_finite_abc_flag_exits_2(capsys):
    code, _, err = run_cli(
        ["analyze", "--family", "orthogonal", "--d", "2", "--abc", "nan,0.5,0.5"], capsys
    )
    assert code == 2
    assert "finite" in err


def test_non_finite_pi_flag_exits_2(capsys):
    code, _, err = run_cli(
        ["analyze", "--family", "bell", "--d", "2", "--alpha", "1", "--pi", "inf,0.5"],
        capsys,
    )
    assert code == 2
    assert "finite" in err



@pytest.mark.parametrize("command", [
    ["analyze", "--family", "isotropic", "--d", "2", "--lambda", "0.5"],
    ["verify", "--d", "3"],
    ["simplex"],
], ids=["analyze", "verify", "simplex"])
def test_starts_below_one_exits_2(capsys, command):
    # OptimizerConfig's ValueError used to escape as a traceback with exit 1
    for value in ("0", "-1"):
        code, out, err = run_cli(command + ["--starts", value], capsys)
        assert code == 2
        assert out == ""
        assert "1 ≤ starts ≤ 256" in err


def test_parser_reuse_leaks_no_values(capsys):
    # the parser is built once per process; a flag given to one call must
    # not become the default of the next
    argv = ["analyze", "--family", "werner", "--d", "2", "--lambda", "0", "--starts", "2"]
    code, out, _ = run_cli(argv + ["--side", "A"], capsys)
    assert code == 0 and json.loads(out)["sides"] == ["A"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["sides"] == ["A", "B"]
    assert set(report["numeric"]) == {"A", "B"}


@pytest.mark.parametrize("command, flag", [
    (["analyze", "--family", "isotropic", "--d", "2", "--lambda", "0", "--tol", "-1"], "--tol"),
    (["verify", "--d", "3", "--draws", "-1"], "draws ≥ 1"),
    (["verify", "--d", "3", "--draws", "0"], "draws ≥ 1"),
    (["simplex", "--grid", "-3"], "1 ≤ grid ≤ 1001"),
    (["simplex", "--grid", "0"], "1 ≤ grid ≤ 1001"),
    (["simplex", "--grid", "3", "--every", "-5"], "every ≥ 0"),
], ids=["tol-negative", "draws-negative", "draws-zero", "grid-negative", "grid-zero",
        "every-negative"])
def test_bad_numeric_flags_exit_2(capsys, command, flag):
    # a negative --tol gave a false disagreement (exit 3), --draws below 1
    # ran no draws and passed, a negative --grid raised a traceback, and a
    # negative --every silently meant "never"
    code, out, err = run_cli(command, capsys)
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("argv, library", [
    (["analyze", "--family", "werner", "--d", "2", "--lambda", "0.1", "--starts", "257"],
     lambda: OptimizerConfig(starts=257)),
    (["analyze", "--family", "werner", "--d", "2", "--lambda", "0.1", "--seed", "-1"],
     lambda: OptimizerConfig(seed=-1)),
    (["verify", "--d", "3", "--draws", "0"], lambda: verify.run_verify(3, draws=0)),
    (["simplex", "--grid", "1002"], lambda: next(verify.o2_simplex_rows(grid=1002))),
    (["simplex", "--every", "-1"], lambda: next(verify.o2_simplex_rows(every=-1))),
    (["verify", "--d", "3", "--tol", "inf"], lambda: verify.run_verify(3, tol=float("inf"))),
], ids=["starts", "seed", "draws", "grid", "every", "tol-inf"])
def test_bound_errors_are_the_library_errors(capsys, argv, library):
    # each bound is stated once, in the library; the command line reports its error as it is
    with pytest.raises(InvalidSpec) as exc:
        library()
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {exc.value}\n"


@pytest.mark.parametrize("flags, named", [
    (["--family", "werner", "--lambda", "0.1"], "--d is required"),
    (["--family", "orthogonal", "--d", "2"], "--abc is required"),
    (["--family", "bell", "--d", "3", "--pi", "0.2,0.1,0.033333333333333"], "--alpha and --pi"),
    (["--family", "bell", "--d", "3", "--alpha", "1"], "--alpha and --pi"),
    (["--family", "bell", "--d", "3", "--alpha", "1", "--pi", "0.5,-0.1,0.1"], "nonnegative"),
    (["--family", "orthogonal", "--d", "2", "--abc", "0.2,x,0.3"], "comma-separated"),
    # an empty field was dropped, so these read as three values and exited 0
    (["--family", "bell", "--d", "3", "--alpha", "1", "--pi", "0.2,,0.1,0.033333333333333"],
     "comma-separated"),
    (["--family", "bell", "--d", "3", "--alpha", "1", "--pi", "0.2,0.1,0.033333333333333,"],
     "comma-separated"),
], ids=["no-d", "no-abc", "no-alpha", "no-pi", "negative-pi", "text-abc", "empty-pi-field",
        "trailing-pi-field"])
def test_incomplete_family_flags_exit_2(capsys, flags, named):
    code, out, err = run_cli(["analyze", *flags], capsys)
    assert (code, out) == (2, "")
    assert named in err


@pytest.mark.parametrize("command", ["analyze", "build"])
@pytest.mark.parametrize("flags, named", [
    (["STATE", "--family", "isotropic", "--d", "3", "--lambda", "0.5"], "--family, --d, --lambda"),
    (["STATE", "--alpha", "1"], "--alpha"),
    (["STATE", "--d", "3"], "--d"),
    (["--family", "werner", "--d", "3", "--lambda", "0.1", "--abc", "1,0,0"], "--abc"),
    (["--family", "isotropic", "--d", "2", "--lambda", "0.1", "--pi", "0.3,0.2"], "--pi"),
    (["--family", "orthogonal", "--d", "2", "--abc", "1,0,0", "--lambda", "0.1"], "--lambda"),
    (["--family", "bell", "--d", "3", "--alpha", "1", "--pi", "0.2,0.1,0.033333333333333",
      "--abc", "1,0,0", "--lambda", "0"], "--lambda, --abc"),
], ids=["path-family", "path-alpha", "path-d", "werner-abc", "isotropic-pi", "orthogonal-lambda",
        "bell-lambda-abc"])
def test_ignored_input_flags_exit_2(capsys, tmp_path, command, flags, named):
    # a state path given with family flags, or a flag the chosen family does
    # not read, was silently dropped: the state path or the family won
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"kind": "werner", "d": 2, "lambda": 0.2}))
    argv = [command] + [str(path) if flag == "STATE" else flag for flag in flags]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert named in err


def test_analyze_prints_the_library_report(capsys, tmp_path):
    # the command is one library call: its stdout is the report of analyze on one line
    bell, dense = tmp_path / "bell.json", tmp_path / "dense.json"
    assert main(["build", *_BELL_ARGV[1:-2], "-o", str(bell)]) == 0
    rho = orthogonal_invariant_state((0.2, 0.5, 0.3), 2)
    dense.write_text(json.dumps(dense_to_json(rho, 2)))
    cases = [(["--family", "werner", "--d", "3", "--lambda", "0.2"],
              parse_state({"kind": "werner", "d": 3, "lambda": 0.2}), "both")]
    cases += [([str(bell)], load_state_file(str(bell)), side) for side in ("both", "A", "B")]
    cases += [([str(dense)], load_state_file(str(dense)), "both")]
    for argv, state, side in cases:
        code, out, err = run_cli(["analyze", *argv, "--side", side, "--starts", "2"], capsys)
        sides = ["A", "B"] if side == "both" else [side]
        report = verify.analyze(state, sides, 1e-9, OptimizerConfig(starts=2))
        assert (code, out, err) == (0, json.dumps(report) + "\n", ""), (argv, side)


@pytest.mark.parametrize("command", [
    ["analyze", "--family", "werner", "--d", "2", "--lambda", "0.1", "--seed", "-1"],
    ["verify", "--d", "2", "--draws", "1", "--seed", "-1"],
    ["simplex", "--grid", "3", "--seed", "-1"],
], ids=["analyze", "verify", "simplex"])
def test_negative_seed_exits_2(capsys, command):
    # NumPy's seeding raised "expected non-negative integer" as a traceback
    code, out, err = run_cli(command, capsys)
    assert code == 2
    assert out == ""
    assert "seed" in err


@pytest.mark.parametrize("flag, value", [("--tol", "1"), ("--seed", "3"), ("--starts", "2")])
def test_build_rejects_numeric_flags(capsys, flag, value):
    # build never read --seed, --tol or --starts; argparse now rejects them
    with pytest.raises(SystemExit) as exc:
        main(["build", "--family", "werner", "--d", "2", "--lambda", "0.1", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_family_flags_parse_like_state_json(capsys, tmp_path):
    # the inline flags go through the same parser as the equivalent state JSON
    cases = [
        (["--family", "werner", "--d", "3", "--lambda", "0.2"],
         {"kind": "werner", "d": 3, "lambda": 0.2}),
        (["--family", "orthogonal", "--d", "2", "--abc", "0.5,0.3,0.2"],
         {"kind": "orthogonal", "d": 2, "abc": [0.5, 0.3, 0.2]}),
        (["--family", "bell", "--d", "2", "--alpha", "1", "--pi", "0.3,0.2"],
         {"kind": "bell", "d": 2, "p": [[0.3, 0.2], [0.2, 0.3]]}),
    ]
    for flags, obj in cases:
        path = tmp_path / "state.json"
        path.write_text(json.dumps(obj))
        code, via_flags, _ = run_cli(["build", "--dense"] + flags, capsys)
        assert code == 0
        code, via_json, _ = run_cli(["build", "--dense", str(path)], capsys)
        assert code == 0
        assert via_flags == via_json
    # d = 1 is rejected like the JSON schema rejects it
    code, out, err = run_cli(
        ["build", "--family", "bell", "--d", "1", "--alpha", "0", "--pi", "1"], capsys
    )
    assert code == 2 and out == ""


@pytest.mark.parametrize("d", [2, 3, 5])
def test_bell_family_flags_take_the_line_labels(d, capsys):
    # build --family bell labels p[m, n] = π_{(m + nα) mod d} as the Bell
    # generators do, for any integer α
    from discordant.blocks import _bell_labels
    from discordant.verify import random_classical_bell

    m, n = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    for alpha in (-1, 0, 1, d, 2 * d + 1):
        p, pi = random_classical_bell(d, alpha, np.random.default_rng(d + alpha + 10))
        assert p.tobytes() == pi[(m + n * alpha) % d].tobytes()
        assert p.tobytes() == pi[_bell_labels(d)[alpha % d]].tobytes()
        code, out, _ = run_cli(["build", "--family", "bell", "--d", str(d), "--alpha", str(alpha),
                                "--pi", ",".join(repr(float(x)) for x in pi)], capsys)
        assert code == 0
        want = {"kind": "bell", "d": d, "p": (p / float(p.sum())).tolist()}
        assert out == json.dumps(want) + "\n"


README = Path(__file__).resolve().parent.parent / "README.md"
_FAMILY_EXAMPLES = re.findall(r"^discordant analyze (--family .*)$", README.read_text("utf-8"), re.M)


def _one_json_line(out: str) -> dict:
    """The report of a one-line output, parsed with no NaN or Infinity token allowed."""
    assert out.endswith("\n") and out.count("\n") == 1, out[:200]

    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(out, parse_constant=reject)


def _at_dimension(argv: list, d: int) -> list:
    """A README family example moved to local dimension d (a Bell π gets d values, Σπ = 1/d)."""
    argv = list(argv)
    argv[argv.index("--d") + 1] = str(d)
    if "--pi" in argv and d == 2:
        argv[argv.index("--pi") + 1] = "0.3,0.2"
    return argv


def test_readme_lists_every_family_example():
    assert sorted(ex.split()[1] for ex in _FAMILY_EXAMPLES) == sorted(cli._FAMILY_FLAGS)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("example", _FAMILY_EXAMPLES)
def test_analyze_prints_one_json_line(capsys, example, d):
    argv = ["analyze", *_at_dimension(example.split(), d), "--starts", "2"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert _one_json_line(out)["d"] == d


def test_analyze_state_file_and_verify_print_one_json_line(capsys, tmp_path):
    path = tmp_path / "state.json"
    spec = verify.random_zero_discord_spec(3, "A", np.random.default_rng(0))
    path.write_text(json.dumps(circulant_to_json(spec)))
    code, out, _ = run_cli(["analyze", str(path), "--starts", "2"], capsys)
    assert code == 0 and _one_json_line(out)["kind"] == "circulant"
    code, out, _ = run_cli(["verify", "--d", "3", "--draws", "2", "--starts", "2",
                            "--format", "json"], capsys)
    assert code == 0 and _one_json_line(out)["pass"] is True


@pytest.mark.parametrize("command", [
    ["analyze", "--family", "isotropic", "--d", "3", "--lambda", "0.4", "--starts", "2"],
    ["verify", "--d", "3", "--draws", "2", "--starts", "2", "--format", "json"],
    ["build", "--family", "werner", "--d", "3", "--lambda", "0.2"],
], ids=["analyze", "verify", "build"])
def test_output_file_holds_the_stdout_bytes(capsys, tmp_path, command):
    code, out, _ = run_cli(command, capsys)
    assert code == 0
    path = tmp_path / "out.json"
    assert run_cli(command + ["-o", str(path)], capsys) == (0, "", "")
    assert path.read_bytes() == out.encode("utf-8")


def test_report_carries_the_library_floats(capsys, tmp_path):
    # bit for bit and of type float: json.loads equality cannot tell 0 from 0.0
    from discordant.discord import OptimizerConfig, discord_sides
    from discordant.serialize import load_state_file

    rng = np.random.default_rng(3)
    spec = verify.perturb_spec(verify.random_zero_discord_spec(3, "B", rng), "modulus", 0.1, rng)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(circulant_to_json(spec)))
    code, out, _ = run_cli(["analyze", str(path), "--starts", "3", "--seed", "4"], capsys)
    assert code == 0
    report = json.loads(out)
    loaded = load_state_file(str(path))

    def bits(values):
        return [bits(v) for v in values] if isinstance(values, list) else float.hex(values)

    results = discord_sides(loaded.rho, 3, ["A", "B"], OptimizerConfig(starts=3, seed=4))
    for side, result in zip("AB", results):
        v = result.best_measurement.vectors
        want = [[[float(z.real), float(z.imag)] for z in v[:, k]] for k in range(3)]
        assert bits(report["numeric"][side]["basis"]) == bits(want)

    a, d = loaded.spec.a, 3
    seen = set()
    for side, shift in (("A", 1), ("B", 0)):
        failures = report["necessary_conditions"][side]["failures"]
        assert failures
        for f in failures:
            n, (i, j) = f["n"], f["entry"]
            got, ref = a[n, i, j], a[0, (i + shift * n) % d, (j + shift * n) % d]
            want = (got.real, ref.real) if i == j else (np.abs(got), np.abs(ref))
            assert bits([f["got"], f["want"]]) == bits([float(x) for x in want])
            seen.add(f["condition"])
    assert seen >= {"diagonal-shift", "offdiagonal-modulus-shift", "offdiagonal-modulus"}

"""Console behaviour on named states: analyze's reports, verify's per-suite counts from
d = 2 to 31, the d = 31 decomposition, and the messages of input errors.

Each case runs ``discordant.cli.main``.  A run that must end within a time limit runs in
a child process with that limit, so that a hang fails its test instead of the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from discordant.blocks import REASSEMBLY_TOL, generate_zero_discord
from discordant.cli import main
from discordant.serialize import circulant_to_json
from discordant.states import CirculantSpec, werner_state

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report(argv, capsys) -> dict:
    """The report of an ``analyze`` run that exits 0 and writes nothing to stderr."""
    code, out, err = _run(["analyze", *argv], capsys)
    assert (code, err) == (0, ""), err
    return json.loads(out)


def _child(args, timeout, cwd=None):
    """``python -W error::RuntimeWarning *args`` on this checkout's package, which must end
    within ``timeout`` seconds (else ``subprocess.TimeoutExpired`` fails the test)."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                          text=True, timeout=timeout)


def _write(tmp_path, obj) -> str:
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_failed_necessary_conditions_name_their_fields(capsys):
    report = _report(["--family", "isotropic", "--d", "3", "--lambda", "0.5", "--starts", "2"],
                     capsys)
    for result in report["necessary_conditions"].values():
        assert result["passed"] is False and result["failures"], result
        for failure in result["failures"]:
            assert set(failure) == {"condition", "n", "entry", "got", "want"}, failure


def test_build_dense_prints_one_json_line(capsys):
    argv = ["build", "--family", "isotropic", "--d", "3", "--lambda", "0.3", "--dense"]
    code, out, _ = _run(argv, capsys)
    assert code == 0 and out.endswith("\n") and out.count("\n") == 1
    assert json.loads(out)["kind"] == "dense"


def test_built_classical_bell_file_passes_the_bell_theorem(capsys, tmp_path):
    path = str(tmp_path / "bell.json")
    argv = ["build", "--family", "bell", "--d", "3", "--alpha", "1",
            "--pi", "0.2,0.1,0.033333333333333"]
    assert _run([*argv, "-o", path], capsys)[0] == 0
    assert _report([path, "--starts", "2"], capsys)["bell_theorem"]["zero_discord"] is True


def test_dense_file_is_projected_onto_its_circulant_spec(capsys, tmp_path):
    path = str(tmp_path / "iso.json")
    argv = ["build", "--family", "isotropic", "--d", "3", "--lambda", "0.3", "--dense", "-o", path]
    assert _run(argv, capsys)[0] == 0
    report = _report([path, "--starts", "2"], capsys)
    assert report["kind"] == "dense"
    assert report["circulant_theorem"] is not None, report
    assert report["agreement"] is True


def test_simplex_grid_5_prints_a_header_and_15_rows(capsys):
    code, out, _ = _run(["simplex", "--grid", "5", "--every", "0"], capsys)
    lines = out.splitlines()
    assert code == 0 and lines[0] == "b,c,separable,zero_discord,numeric_discord"
    assert len(lines) == 16


def test_werner_fails_complete_classicality_on_its_diagonal(capsys):
    report = _report(["--family", "werner", "--d", "3", "--lambda", "0.1", "--side", "A",
                      "--starts", "2"], capsys)
    assert report["completely_classical"]["witness"]["kind"] == "nonuniform-diagonal", report


def test_maximally_mixed_d5_agrees_on_both_sides(capsys):
    # every eigenvalue of the generic block combination is degenerate here,
    # and any basis diagonalizes the blocks
    report = _report(["--family", "isotropic", "--d", "5", "--lambda", "0", "--starts", "2"],
                     capsys)
    assert report["outcome"] == "agree"
    for side in "AB":
        assert report["structural"][side]["zero_discord"] is True, report["structural"]


def test_werner_d7_witness_exceeds_its_tolerance(capsys):
    report = _report(["--family", "werner", "--d", "7", "--lambda", "0.05", "--starts", "2"],
                     capsys)
    for side in "AB":
        verdict = report["structural"][side]
        assert verdict["zero_discord"] is False, verdict
        assert verdict["witness"]["offdiagonal_norm"] > verdict["witness"]["tolerance"], verdict


def test_small_entry_state_reads_zero_on_the_theorem_and_the_general_criterion(capsys, tmp_path):
    # a d = 5 zero family on side A whose pair (0, 1) of a^(0) has modulus
    # 1e-7, with off-diagonal Hermitian noise of 1e-12 in every sector
    d, rng = 5, np.random.default_rng(0)
    g = rng.standard_normal((3, d, d))
    a0 = (g[0] + 1j * g[1]) @ (g[0] + 1j * g[1]).conj().T
    big = abs(a0[0, 1])
    a0[0, 1] *= 1e-7 / big
    a0[1, 0] = a0[0, 1].conjugate()
    a = generate_zero_discord(a0 + big * np.eye(d), g[2, 0], "A").a
    n = 1e-12 * (rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d)))
    n = (n + n.conj().swapaxes(1, 2)) / 2
    n[:, range(d), range(d)] = 0
    path = _write(tmp_path, circulant_to_json(CirculantSpec(d, a + n)))
    report = _report([path, "--side", "A", "--starts", "2"], capsys)
    theorem, general = report["circulant_theorem"]["A"], report["structural"]["A"]
    assert theorem["zero_discord"] is True, theorem
    assert theorem["zero_discord"] == general["zero_discord"], (theorem, general)


def _skewed_werner() -> dict:
    state = circulant_to_json(werner_state(3, 0.2))
    state["a"][1][0][1][0] += 0.05
    return state


@pytest.mark.parametrize("argv, messages", [
    (["analyze", _skewed_werner()], ["a^(1) is not Hermitian (defect"]),
    (["analyze", "--family", "orthogonal", "--d", "2", "--abc", "0.5,0.6,0.3"], ["abc sum to"]),
    (["analyze", {"kind": "bell", "d": 2, "p": [[-0.01, 0.51], [0.25, 0.25]]}],
     ["negative weight", "in weights"]),
], ids=["hermitian-defect", "orthogonal-sum", "negative-bell-weight"])
def test_each_validity_rule_names_its_fault(capsys, tmp_path, argv, messages):
    # one message per rule, whatever input breaks it
    argv = [_write(tmp_path, x) if isinstance(x, dict) else x for x in argv]
    code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    for message in messages:
        assert message in err, err


#: (d, draws, seed) of each verify run.  At seed 13, d = 2, random_nonclassical_bell rejects
#: a candidate inside the Bell suite.  From d = 17 on, one dense state holds more entries than
#: a stack of the general criterion, so it is a stack of its own, up to d = 31, the largest
#: prime d allowed.  A second draw asks for a nonclassical Bell state, whose rejection loop
#: must also end at d = 29 and 31.  300 draws at d = 5 and 20 at d = 13 take more than one
#: round of sector stacks.
_VERIFY_RUNS = [(2, 2, 0), (3, 2, 0), (2, 40, 0), (2, 40, 13), (3, 40, 0), (5, 2, 0), (5, 80, 0),
                (5, 300, 0), (7, 22, 0), (11, 4, 0), (13, 2, 0), (13, 20, 0), (17, 2, 0),
                (29, 2, 0), (31, 1, 0), (31, 2, 0)]

#: Runs each "d,draws,seed" of its arguments through the command line, one JSON line each.
_VERIFY = """
import sys
from discordant.cli import main
for run in sys.argv[1:]:
    d, draws, seed = run.split(",")
    argv = ["verify", "--d", d, "--draws", draws, "--seed", seed, "--starts", "2",
            "--format", "json"]
    if main(argv):
        sys.exit(f"{argv} did not exit 0")
"""


def test_verify_runs_every_suite_up_to_d31_within_120_s():
    result = _child(["-c", _VERIFY, *(f"{d},{n},{s}" for d, n, s in _VERIFY_RUNS)], timeout=120)
    assert result.returncode == 0, result.stderr
    reports = [json.loads(line) for line in result.stdout.splitlines()]
    assert len(reports) == len(_VERIFY_RUNS)
    for (d, draws, seed), report in zip(_VERIFY_RUNS, reports):
        assert (report["d"], report["seed"], report["pass"]) == (d, seed, True), report
        for suite in report["suites"]:
            if suite["name"] == "numeric-agreement":
                want = (0, 0, True) if d >= 5 else (6, 0, False)
            else:
                want = (draws, 0, False)
            assert (suite["passed"], suite["failed"], suite["skipped"]) == want, (d, draws, suite)


#: Prints, per side, the residual of a d = 31 zero state reassembled from the classical
#: decomposition read off its general-criterion verdict (one state per stack).
_DECOMPOSITION = """
import numpy as np
from discordant.blocks import classical_decomposition
from discordant.states import circulant_state
from discordant.verify import random_zero_discord_spec
d, rng = 31, np.random.default_rng(0)
for side in "AB":
    rho = circulant_state(random_zero_discord_spec(d, side, rng))
    p, v, sigma = (np.array(x) for x in zip(*classical_decomposition(rho, d, side)))
    projectors = v[:, :, None] * v[:, None, :].conj()
    local = (projectors, sigma) if side == "A" else (sigma, projectors)
    dense = np.einsum("k,kac,kbe->abce", p, *local, optimize=True).reshape(d * d, d * d)
    print(np.linalg.norm(dense - rho))
"""


def test_d31_decomposition_reassembles_on_both_sides_within_120_s():
    result = _child(["-c", _DECOMPOSITION], timeout=120)
    assert result.returncode == 0, result.stderr
    residuals = [float(x) for x in result.stdout.split()]
    assert len(residuals) == 2 and max(residuals) <= REASSEMBLY_TOL, residuals


@pytest.mark.parametrize("argv", [
    ["verify", "--d", "2305843009213693951", "--draws", "1"],
    ["analyze", "deep.json"],
], ids=["huge-d", "deep-json"])
def test_input_errors_exit_2_within_20_s(tmp_path, argv):
    # a dimension outside 2 ≤ d ≤ 32 and a state file nested too deeply for the
    # JSON parser are input errors, rejected before any work
    (tmp_path / "deep.json").write_text("[" * 100000 + "]" * 100000)
    result = _child(["-m", "discordant.cli", *argv], timeout=20, cwd=tmp_path)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: "), result.stderr

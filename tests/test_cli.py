import csv
import dataclasses
import errno
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ctxkit import cli, quantum, simulate
from ctxkit.calibration import CalibrationReport
from ctxkit.cli import main
from ctxkit.exceptions import NumericError
from ctxkit.inequalities import catalog_get, expr_to_json
from ctxkit.observables import build_ks18
from ctxkit.parity import ColorabilityResult, ParityStats
from ctxkit.bell import Certificate, QuantumMaximum, max_quantum_value
from ctxkit.simulate import EstimateReport, TermEstimate, run_protocol
from ctxkit.solver import BoundResult
from ctxkit.states import make_state


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    if rc != 0:
        # Every failure, argument errors included: nothing on stdout, and
        # stderr is exactly the JSON error.
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert list(payload) == ["error"] and sorted(payload["error"]) == ["message", "type"]
        assert all(isinstance(v, str) for v in payload["error"].values())
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def test_report_envelope(capsys):
    report = run_json(capsys, "bound", "--inequality", "chsh8")
    assert list(report) == ["command", "version", "inputs", "results"]
    assert report["command"] == "bound"
    assert report["inputs"]["inequality"] == "chsh8"
    assert report["inputs"]["n"] is None
    assert "timing_s" not in report


def test_timing_flag(capsys):
    report = json.loads(run_cli(capsys, "bound", "--inequality", "chsh8", "--timing")[1])
    assert report["timing_s"] >= 0.0


def test_bound_results(capsys):
    report = run_json(capsys, "bound", "--inequality", "chsh8")
    assert report["results"]["classical_bound"] == 2
    assert report["results"]["evaluations"] == 16
    assert report["results"]["witness"] == {"P14": -1, "P16": -1, "P24": -1, "P26": -1}


def test_bound_star_family(capsys):
    report = run_json(capsys, "bound", "--inequality", "mermin11", "--n", "3")
    assert report["results"]["classical_bound"] == 2


def test_quantum_named_state(capsys):
    report = run_json(capsys, "quantum", "--inequality", "cfrh6", "--state", "singlet")
    assert report["results"]["value"] == pytest.approx(5.0, abs=1e-9)


def test_quantum_state_file(capsys, tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"kind": "named", "name": "y_plus_pair"}))
    report = run_json(capsys, "quantum", "--inequality", "nambu7", "--state", str(path))
    assert report["results"]["value"] == pytest.approx(6.0, abs=1e-9)


def test_certify(capsys):
    report = run_json(capsys, "certify", "--inequality", "ineq1")
    results = report["results"]
    assert results["state_independent"] is True
    assert results["classical_bound"] == 7
    assert results["quantum_constant"] == pytest.approx(9.0, abs=1e-12)
    assert results["residual"] == 0.0
    assert results["gap"] == pytest.approx(2.0, abs=1e-12)
    # The star certificate builds no dense operator, so the 13-qubit cap
    # is reachable, and exact.
    results = run_json(capsys, "certify", "--inequality", "ineq9", "--n", "13")["results"]
    assert (results["state_independent"], results["quantum_constant"], results["residual"]) == (
        True, 5.0, 0.0)
    results = run_json(capsys, "certify", "--inequality", "kcbs3")["results"]
    assert (results["quantum_constant"], results["residual"], results["gap"]) == (0.0, 4.0, -3.0)


def test_maxval_matches_library(capsys):
    report = run_json(capsys, "maxval", "--inequality", "kcbs3")
    expected = max_quantum_value(build_ks18()[1], catalog_get("kcbs3"))
    assert report["results"] == dataclasses.asdict(expected)
    assert expected.route == "dense"


def test_colorability(capsys):
    report = run_json(capsys, "colorability")
    results = report["results"]
    assert results["satisfiable"] is False
    assert results["witness"] is None
    assert results["context_count"] == 9
    assert results["minus_identity_contexts"] == 9
    assert results["parity_contradiction"] is True
    assert set(results["occurrences"].values()) == {2}


def test_simulate_matches_library(capsys):
    report = run_json(
        capsys, "simulate", "--inequality", "kcbs3", "--state", "zero_product",
        "--shots", "50", "--seed", "3",
    )
    obs = build_ks18()[1]
    expected = dataclasses.asdict(
        run_protocol(make_state("zero_product", dim=4), obs, catalog_get("kcbs3"), 50, 3)
    )
    results = report["results"]
    assert results.pop("state") == "zero_product"
    assert results == json.loads(json.dumps(expected))


def test_simulate_byte_identical(capsys):
    argv = ("simulate", "--inequality", "cfrh6", "--state", "maximally_mixed",
            "--shots", "120", "--seed", "9")
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second


def test_simulate_csv(capsys, tmp_path):
    path = tmp_path / "terms.csv"
    run_json(
        capsys, "simulate", "--inequality", "kcbs3", "--state", "maximally_mixed",
        "--shots", "60", "--seed", "1", "--csv", str(path),
    )
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["term_index", "estimate", "stderr", "shots"]
    assert len(rows) == 1 + 5


def test_sweep(capsys, tmp_path):
    path = tmp_path / "sweep.csv"
    argv = ("sweep", "--inequality", "ineq4", "--states", "25", "--seed", "2",
            "--csv", str(path))
    report = run_json(capsys, *argv)
    results = report["results"]
    assert results["count"] == 25
    assert results["min"] == pytest.approx(6.0, abs=1e-9)
    assert results["max"] == pytest.approx(6.0, abs=1e-9)
    assert results["min"] <= results["mean"] <= results["max"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["state_index", "value"]
    assert len(rows) == 26


def test_sweep_byte_identical(capsys):
    argv = ("sweep", "--inequality", "kcbs3", "--states", "30", "--seed", "5")
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


def test_specialize(capsys, tmp_path):
    subs = tmp_path / "subs.json"
    subs.write_text(json.dumps({"P16": -1, "P26": -1, "P36": -1}))
    report = run_json(capsys, "specialize", "--inequality", "ineq4", "--subs", str(subs))
    results = report["results"]
    assert results["dropped_constant"] == 1
    assert results["classical_bound"] == 3
    assert results["expression"]["id"] == "ineq4/specialized"
    assert results["expression"]["bound"] is None
    multiset = sorted(
        (t["sign"], tuple(sorted(t["factors"]))) for t in results["expression"]["terms"]
    )
    expected = sorted(
        (t.sign, tuple(sorted(t.factors))) for t in catalog_get("cfrh6").terms
    )
    assert multiset == expected


def test_inequality_from_file(capsys, tmp_path):
    path = tmp_path / "chsh.json"
    path.write_text(json.dumps(expr_to_json(catalog_get("chsh8"))))
    report = run_json(capsys, "bound", "--inequality", str(path))
    assert report["results"]["classical_bound"] == 2


# The other malformed-file cases are cli_golden.json rows; this one keeps its
# id from when they shared this table. Only the star family takes n.
@pytest.mark.parametrize("argv,raw", [
    pytest.param(("bound", "--inequality"), {**expr_to_json(catalog_get("chsh8")), "n": 3},
                 id="argv9-raw9"),
])
def test_malformed_json_files_exit_2(capsys, tmp_path, argv, raw):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(raw))
    rc, out, err = run_cli(capsys, *argv, str(path))
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"


def field_names(cls) -> list[str]:
    return [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("argv, keys", [
    (("bound", "--inequality", "chsh8"), field_names(BoundResult)),
    (("specialize", "--inequality", "ineq4", "--subs", "SUBS"),
     ["expression", "dropped_constant", *field_names(BoundResult)]),
    (("certify", "--inequality", "ineq1"), ["classical_bound", *field_names(Certificate), "gap"]),
    (("maxval", "--inequality", "mermin11", "--n", "3"), field_names(QuantumMaximum)),
    (("simulate", "--inequality", "chsh8", "--state", "singlet", "--shots", "20", "--seed", "1"),
     [*field_names(EstimateReport)[:1], "state", *field_names(EstimateReport)[1:]]),
    (("colorability",), field_names(ColorabilityResult) + field_names(ParityStats)),
    (("calibrate",), [name for name in field_names(CalibrationReport)
                      if name not in ("paper_state_values", "best_product_state")]),
], ids=["bound", "specialize", "certify", "maxval", "simulate", "colorability", "calibrate"])
def test_results_are_the_fields_of_their_objects(capsys, tmp_path, argv, keys):
    subs = tmp_path / "subs.json"
    subs.write_text(json.dumps({"P16": -1}))
    results = run_json(capsys, *(str(subs) if a == "SUBS" else a for a in argv))["results"]
    assert list(results) == keys
    assert all(list(t) == field_names(TermEstimate) for t in results.get("terms", []))


def test_calibrate(capsys):
    report = run_json(capsys, "calibrate")
    results = report["results"]
    assert results["automorphism_count"] == 72
    assert results["pentagon_count"] == 36
    assert results["qualitative_violation"] is True
    assert results["target_matched"] is False


def test_memory_error_is_a_resource_limit(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError("Unable to allocate 1.00 GiB for an array")

    monkeypatch.setattr(cli, "_cmd_quantum", exhausted)
    rc, out, err = run_cli(capsys, "quantum", "--inequality", "cfrh6", "--state", "singlet")
    assert (rc, out) == (3, "")
    assert json.loads(err) == {
        "error": {"type": "MemoryError", "message": "Unable to allocate 1.00 GiB for an array"}
    }


def test_numeric_error_exits_1(capsys, monkeypatch):
    def failing(args):
        raise NumericError("branch probability 1.5 is outside [0, 1]")

    monkeypatch.setattr(cli, "_cmd_quantum", failing)
    rc, out, err = run_cli(capsys, "quantum", "--inequality", "cfrh6", "--state", "singlet")
    assert (rc, out) == (1, "")
    assert json.loads(err) == {
        "error": {"type": "NumericError", "message": "branch probability 1.5 is outside [0, 1]"}
    }


def test_os_error_message_names_the_error_and_the_path(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "bound", "--inequality", str(tmp_path))
    assert rc == 2
    expected = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(tmp_path))
    assert json.loads(err)["error"] == {"type": "IsADirectoryError", "message": str(expected)}


# command -> (the module that owns its runner, the runner, argv); the
# handler imports the runner from that module when it runs.
CSV_COMMANDS = {
    "simulate": (simulate, "run_protocol", ["simulate", "--inequality", "kcbs3", "--state",
                                            "maximally_mixed", "--shots", "60", "--seed", "1"]),
    "sweep": (quantum, "haar_sweep",
              ["sweep", "--inequality", "ineq4", "--states", "5", "--seed", "2"]),
}


@pytest.mark.parametrize("command", list(CSV_COMMANDS))
def test_unwritable_csv_path_exits_2_before_the_run(capsys, tmp_path, monkeypatch, command):
    def not_reached(*args):
        raise AssertionError("the run started before --csv was opened")

    module, runner, argv = CSV_COMMANDS[command]
    monkeypatch.setattr(module, runner, not_reached)
    path = tmp_path / "missing" / "out.csv"
    rc, _, err = run_cli(capsys, *argv, "--csv", str(path))
    assert rc == 2
    expected = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))
    assert json.loads(err)["error"] == {"type": "FileNotFoundError", "message": str(expected)}


@pytest.mark.parametrize("argv", [
    ["simulate", "--inequality", "kcbs3", "--state", "maximally_mixed", "--shots", str(10**12),
     "--seed", "1"],
    ["sweep", "--inequality", "ineq4", "--states", str(10**12), "--seed", "2"],
], ids=["simulate", "sweep"])
def test_run_that_fails_leaves_an_empty_csv(capsys, tmp_path, argv):
    path = tmp_path / "out.csv"
    path.write_text("old contents\n")
    rc, _, _ = run_cli(capsys, *argv, "--csv", str(path))
    assert rc == 3
    assert path.read_text() == ""


def _dm_file(path, rho) -> str:
    entries = [[z.real, z.imag] for z in np.asarray(rho, dtype=complex).reshape(-1)]
    path.write_text(json.dumps({"kind": "dm", "dim": len(rho), "entries": entries}))
    return str(path)


STATE_COMMANDS = {
    "quantum": ["quantum", "--inequality", "ineq1"],
    "simulate": ["simulate", "--inequality", "ineq1", "--shots", "10", "--seed", "1"],
}


@pytest.mark.parametrize("command,eighs", [("quantum", 1), ("simulate", 1)])
def test_dm_file_is_certified_once_per_computation(capsys, tmp_path, monkeypatch,
                                                   command, eighs):
    # Loading the file runs no eigensolver; linalg.factor runs one per
    # command: quantum evaluates once, and simulate hands its one factor
    # to each of ineq1's nine terms.
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = m @ m.conj().T
    path = _dm_file(tmp_path / "dm.json", rho / np.trace(rho))
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    run_json(capsys, *STATE_COMMANDS[command], "--state", path)
    assert calls == [(4, 4)] * eighs


@pytest.mark.parametrize("command", list(STATE_COMMANDS))
@pytest.mark.parametrize("rho,message", [
    (np.diag([0.5, 0.5, 0.0, 0.0]) + np.eye(4, k=1) / 2, "density matrix is not Hermitian"),
    (np.eye(4) / 2, "density matrix trace (2+0j) is not 1"),
    (np.diag([1.5, -0.5, 0.0, 0.0]), "density matrix has negative eigenvalue -0.5"),
])
def test_dm_file_that_is_not_a_state_exits_2(capsys, tmp_path, command, rho, message):
    path = _dm_file(tmp_path / "dm.json", rho)
    rc, out, err = run_cli(capsys, *STATE_COMMANDS[command], "--state", path)
    assert (rc, out) == (2, "")
    assert json.loads(err) == {"error": {"type": "ValueError", "message": message}}


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("ctxkit ")


def test_console_script():
    proc = subprocess.run(
        [sys.executable, "-m", "ctxkit.cli", "certify", "--inequality", "ineq4"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["results"]["quantum_constant"] == pytest.approx(6.0)

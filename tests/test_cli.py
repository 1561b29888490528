import csv
import json
import subprocess
import sys

import pytest

from ctxkit.cli import main
from ctxkit.inequalities import catalog_get, expr_to_json
from ctxkit.observables import build_ks18
from ctxkit.quantum import max_quantum_value
from ctxkit.simulate import report_to_json, run_protocol
from ctxkit.states import make_state


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
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
    assert report["results"]["max_quantum_value"] == expected


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
    expected = report_to_json(
        run_protocol(make_state("zero_product", dim=4), obs, catalog_get("kcbs3"), 50, 3),
        "zero_product",
    )
    assert report["results"] == json.loads(json.dumps(expected))


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


@pytest.mark.parametrize("raw", [
    {"P16": -1.9}, {"P16": -1.0}, {"P16": True}, {"P16": "1"}, [["P16", -1]],
])
def test_specialize_rejects_non_integer_substitution(capsys, tmp_path, raw):
    subs = tmp_path / "subs.json"
    subs.write_text(json.dumps(raw))
    rc, out, err = run_cli(capsys, "specialize", "--inequality", "ineq4", "--subs", str(subs))
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_inequality_from_file(capsys, tmp_path):
    path = tmp_path / "chsh.json"
    path.write_text(json.dumps(expr_to_json(catalog_get("chsh8"))))
    report = run_json(capsys, "bound", "--inequality", str(path))
    assert report["results"]["classical_bound"] == 2


@pytest.mark.parametrize("argv,raw", [
    (("bound", "--inequality"),
     {"id": "x", "set_id": "peres_mermin", "terms": [[1, ["P14", "P16"]]]}),
    (("bound", "--inequality"), {**expr_to_json(catalog_get("chsh8")), "typo_bound": 2}),
    (("quantum", "--inequality", "kcbs3", "--state"), {"kind": "haar", "dim": 4, "seed": 1.9}),
    (("quantum", "--inequality", "chsh8", "--state"),
     {"kind": "ket", "dim": 2, "amplitudes": [[1, "a"], [0, 0]]}),
    # The declared dim is compared with the set's before the state is built.
    (("quantum", "--inequality", "chsh8", "--state"), {"kind": "haar", "dim": 10**6, "seed": 1}),
    # A state file holds one JSON object, never a bare array or string.
    (("quantum", "--inequality", "chsh8", "--state"), [{}]),
    (("quantum", "--inequality", "chsh8", "--state"), [True, False, False, False]),
    (("quantum", "--inequality", "chsh8", "--state"), "singlet"),
])
def test_malformed_json_files_exit_2(capsys, tmp_path, argv, raw):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(raw))
    rc, out, err = run_cli(capsys, *argv, str(path))
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_inequality_file_n_conflict(capsys, tmp_path):
    path = tmp_path / "star.json"
    path.write_text(json.dumps(expr_to_json(catalog_get("mermin11", 3))))
    rc, _, err = run_cli(capsys, "bound", "--inequality", str(path), "--n", "5")
    assert rc == 2
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_calibrate(capsys):
    report = run_json(capsys, "calibrate")
    results = report["results"]
    assert results["automorphism_count"] == 72
    assert results["pentagon_count"] == 36
    assert results["qualitative_violation"] is True
    assert results["target_matched"] is False


def test_exit_code_unknown_inequality(capsys):
    rc, out, err = run_cli(capsys, "bound", "--inequality", "nonsense")
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ValueError"


def test_exit_code_missing_n(capsys):
    rc, _, err = run_cli(capsys, "bound", "--inequality", "ineq9")
    assert rc == 2
    assert "n" in json.loads(err)["error"]["message"]


def test_exit_code_resource_limit(capsys):
    for argv in (
        ("bound", "--inequality", "ineq9", "--n", "15"),
        ("certify", "--inequality", "ineq9", "--n", "15"),
        # The star cap holds before any label is built, for every command.
        ("bound", "--inequality", "mermin11", "--n", "15"),
        ("bound", "--inequality", "ineq9", "--n", str(10**6 + 1)),
        ("simulate", "--inequality", "ineq1", "--state", "maximally_mixed",
         "--shots", str(10**12), "--seed", "1"),
        # Inside the star cap, past the eigensolver's 2^11.
        ("maxval", "--inequality", "mermin11", "--n", "13"),
    ):
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 3
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ResourceLimitError"


def test_exit_code_unknown_state(capsys):
    rc, _, err = run_cli(
        capsys, "quantum", "--inequality", "kcbs3", "--state", "no_such_state"
    )
    assert rc == 2


def test_exit_code_dimension_mismatch(capsys):
    rc, _, err = run_cli(
        capsys, "quantum", "--inequality", "ineq9", "--n", "3", "--state", "singlet"
    )
    assert rc == 2
    assert "dimension" in json.loads(err)["error"]["message"]


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

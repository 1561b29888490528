"""Cap matrix: each row is one CLI process under a 1 GiB address-space
limit and a wall budget.  Rows inside the caps run at the star's largest
size, n = 13, on the 18-ray set for the commands that take no n, or for
a bound at the scan-work cap or with more labels than the cap allows but
a small rank, and must exit 0; rows just past a cap, among them every
command that takes n at n = 15, must exit 3 at once, before anything
large is built, and an input that is not a regular file must exit 2 at
once."""

import itertools
import json
import os
import resource
import subprocess
import sys
import time

import pytest

import ctxkit
from ctxkit.families import set_labels
from ctxkit.inequalities import MAX_INPUT_BYTES, expr_from_json
from ctxkit.linalg import MAX_DENSE_DIM
from ctxkit.solver import MAX_SCAN_WORK, evaluate_assignment

GIB = 1 << 30
SRC = os.path.dirname(os.path.dirname(os.path.abspath(ctxkit.__file__)))
STAR13 = ("--inequality", "ineq9", "--n", "13")


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (GIB, GIB))


def run_capped(argv, budget_s: float):
    """Run ``ctxkit argv`` in a child limited to 1 GiB; returns (exit code,
    parsed stdout or None, stderr, seconds)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    # BLAS reserves address space per thread and so per core; one thread
    # keeps the limit about ctxkit's own arrays on any machine.
    env["OPENBLAS_NUM_THREADS"] = "1"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ctxkit.cli", *argv],
        capture_output=True, text=True, env=env, timeout=budget_s + 30,
        preexec_fn=_limit_address_space,
    )
    elapsed = time.perf_counter() - started
    assert elapsed < budget_s, f"{argv} took {elapsed:.2f} s, budget {budget_s} s"
    return proc.returncode, json.loads(proc.stdout) if proc.stdout else None, proc.stderr, elapsed


@pytest.mark.parametrize("argv, budget_s, key, want", [
    (("quantum", *STAR13, "--state", "ghz"), 10, "value", 5.0),
    (("sweep", *STAR13, "--states", "64", "--seed", "1"), 10, "mean", 5.0),
    (("simulate", *STAR13, "--state", "ghz", "--shots", "200", "--seed", "1"), 30,
     "lhs_estimate", 5.0),
    # A Haar ket takes both branches of a measurement: the walk at d = 8192.
    (("simulate", *STAR13, "--state", "HAAR_FILE", "--shots", "200", "--seed", "1"), 10,
     "lhs_estimate", 5.0),
    (("certify", *STAR13), 5, "quantum_constant", 5.0),
    (("maxval", "--inequality", "mermin11", "--n", "13"), 5, "max_quantum_value", 4.0),
    (("specialize", *STAR13, "--subs", "SUBS_FILE"), 5, "classical_bound", 3),
    (("colorability",), 5, "satisfiable", False),
    (("calibrate", "--seed", "0"), 5, "pentagon_count", 36),
], ids=["quantum", "sweep", "simulate", "simulate_haar", "certify", "maxval", "specialize",
        "colorability", "calibrate"])
def test_largest_star_runs_within_a_gib(argv, budget_s, key, want, tmp_path):
    files = {"HAAR_FILE": tmp_path / "haar.json", "SUBS_FILE": tmp_path / "subs.json"}
    files["HAAR_FILE"].write_text(json.dumps({"kind": "haar", "dim": 8192, "seed": 3}))
    files["SUBS_FILE"].write_text(json.dumps({"ACAL1": 1}))
    argv = [str(files.get(a, a)) for a in argv]
    rc, report, err, _ = run_capped(argv, budget_s)
    assert rc == 0, err
    assert abs(report["results"][key] - want) <= 1e-9


def test_bound_at_the_scan_work_cap_runs_within_a_gib(tmp_path):
    # 27 of the n = 13 star's labels, each in its own one-label term, and
    # five three-label terms over the first 15 of them: each label's own
    # term makes the 27 term columns independent (rank 27), so 2^27
    # assignments x 32 terms, all +1, is exactly the scan-work cap.
    labels = sorted(set_labels("mermin_star", 13))[:27]
    groups = [[label] for label in labels] + [labels[i:i + 3] for i in range(0, 15, 3)]
    assert (1 << len(labels)) * len(groups) == MAX_SCAN_WORK
    path = tmp_path / "cap.json"
    path.write_text(json.dumps({
        "id": "cap", "set_id": "mermin_star", "n": 13, "bound": None,
        "terms": [{"sign": 1, "factors": group} for group in groups],
    }))
    rc, report, err, _ = run_capped(["bound", "--inequality", str(path)], 5.0)
    assert rc == 0, err
    assert report["results"] == {
        "classical_bound": 32, "witness": dict.fromkeys(labels, 1), "evaluations": 1 << 27,
    }


def test_bound_scans_the_rank_not_the_labels(tmp_path):
    # All 30 labels of the n = 13 star over 6 terms, with 30 distinct term
    # incidences: the 6 singletons, the 15 pairs and the first 9 triples.
    # 2^30 assignments x 6 terms is past the scan-work cap, but the term
    # columns have rank 6, so the scan is 2^6 x 6.  With rank 6 = terms,
    # every sign pattern is reachable and the bound is 6.
    labels = sorted(set_labels("mermin_star", 13))
    subsets = [c for size in (1, 2, 3) for c in itertools.combinations(range(6), size)][:30]
    signs = (1, -1, 1, 1, -1, -1)
    spec = {
        "id": "rank6", "set_id": "mermin_star", "n": 13, "bound": None,
        "terms": [{"sign": sign, "factors": [lab for lab, sub in zip(labels, subsets) if t in sub]}
                  for t, sign in enumerate(signs)],
    }
    assert len(labels) == 30 and (1 << 30) * 6 > MAX_SCAN_WORK
    path = tmp_path / "rank6.json"
    path.write_text(json.dumps(spec))
    rc, report, err, _ = run_capped(["bound", "--inequality", str(path)], 1.0)
    assert rc == 0, err
    result = report["results"]
    assert (result["classical_bound"], result["evaluations"]) == (6, 1 << 30)
    assert sorted(result["witness"]) == labels
    assert evaluate_assignment(expr_from_json(spec), result["witness"]) == 6


@pytest.mark.parametrize("argv", [
    ("quantum", *STAR13, "--state", "maximally_mixed"),
    ("simulate", *STAR13, "--state", "DM_FILE", "--shots", "2", "--seed", "1"),
    ("sweep", "--inequality", "ineq1", "--states", "1000001", "--seed", "1"),
    ("bound", "--inequality", "BIG_FILE"),
    ("bound", "--inequality", "WIDE_FILE"),
    # Past the shot cap on a density matrix at the dense cap: refused
    # before the state's eigendecomposition.
    ("simulate", "--inequality", "ineq9", "--n", "11", "--state", "maximally_mixed",
     "--shots", "1000001", "--seed", "1"),
    ("certify", "--inequality", "ineq9", "--n", "15"),
    ("maxval", "--inequality", "mermin11", "--n", "15"),
    ("bound", "--inequality", "ineq9", "--n", "15"),
    ("quantum", "--inequality", "ineq9", "--n", "15", "--state", "ghz"),
    ("sweep", "--inequality", "ineq9", "--n", "15", "--states", "2", "--seed", "1"),
    ("simulate", "--inequality", "ineq9", "--n", "15", "--state", "ghz", "--shots", "2",
     "--seed", "1"),
    ("specialize", "--inequality", "ineq9", "--n", "15", "--subs", "SUBS_FILE"),
], ids=["maximally_mixed", "dm_file", "sweep_states", "input_bytes", "scan_work", "dense_shots",
        "certify", "maxval", "bound", "quantum", "sweep", "simulate", "specialize"])
def test_past_a_cap_exits_3_at_once(argv, tmp_path):
    files = {"DM_FILE": tmp_path / "dm.json", "BIG_FILE": tmp_path / "big.json",
             "WIDE_FILE": tmp_path / "wide.json", "SUBS_FILE": tmp_path / "subs.json"}
    files["SUBS_FILE"].write_text(json.dumps({"ACAL1": 1}))
    files["DM_FILE"].write_text(json.dumps({"kind": "dm", "dim": 8192, "entries": [[1.0, 0.0]]}))
    # The n = 13 star's 30 labels in 30 one-label terms: 2^30
    # assignments x 30 terms is past the scan-work cap.
    files["WIDE_FILE"].write_text(json.dumps({
        "id": "wide", "set_id": "mermin_star", "n": 13, "bound": None,
        "terms": [{"sign": 1, "factors": [label]} for label in set_labels("mermin_star", 13)],
    }))
    with open(files["BIG_FILE"], "wb") as fh:
        fh.truncate(MAX_INPUT_BYTES + 1)  # sparse: no disk blocks
    argv = [str(files.get(a, a)) for a in argv]
    rc, report, err, _ = run_capped(argv, 1.0)
    assert (rc, report) == (3, None)
    assert json.loads(err)["error"]["type"] == "ResourceLimitError"


@pytest.mark.parametrize("argv", [
    ("bound", "--inequality", "PATH"),
    ("quantum", "--inequality", "ineq4", "--state", "PATH"),
    ("specialize", "--inequality", "ineq4", "--subs", "PATH"),
], ids=["inequality", "state", "subs"])
@pytest.mark.parametrize("kind", ["device", "fifo"])
def test_non_regular_input_exits_2_at_once(argv, kind, tmp_path):
    # /dev/zero would be read up to the input cap, and opening a FIFO
    # with no writer blocks: both are refused before they are opened.
    path = "/dev/zero" if kind == "device" else str(tmp_path / "fifo")
    if kind == "fifo":
        os.mkfifo(path)
    rc, report, err, _ = run_capped([path if a == "PATH" else a for a in argv], 1.0)
    assert (rc, report) == (2, None)
    assert json.loads(err)["error"] == {
        "type": "ValueError", "message": f"{path} is not a regular file",
    }


def test_input_cap_holds_a_dm_file_at_the_dense_cap():
    # No float prints wider than the 24 characters of this one, so a dm
    # file of dimension MAX_DENSE_DIM in json.dumps' own form fits.
    widest = -2.2250738585072014e-308
    entry = json.dumps([[widest, widest]])[1:-1] + ", "
    header = json.dumps({"kind": "dm", "dim": MAX_DENSE_DIM, "entries": []})
    assert len(header) + MAX_DENSE_DIM**2 * len(entry) <= MAX_INPUT_BYTES

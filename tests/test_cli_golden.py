"""The CLI contract: every row of ``cli_golden.json`` (see
``record_cli_golden.py`` for the row fields and how to re-record them),
run in-process through ``cli.main``, keeps its row by the one
``compare`` that ``record_cli_golden.py --check`` also runs through the
installed ``ctxkit`` script.  The row kinds: seeded stdout (the
benchmark's tiny workloads, ``calibrate`` over nine seeds, 2000-shot
``simulate`` runs and a 3000-state ``sweep``), exact results (``bound``,
``specialize``, ``certify``, ``quantum``, ``maxval``), the
``colorability`` verdict, ``--csv`` tables, and bad input (exit 2) and
resource caps (exit 3) with their JSON error on stderr.

Rows whose stdout depends on the BLAS thread count are not in the corpus
(``maxval`` on its dense eigensolver route from 512 dimensions up,
``quantum`` on a dense random state from 128); this file checks the
corpus at the default thread count, and
CI's ``--check`` run with one BLAS thread, so a row that does depend on
it fails there.  A few larger commands, outside the corpus, are compared
at one and two BLAS threads in subprocesses.
"""

import json
import os
import subprocess
import sys

import pytest
from record_cli_golden import FIELDS, INPUTS, compare, csv_path, load, run_row, write_inputs

import ctxkit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ctxkit.__file__)))

GOLDEN = load()


def test_corpus_holds_every_row():
    # Every row is recorded, with no field that compare would ignore and
    # a csv exactly when it writes one; every input file is named by a row.
    for row, want in GOLDEN.items():
        assert {"exit", "stdout"} <= set(want) <= set(FIELDS)
        assert ("csv" in want) == (csv_path(row) is not None)
        assert want["stdout"] == "" or want["exit"] == 0
    assert {row["exit"] for row in GOLDEN.values()} == {0, 2, 3}
    assert all(any(name in row.split() for row in GOLDEN) for name in INPUTS)


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_golden")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("row", list(GOLDEN))
def test_row_is_byte_identical(row, inputs_dir, monkeypatch):
    monkeypatch.chdir(inputs_dir)
    assert compare(GOLDEN[row], run_row(row)) == []


def test_compare_reports_each_planted_fault(inputs_dir, monkeypatch):
    # A copy of one row with one fault of each kind planted in it: the
    # compare that tier-1 and --check share reports each one.
    row = ("simulate --inequality cfrh6 --state maximally_mixed --shots 2000 --seed 5 "
           "--csv simulate.csv")
    want = GOLDEN[row]
    monkeypatch.chdir(inputs_dir)
    run = run_row(row)
    assert compare(want, run) == []

    def flipped(text: str) -> str:
        return text[:10] + chr(ord(text[10]) ^ 1) + text[11:]

    plants = {"exit": 3, "stdout": flipped(want["stdout"]),
              "stderr_contains": ["no such message"], "csv": flipped(want["csv"])}
    for field, value in plants.items():
        faults = compare({**want, field: value}, run)
        assert len(faults) == 1 and faults[0].startswith(field.split("_")[0]), faults
    assert len(compare({**want, **plants}, run)) == len(plants)


@pytest.mark.parametrize("argv", [
    "simulate --inequality ineq9 --n 13 --state HAAR_FILE --shots 200 --seed 1",
    "simulate --inequality ineq9 --n 13 --state ghz --shots 200 --seed 1",
    "sweep --inequality ineq9 --n 9 --states 200 --seed 1",
    "simulate --inequality mermin11 --n 7 --state maximally_mixed --shots 200 --seed 1",
    "quantum --inequality mermin11 --n 13 --state ghz",
    "quantum --inequality mermin11 --n 13 --state HAAR_FILE",
    "sweep --inequality mermin11 --n 13 --states 8 --seed 1",
    "maxval --inequality mermin11 --n 9",
], ids=["simulate_haar_n13", "simulate_ghz_n13", "sweep_n9", "simulate_dm_n7", "quantum_ghz_n13",
        "quantum_haar_n13", "sweep_n13", "maxval_n9"])
def test_stdout_does_not_depend_on_blas_threads(argv, tmp_path):
    """Each command prints the same bytes with one and with two OpenBLAS
    threads, set only in the child's environment.  The largest ket size,
    2^13, is checked with state-dependent values too: on a Haar-random
    ket file and over a seeded Haar sweep.

    ``maxval --inequality mermin11 --n 9`` takes the exact commuting
    route and prints 4.0 at both; on the dense eigensolver route it
    printed 4.000000000000011 at one thread and 4.000000000000006 at two.
    Two outputs are known to differ and are not tested here: ``maxval`` on
    its dense route from 512 dimensions up, and ``quantum --inequality
    mermin11 --n 7`` on a random d = 128 dm file, which moves in its last
    digits (-0.021846844051311307 against -0.021846844051311286 for one
    such file), because the value is read through the density matrix's
    eigendecomposition.
    """
    haar = tmp_path / "haar.json"
    haar.write_text(json.dumps({"kind": "haar", "dim": 8192, "seed": 3}))
    args = [str(haar) if a == "HAAR_FILE" else a for a in argv.split()]
    stdout = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-m", "ctxkit.cli", *args],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        stdout.append(proc.stdout)
    assert stdout[0] == stdout[1]

"""The CLI contract corpus ``cli_golden.json``: record it, or check it
through the installed ``ctxkit`` console script.

    PYTHONPATH=src python tests/record_cli_golden.py    # re-record in-process
    python tests/record_cli_golden.py --check            # check via `ctxkit`

The corpus maps each ``ctxkit`` command line (its arguments joined by
single spaces) to a row:

- ``exit``: the exit code;
- ``stdout``: the exact stdout;
- ``stderr_contains`` (optional, written by hand): substrings of the JSON
  error that a failing row prints on stderr (an argument error's type and
  message prefix only: argparse words the rest, such as an invalid
  choice's list, by Python version);
- ``csv`` (optional): the exact text of the row's ``--csv`` file after
  the run, recorded for every row that passes ``--csv``.

Every row runs from one directory that holds only the files of
``INPUTS``, so the paths a report or a message echoes are the same on
every machine.  A row that exits non-zero must also print exactly one
JSON error, ``{"error": {"type": ..., "message": ...}}``, on stderr.
``compare`` is the one check of a run against its row: tier-1
(``test_cli_golden.py``) runs every row in-process through ``cli.main``,
and ``--check`` runs every row through the ``ctxkit`` found on PATH, in a
subprocess each, and exits 1 if any row differs.

The rows:

- seeded stdout: every command line of the benchmark's three workloads at
  their tiny sizes (``perfbench/workloads.py``) at seeds 1 and 2,
  ``calibrate`` at seeds 0 to 7 and 2^64 - 1, and larger seeded
  ``simulate``, ``sweep`` and ``calibrate`` runs (2000 shots on a 128 x 128
  state, a 3000-state sweep);
- exact results: ``bound``, ``specialize``, ``certify`` (star n = 13
  included), ``quantum`` and ``maxval`` (its exact routes up to star
  n = 13, and its dense route at d = 4);
- verdicts: ``colorability`` (unsatisfiable, with a parity contradiction);
- ``--csv`` tables, byte for byte;
- bad input (exit 2) and resource caps (exit 3), each with its message.

Commands whose stdout depends on the BLAS thread count (``maxval`` on its
dense eigensolver route from 512 dimensions up, a ``quantum`` value on a
dense random state from 128) are left out; ``maxval``'s exact routes
(a certified constant, or commuting Pauli strings) do not depend on it.

To add a row, add its command line to the corpus with ``{}``, or with its
``stderr_contains`` only, and re-record.  Re-recording runs every row
in-process, rewrites each row's ``exit``, ``stdout`` and ``csv`` and keeps
its ``stderr_contains``; it refuses to write a corpus whose own check
fails.  Re-record only for a change that is meant to move the contract:
the re-recorded file is a visible diff, and CHANGES.md lists each moved
value.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from ctxkit.cli import main
from ctxkit.inequalities import catalog_get, expr_to_json

CORPUS = Path(__file__).with_name("cli_golden.json")

# The JSON files the rows name, written into the directory they run from.
INPUTS = {
    "ineq4.json": expr_to_json(catalog_get("ineq4")),
    "subs.json": {"P16": -1, "P26": -1, "P36": -1},
    "subs-float.json": {"P16": -1.0},
    # Substitution values that are not the integer 1 or -1, and a file
    # that is not a JSON object.
    "subs-fraction.json": {"P16": -1.9},
    "subs-one-float.json": {"P16": 1.0},
    "subs-bool.json": {"P16": True},
    "subs-str.json": {"P16": "1"},
    "subs-list.json": [["P16", -1]],
    "subs-unknown.json": {"P99": 1},
    "set-unknown.json": {"id": "x", "set_id": "foo", "bound": None,
                         "terms": [{"sign": 1, "factors": ["P14"]}]},
    "label-unknown.json": {"id": "x", "set_id": "peres_mermin", "bound": None,
                           "terms": [{"sign": 1, "factors": ["P14", "Q99"]}]},
    "ket-without-dim.json": {"kind": "ket"},
    # A state or expression file that lacks one required key.
    "dm-without-dim.json": {"kind": "dm"},
    "ket-without-amplitudes.json": {"kind": "ket", "dim": 4},
    "dm-without-entries.json": {"kind": "dm", "dim": 4},
    "haar-without-seed.json": {"kind": "haar", "dim": 4},
    "named-without-name.json": {"kind": "named"},
    "term-without-factors.json": {"id": "x", "set_id": "peres_mermin", "terms": [{"sign": 1}]},
    "term-without-sign.json": {"id": "x", "set_id": "peres_mermin",
                               "terms": [{"factors": ["P14"]}]},
    "expr-without-terms.json": {"id": "x", "set_id": "peres_mermin"},
    # One term whose factors do not commute.
    "pair.json": {"id": "pair", "set_id": "peres_mermin", "bound": None,
                  "terms": [{"sign": 1, "factors": ["P14", "P25"]}]},
    # One term that draws nothing, so no substream call would see the seed.
    "const.json": {"id": "const", "set_id": "peres_mermin", "bound": None,
                   "terms": [{"sign": 1, "factors": []}]},
    # No terms at all, as when specialize substitutes every label.
    "empty.json": {"id": "empty", "set_id": "peres_mermin", "bound": None, "terms": []},
    "dm-trace0.json": {"kind": "dm", "dim": 4, "entries": [[0, 0]] * 16},
    "mermin11-n3.json": expr_to_json(catalog_get("mermin11", 3)),
    # An n that the file's set refuses: any n on peres_mermin, past the cap on the star.
    "chsh8-n3.json": {**expr_to_json(catalog_get("chsh8")), "n": 3},
    "ineq9-n15.json": {**expr_to_json(catalog_get("ineq9", 5)), "n": 15},
    # X and Z on qubit 1 of the n = 13 star anticommute, so only the
    # dense eigensolver can take this expression's maximum.
    "xz-n13.json": {"id": "xz", "set_id": "mermin_star", "n": 13, "bound": None,
                    "terms": [{"sign": 1, "factors": ["B1"]}, {"sign": 1, "factors": ["C1"]}]},
    # A term that is not an object, an unknown key and an id that is not
    # a string; a state file that is not one JSON object, a haar seed that
    # is not an integer, an amplitude that is not a number, and a declared
    # dim past the set's.
    "term-not-object.json": {"id": "x", "set_id": "peres_mermin",
                             "terms": [[1, ["P14", "P16"]]]},
    "chsh8-typo-key.json": {**expr_to_json(catalog_get("chsh8")), "typo_bound": 2},
    "chsh8-int-id.json": {**expr_to_json(catalog_get("chsh8")), "id": 5},
    "state-list.json": [{}],
    "state-bools.json": [True, False, False, False],
    "state-str.json": "singlet",
    "haar-float-seed.json": {"kind": "haar", "dim": 4, "seed": 1.9},
    "ket-str-amplitude.json": {"kind": "ket", "dim": 4,
                               "amplitudes": [[1, "a"], [0, 0], [0, 0], [0, 0]]},
    "haar-huge-dim.json": {"kind": "haar", "dim": 10**6, "seed": 1},
    # Raw bytes, written as they are: JSON too deep for the parser's
    # recursion, a syntax error, and a file that is not UTF-8.
    "deep.json": b"[" * 100000 + b"]" * 100000,
    "deep-amplitudes.json": b'{"kind": "ket", "dim": 4, "amplitudes": '
                            + b"[" * 100000 + b"]" * 100000 + b"}",
    "syntax.json": b'{"id":',
    "not-utf8.json": b"\xff{}",
}

FIELDS = ("exit", "stdout", "stderr_contains", "csv")


def load() -> dict[str, dict]:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def write_inputs(directory: Path) -> None:
    for name, content in INPUTS.items():
        raw = content if isinstance(content, bytes) else json.dumps(content).encode("utf-8")
        (directory / name).write_bytes(raw)


def csv_path(row: str) -> str | None:
    """The ``--csv`` path a row names, or None."""
    args = row.split()
    return args[args.index("--csv") + 1] if "--csv" in args else None


def _with_csv(row: str, run: dict) -> dict:
    """``run`` plus the text of the row's ``--csv`` file (None if the row
    names one and it is missing)."""
    path = csv_path(row)
    if path is not None:
        run["csv"] = Path(path).read_bytes().decode("utf-8") if os.path.exists(path) else None
    return run


def run_row(row: str) -> dict:
    """Exit code, stdout, stderr and ``--csv`` text of one row, run
    in-process through ``cli.main`` in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(row.split())
    return _with_csv(row, {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})


def run_script(row: str, script: str) -> dict:
    """The same, through the console script ``script``, in a subprocess."""
    proc = subprocess.run([script, *row.split()], capture_output=True, timeout=600)
    return _with_csv(row, {"exit": proc.returncode, "stdout": proc.stdout.decode("utf-8"),
                           "stderr": proc.stderr.decode("utf-8")})


def _is_json_error(stderr: str) -> bool:
    try:
        payload = json.loads(stderr)
    except ValueError:
        return False
    return (isinstance(payload, dict) and list(payload) == ["error"]
            and isinstance(payload["error"], dict)
            and sorted(payload["error"]) == ["message", "type"]
            and all(isinstance(v, str) for v in payload["error"].values()))


def _first_difference(got: str | None, want: str) -> str:
    if got is None:
        return "the file is missing"
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"first difference at character {at}: {got[at:at + 40]!r} != {want[at:at + 40]!r}"


def compare(row: dict, run: dict) -> list[str]:
    """Every way in which ``run`` (from ``run_row`` or ``run_script``)
    breaks its corpus ``row``; empty when it keeps it."""
    faults = []
    if run["exit"] != row["exit"]:
        faults.append(f"exit {run['exit']}, recorded {row['exit']}")
    if run["stdout"] != row["stdout"]:
        faults.append(f"stdout: {_first_difference(run['stdout'], row['stdout'])}")
    for part in row.get("stderr_contains", []):
        if part not in run["stderr"]:
            faults.append(f"stderr lacks {part!r}: {run['stderr']!r}")
    if run["exit"] != 0 and not _is_json_error(run["stderr"]):
        faults.append(f"stderr is not one JSON error: {run['stderr']!r}")
    if "csv" in row and run.get("csv") != row["csv"]:
        faults.append(f"csv: {_first_difference(run.get('csv'), row['csv'])}")
    return faults


@contextlib.contextmanager
def inputs_dir():
    """A fresh directory holding ``INPUTS``, made the current directory."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(here)


def record(corpus: dict[str, dict]) -> dict[str, dict]:
    """Each row of ``corpus`` re-run in-process: its exit, stdout and csv
    as they are now, its stderr_contains as written."""
    recorded = {}
    with inputs_dir():
        for row, old in corpus.items():
            run = run_row(row)
            new = {"exit": run["exit"], "stdout": run["stdout"]}
            if "stderr_contains" in old:
                new["stderr_contains"] = old["stderr_contains"]
            if csv_path(row) is not None:
                new["csv"] = run["csv"]
            faults = compare(new, run)
            if faults:
                raise SystemExit(f"{row}: {'; '.join(faults)}")
            recorded[row] = new
    return recorded


def check(corpus: dict[str, dict], script: str) -> int:
    """Run every row through ``script``; print each fault and return the
    number of rows that differ."""
    failed = 0
    with inputs_dir():
        for row, want in corpus.items():
            faults = compare(want, run_script(row, script))
            failed += bool(faults)
            for fault in faults:
                print(f"FAIL ctxkit {row}: {fault}")
    print(f"{len(corpus) - failed} of {len(corpus)} rows match through {script}")
    return failed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="run every row through the installed ctxkit script instead")
    args = parser.parse_args()
    if args.check:
        script = shutil.which("ctxkit")
        if script is None:
            sys.exit("no ctxkit console script on PATH: install the package first")
        sys.exit(1 if check(load(), script) else 0)
    corpus = record(load())
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"{len(corpus)} rows -> {CORPUS}")

"""Record the seeded-stdout corpus ``cli_golden.json``:

    PYTHONPATH=src python tests/record_cli_golden.py

Each row is one ``ctxkit`` command line, run in-process through
``cli.main`` from a directory that holds only the two input files below,
so the paths the report echoes are the same on every machine.  The corpus
maps each command line (its arguments joined by spaces) to the exit code
and the exact stdout.  ``test_cli_golden.py`` re-runs the rows and
compares them byte for byte; re-record only for a change that is meant to
move seeded output, and say so in CHANGES.md.

The rows: every command line of the benchmark's three workloads at their
tiny sizes (``perfbench/workloads.py``), at seeds 1 and 2, each listed
once; ``calibrate`` at seeds 0 to 7 and 2^64 - 1; ``colorability``; one
bad input (exit 2) and one resource cap (exit 3).  Commands whose stdout
depends on the BLAS thread count (``maxval`` from 512 dimensions up, a
``quantum`` value on a dense random state from 128) are left out.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

from ctxkit.cli import main
from ctxkit.inequalities import catalog_get, expr_to_json

CORPUS = Path(__file__).with_name("cli_golden.json")

# Relative input names, written into the directory the rows run from.
INPUTS = {
    "ineq4.json": expr_to_json(catalog_get("ineq4")),
    "subs.json": {"P16": -1, "P26": -1, "P36": -1},
}


def _seeded(seed: int) -> list[str]:
    s = str(seed)
    return [
        f"simulate --inequality ineq1 --state maximally_mixed --shots 50 --seed {s}",
        f"simulate --inequality ineq4 --state singlet --shots 50 --seed {s}",
        f"simulate --inequality cfrh6 --state maximally_mixed --shots 50 --seed {s}",
        f"simulate --inequality ineq9 --n 5 --state ghz --shots 50 --seed {s}",
        f"sweep --inequality ineq1 --states 5 --seed {s}",
        f"sweep --inequality ineq4 --states 5 --seed {s}",
        f"sweep --inequality ineq9 --n 5 --states 5 --seed {s}",
    ]


ROWS = (
    _seeded(1)
    + _seeded(2)
    + [
        "certify --inequality ineq1",
        "certify --inequality ineq4",
        "quantum --inequality cfrh6 --state singlet",
        "maxval --inequality mermin11 --n 3",
        "certify --inequality ineq9 --n 5",
        "bound --inequality ineq1",
        "bound --inequality ineq9 --n 5",
        "bound --inequality ineq9 --n 7",
        "bound --inequality mermin11 --n 5",
        "specialize --inequality ineq4.json --subs subs.json",
        "colorability",
    ]
    + [f"calibrate --seed {seed}" for seed in (*range(8), 2**64 - 1)]
    + [
        "bound --inequality ineq1 --n 3",  # exit 2: the 18-ray set takes no n
        "bound --inequality ineq9 --n 15",  # exit 3: past the star's qubit cap
    ]
)


def write_inputs(directory: Path) -> None:
    for name, content in INPUTS.items():
        (directory / name).write_text(json.dumps(content), encoding="utf-8")


def run_row(row: str) -> dict:
    """Exit code and stdout of one row, run in the current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(row.split())
    return {"exit": code, "stdout": out.getvalue()}


def record(directory: Path) -> dict[str, dict]:
    write_inputs(directory)
    here = os.getcwd()
    os.chdir(directory)
    try:
        return {row: run_row(row) for row in ROWS}
    finally:
        os.chdir(here)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus = record(Path(tmp))
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"{len(corpus)} rows -> {CORPUS}\n")

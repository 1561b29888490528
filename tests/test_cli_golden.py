"""Seeded stdout is byte-identical: every row of ``cli_golden.json`` (see
``record_cli_golden.py`` for the rows and how to re-record them) prints
exactly its recorded stdout and exits with its recorded code.

Rows whose stdout depends on the BLAS thread count are not in the corpus
(``maxval`` from 512 dimensions up, ``quantum`` on a dense random state
from 128); CI runs this file once more with one BLAS thread, so a row
that does depend on it fails there.
"""

import json

import pytest
from record_cli_golden import CORPUS, ROWS, run_row, write_inputs

GOLDEN = json.loads(CORPUS.read_text(encoding="utf-8"))


def test_corpus_holds_every_row():
    assert list(GOLDEN) == list(ROWS)
    assert {row["exit"] for row in GOLDEN.values()} == {0, 2, 3}


@pytest.fixture(scope="module")
def inputs_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_golden")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("row", ROWS)
def test_row_is_byte_identical(row, inputs_dir, monkeypatch):
    monkeypatch.chdir(inputs_dir)
    assert run_row(row) == GOLDEN[row]

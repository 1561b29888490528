"""Tests of the benchmark itself, on tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def bench_root(tmp_path, monkeypatch):
    """Run children from a scratch directory against the repo's sources."""
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    monkeypatch.setattr(run, "SRC", os.path.join(REPO, "src"))
    return tmp_path


def _declared_names(section: str) -> set[str]:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[section]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_the_declared_metrics(bench_root, workload):
    record = run.run(workload, seed=7, seconds=0, trace=True, tiny=True)
    assert record["failures"] == []
    assert record["attempted"] == run.MIN_PASSES * len(record["commands"])
    untraced = run.result_line(dict(record, trace=False))
    traced = run.result_line(record)
    assert untraced["correct"] and traced["correct"]
    assert set(untraced["metrics"]) == _declared_names("end_to_end")
    assert set(traced["metrics"]) == _declared_names("per_layer")
    assert all(m["value"] > 0 for m in untraced["metrics"].values())


def test_traced_counts_are_exact(bench_root):
    argv = ["cli", "simulate", "--inequality", "ineq1", "--state", "maximally_mixed",
            "--shots", "10", "--seed", "3"]
    plain = run.spawn(argv, False, time.monotonic() + 60, str(bench_root))
    traced, again = (run.spawn(argv, True, time.monotonic() + 60, str(bench_root))
                     for _ in range(2))
    assert traced.code == 0 and traced.stdout == plain.stdout == again.stdout
    calls = {name: f["calls"] for name, f in traced.meta["functions"].items()}
    assert calls == {name: f["calls"] for name, f in again.meta["functions"].items()}
    # 9 contexts x 10 shots, one substream per shot: a binding site the
    # tracer missed would lower this.
    assert calls["runtime.substream"] == 90
    assert calls["simulate.estimate_term"] == 9
    assert calls["cli.main"] == 1


def test_wrong_reference_value_fails_commands(bench_root, monkeypatch):
    monkeypatch.setitem(workloads.EXPECTED, ("bound", "ineq1"), 8)
    record = run.run("enumeration", seed=7, seconds=0, trace=False, tiny=True)
    assert record["failed"] == run.MIN_PASSES  # ineq1's bound, in every pass
    assert record["ops_failed_frac"] > 0
    assert not run.result_line(record)["correct"]


def test_refuses_to_run_without_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "protocol",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""

"""ctxkit benchmark.  Run from the repository root:

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 10 --trace 0

A run drives ctxkit the way users do: one fresh process per command, one
command at a time.  It repeats the workload's command list (see
workloads.py) in passes until ``--seconds`` have passed, and always runs
at least two full passes, so every command's stdout is compared between
runs with the same seed.
Every output is checked; a command fails when it exits non-zero, its
output fails the check, or its stdout differs from the first pass.

With ``--trace 0`` every pass is untraced and the result carries the
end-to-end metrics, each a median over passes.  With ``--trace 1`` passes
alternate untraced and traced (child.py wraps each ctxkit module's public
functions) and the result carries the per-layer metrics, from the traced
passes, plus the tracing overhead.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is
the full record: environment, per-command argv and times, failures, and
every traced function.  Exit code 2 means the benchmark could not run,
for example outside a ctxkit checkout; no result is printed then.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_DIR = ".perfbench_work"
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
# Every run stops starting commands so that it ends well inside 180 s.
RUN_CAP_S = 150.0
# Two full passes compare stdout for the same seed.  After them an
# untraced run may stop mid-pass, so every run lasts about ``--seconds``.
MIN_PASSES = 2

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}

# Per-layer metrics: "<module>.<function>.<calls|s|self_s>" from the
# traced functions, plus the computed counters and the tracing overhead.
LAYER_FUNCTION_METRICS = (
    "runtime.substream.calls",
    "runtime.substream.s",
    "simulate.estimate_term.calls",
    "simulate.estimate_term.s",
    "simulate.estimate_term.self_s",
    "simulate.marginal_consistency.s",
    "observables.build_set.calls",
    "observables.build_set.s",
    "observables.build_set.self_s",
    "linalg.commutes.calls",
    "linalg.commutes.s",
    "inequalities.catalog_get.s",
    "inequalities.load_expr.s",
    "inequalities.specialize.s",
    "solver.classical_bound.calls",
    "solver.classical_bound.s",
    "quantum.bell_operator.calls",
    "quantum.bell_operator.s",
    "quantum.bell_operator.self_s",
    "quantum.certify_state_independence.s",
    "quantum.max_quantum_value.self_s",
    "quantum.evaluate_inequality.calls",
    "quantum.evaluate_inequality.s",
    "quantum.evaluate_inequality.self_s",
    "quantum.haar_sweep.s",
    "states.haar_random.calls",
    "states.haar_random.s",
    "parity.ks_colorable.s",
    "parity.parity_stats.s",
    "calibration.incidence_automorphisms.s",
    "calibration.product_state_ascent.calls",
    "calibration.product_state_ascent.s",
    "cli.main.s",
    "cli.main.self_s",
)
LAYER_COUNTER_METRICS = {"observables.operator_bytes": "B", "solver.assignments": "count"}


def layer_units() -> dict[str, str]:
    units = {m: "count" if m.endswith(".calls") else "s" for m in LAYER_FUNCTION_METRICS}
    units.update(LAYER_COUNTER_METRICS)
    units["trace.overhead_s"] = "s"
    return units


@dataclass
class Proc:
    """One finished command process."""

    argv: list[str]
    wall_s: float
    setup_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str
    meta: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # Measure ctxkit's default worker policy; the tracer also assumes one thread.
    env.pop("CTXKIT_THREADS", None)
    return env


def spawn(argv: list[str], traced: bool, deadline: float, scratch: str) -> Proc:
    """Run child.py once and measure it from outside.

    Wall time runs from just before spawn to the reaped exit; peak RSS is
    the child's ru_maxrss.  A child still running at ``deadline`` is
    killed and counts as failed.  The child's stdout, stderr and meta
    file go to the directory ``scratch``.
    """
    meta_path, out_path, err_path = (os.path.join(scratch, f) for f in ("meta.json", "out", "err"))
    if os.path.exists(meta_path):
        os.remove(meta_path)
    full = [sys.executable, CHILD, meta_path, "1" if traced else "0", *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(full, stdout=out, stderr=err, env=_child_env(), cwd=ROOT)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    meta = {}
    if os.path.exists(meta_path):
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Proc(
        argv=argv,
        wall_s=end - start,
        # A child that died before ctxkit was imported spent all its time in set-up.
        setup_s=meta.get("ready", end) - start,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=stdout,
        stderr=stderr,
        meta=meta,
    )


def _check(cmd, proc: Proc, reference: str | None) -> list[str]:
    if proc.code != 0:
        return [f"exit code {proc.code}: {proc.stderr.strip()[-300:]}"]
    if reference is not None and proc.stdout != reference:
        first, now = reference.splitlines(), proc.stdout.splitlines()
        line = next((k for k, (a, b) in enumerate(zip(first, now)) if a != b),
                    min(len(first), len(now)))
        return [f"stdout differs from the first pass with the same seed at line {line + 1}: "
                f"{first[line:line + 1]} != {now[line:line + 1]}"]
    try:
        return cmd.check(json.loads(proc.stdout))
    except Exception as exc:  # a malformed report is a failed command, not a crash
        return [f"output not checkable: {type(exc).__name__}: {exc}"]


def run_pass(cmds, traced: bool, reference: list[str] | None, deadline: float, scratch: str,
             out_of_time=None) -> list[Proc]:
    """Run the command list once, in order.  When ``out_of_time(i)`` is
    true before command i, the pass ends there."""
    procs = []
    for i, cmd in enumerate(cmds):
        if out_of_time is not None and out_of_time(i):
            break
        proc = spawn(list(cmd.argv), traced, deadline, scratch)
        proc.problems = _check(cmd, proc, reference[i] if reference else None)
        procs.append(proc)
    return procs


def _samples(passes: list[list[Proc]], i: int, attr: str) -> list[float]:
    """Command i's values over the passes that reached it (the last pass may stop early)."""
    return [getattr(procs[i], attr) for procs in passes if i < len(procs)]


def _median_per_command(passes: list[list[Proc]], attr: str) -> list[float]:
    return [statistics.median(_samples(passes, i, attr)) for i in range(len(passes[0]))]


def end_to_end(cmds, passes: list[list[Proc]]) -> dict[str, float]:
    """Each metric over the workload's commands, from per-command medians."""
    walls = _median_per_command(passes, "wall_s")
    setups = _median_per_command(passes, "setup_s")
    work = sum(c.work for c in cmds)
    work_wall = sum(w for c, w in zip(cmds, walls) if c.work)
    return {
        "wall_s": sum(walls),
        "setup_s": sum(setups),
        "peak_rss_mb": max(p.rss_mb for procs in passes for p in procs),
        "work_per_s": work / work_wall,
    }


def _layer_totals(procs: list[Proc]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for proc in procs:
        for name, stats in proc.meta.get("functions", {}).items():
            for key, value in stats.items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
        for name, value in proc.meta.get("counters", {}).items():
            totals[name] = totals.get(name, 0) + value
    return totals


def _is_count(name: str) -> bool:
    return name.endswith(".calls") or name in LAYER_COUNTER_METRICS


def per_layer(traced_passes: list[list[Proc]], wall_overhead_s: float) -> tuple[dict, dict, bool]:
    """Selected layer metrics, the full table, and whether every count
    repeated exactly across traced passes.  Counts come from the first
    traced pass, times are medians over traced passes."""
    totals = [_layer_totals(procs) for procs in traced_passes]
    names = sorted(set().union(*totals))
    table = {
        name: totals[0].get(name, 0) if _is_count(name)
        else statistics.median(t.get(name, 0) for t in totals)
        for name in names
    }
    counts_repeat = all(t.get(n, 0) == table[n] for t in totals for n in names if _is_count(n))
    selected = (*LAYER_FUNCTION_METRICS, *LAYER_COUNTER_METRICS)
    metrics = {name: table.get(name, 0) for name in selected}
    metrics["trace.overhead_s"] = wall_overhead_s
    return metrics, table, counts_repeat


def _blas_threads() -> int | None:
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                            if k in os.environ},
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one workload and return the full record (see ``result_line``)."""
    import workloads
    from ctxkit.inequalities import catalog_get, expr_to_json

    started = time.monotonic()
    deadline = started + RUN_CAP_S
    program_seed = seed % 2**64
    work = os.path.join(ROOT, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    # Each run keeps its process files apart, so runs sharing a checkout
    # cannot read each other's output.  The inputs are the same for every
    # run and are replaced atomically.
    scratch = tempfile.mkdtemp(prefix="run-", dir=work)
    try:
        inputs = {workloads.SUBS_FILE: workloads.SUBS,
                  workloads.INEQ4_FILE: expr_to_json(catalog_get("ineq4"))}
        for name, content in inputs.items():
            with open(os.path.join(scratch, name), "w", encoding="utf-8") as fh:
                json.dump(content, fh)
            os.replace(os.path.join(scratch, name), os.path.join(work, name))
        cmds = workloads.commands(workload, program_seed, WORK_DIR, tiny=tiny)
        # Untimed warm-up: writes bytecode caches and pulls the interpreter,
        # numpy and ctxkit into the page cache, which users have warm.
        spawn(["cli", "--version"], False, deadline, scratch)

        plain, traced, reference = [], [], None

        def out_of_time(next_s: float) -> bool:
            """Whether the run has had its seconds, or ``next_s`` more would pass the deadline."""
            now = time.monotonic()
            return now - started >= seconds or now + next_s > deadline

        while True:
            trace_this = trace and len(plain) > len(traced)
            # Untraced runs may stop mid-pass once MIN_PASSES full passes
            # exist; traced runs keep whole passes so layer totals add up.
            last = plain[-1] if not trace and len(plain) >= MIN_PASSES else None
            may_stop = (lambda i: out_of_time(last[i].wall_s)) if last else None
            pass_start = time.monotonic()
            procs = run_pass(cmds, trace_this, reference, deadline, scratch, may_stop)
            if procs:
                (traced if trace_this else plain).append(procs)
            reference = reference or [p.stdout for p in procs]
            if len(procs) < len(cmds) or (
                    len(plain) + len(traced) >= MIN_PASSES
                    and out_of_time(time.monotonic() - pass_start)):
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    every = [p for procs in plain + traced for p in procs]
    failed = [p for p in every if p.problems]
    e2e = end_to_end(cmds, plain)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "environment": environment(seed),
        "attempted": len(every),
        "failed": len(failed),
        "ops_failed_frac": len(failed) / len(every),
        "end_to_end": e2e,
        "work_per_s_is": workloads.WORK_METRIC[workload],
        "commands": [
            {"argv": list(c.argv), "work": c.work,
             "wall_s": _samples(plain, i, "wall_s"),
             "setup_s": _samples(plain, i, "setup_s"),
             "peak_rss_mb": max(_samples(plain, i, "rss_mb")),
             "traced_wall_s": _samples(traced, i, "wall_s")}
            for i, c in enumerate(cmds)
        ],
        "failures": [{"argv": p.argv, "problems": p.problems} for p in failed],
        "elapsed_s": time.monotonic() - started,
    }
    if trace:
        traced_e2e = end_to_end(cmds, traced)
        overhead = traced_e2e["wall_s"] - e2e["wall_s"]
        record["layers"], record["traced_functions"], record["counts_repeat"] = per_layer(
            traced, overhead)
        record["traced_wall_s"] = traced_e2e["wall_s"]
        edges: dict[str, int] = {}
        for proc in traced[-1]:
            for caller, callee, calls in proc.meta.get("edges", []):
                key = f"{caller or '<process>'} -> {callee}"
                edges[key] = edges.get(key, 0) + calls
        record["trace_edges"] = edges
    return record


def result_line(record: dict) -> dict:
    """The contract's last line: end-to-end metrics untraced, layers traced."""
    if record["trace"]:
        units = layer_units()
        values = record["layers"]
    else:
        units = END_TO_END_UNITS
        values = record["end_to_end"]
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ctxkit benchmark (run from the repo root)")
    parser.add_argument("--workload", required=True, help="protocol, operators or enumeration")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ctxkit", "cli.py")):
        print(f"no ctxkit sources under {SRC}; run from the root of a ctxkit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": record}))
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every subcommand prints one JSON report to standard output:
{"command", "version", "inputs", "results"} in that key order, plus
"timing_s" when --timing is given (off by default so seeded reports are
byte-identical across runs).  Errors, argument errors included, print
{"error": {"type", "message"}} to standard error.  Exit codes: 0 success,
2 invalid input (bad arguments too) or unknown name, 3 resource limit
exceeded (a cap or a MemoryError), 1 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import asdict

# Only what argument parsing and _resolve_inequality need is imported at
# module level, and none of it loads numpy; each handler imports the
# modules it runs, so a command loads no others: `bound` and
# `specialize` never build a set, and `certify`, `colorability` and
# `maxval` (but for its dense fallback) run on the exact Pauli layer.
from . import __version__
from .exceptions import NumericError, ResourceLimitError
from .inequalities import (
    CATALOG_IDS,
    InequalityExpr,
    catalog_get,
    expr_to_json,
    load_expr,
    read_json,
    specialize,
)


def _resolve_inequality(ineq: str, n: int | None) -> InequalityExpr:
    if ineq in CATALOG_IDS:
        return catalog_get(ineq, n)
    if os.path.exists(ineq):
        expr = load_expr(ineq)
        if n is not None and n != expr.n:
            raise ValueError(f"--n {n} conflicts with the file's n={expr.n}")
        return expr
    raise ValueError(f"unknown inequality {ineq!r} (not a catalog id or readable file)")


def _resolve_with_set(args):
    """The expression of ``--inequality``/``--n`` and its built set."""
    from .observables import build_set

    expr = _resolve_inequality(args.inequality, args.n)
    return expr, build_set(expr.set_id, expr.n)


def _resolve_state(state: str, dim: int):
    from .states import NAMED_STATES, load_state, make_state

    if state in NAMED_STATES:
        return make_state(state, dim=dim)
    if os.path.exists(state):
        return load_state(state, dim=dim)
    raise ValueError(f"unknown state {state!r} (not a named state or readable file)")


def _csv_file(path: str | None):
    """``--csv``, opened before the run, so a bad path fails before any
    work; with no path, a context that gives None."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext()


def _write_csv(fh, header: list[str], rows: list[list]) -> None:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(repr(x) if isinstance(x, float) else str(x) for x in row) + "\n")


def _cmd_bound(args) -> dict:
    from .solver import classical_bound

    return asdict(classical_bound(_resolve_inequality(args.inequality, args.n)))


def _cmd_quantum(args) -> dict:
    from .quantum import evaluate_inequality

    expr, obs = _resolve_with_set(args)
    state = _resolve_state(args.state, obs.dim)
    return {"value": evaluate_inequality(state, obs, expr)}


def _cmd_certify(args) -> dict:
    from .bell import certify_state_independence
    from .solver import classical_bound

    expr, obs = _resolve_with_set(args)
    cert = certify_state_independence(obs, expr)
    bound = classical_bound(expr).classical_bound
    return {"classical_bound": bound, **asdict(cert), "gap": cert.quantum_constant - bound}


def _cmd_maxval(args) -> dict:
    from .bell import max_quantum_value

    expr, obs = _resolve_with_set(args)
    return asdict(max_quantum_value(obs, expr))


def _cmd_colorability(args) -> dict:
    from .observables import build_set
    from .parity import ks_colorable, parity_stats

    obs = build_set("ks18")
    return {**asdict(ks_colorable(obs)), **asdict(parity_stats(obs))}


def _cmd_simulate(args) -> dict:
    from .simulate import run_protocol

    expr, obs = _resolve_with_set(args)
    state = _resolve_state(args.state, obs.dim)
    with _csv_file(args.csv) as fh:
        report = run_protocol(state, obs, expr, args.shots, args.seed)
        if fh:
            _write_csv(
                fh,
                ["term_index", "estimate", "stderr", "shots"],
                [
                    [i, t.estimate, t.stderr, report.shots_per_term]
                    for i, t in enumerate(report.terms)
                ],
            )
    results = asdict(report)
    return {"inequality": results.pop("inequality"), "state": args.state, **results}


def _cmd_sweep(args) -> dict:
    from .quantum import haar_sweep

    expr, obs = _resolve_with_set(args)
    with _csv_file(args.csv) as fh:
        values = haar_sweep(obs, expr, args.states, args.seed)
        if fh:
            _write_csv(
                fh,
                ["state_index", "value"],
                [[i, float(v)] for i, v in enumerate(values)],
            )
    return {
        "count": int(values.size),
        "seed": args.seed,
        "min": float(values.min()),
        "max": float(values.max()),
        "mean": float(values.mean()),
    }


def _cmd_specialize(args) -> dict:
    from .solver import classical_bound

    expr = _resolve_inequality(args.inequality, args.n)
    raw = read_json(args.subs)
    if not isinstance(raw, dict):
        raise ValueError("substitution file must hold a JSON object of label: +-1")
    specialized, dropped = specialize(expr, raw, f"substitution file {args.subs}")
    return {
        "expression": expr_to_json(specialized),
        "dropped_constant": dropped,
        **asdict(classical_bound(specialized)),
    }


def _cmd_calibrate(args) -> dict:
    from .calibration import kcbs_calibration

    results = asdict(kcbs_calibration(seed=args.seed))
    # The per-relabeling values and the product ket stay in the library.
    del results["paper_state_values"], results["best_product_state"]
    return results


class _Parser(argparse.ArgumentParser):
    """Bad arguments are bad input like any other: the JSON error, exit 2.

    ``exit_on_error=False`` would not cover missing or unrecognized
    arguments on Python 3.10 and 3.11, so ``error`` itself raises, to be
    reported by ``main``.  ``--help`` and ``--version`` exit as usual.
    """

    def error(self, message: str):
        raise argparse.ArgumentError(None, message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ctxkit",
        description="Noncontextuality inequalities: bounds, certificates, simulation.",
    )
    parser.add_argument("--version", action="version", version=f"ctxkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--timing", action="store_true", help="include wall time in the report")
        return p

    def add_ineq(p: argparse.ArgumentParser) -> None:
        p.add_argument("--inequality", required=True, help="catalog id or JSON file path")
        p.add_argument("--n", type=int, default=None, help="qubit count for the star family")

    p = add("bound", _cmd_bound, "exact noncontextual bound by exhaustive search")
    add_ineq(p)

    p = add("quantum", _cmd_quantum, "evaluate the inequality in a state")
    add_ineq(p)
    p.add_argument("--state", required=True, help="named state or JSON file path")

    p = add("certify", _cmd_certify, "state-independence certificate plus classical bound")
    add_ineq(p)

    p = add("maxval", _cmd_maxval, "largest eigenvalue of the Bell operator")
    add_ineq(p)

    add("colorability", _cmd_colorability, "coloring search and parity stats for the 18-ray set")

    p = add("simulate", _cmd_simulate, "sequential-measurement protocol estimate")
    add_ineq(p)
    p.add_argument("--state", required=True, help="named state or JSON file path")
    p.add_argument("--shots", type=int, required=True, help="shots per term")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", default=None, help="also write a per-term CSV table")

    p = add("sweep", _cmd_sweep, "evaluate over seeded Haar-random states")
    add_ineq(p)
    p.add_argument("--states", type=int, required=True, help="number of Haar states")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", default=None, help="also write a per-state CSV table")

    p = add("specialize", _cmd_specialize, "substitute +-1 values and recompute the bound")
    add_ineq(p)
    p.add_argument("--subs", required=True, help="JSON file mapping labels to +1/-1")

    p = add("calibrate", _cmd_calibrate, "pentagon relabeling sweep and product-state search")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _inputs_echo(args) -> dict:
    skip = {"command", "handler", "timing"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        _print_error(exc)
        return 2
    started = time.perf_counter()
    try:
        results = args.handler(args)
    except (ResourceLimitError, MemoryError) as exc:
        _print_error(exc)
        return 3
    except NumericError as exc:
        _print_error(exc)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        _print_error(exc)
        return 2
    report = {
        "command": args.command,
        "version": __version__,
        "inputs": _inputs_echo(args),
        "results": results,
    }
    if args.timing:
        report["timing_s"] = time.perf_counter() - started
    print(json.dumps(report, indent=2))
    return 0


def _print_error(exc: Exception) -> None:
    # str() would quote a KeyError's message; an OSError's str() names the
    # error and the path, where its first argument is the errno.
    message = str(exc.args[0]) if isinstance(exc, KeyError) and exc.args else str(exc)
    payload = {"error": {"type": type(exc).__name__, "message": message}}
    print(json.dumps(payload), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())

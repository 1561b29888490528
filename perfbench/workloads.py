"""The benchmark's workloads: the commands each one runs, the reference
values their outputs are checked against, and the work each one counts.

Every check holds for any seed.  Reference values come from the paper
(Cabello, arXiv:0808.2456) and are exact; statistical checks allow five
standard errors.  ``EXPECTED`` is read when a check runs, not when the
command list is built, so a test can plant a wrong value.

Work units (the numerator of ``work_per_s``) are counted here from the
expressions themselves, never from the program's reported counters:

* ``protocol``: measurement shots, shots x terms per ``simulate`` plus
  2 x shots for the marginal check,
* ``operators``: Haar states evaluated by ``sweep``,
* ``enumeration``: 2^(distinct labels) per ``bound`` and ``specialize``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ctxkit.inequalities import InequalityExpr, catalog_get, expr_from_json
from ctxkit.solver import evaluate_assignment

WORKLOADS = ("protocol", "operators", "enumeration")

# The name work_per_s stands for on each workload.
WORK_METRIC = {
    "protocol": "shots_per_s",
    "operators": "states_per_s",
    "enumeration": "assignments_per_s",
}

EXPECTED = {
    # exact noncontextual bounds
    ("bound", "ineq1"): 7,
    ("bound", "ineq4"): 4,
    ("bound", "ineq9"): 3,
    ("bound", "mermin11"): 2,
    ("bound", "ineq4_specialized"): 3,
    # Bell operator = constant x identity
    ("constant", "ineq1"): 9,
    ("constant", "ineq4"): 6,
    ("constant", "ineq9"): 5,
    # protocol estimates on the states the workload uses
    ("protocol", "ineq1"): 9,
    ("protocol", "ineq4"): 6,
    ("protocol", "ineq9"): 5,
    ("protocol", "cfrh6"): 2,
    ("quantum", "cfrh6"): 5,
    ("maxval", "mermin11"): 4,
    ("calibrate", "automorphisms"): 72,
    ("calibrate", "pentagons"): 36,
}
EXACT_TOL = 1e-9
EIGEN_TOL = 1e-6
Z_MAX = 5.0

# Inputs the benchmark writes into its work directory before a run.
SUBS = {"P16": -1, "P26": -1, "P36": -1}
SUBS_FILE = "subs.json"
INEQ4_FILE = "ineq4.json"


@dataclass(frozen=True)
class Command:
    """One process of a workload.

    ``argv`` goes to child.py: ("cli", <ctxkit arguments>) or
    ("marginal", label, shots, seed).  ``check`` maps the parsed stdout to
    a list of problems (empty when correct).  ``work`` is the number of
    work units the command performs; 0 leaves its wall time out of
    ``work_per_s``.
    """

    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]
    work: int = 0


def _problems(*checks: tuple[str, bool]) -> list[str]:
    return [what for what, ok in checks if not ok]


def _labels(expr: InequalityExpr) -> set[str]:
    return {f for t in expr.terms for f in t.factors}


def _ineq_args(ineq: str, n: int | None) -> tuple[str, ...]:
    return ("--inequality", ineq) + (("--n", str(n)) if n is not None else ())


def _bound_problems(res: dict, expr: InequalityExpr, want: int) -> list[str]:
    witness = res["witness"]
    return _problems(
        (f"bound {res['classical_bound']} != {want}", res["classical_bound"] == want),
        ("witness labels differ from the expression's", set(witness) == _labels(expr)),
        ("witness values are not +-1", set(witness.values()) <= {-1, 1}),
        ("witness does not attain the bound", evaluate_assignment(expr, witness) == want),
    )


def _bound(ineq: str, n: int | None = None) -> Command:
    expr = catalog_get(ineq, n)

    def check(out: dict) -> list[str]:
        return _bound_problems(out["results"], expr, EXPECTED["bound", ineq])

    return Command(("cli", "bound") + _ineq_args(ineq, n), check, work=2 ** len(_labels(expr)))


def _specialize(work_dir: str) -> Command:
    expr = catalog_get("ineq4")
    kept = _labels(expr) - set(SUBS)

    def check(out: dict) -> list[str]:
        res = out["results"]
        specialized = expr_from_json(res["expression"])
        return _problems(
            ("specialized labels are not ineq4's minus the substituted ones",
             _labels(specialized) == kept),
        ) + _bound_problems(res, specialized, EXPECTED["bound", "ineq4_specialized"])

    argv = ("cli", "specialize", "--inequality", f"{work_dir}/{INEQ4_FILE}",
            "--subs", f"{work_dir}/{SUBS_FILE}")
    return Command(argv, check, work=2 ** len(kept))


def _simulate(ineq: str, state: str, shots: int, seed: int, n: int | None = None) -> Command:
    expr = catalog_get(ineq, n)

    def check(out: dict) -> list[str]:
        res = out["results"]
        want = EXPECTED["protocol", ineq]
        tol = max(Z_MAX * res["lhs_stderr"], EXACT_TOL)
        return _problems(
            (f"lhs {res['lhs_estimate']} is not within {tol} of {want}",
             abs(res["lhs_estimate"] - want) <= tol),
            ("one estimate per term", len(res["terms"]) == len(expr.terms)),
            ("shots per term echoed", res["shots_per_term"] == shots),
        )

    argv = ("cli", "simulate") + _ineq_args(ineq, n) + (
        "--state", state, "--shots", str(shots), "--seed", str(seed))
    return Command(argv, check, work=shots * len(expr.terms))


def _marginal(shots: int, seed: int) -> Command:
    def check(out: dict) -> list[str]:
        return _problems(
            (f"|z| = {abs(out['z_statistic'])} > {Z_MAX}", abs(out["z_statistic"]) <= Z_MAX),
            ("frequencies outside [0, 1]",
             0 <= out["freq_plus_first"] <= 1 and 0 <= out["freq_plus_second"] <= 1),
            ("shots echoed", out["shots"] == shots),
        )

    return Command(("marginal", "A12", str(shots), str(seed)), check, work=2 * shots)


def _sweep(ineq: str, states: int, seed: int, n: int | None = None) -> Command:
    def check(out: dict) -> list[str]:
        res = out["results"]
        want = EXPECTED["constant", ineq]
        return _problems(
            ("state count", res["count"] == states),
            *((f"{key} {res[key]} != {want}", abs(res[key] - want) <= EXACT_TOL)
              for key in ("min", "max", "mean")),
        )

    argv = ("cli", "sweep") + _ineq_args(ineq, n) + ("--states", str(states), "--seed", str(seed))
    return Command(argv, check, work=states)


def _certify(ineq: str, n: int | None = None) -> Command:
    def check(out: dict) -> list[str]:
        res = out["results"]
        want, bound = EXPECTED["constant", ineq], EXPECTED["bound", ineq]
        return _problems(
            ("not certified state independent", res["state_independent"] is True),
            (f"constant {res['quantum_constant']} != {want}",
             abs(res["quantum_constant"] - want) <= EXACT_TOL),
            (f"residual {res['residual']} > {EXACT_TOL}", res["residual"] <= EXACT_TOL),
            (f"bound {res['classical_bound']} != {bound}", res["classical_bound"] == bound),
            ("gap is not constant - bound", abs(res["gap"] - (want - bound)) <= EXACT_TOL),
        )

    return Command(("cli", "certify") + _ineq_args(ineq, n), check)


def _value(command: str, ineq: str, key: str, extra: tuple[str, ...],
           n: int | None = None) -> Command:
    def check(out: dict) -> list[str]:
        want = EXPECTED[command, ineq]
        got = out["results"][key]
        return _problems((f"{key} {got} != {want}", abs(got - want) <= EIGEN_TOL))

    return Command(("cli", command) + _ineq_args(ineq, n) + extra, check)


def _colorability() -> Command:
    def check(out: dict) -> list[str]:
        res = out["results"]
        return _problems(
            ("18-ray set reported colorable", res["satisfiable"] is False),
            ("no parity contradiction", res["parity_contradiction"] is True),
        )

    return Command(("cli", "colorability"), check)


def _calibrate(seed: int) -> Command:
    def check(out: dict) -> list[str]:
        res = out["results"]
        autos, pents = EXPECTED["calibrate", "automorphisms"], EXPECTED["calibrate", "pentagons"]
        return _problems(
            (f"{res['automorphism_count']} automorphisms != {autos}",
             res["automorphism_count"] == autos),
            (f"{res['pentagon_count']} pentagons != {pents}", res["pentagon_count"] == pents),
            ("no product-state violation", res["qualitative_violation"] is True),
        )

    return Command(("cli", "calibrate", "--seed", str(seed)), check)


def commands(workload: str, seed: int, work_dir: str, tiny: bool = False) -> list[Command]:
    """The workload's command list for one pass.

    ``seed`` is every command's --seed.  ``tiny`` shrinks shots, states and
    star sizes so the benchmark's own tests run in seconds; the benchmark
    proper always runs the full sizes.
    """
    if workload == "protocol":
        shots = 50 if tiny else 10000
        return [
            _simulate("ineq1", "maximally_mixed", shots, seed),
            _simulate("ineq4", "singlet", shots, seed),
            _simulate("cfrh6", "maximally_mixed", shots, seed),
            _simulate("ineq9", "ghz", 50 if tiny else 4000, seed, n=5),
            _marginal(shots, seed),
        ]
    if workload == "operators":
        states = 5 if tiny else 1000
        return [
            _sweep("ineq1", states, seed),
            _sweep("ineq4", states, seed),
            _sweep("ineq9", states, seed, n=5),
            _certify("ineq1"),
            _certify("ineq4"),
            _value("quantum", "cfrh6", "value", ("--state", "singlet")),
            _value("maxval", "mermin11", "max_quantum_value", (), n=3 if tiny else 7),
            _certify("ineq9", n=5 if tiny else 9),
        ]
    if workload == "enumeration":
        return [
            _bound("ineq1"),
            _bound("ineq9", n=5 if tiny else 9),
            _bound("ineq9", n=7 if tiny else 11),
            _bound("mermin11", n=5 if tiny else 11),
            _specialize(work_dir),
            _colorability(),
            _calibrate(seed),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

"""State-independent contextuality toolkit.

Builds the 18-ray, Peres-Mermin, and star observable families, the eight
catalog inequalities over them, exact noncontextual bounds by exhaustive
search, operator-level state-independence certificates, coloring/parity
contradiction checks, and a sequential-measurement Monte Carlo simulator.

``import ctxkit`` loads no submodule: each public name is resolved from
its module on first use (``__getattr__``, PEP 562), so a process loads
only the modules it runs.  ``from ctxkit import *`` still binds every
name of ``__all__``.
"""

from importlib import import_module

# The module that defines each public name: the one list of them, which
# ``__all__`` holds sorted.
_EXPORTS = {
    "bell": (
        "Certificate", "QuantumMaximum", "certify_state_independence", "max_quantum_value",
    ),
    "calibration": (
        "CalibrationReport", "incidence_automorphisms", "kcbs_calibration", "relabel_expr",
    ),
    "exceptions": (
        "IncompatibleContextError", "NumericError", "ResourceLimitError",
        "UnknownInequalityError", "UnknownLabelError",
    ),
    "inequalities": (
        "CATALOG_IDS", "InequalityExpr", "Term", "absorb_sign_flip", "catalog_get",
        "expr_from_json", "expr_to_json", "load_expr", "specialize",
    ),
    "linalg": ("as_ket",),
    "observables": (
        "ObservableSet", "build_ks18", "build_mermin_star", "build_peres_mermin", "build_set",
        "compatible", "context_product",
    ),
    "parity": ("ColorabilityResult", "ParityStats", "ks_colorable", "parity_stats"),
    "quantum": ("bell_operator", "evaluate_inequality", "haar_sweep"),
    "runtime": ("substream",),
    "simulate": (
        "EstimateReport", "MarginalReport", "MeasurementRecord", "TermEstimate",
        "estimate_term", "marginal_consistency", "run_protocol", "sequential_measure",
    ),
    "solver": ("BoundResult", "classical_bound", "evaluate_assignment"),
    "states": (
        "NAMED_STATES", "ghz", "haar_random", "make_state", "maximally_mixed",
        "paper_kcbs_product", "singlet", "y_plus_pair", "zero_product",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Read from the module on every access, not cached here, so a name
    # rebound in its module (a test's monkeypatch, a tracer) is seen.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

"""State-independent contextuality toolkit.

Builds the 18-ray, Peres-Mermin, and star observable families, the eight
catalog inequalities over them, exact noncontextual bounds by exhaustive
search, operator-level state-independence certificates, coloring/parity
contradiction checks, and a sequential-measurement Monte Carlo simulator.
"""

from .calibration import (
    CalibrationReport,
    incidence_automorphisms,
    kcbs_calibration,
    relabel_expr,
)
from .exceptions import (
    IncompatibleContextError,
    NumericError,
    ResourceLimitError,
    UnknownInequalityError,
    UnknownLabelError,
)
from .inequalities import (
    CATALOG_IDS,
    InequalityExpr,
    Term,
    absorb_sign_flip,
    catalog_get,
    expr_from_json,
    expr_to_json,
    load_expr,
    specialize,
)
from .linalg import as_ket
from .observables import (
    ObservableSet,
    build_ks18,
    build_mermin_star,
    build_peres_mermin,
    build_set,
    compatible,
)
from .parity import ColorabilityResult, ParityStats, ks_colorable, parity_stats
from .quantum import (
    Certificate,
    bell_operator,
    certify_state_independence,
    context_product,
    evaluate_inequality,
    haar_sweep,
    max_quantum_value,
)
from .runtime import substream
from .simulate import (
    EstimateReport,
    MarginalReport,
    MeasurementRecord,
    TermEstimate,
    estimate_term,
    marginal_consistency,
    run_protocol,
    sequential_measure,
)
from .solver import BoundResult, classical_bound, evaluate_assignment
from .states import (
    NAMED_STATES,
    ghz,
    haar_random,
    make_state,
    maximally_mixed,
    paper_kcbs_product,
    singlet,
    y_plus_pair,
    zero_product,
)

__version__ = "0.1.0"

__all__ = [
    "BoundResult",
    "CATALOG_IDS",
    "CalibrationReport",
    "Certificate",
    "ColorabilityResult",
    "EstimateReport",
    "IncompatibleContextError",
    "InequalityExpr",
    "MarginalReport",
    "MeasurementRecord",
    "NAMED_STATES",
    "NumericError",
    "ObservableSet",
    "ParityStats",
    "ResourceLimitError",
    "Term",
    "TermEstimate",
    "UnknownInequalityError",
    "UnknownLabelError",
    "absorb_sign_flip",
    "as_ket",
    "bell_operator",
    "build_ks18",
    "build_mermin_star",
    "build_peres_mermin",
    "build_set",
    "catalog_get",
    "certify_state_independence",
    "classical_bound",
    "compatible",
    "context_product",
    "estimate_term",
    "evaluate_assignment",
    "evaluate_inequality",
    "expr_from_json",
    "expr_to_json",
    "ghz",
    "haar_random",
    "haar_sweep",
    "incidence_automorphisms",
    "kcbs_calibration",
    "ks_colorable",
    "load_expr",
    "make_state",
    "marginal_consistency",
    "max_quantum_value",
    "maximally_mixed",
    "paper_kcbs_product",
    "parity_stats",
    "relabel_expr",
    "run_protocol",
    "sequential_measure",
    "singlet",
    "specialize",
    "substream",
    "y_plus_pair",
    "zero_product",
]

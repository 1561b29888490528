"""The three dichotomic-observable families and their compatibility structure.

Three families are built here:

* an 18-ray set in dimension 4: nine complete orthogonal bases (contexts)
  of four rays each, every ray shared by exactly two bases; the observable
  for ray v is 2|v><v| - 1, so each context's product is -1,
* the two-qubit Peres-Mermin square: nine observables P_ij arranged in
  three rows and three columns, compatible when they share a subindex,
* the n-qubit star family (n odd, 3 to 13): four collective observables
  ACAL1..ACAL4 plus single-site B_i = Z_i and C_i = X_i, grouped into
  four mixed contexts and one all-ACAL context.

Label convention for the 18-ray set: "Aij" names the ray shared by
contexts i and j (1-based, in the order of ``KS18_CONTEXTS``).

Each family is one lookup, ``_family(set_id, n)``, the one check of a
family id and its n: its unbuilt operators by label and its contexts,
which the builders, ``set_labels`` and ``set_contexts`` all read.

Every observable is stored as its exact Pauli expansion (``linalg``):
Pauli words for Peres-Mermin and the star, and multiples of 1/8 for the
integer rays.  The embedded ray table is fixed data, pinned by the
tests.  ``ObservableSet`` is the one checked structure for every family
and for a caller's own sets: it checks its own involutions, that each
context is distinct labels of the set, and context-wise commutation
exactly when it is constructed, and it freezes what it checked, so no
set with an unchecked context exists.  ``build_ks18`` also returns the
rays themselves, read-only, next to the set.  ``label_group`` is the one
check of a group of distinct labels, ``incidence`` the one map from a
label to the groups that hold it, ``ObservableSet.expansion`` the one
lookup of a label, ``compatible_expansions`` the one check that a group
of labels can be measured jointly, ``term_expansions`` the one gate from
an expression on the set to its terms' operators, and
``context_product`` the sign of a context's product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .exceptions import IncompatibleContextError, ResourceLimitError, UnknownLabelError
from .linalg import EXPANSION, IDENTITY, adjoint, combine, expand, multiply, pauli

KS18_RAYS: dict[str, tuple[int, int, int, int]] = {
    "A12": (0, 1, 0, 0),
    "A16": (1, 0, 1, 0),
    "A17": (1, 0, -1, 0),
    "A18": (0, 0, 0, 1),
    "A23": (1, 0, 0, -1),
    "A28": (0, 0, 1, 0),
    "A29": (1, 0, 0, 1),
    "A34": (1, -1, -1, 1),
    "A37": (1, 1, 1, 1),
    "A39": (0, 1, -1, 0),
    "A45": (0, 0, 1, 1),
    "A47": (1, -1, 1, -1),
    "A48": (1, 1, 0, 0),
    "A56": (1, 1, -1, 1),
    "A58": (1, -1, 0, 0),
    "A59": (1, 1, 1, -1),
    "A67": (0, 1, 0, -1),
    "A69": (-1, 1, 1, 1),
}

KS18_CONTEXTS: tuple[tuple[str, ...], ...] = (
    ("A12", "A16", "A17", "A18"),
    ("A12", "A23", "A28", "A29"),
    ("A23", "A34", "A37", "A39"),
    ("A34", "A45", "A47", "A48"),
    ("A45", "A56", "A58", "A59"),
    ("A16", "A56", "A67", "A69"),
    ("A17", "A37", "A47", "A67"),
    ("A18", "A28", "A48", "A58"),
    ("A29", "A39", "A59", "A69"),
)

PERES_MERMIN_WORDS: dict[str, str] = {
    "P14": "ZI",
    "P15": "IZ",
    "P16": "ZZ",
    "P24": "IX",
    "P25": "XI",
    "P26": "XX",
    "P34": "ZX",
    "P35": "XZ",
    "P36": "YY",
}

PERES_MERMIN_CONTEXTS: tuple[tuple[str, ...], ...] = (
    ("P14", "P15", "P16"),
    ("P24", "P25", "P26"),
    ("P34", "P35", "P36"),
    ("P14", "P24", "P34"),
    ("P15", "P25", "P35"),
    ("P16", "P26", "P36"),
)

MERMIN_STAR_MAX_QUBITS = 13


def label_tuple(labels) -> tuple[str, ...]:
    """The one rule for a sequence of labels (a measurement order, and
    every ``label_group``): a tuple of its items, each a str.  A str or
    bytes is refused rather than split into characters (ValueError)."""
    if isinstance(labels, (str, bytes)):
        raise ValueError(f"labels must be a sequence of str, not {labels!r}")
    labels = tuple(labels)
    if bad := [label for label in labels if not isinstance(label, str)]:
        raise ValueError(f"label {bad[0]!r} in {labels!r} is not a str")
    return labels


def label_group(labels, what: str) -> tuple[str, ...]:
    """The one rule for a group of distinct labels (a term's factors, a
    context, a bound-scan group): ``label_tuple``, and no label twice
    (ValueError naming ``what``)."""
    labels = label_tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"{what} {labels} repeats a label")
    return labels


def incidence(groups) -> dict[str, tuple[int, ...]]:
    """Each label, in first-seen order, mapped to the indices of the
    groups that hold it."""
    held: dict[str, list[int]] = {}
    for i, group in enumerate(groups):
        for label in group:
            held.setdefault(label, []).append(i)
    return {label: tuple(indices) for label, indices in held.items()}


@dataclass(frozen=True)
class ObservableSet:
    """A labeled family of +-1-valued observables with listed contexts.

    Each observable is a Pauli expansion on ``dim`` = 2^n dimensions.
    Two observables are jointly measurable exactly when they commute; the
    contexts enumerate the maximal groups used by the catalog's
    inequalities.  Construction checks, exactly, that every expansion
    fits the dimension, that it is an involution, that each context is
    distinct labels of the set (``label_group``; ValueError otherwise)
    and that it commutes pairwise.  The mapping, the expansions and the
    contexts (stored as a tuple of tuples) are read-only, so the checks
    stay true.
    """

    set_id: str
    dim: int
    observables: Mapping[str, np.ndarray] = field(repr=False)
    contexts: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if self.dim < 1 or self.dim & (self.dim - 1):
            raise ValueError(f"{self.set_id}: dimension {self.dim} is not a power of two")
        for label, e in self.observables.items():
            if getattr(e, "dtype", None) != EXPANSION or np.any((e["x"] | e["z"]) >= self.dim):
                raise ValueError(f"{self.set_id}: {label} is not an expansion in dim {self.dim}")
        frozen = MappingProxyType({k: combine([(1, e)]) for k, e in self.observables.items()})
        object.__setattr__(self, "observables", frozen)
        for label, e in frozen.items():
            if not (np.array_equal(adjoint(e), e) and np.array_equal(multiply(e, e), IDENTITY)):
                raise ValueError(f"{self.set_id}: {label} is not a +-1 observable")
        contexts = tuple(label_group(ctx, f"{self.set_id}: context") for ctx in self.contexts)
        object.__setattr__(self, "contexts", contexts)
        for ctx in contexts:
            if unknown := [label for label in ctx if label not in frozen]:
                raise ValueError(f"{self.set_id}: context {ctx} has unknown label {unknown[0]}")
            _check_joint(self, ctx)

    def expansion(self, label: str) -> np.ndarray:
        try:
            return self.observables[label]
        except KeyError:
            raise UnknownLabelError(
                f"unknown label {label!r}, not in set {self.set_id} (dimension {self.dim})"
            ) from None

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.observables)


def compatible(obs: ObservableSet, a: str, b: str) -> bool:
    """Whether two observables of the set are jointly measurable: their
    expansions commute exactly."""
    ea, eb = obs.expansion(a), obs.expansion(b)
    return np.array_equal(multiply(ea, eb), multiply(eb, ea))


def _check_joint(obs: ObservableSet, labels: tuple[str, ...]) -> None:
    """The one commutation rule: IncompatibleContextError naming the set,
    the labels and every pair of them, in order, that does not commute."""
    if bad := [pair for pair in combinations(labels, 2) if not compatible(obs, *pair)]:
        raise IncompatibleContextError(
            f"{obs.set_id}: labels {labels} cannot be measured jointly, "
            f"non-commuting pairs {bad}"
        )


def compatible_expansions(obs: ObservableSet, labels: tuple[str, ...]) -> list[np.ndarray]:
    """Expansions of labels that must be jointly measurable, in order.

    Labels inside one of ``obs.contexts`` need no check here, because
    constructing the set already checked that context; any other group
    goes through the commutation rule (IncompatibleContextError).
    """
    expansions = [obs.expansion(label) for label in labels]
    if not any(set(labels) <= set(ctx) for ctx in obs.contexts):
        _check_joint(obs, labels)
    return expansions


def family_name(set_id: str, n: int | None) -> str:
    """A family as messages name it: the set_id, and n when given."""
    return set_id if n is None else f"{set_id} n={n}"


def term_expansions(obs: ObservableSet, expr) -> list[list[np.ndarray]]:
    """The one gate from an expression to its operators: each term's
    ``compatible_expansions``, in order, once ``obs`` is checked to be the
    expression's own set: its ``set_id`` and, when the expression has an
    ``n``, dimension 2^n (ValueError naming both otherwise)."""
    if expr.set_id != obs.set_id or (expr.n is not None and obs.dim != 2**expr.n):
        raise ValueError(
            f"expression on set {family_name(expr.set_id, expr.n)} cannot be evaluated "
            f"on set {obs.set_id} (dimension {obs.dim})"
        )
    return [compatible_expansions(obs, term.factors) for term in expr.terms]


def context_product(obs: ObservableSet, context) -> int:
    """Sign s with product(context operators) = s*1 exactly.

    Raises ValueError when the context is not distinct labels
    (``label_group``), IncompatibleContextError for non-commuting labels
    and ValueError when the product is not proportional to the identity.
    """
    labels = label_group(context, "context")
    prod = reduce(multiply, compatible_expansions(obs, labels), IDENTITY)
    for s in (1, -1):
        if np.array_equal(prod, combine([(s, IDENTITY)])):
            return s
    raise ValueError(f"product over context {labels} is not proportional to identity")


def _family(set_id: str, n: int | None) -> tuple[Mapping, tuple[tuple[str, ...], ...]]:
    """A family's operators by label, unbuilt (``KS18_RAYS``,
    ``PERES_MERMIN_WORDS`` or the star's Pauli words), and its contexts.

    An unknown id raises UnknownLabelError; only the star takes n
    (ValueError otherwise), odd and >= 3 (ValueError) and at most
    ``MERMIN_STAR_MAX_QUBITS`` (ResourceLimitError).
    """
    if set_id in ("ks18", "peres_mermin"):
        if n is not None:
            raise ValueError(f"{set_id} does not take n")
        if set_id == "ks18":
            return KS18_RAYS, KS18_CONTEXTS
        return PERES_MERMIN_WORDS, PERES_MERMIN_CONTEXTS
    if set_id != "mermin_star":
        raise UnknownLabelError(
            f"unknown set_id {set_id!r}, not one of ks18, peres_mermin, mermin_star"
        )
    if n is None or n < 3 or n % 2 == 0:
        raise ValueError(f"star family is defined with n (odd) >= 3, got n={n}")
    if n > MERMIN_STAR_MAX_QUBITS:
        raise ResourceLimitError(
            f"star family with n={n} exceeds the {MERMIN_STAR_MAX_QUBITS}-qubit cap "
            f"(dimension 2^{n})"
        )
    words = {
        "ACAL1": "Z" * n,
        "ACAL2": "Z" + "X" * (n - 1),
        "ACAL3": "XZ" + "X" * (n - 2),
        "ACAL4": "XX" + "Z" * (n - 2),
    }
    for name, letter in (("B", "Z"), ("C", "X")):
        for i in range(1, n + 1):
            words[f"{name}{i}"] = "I" * (i - 1) + letter + "I" * (n - i)
    b_tail, c_tail = (tuple(f"{name}{i}" for i in range(3, n + 1)) for name in "BC")
    contexts = (
        ("ACAL1", "B1", "B2") + b_tail,
        ("ACAL2", "B1", "C2") + c_tail,
        ("ACAL3", "C1", "B2") + c_tail,
        ("ACAL4", "C1", "C2") + b_tail,
        ("ACAL1", "ACAL2", "ACAL3", "ACAL4"),
    )
    return words, contexts


def build_ks18() -> tuple[Mapping[str, np.ndarray], ObservableSet]:
    """The embedded 18-ray set's rays, as a read-only mapping of read-only
    integer vectors, and its observables A = 2|v><v| - 1."""
    table, contexts = _family("ks18", None)
    rays = {label: np.array(v, dtype=np.int64) for label, v in table.items()}
    for v in rays.values():
        v.flags.writeable = False
    observables = {
        label: expand(2 * np.outer(v, v) / int(v @ v) - np.eye(4)) for label, v in rays.items()
    }
    obs = ObservableSet(set_id="ks18", dim=4, observables=observables, contexts=contexts)
    return MappingProxyType(rays), obs


def _build_pauli(set_id: str, n: int | None = None) -> ObservableSet:
    """A family of Pauli words, on 2^(word length) dimensions."""
    words, contexts = _family(set_id, n)
    observables = {label: pauli(word) for label, word in words.items()}
    dim = 2 ** len(next(iter(words.values())))
    return ObservableSet(set_id=set_id, dim=dim, observables=observables, contexts=contexts)


def build_peres_mermin() -> ObservableSet:
    """The nine two-qubit square observables, rows then columns as contexts."""
    return _build_pauli("peres_mermin")


def build_mermin_star(n: int) -> ObservableSet:
    """The 4 + 2n observables of the n-qubit star family (n odd, 3 to 13).

    ACAL1 = Z...Z, ACAL2 = Z X X...X, ACAL3 = X Z X...X,
    ACAL4 = X X Z...Z, B_i = Z on site i, C_i = X on site i.  Its five
    contexts are four mixed ones, each an ACAL observable first, then the
    all-ACAL context.
    """
    return _build_pauli("mermin_star", n)


def build_set(set_id: str, n: int | None = None) -> ObservableSet:
    """Build an observable set by family id ("ks18", "peres_mermin",
    "mermin_star"); mermin_star requires n (odd, 3 to 13)."""
    _family(set_id, n)
    if set_id == "mermin_star":
        return build_mermin_star(n)
    return build_ks18()[1] if set_id == "ks18" else build_peres_mermin()


def set_labels(set_id: str, n: int | None = None) -> tuple[str, ...]:
    """Label universe of a family, in its builder's order, without
    building any operators."""
    return tuple(_family(set_id, n)[0])


def set_contexts(set_id: str, n: int | None = None) -> tuple[tuple[str, ...], ...]:
    """Contexts of a family, in their fixed order, without building any
    operators."""
    return _family(set_id, n)[1]

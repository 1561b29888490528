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

Every observable is stored as its exact Pauli expansion (``linalg``):
Pauli words for Peres-Mermin and the star, and multiples of 1/8 for the
integer rays.  The 18-ray builder checks orthogonality and incidence;
every ``ObservableSet`` checks its own involutions and context-wise
commutation exactly when it is constructed, so no set with an unchecked
context exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .exceptions import IncompatibleContextError, ResourceLimitError, UnknownLabelError
from .linalg import EXPANSION, IDENTITY, adjoint, combine, dense, expand, multiply, pauli

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

MERMIN_STAR_MAX_QUBITS = 13


@dataclass(frozen=True)
class RaySet:
    """A family of rays grouped into contexts of mutually orthogonal rays."""

    rays: Mapping[str, np.ndarray]
    contexts: tuple[tuple[str, ...], ...]

    def ray(self, label: str) -> np.ndarray:
        try:
            return self.rays[label]
        except KeyError:
            raise UnknownLabelError(label) from None


@dataclass(frozen=True)
class ObservableSet:
    """A labeled family of +-1-valued observables with listed contexts.

    Each observable is a Pauli expansion on ``dim`` = 2^n dimensions.
    Two observables are jointly measurable exactly when they commute; the
    contexts enumerate the maximal groups used by the catalog's
    inequalities.  Construction checks, exactly, that every expansion
    fits the dimension, that it is an involution, and that each context
    commutes pairwise.  The mapping and the expansions are read-only, so
    the checks stay true.
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
        for ctx in self.contexts:
            if bad := noncommuting_pairs(self, ctx):
                raise IncompatibleContextError(
                    f"{self.set_id}: context {ctx} contains non-commuting pairs {bad}"
                )

    def expansion(self, label: str) -> np.ndarray:
        try:
            return self.observables[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def operator(self, label: str) -> np.ndarray:
        """The observable as a read-only dense matrix."""
        return dense(self.expansion(label), self.dim)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.observables)


def _validate_ks18_rayset(rayset: RaySet) -> None:
    # Exact integer checks: orthogonality within each context, and every
    # ray a member of exactly two contexts.
    counts = {label: 0 for label in rayset.rays}
    for ctx in rayset.contexts:
        if len(ctx) != 4:
            raise RuntimeError(f"context {ctx} does not have 4 rays")
        vecs = [rayset.rays[label] for label in ctx]
        for i in range(4):
            counts[ctx[i]] += 1
            for j in range(i + 1, 4):
                if int(np.dot(vecs[i], vecs[j])) != 0:
                    raise RuntimeError(f"rays {ctx[i]} and {ctx[j]} are not orthogonal")
    bad = {label: c for label, c in counts.items() if c != 2}
    if bad:
        raise RuntimeError(f"rays not in exactly two contexts: {bad}")


def build_ks18() -> tuple[RaySet, ObservableSet]:
    """The embedded 18-ray set and its observables A = 2|v><v| - 1."""
    rays = {label: np.array(v, dtype=np.int64) for label, v in KS18_RAYS.items()}
    for v in rays.values():
        v.flags.writeable = False
    rayset = RaySet(rays=rays, contexts=KS18_CONTEXTS)
    _validate_ks18_rayset(rayset)

    observables = {
        label: expand(2 * np.outer(v, v) / int(v @ v) - np.eye(4)) for label, v in rays.items()
    }
    obs = ObservableSet(set_id="ks18", dim=4, observables=observables, contexts=KS18_CONTEXTS)
    return rayset, obs


PERES_MERMIN_WORDS = {
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


def build_peres_mermin() -> ObservableSet:
    """The nine two-qubit square observables, rows then columns as contexts."""
    contexts = (
        ("P14", "P15", "P16"),
        ("P24", "P25", "P26"),
        ("P34", "P35", "P36"),
        ("P14", "P24", "P34"),
        ("P15", "P25", "P35"),
        ("P16", "P26", "P36"),
    )
    return ObservableSet(
        set_id="peres_mermin",
        dim=4,
        observables={label: pauli(word) for label, word in PERES_MERMIN_WORDS.items()},
        contexts=contexts,
    )


def star_labels(n: int) -> tuple[str, ...]:
    """Labels of the n-qubit star family, without building operators."""
    _check_star_n(n)
    return (
        tuple(f"ACAL{k}" for k in range(1, 5))
        + tuple(f"B{i}" for i in range(1, n + 1))
        + tuple(f"C{i}" for i in range(1, n + 1))
    )


def star_contexts(n: int) -> tuple[tuple[str, ...], ...]:
    """The star family's five contexts: four mixed ones, each an ACAL
    observable first, then the all-ACAL context."""
    _check_star_n(n)
    b_tail = tuple(f"B{i}" for i in range(3, n + 1))
    c_tail = tuple(f"C{i}" for i in range(3, n + 1))
    return (
        ("ACAL1", "B1", "B2") + b_tail,
        ("ACAL2", "B1", "C2") + c_tail,
        ("ACAL3", "C1", "B2") + c_tail,
        ("ACAL4", "C1", "C2") + b_tail,
        ("ACAL1", "ACAL2", "ACAL3", "ACAL4"),
    )


def _check_star_n(n: int | None) -> None:
    """The one check of a star size: n given, odd and >= 3 (ValueError),
    and at most MERMIN_STAR_MAX_QUBITS (ResourceLimitError)."""
    if n is None or n < 3 or n % 2 == 0:
        raise ValueError(f"star family is defined with n (odd) >= 3, got n={n}")
    if n > MERMIN_STAR_MAX_QUBITS:
        raise ResourceLimitError(
            f"star family with n={n} exceeds the {MERMIN_STAR_MAX_QUBITS}-qubit cap "
            f"(dimension 2^{n})"
        )


def build_mermin_star(n: int) -> ObservableSet:
    """The 4 + 2n observables of the n-qubit star family (n odd, 3 to 13).

    ACAL1 = Z...Z, ACAL2 = Z X X...X, ACAL3 = X Z X...X,
    ACAL4 = X X Z...Z, B_i = Z on site i, C_i = X on site i.
    """
    _check_star_n(n)
    words = ["Z" * n, "Z" + "X" * (n - 1), "XZ" + "X" * (n - 2), "XX" + "Z" * (n - 2)]
    words += ["I" * (i - 1) + letter + "I" * (n - i) for letter in "ZX" for i in range(1, n + 1)]
    observables = {label: pauli(word) for label, word in zip(star_labels(n), words)}

    return ObservableSet(
        set_id="mermin_star",
        dim=2**n,
        observables=observables,
        contexts=star_contexts(n),
    )


def build_set(set_id: str, n: int | None = None) -> ObservableSet:
    """Build an observable set by family id ("ks18", "peres_mermin",
    "mermin_star"); mermin_star requires n (odd, 3 to 13)."""
    if set_id == "ks18":
        return build_ks18()[1]
    if set_id == "peres_mermin":
        return build_peres_mermin()
    if set_id == "mermin_star":
        return build_mermin_star(n)
    raise UnknownLabelError(set_id)


def set_labels(set_id: str, n: int | None = None) -> tuple[str, ...]:
    """Label universe of a family without building any operators."""
    if set_id == "ks18":
        return tuple(KS18_RAYS)
    if set_id == "peres_mermin":
        return tuple(PERES_MERMIN_WORDS)
    if set_id == "mermin_star":
        return star_labels(n)
    raise UnknownLabelError(set_id)


def compatible(obs: ObservableSet, a: str, b: str) -> bool:
    """Whether two observables of the set are jointly measurable: their
    expansions commute exactly."""
    ea, eb = obs.expansion(a), obs.expansion(b)
    return np.array_equal(multiply(ea, eb), multiply(eb, ea))


def noncommuting_pairs(obs: ObservableSet, labels) -> list[tuple[str, str]]:
    """Every pair of the labels, in order, that is not jointly measurable."""
    return [pair for pair in combinations(labels, 2) if not compatible(obs, *pair)]

"""The three dichotomic-observable families as operators, and their
compatibility structure.

The families' labels, contexts and operator tables live in ``families``,
which needs no numpy; this module builds their operators:

* the 18-ray set in dimension 4: the observable for ray v is
  2|v><v| - 1, so each context's product is -1,
* the two-qubit Peres-Mermin square and the n-qubit star (n odd, 3 to
  13): Pauli words.

Every observable is stored as its exact Pauli expansion
(``pauli.Expansion``): Pauli words for Peres-Mermin and the star, and
multiples of 1/8 for the integer rays, so nothing here loads numpy.
``ObservableSet`` is the one checked structure for every family and for
a caller's own sets: it checks its own involutions, that each context is
distinct labels of the set, and context-wise commutation exactly when it
is constructed, and it freezes what it checked, so no set with an
unchecked context exists.  ``build_ks18`` also returns the rays
themselves, integer tuples in a read-only mapping, next to the set.
``ObservableSet.expansion`` is the one lookup of a label,
``compatible_expansions`` the one check that a group of labels can be
measured jointly, ``term_expansions`` the one gate from an expression on
the set to its terms' operators, ``_bell`` an expression's Bell operator
and ``context_product`` the sign of a context's product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

from .exceptions import IncompatibleContextError, NumericError, UnknownLabelError
from .families import _family, family_name, label_group
from .pauli import IDENTITY, Expansion, adjoint, combine, multiply, pauli, ray


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
    observables: Mapping[str, Expansion] = field(repr=False)
    contexts: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if self.dim < 1 or self.dim & (self.dim - 1):
            raise ValueError(f"{self.set_id}: dimension {self.dim} is not a power of two")
        for label, e in self.observables.items():
            if not isinstance(e, Expansion) or not all(0 <= x | z < self.dim for x, z, _ in e):
                raise ValueError(f"{self.set_id}: {label} is not an expansion in dim {self.dim}")
        frozen = MappingProxyType({k: combine([(1, e)]) for k, e in self.observables.items()})
        object.__setattr__(self, "observables", frozen)
        for label, e in frozen.items():
            if not (adjoint(e) == e and multiply(e, e) == IDENTITY):
                raise ValueError(f"{self.set_id}: {label} is not a +-1 observable")
        contexts = tuple(label_group(ctx, f"{self.set_id}: context") for ctx in self.contexts)
        object.__setattr__(self, "contexts", contexts)
        for ctx in contexts:
            if unknown := [label for label in ctx if label not in frozen]:
                raise ValueError(f"{self.set_id}: context {ctx} has unknown label {unknown[0]}")
            _check_joint(self, ctx)

    def expansion(self, label: str) -> Expansion:
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
    return multiply(ea, eb) == multiply(eb, ea)


def _check_joint(obs: ObservableSet, labels: tuple[str, ...]) -> None:
    """The one commutation rule: IncompatibleContextError naming the set,
    the labels and every pair of them, in order, that does not commute."""
    if bad := [pair for pair in combinations(labels, 2) if not compatible(obs, *pair)]:
        raise IncompatibleContextError(
            f"{obs.set_id}: labels {labels} cannot be measured jointly, "
            f"non-commuting pairs {bad}"
        )


def compatible_expansions(obs: ObservableSet, labels: tuple[str, ...]) -> list[Expansion]:
    """Expansions of labels that must be jointly measurable, in order.

    Labels inside one of ``obs.contexts`` need no check here, because
    constructing the set already checked that context; any other group
    goes through the commutation rule (IncompatibleContextError).
    """
    expansions = [obs.expansion(label) for label in labels]
    if not any(set(labels) <= set(ctx) for ctx in obs.contexts):
        _check_joint(obs, labels)
    return expansions


def term_expansions(obs: ObservableSet, expr) -> list[list[Expansion]]:
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
        if prod == combine([(s, IDENTITY)]):
            return s
    raise ValueError(f"product over context {labels} is not proportional to identity")


def _bell(obs: ObservableSet, expr) -> Expansion:
    """The Bell operator's expansion, sum(sign * ordered product of the
    term's ``term_expansions``), checked Hermitian exactly."""
    products = (reduce(multiply, e, IDENTITY) for e in term_expansions(obs, expr))
    total = combine((term.sign, prod) for term, prod in zip(expr.terms, products))
    if adjoint(total) != total:
        raise NumericError("Bell operator is not Hermitian")
    return total


def build_ks18() -> tuple[Mapping[str, tuple[int, ...]], ObservableSet]:
    """The embedded 18-ray set's rays, as a read-only mapping of integer
    tuples, and its observables A = 2|v><v|/|v|^2 - 1."""
    rays, contexts = _family("ks18", None)
    observables = {label: ray(v) for label, v in rays.items()}
    obs = ObservableSet(set_id="ks18", dim=4, observables=observables, contexts=contexts)
    return MappingProxyType(dict(rays)), obs


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

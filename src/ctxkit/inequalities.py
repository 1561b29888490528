"""Inequality expressions: signed products of observable labels.

An expression is a sum of terms, each a sign in {-1, +1} times a product
of distinct labels; its ``bound`` is the recorded noncontextual bound
(None when unknown, e.g. after substitution).

The catalog holds the eight inequalities the package is built around,
defined the way Cabello (arXiv:0808.2456) derives them, by two tables:

* ``_CONTEXT_SUMS``: the three state-independent ones, each a signed sum
  over the contexts of one family, in the family's context order;
* ``_SPECIAL_CASES``: the five state-dependent ones, each its parent
  under a +-1 substitution, as ``specialize`` performs it, with terms,
  factor order and signs kept.

``CATALOG_IDS`` is their ids, the context sums first.

An expression on one of the three families checks its n and labels
against the family when it is built.  Term compatibility is not checked
here: the quantum side checks every term it measures
(``observables.compatible_expansions``).  Every JSON input
file, here and in ``states`` and the CLI, is read by ``read_json``.
"""

from __future__ import annotations

import json
import operator
import os
import stat
from dataclasses import dataclass, replace
from typing import Mapping

from .exceptions import ResourceLimitError, UnknownInequalityError, UnknownLabelError
from .families import FAMILY_IDS, family_name, label_group, set_contexts, set_labels

# Holds a density-matrix file at linalg.MAX_DENSE_DIM with every entry a
# full-precision [re, im] pair as json.dumps writes it (at most 227 MB).
MAX_INPUT_BYTES = 2**28


def parse_sign(value, what: str) -> int:
    """A +-1: only the integers 1 and -1, never a float, bool, numpy
    integer or string, so nothing is silently coerced."""
    if type(value) is not int or value not in (-1, 1):
        raise ValueError(f"{what} must be the integer 1 or -1, got {value!r}")
    return value


@dataclass(frozen=True)
class Term:
    """A sign times a product of labels; construction checks that the sign
    is the integer 1 or -1 (``parse_sign``) and the factors distinct
    labels (``label_group``), stored as a tuple."""

    sign: int
    factors: tuple[str, ...]

    def __post_init__(self) -> None:
        parse_sign(self.sign, "term sign")
        object.__setattr__(self, "factors", label_group(self.factors, "term"))


@dataclass(frozen=True)
class InequalityExpr:
    """A signed sum of terms on one set.  When ``set_id`` is a family id
    (``families.FAMILY_IDS``), construction checks that n suits the
    family (ValueError, or ResourceLimitError past the star's cap), keeps
    a numpy integer n as a plain int, and checks that every label is in
    its universe (UnknownLabelError naming the label and the set); any
    other ``set_id`` names a caller's own set."""

    id: str
    set_id: str
    terms: tuple[Term, ...]
    bound: int | None
    n: int | None = None

    def __post_init__(self) -> None:
        if self.set_id in FAMILY_IDS:
            universe = set(set_labels(self.set_id, self.n))
            object.__setattr__(self, "n", None if self.n is None else operator.index(self.n))
            if unknown := [f for f in self.labels if f not in universe]:
                raise UnknownLabelError(
                    f"unknown label {unknown[0]!r}, not in set {family_name(self.set_id, self.n)}"
                )

    @property
    def labels(self) -> tuple[str, ...]:
        """All labels appearing in the expression, sorted."""
        return tuple(sorted({f for t in self.terms for f in t.factors}))


# id -> (family, one sign per family context, noncontextual bound): the
# state-independent inequalities, each a signed sum of its family's
# context products.
_CONTEXT_SUMS: dict[str, tuple[str, tuple[int, ...], int]] = {
    "ineq1": ("ks18", (-1,) * 9, 7),
    "ineq4": ("peres_mermin", (1, 1, 1, 1, 1, -1), 4),
    "ineq9": ("mermin_star", (1, 1, 1, 1, -1), 3),
}

_PENTAGON = ("A12", "A18", "A23", "A34", "A48")

# id -> (parent id, +-1 substitution, noncontextual bound): the
# state-dependent inequalities.  The bound is recorded, not derived: a
# substitution keeps the parent's bound valid but not tight (kcbs3 would
# get 7 + 4 = 11, its exact bound is 3).
_SPECIAL_CASES: dict[str, tuple[str, dict[str, int], int]] = {
    "kcbs3": ("ineq1", {label: 1 for label in set_labels("ks18") if label not in _PENTAGON}, 3),
    "cfrh6": ("ineq4", {"P16": -1, "P26": -1, "P36": -1}, 3),
    "nambu7": ("ineq4", {"P36": 1}, 4),
    "chsh8": ("ineq4", {"P15": 1, "P25": 1, "P34": 1, "P35": 1, "P36": 1}, 2),
    "mermin11": ("ineq9", {"ACAL1": 1, "ACAL2": 1, "ACAL3": 1, "ACAL4": -1}, 2),
}

CATALOG_IDS = (*_CONTEXT_SUMS, *_SPECIAL_CASES)


def catalog_get(id: str, n: int | None = None) -> InequalityExpr:
    """Look up a catalog inequality by id.

    ``n`` (odd, 3 to 13) selects the qubit count for the star-family
    inequalities ineq9 and mermin11; the family lookups reject it for the
    fixed-size ones.
    """
    if id in _CONTEXT_SUMS:
        set_id, signs, bound = _CONTEXT_SUMS[id]
        contexts = set_contexts(set_id, n)
        terms = tuple(Term(sign, ctx) for sign, ctx in zip(signs, contexts, strict=True))
        return InequalityExpr(id=id, set_id=set_id, terms=terms, bound=bound, n=n)
    if id in _SPECIAL_CASES:
        parent, subs, bound = _SPECIAL_CASES[id]
        return replace(specialize(catalog_get(parent, n), subs)[0], id=id, bound=bound)
    raise UnknownInequalityError(id)


def specialize(
    expr: InequalityExpr, subs: Mapping[str, int], source: str = "substitution"
) -> tuple[InequalityExpr, int]:
    """Substitute the integer 1 or -1 (``parse_sign``) for some labels.

    Each substituted factor is removed from its term and its value
    multiplies the term's sign.  Terms left with no factors become
    constants: they are dropped from the expression and their signed sum
    is returned as the second element.  The recorded bound is not
    transferred (substitution preserves validity, not tightness), so the
    result's bound is None.  A label outside the expression's set raises
    UnknownLabelError naming ``source``, the input that holds ``subs``.
    """
    universe = set(set_labels(expr.set_id, expr.n))
    for label, value in subs.items():
        if label not in universe:
            raise UnknownLabelError(
                f"{source}: unknown label {label!r}, not in set {family_name(expr.set_id, expr.n)}"
            )
        parse_sign(value, f"substitution for {label}")

    new_terms = []
    dropped_constant = 0
    for term in expr.terms:
        sign = term.sign
        remaining = []
        for f in term.factors:
            if f in subs:
                sign *= subs[f]
            else:
                remaining.append(f)
        if remaining:
            new_terms.append(Term(sign, tuple(remaining)))
        else:
            dropped_constant += sign
    return (
        InequalityExpr(
            id=f"{expr.id}/specialized",
            set_id=expr.set_id,
            terms=tuple(new_terms),
            bound=None,
            n=expr.n,
        ),
        dropped_constant,
    )


def absorb_sign_flip(expr: InequalityExpr, label: str) -> InequalityExpr:
    """Relabel one observable by its negation: every term containing the
    label has its sign flipped (the label itself stays in place).  A
    label the expression does not hold raises UnknownLabelError naming
    the label and the expression."""
    if label not in expr.labels:
        raise UnknownLabelError(f"unknown label {label!r}, not in expression {expr.id}")
    return replace(
        expr,
        terms=tuple(
            Term(-t.sign, t.factors) if label in t.factors else t for t in expr.terms
        ),
    )


def expr_to_json(expr: InequalityExpr) -> dict:
    """JSON-able dict form: {"id","set_id","bound","terms":[...]} plus
    "n" for the star family."""
    out: dict = {
        "id": expr.id,
        "set_id": expr.set_id,
        "bound": expr.bound,
        "terms": [
            {"sign": t.sign, "factors": list(t.factors)} for t in expr.terms
        ],
    }
    if expr.n is not None:
        out["n"] = expr.n
    return out


def parse_int(value, what: str) -> int:
    """A JSON integer, never a float, bool or string, so nothing is
    silently truncated."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def read_json(path: str):
    """The JSON document in a regular file of at most ``MAX_INPUT_BYTES``
    bytes, checked before the file is opened: a larger one raises
    ResourceLimitError, a device or FIFO (no size; a FIFO blocks on open)
    ValueError, and ``open`` refuses a directory.  Text that is not UTF-8,
    malformed JSON and too deeply nested JSON raise ValueError.  Every
    message names the path."""
    info = os.stat(path)
    if not (stat.S_ISREG(info.st_mode) or stat.S_ISDIR(info.st_mode)):
        raise ValueError(f"{path} is not a regular file")
    too_big = ResourceLimitError(f"{path} exceeds the input cap of {MAX_INPUT_BYTES} bytes")
    if info.st_size > MAX_INPUT_BYTES:
        raise too_big
    with open(path, "rb") as fh:
        raw = fh.read(MAX_INPUT_BYTES + 1)
    if len(raw) > MAX_INPUT_BYTES:
        raise too_big
    try:
        raw = raw.decode("utf-8")  # rebound, so the bytes are freed before parsing
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}") from None
    try:
        return json.loads(raw)
    except RecursionError:
        raise ValueError(f"{path} nests its JSON too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None


def check_keys(data, required: tuple[str, ...], what: str, optional: tuple[str, ...] = ()) -> None:
    """``data`` must be a JSON object with every key of ``required`` and
    no key outside ``required`` and ``optional``."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(required) - set(optional))
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")
    for key in required:
        if key not in data:
            raise ValueError(f"{what} missing field: {key!r}")


def _term_from_json(data) -> Term:
    check_keys(data, ("sign", "factors"), "term")
    factors = data["factors"]
    if not isinstance(factors, list):  # an object would become its keys
        raise ValueError(f"term factors must be a list of label strings, got {factors!r}")
    return Term(data["sign"], factors)


def expr_from_json(data: Mapping, source: str = "inequality JSON") -> InequalityExpr:
    """Parse the JSON form strictly: no unknown keys, id and set_id JSON
    strings, every term an object with a +-1 integer sign and a list of
    distinct label strings, bound and n JSON integers, and the labels and
    n checked against the set (only the star family takes n).  An unknown
    set_id or label (UnknownLabelError) and an n the set refuses
    (ValueError, or ResourceLimitError past the star's cap) name
    ``source``, the input that holds ``data``."""
    check_keys(data, ("id", "set_id", "terms"), "inequality JSON", optional=("bound", "n"))
    id_, set_id, raw_terms = data["id"], data["set_id"], data["terms"]
    for what, value in (("id", id_), ("set_id", set_id)):
        if not isinstance(value, str):
            raise ValueError(f"inequality {what} must be a JSON string, got {value!r}")
    if not isinstance(raw_terms, list):
        raise ValueError(f"inequality terms must be a list, got {raw_terms!r}")
    terms = tuple(_term_from_json(t) for t in raw_terms)
    bound, n = data.get("bound"), data.get("n")
    bound = None if bound is None else parse_int(bound, "bound")
    n = None if n is None else parse_int(n, "n")
    try:
        set_labels(set_id, n)  # a caller's own set_id is refused here
        return InequalityExpr(id=id_, set_id=set_id, terms=terms, bound=bound, n=n)
    except (UnknownLabelError, ValueError, ResourceLimitError) as exc:  # set_id, n or a label
        raise type(exc)(f"{source}: {exc.args[0]}") from None


def load_expr(path: str) -> InequalityExpr:
    return expr_from_json(read_json(path), f"inequality file {path}")

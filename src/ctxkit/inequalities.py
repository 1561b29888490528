"""Inequality expressions: signed products of observable labels.

An expression is a sum of terms, each a sign in {-1, +1} times a product
of distinct labels; its ``bound`` is the recorded noncontextual bound
(None when unknown, e.g. after substitution).  The catalog holds the
eight inequalities the package is built around, stored in printed term
order; the state-dependent ones are special cases of the
state-independent ones under +-1 substitutions, which ``specialize``
performs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Mapping

from .exceptions import UnknownInequalityError, UnknownLabelError
from .observables import ObservableSet, noncommuting_pairs, set_labels, star_contexts

CATALOG_IDS = ("ineq1", "kcbs3", "ineq4", "cfrh6", "nambu7", "chsh8", "ineq9", "mermin11")


@dataclass(frozen=True)
class Term:
    sign: int
    factors: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.sign not in (-1, 1):
            raise ValueError(f"term sign must be +1 or -1, got {self.sign}")
        if len(set(self.factors)) != len(self.factors):
            raise ValueError(f"term factors must be distinct, got {self.factors}")


@dataclass(frozen=True)
class InequalityExpr:
    id: str
    set_id: str
    terms: tuple[Term, ...]
    bound: int | None
    n: int | None = None

    @property
    def labels(self) -> tuple[str, ...]:
        """All labels appearing in the expression, sorted."""
        return tuple(sorted({f for t in self.terms for f in t.factors}))


def _terms(*signed_factor_lists) -> tuple[Term, ...]:
    return tuple(Term(sign, tuple(factors)) for sign, factors in signed_factor_lists)


def _build_ineq1() -> InequalityExpr:
    from .observables import KS18_CONTEXTS

    return InequalityExpr(
        id="ineq1",
        set_id="ks18",
        terms=tuple(Term(-1, ctx) for ctx in KS18_CONTEXTS),
        bound=7,
    )


def _build_kcbs3() -> InequalityExpr:
    return InequalityExpr(
        id="kcbs3",
        set_id="ks18",
        terms=_terms(
            (-1, ("A12", "A18")),
            (-1, ("A12", "A23")),
            (-1, ("A23", "A34")),
            (-1, ("A34", "A48")),
            (-1, ("A18", "A48")),
        ),
        bound=3,
    )


def _build_ineq4() -> InequalityExpr:
    return InequalityExpr(
        id="ineq4",
        set_id="peres_mermin",
        terms=_terms(
            (1, ("P14", "P15", "P16")),
            (1, ("P24", "P25", "P26")),
            (1, ("P34", "P35", "P36")),
            (1, ("P14", "P24", "P34")),
            (1, ("P15", "P25", "P35")),
            (-1, ("P16", "P26", "P36")),
        ),
        bound=4,
    )


def _build_cfrh6() -> InequalityExpr:
    return InequalityExpr(
        id="cfrh6",
        set_id="peres_mermin",
        terms=_terms(
            (-1, ("P14", "P15")),
            (-1, ("P24", "P25")),
            (-1, ("P34", "P35")),
            (1, ("P14", "P24", "P34")),
            (1, ("P15", "P25", "P35")),
        ),
        bound=3,
    )


def _build_nambu7() -> InequalityExpr:
    return InequalityExpr(
        id="nambu7",
        set_id="peres_mermin",
        terms=_terms(
            (1, ("P14", "P15", "P16")),
            (1, ("P24", "P25", "P26")),
            (1, ("P34", "P35")),
            (1, ("P14", "P24", "P34")),
            (1, ("P15", "P25", "P35")),
            (-1, ("P16", "P26")),
        ),
        bound=4,
    )


def _build_chsh8() -> InequalityExpr:
    return InequalityExpr(
        id="chsh8",
        set_id="peres_mermin",
        terms=_terms(
            (1, ("P14", "P16")),
            (1, ("P24", "P26")),
            (1, ("P14", "P24")),
            (-1, ("P16", "P26")),
        ),
        bound=2,
    )


def _build_ineq9(n: int) -> InequalityExpr:
    return InequalityExpr(
        id="ineq9",
        set_id="mermin_star",
        terms=_terms(*zip((1, 1, 1, 1, -1), star_contexts(n))),
        bound=3,
        n=n,
    )


def _build_mermin11(n: int) -> InequalityExpr:
    mixed = star_contexts(n)[:4]
    return InequalityExpr(
        id="mermin11",
        set_id="mermin_star",
        terms=_terms(*zip((1, 1, 1, -1), (ctx[1:] for ctx in mixed))),
        bound=2,
        n=n,
    )


def catalog_get(id: str, n: int | None = None) -> InequalityExpr:
    """Look up a catalog inequality by id.

    ``n`` (odd, 3 to 13) selects the qubit count for the star-family
    inequalities ineq9 and mermin11 and is rejected for the fixed-size
    ones.
    """
    if id not in CATALOG_IDS:
        raise UnknownInequalityError(id)
    if id in ("ineq9", "mermin11"):
        return _build_ineq9(n) if id == "ineq9" else _build_mermin11(n)
    if n is not None:
        raise ValueError(f"{id} does not take n")
    builder = {
        "ineq1": _build_ineq1,
        "kcbs3": _build_kcbs3,
        "ineq4": _build_ineq4,
        "cfrh6": _build_cfrh6,
        "nambu7": _build_nambu7,
        "chsh8": _build_chsh8,
    }[id]
    return builder()


def specialize(
    expr: InequalityExpr, subs: Mapping[str, int]
) -> tuple[InequalityExpr, int]:
    """Substitute +-1 values for some labels.

    Each substituted factor is removed from its term and its value
    multiplies the term's sign.  Terms left with no factors become
    constants: they are dropped from the expression and their signed sum
    is returned as the second element.  The recorded bound is not
    transferred (substitution preserves validity, not tightness), so the
    result's bound is None.
    """
    universe = set(set_labels(expr.set_id, expr.n))
    for label, value in subs.items():
        if label not in universe:
            raise UnknownLabelError(label)
        if value not in (-1, 1):
            raise ValueError(f"substitution for {label} must be +1 or -1, got {value}")

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
    label has its sign flipped (the label itself stays in place)."""
    if label not in expr.labels:
        raise UnknownLabelError(label)
    return replace(
        expr,
        terms=tuple(
            Term(-t.sign, t.factors) if label in t.factors else t for t in expr.terms
        ),
    )


@dataclass(frozen=True)
class TermVerdict:
    term_index: int
    compatible: bool
    failing_pairs: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class ContextReport:
    passed: bool
    verdicts: tuple[TermVerdict, ...]


def validate_contexts(expr: InequalityExpr, obs: ObservableSet) -> ContextReport:
    """Check that within every term all factor pairs commute.

    Failures are report entries, not exceptions; only unresolvable labels
    raise.
    """
    verdicts = []
    for idx, term in enumerate(expr.terms):
        failing = tuple(noncommuting_pairs(obs, term.factors))
        verdicts.append(TermVerdict(term_index=idx, compatible=not failing, failing_pairs=failing))
    return ContextReport(
        passed=all(v.compatible for v in verdicts), verdicts=tuple(verdicts)
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


def parse_sign(value, what: str) -> int:
    """A JSON +-1: only the integers 1 and -1, never a float, bool or
    string, so nothing is silently coerced."""
    if type(value) is not int or value not in (-1, 1):
        raise ValueError(f"{what} must be the integer 1 or -1, got {value!r}")
    return value


def parse_int(value, what: str) -> int:
    """A JSON integer, never a float, bool or string, so nothing is
    silently truncated."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def check_keys(data, allowed: tuple[str, ...], what: str) -> None:
    """``data`` must be a JSON object with no key outside ``allowed``."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")


def _term_from_json(data) -> Term:
    check_keys(data, ("sign", "factors"), "term")
    factors = data["factors"]
    if not isinstance(factors, list) or not all(isinstance(f, str) for f in factors):
        raise ValueError(f"term factors must be a list of label strings, got {factors!r}")
    return Term(parse_sign(data["sign"], "term sign"), tuple(factors))


def expr_from_json(data: Mapping) -> InequalityExpr:
    """Parse the JSON form strictly: no unknown keys, every term an object
    with a +-1 integer sign and a list of distinct label strings, bound
    and n JSON integers, and the labels and n checked against the set."""
    check_keys(data, ("id", "set_id", "bound", "terms", "n"), "inequality JSON")
    try:
        id_ = str(data["id"])
        set_id = str(data["set_id"])
        raw_terms = data["terms"]
    except KeyError as exc:
        raise ValueError(f"inequality JSON missing field: {exc}") from exc
    if not isinstance(raw_terms, list):
        raise ValueError(f"inequality terms must be a list, got {raw_terms!r}")
    bound, n = data.get("bound"), data.get("n")
    expr = InequalityExpr(
        id=id_,
        set_id=set_id,
        terms=tuple(_term_from_json(t) for t in raw_terms),
        bound=None if bound is None else parse_int(bound, "bound"),
        n=None if n is None else parse_int(n, "n"),
    )
    universe = set(set_labels(set_id, expr.n))
    unknown = [f for f in expr.labels if f not in universe]
    if unknown:
        raise UnknownLabelError(unknown[0])
    return expr


def load_expr(path: str) -> InequalityExpr:
    with open(path, encoding="utf-8") as fh:
        return expr_from_json(json.load(fh))

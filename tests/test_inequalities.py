import json

import pytest

from ctxkit.exceptions import ResourceLimitError, UnknownInequalityError, UnknownLabelError
from ctxkit.inequalities import (
    CATALOG_IDS,
    InequalityExpr,
    Term,
    absorb_sign_flip,
    catalog_get,
    expr_from_json,
    expr_to_json,
    load_expr,
    specialize,
    validate_contexts,
)
from ctxkit.observables import KS18_CONTEXTS


def multiset(expr):
    return sorted((t.sign, tuple(sorted(t.factors))) for t in expr.terms)


def test_term_validation():
    with pytest.raises(ValueError):
        Term(2, ("P14",))
    with pytest.raises(ValueError):
        Term(1, ("P14", "P14"))
    Term(1, ())  # constant terms are allowed


def test_catalog_ids_and_recorded_bounds():
    recorded = {
        "ineq1": 7, "kcbs3": 3, "ineq4": 4, "cfrh6": 3,
        "nambu7": 4, "chsh8": 2, "ineq9": 3, "mermin11": 2,
    }
    assert set(CATALOG_IDS) == set(recorded)
    for id_ in CATALOG_IDS:
        n = 3 if id_ in ("ineq9", "mermin11") else None
        assert catalog_get(id_, n).bound == recorded[id_]


def test_ineq1_is_sum_over_contexts():
    expr = catalog_get("ineq1")
    assert expr.set_id == "ks18"
    assert tuple(t.factors for t in expr.terms) == KS18_CONTEXTS
    assert all(t.sign == -1 for t in expr.terms)


def test_kcbs3_terms():
    expr = catalog_get("kcbs3")
    assert [(t.sign, t.factors) for t in expr.terms] == [
        (-1, ("A12", "A18")),
        (-1, ("A12", "A23")),
        (-1, ("A23", "A34")),
        (-1, ("A34", "A48")),
        (-1, ("A18", "A48")),
    ]


def test_chsh8_terms():
    expr = catalog_get("chsh8")
    assert [(t.sign, t.factors) for t in expr.terms] == [
        (1, ("P14", "P16")),
        (1, ("P24", "P26")),
        (1, ("P14", "P24")),
        (-1, ("P16", "P26")),
    ]


def test_ineq4_signs():
    expr = catalog_get("ineq4")
    assert [t.sign for t in expr.terms] == [1, 1, 1, 1, 1, -1]
    assert expr.terms[-1].factors == ("P16", "P26", "P36")


def test_star_family_sizes():
    for n in (3, 5, 7):
        ineq9 = catalog_get("ineq9", n)
        mermin = catalog_get("mermin11", n)
        assert ineq9.n == n and mermin.n == n
        assert len(ineq9.terms) == 5
        assert len(mermin.terms) == 4
        assert all(len(t.factors) == n for t in mermin.terms)
        assert len(ineq9.terms[0].factors) == n + 1
        assert ineq9.terms[-1].factors == ("ACAL1", "ACAL2", "ACAL3", "ACAL4")


def test_catalog_n_handling():
    with pytest.raises(UnknownInequalityError):
        catalog_get("nope")
    with pytest.raises(ValueError):
        catalog_get("ineq9")  # n required
    with pytest.raises(ValueError):
        catalog_get("mermin11", 4)  # n must be odd
    with pytest.raises(ValueError):
        catalog_get("mermin11", 1)
    with pytest.raises(ValueError):
        catalog_get("kcbs3", 3)  # fixed-size ids reject n


def test_star_size_is_checked_before_any_label_is_built():
    # One check covers the catalog, expression JSON and substitution: an
    # even n reads the same everywhere, and n past the 13-qubit cap is a
    # resource limit however the expression arrives.
    for bad in (lambda n: catalog_get("ineq9", n),
                lambda n: expr_from_json({"id": "x", "set_id": "mermin_star", "terms": [], "n": n})):
        with pytest.raises(ValueError, match="star family is defined with n"):
            bad(4)
        for n in (15, 10**6 + 1):
            with pytest.raises(ResourceLimitError, match="13-qubit cap"):
                bad(n)
    with pytest.raises(ResourceLimitError):
        catalog_get("mermin11", 15)
    past_cap = InequalityExpr(id="x", set_id="mermin_star", terms=(), bound=None, n=15)
    with pytest.raises(ResourceLimitError):
        specialize(past_cap, {})


def test_labels_sorted():
    expr = catalog_get("chsh8")
    assert expr.labels == ("P14", "P16", "P24", "P26")


def test_specialize_drops_constants():
    expr = catalog_get("ineq4")
    specialized, dropped = specialize(expr, {"P16": -1, "P26": -1, "P36": -1})
    assert multiset(specialized) == multiset(catalog_get("cfrh6"))
    assert dropped == 1
    assert specialized.bound is None
    assert specialized.id == "ineq4/specialized"


def test_specialize_keeps_all_terms_when_nothing_vanishes():
    expr = catalog_get("ineq4")
    specialized, dropped = specialize(expr, {"P36": 1})
    assert multiset(specialized) == multiset(catalog_get("nambu7"))
    assert dropped == 0


def test_specialize_validation():
    expr = catalog_get("chsh8")
    with pytest.raises(UnknownLabelError):
        specialize(expr, {"A12": 1})  # wrong family
    with pytest.raises(ValueError):
        specialize(expr, {"P14": 0})
    # Labels from the family that do not appear in the expression are fine.
    specialized, dropped = specialize(expr, {"P35": -1})
    assert multiset(specialized) == multiset(expr)
    assert dropped == 0


def test_absorb_sign_flip():
    expr = catalog_get("chsh8")
    flipped = absorb_sign_flip(expr, "P14")
    assert [t.sign for t in flipped.terms] == [-1, 1, -1, -1]
    assert multiset(absorb_sign_flip(flipped, "P14")) == multiset(expr)
    with pytest.raises(UnknownLabelError):
        absorb_sign_flip(expr, "P35")


def test_validate_contexts_passes_for_catalog(ks18_obs, pm_obs, star3_obs):
    families = {"ks18": ks18_obs, "peres_mermin": pm_obs, "mermin_star": star3_obs}
    for id_ in CATALOG_IDS:
        n = 3 if id_ in ("ineq9", "mermin11") else None
        expr = catalog_get(id_, n)
        report = validate_contexts(expr, families[expr.set_id])
        assert report.passed
        assert all(v.compatible and not v.failing_pairs for v in report.verdicts)


def test_validate_contexts_flags_incompatible_pair(ks18_obs):
    expr = InequalityExpr(
        id="bad", set_id="ks18",
        terms=(Term(1, ("A12", "A16")), Term(1, ("A12", "A34"))),
        bound=None,
    )
    report = validate_contexts(expr, ks18_obs)
    assert not report.passed
    assert report.verdicts[0].compatible
    assert report.verdicts[1].failing_pairs == (("A12", "A34"),)


def test_json_round_trip():
    expr = catalog_get("chsh8")
    data = expr_to_json(expr)
    assert data["id"] == "chsh8"
    assert "n" not in data
    assert expr_from_json(data) == expr


def test_json_round_trip_with_n():
    expr = catalog_get("mermin11", 5)
    data = expr_to_json(expr)
    assert data["n"] == 5
    assert expr_from_json(data) == expr


def test_json_validation():
    with pytest.raises(ValueError):
        expr_from_json({"id": "x", "terms": []})  # missing set_id
    with pytest.raises(ValueError):
        expr_from_json([expr_to_json(catalog_get("chsh8"))])  # not an object
    bad = expr_to_json(catalog_get("chsh8"))
    bad["terms"][0]["factors"] = ["P14", "Q99"]
    with pytest.raises(UnknownLabelError):
        expr_from_json(bad)


@pytest.mark.parametrize("sign", [1.7, 1.0, True, "1", None])
def test_json_sign_must_be_plus_minus_one_integer(sign):
    data = expr_to_json(catalog_get("chsh8"))
    data["terms"][0]["sign"] = sign
    with pytest.raises(ValueError):
        expr_from_json(data)


@pytest.mark.parametrize("term", [
    [1, ["P14", "P16"]],
    "P14",
    {"sign": 1, "factors": "P14"},
    {"sign": 1, "factors": ["P14", 16]},
    {"sign": 1, "factors": ["P14", "P16"], "extra": 0},
])
def test_json_term_must_be_an_object_with_label_list(term):
    data = expr_to_json(catalog_get("chsh8"))
    data["terms"][0] = term
    with pytest.raises(ValueError):
        expr_from_json(data)


@pytest.mark.parametrize("field,value", [
    ("bound", 3.5), ("bound", 2.0), ("bound", True), ("bound", "2"),
    ("n", 5.9), ("n", 5.0), ("n", True), ("n", "5"),
])
def test_json_bound_and_n_must_be_integers(field, value):
    data = expr_to_json(catalog_get("mermin11", 5))
    data[field] = value
    with pytest.raises(ValueError):
        expr_from_json(data)


@pytest.mark.parametrize("data", [
    {"typo_bound": 2}, {"terms": "P14"}, {"terms": {"sign": 1}},
])
def test_json_rejects_unknown_keys_and_malformed_terms(data):
    with pytest.raises(ValueError):
        expr_from_json({**expr_to_json(catalog_get("chsh8")), **data})


def test_load_expr(tmp_path):
    expr = catalog_get("kcbs3")
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(expr_to_json(expr)))
    assert load_expr(str(path)) == expr

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxkit.calibration import incidence_automorphisms, relabel_expr
from ctxkit.exceptions import ResourceLimitError, UnknownInequalityError, UnknownLabelError
from ctxkit.families import KS18_CONTEXTS, set_labels
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
)
from ctxkit.observables import build_set
from ctxkit.solver import classical_bound

# expr_to_json of every catalog entry, star family at n = 3 and 5, keyed
# "id" or "id@n".  Term order fixes each term's substream index and
# factor order fixes measurement order, so both are pinned exactly.
GOLDEN = json.loads((Path(__file__).parent / "catalog_golden.json").read_text())
STAR_IDS = ("ineq9", "mermin11")
CATALOG_CASES = ([(i, None) for i in CATALOG_IDS if i not in STAR_IDS]
                 + [(i, n) for i in STAR_IDS for n in range(3, 14, 2)])
# A sign or substitution is the integer 1 or -1, as in JSON; each of
# these is refused, not coerced.
NOT_INTEGER_SIGNS = (1.0, -1.0, True, np.int64(1))


def multiset(expr):
    return sorted((t.sign, tuple(sorted(t.factors))) for t in expr.terms)


def test_term_validation():
    with pytest.raises(ValueError, match="^term sign must be the integer 1 or -1, got 2$"):
        Term(2, ("P14",))
    for sign in NOT_INTEGER_SIGNS:
        with pytest.raises(ValueError, match="^term sign must be the integer 1 or -1"):
            Term(sign, ("P14",))
    with pytest.raises(ValueError):
        Term(1, ("P14", "P14"))
    Term(1, ())  # constant terms are allowed
    assert Term(1, ["P14", "P15"]).factors == ("P14", "P15")


@pytest.mark.parametrize("factors", ["ab", b"ab", ["a", 1], ("a", None)])
def test_term_factors_are_a_sequence_of_str_labels(factors):
    # A string would be read as one label per character: Term(1, "ab")
    # would be the product a * b.
    with pytest.raises(ValueError, match=r"sequence of str|is not a str"):
        Term(1, factors)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_catalog_matches_golden(key):
    id_, _, n = key.partition("@")
    got = expr_to_json(catalog_get(id_, int(n) if n else None))
    assert json.dumps(got) == json.dumps(GOLDEN[key])


@pytest.mark.parametrize("id_,n", CATALOG_CASES)
def test_recorded_bound_is_exact(id_, n):
    expr = catalog_get(id_, n)
    assert expr.bound == classical_bound(expr).classical_bound


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
    # An expression on the star checks its n when it is built.
    with pytest.raises(ResourceLimitError):
        InequalityExpr(id="x", set_id="mermin_star", terms=(), bound=None, n=15)


@pytest.mark.parametrize("build, family, n", [
    (catalog_get, "ineq9", 5.0),
    (build_set, "mermin_star", 7.5),
    (catalog_get, "ineq9", "5"),
    (catalog_get, "ineq9", True),
], ids=["float", "fraction", "str", "bool"])
def test_a_star_n_that_is_not_an_integer_is_refused(build, family, n):
    # A float or str n would otherwise reach "Z" * n or "5" < 3, a TypeError.
    with pytest.raises(ValueError, match=f"^star family is defined with n \\(odd\\) >= 3, "
                                         f"got n={n}$"):
        build(family, n)
    assert build(family, np.int64(5)) == build(family, 5)


def test_a_numpy_integer_n_is_kept_as_a_plain_int():
    # np.int64 is not JSON serializable; the expression stores an int.
    for id in ("ineq9", "mermin11"):
        expr, plain = catalog_get(id, np.int64(5)), catalog_get(id, 5)
        assert type(expr.n) is int
        assert json.dumps(expr_to_json(expr)) == json.dumps(expr_to_json(plain))
        special = specialize(expr, {"ACAL1": -1})[0]
        assert json.dumps(expr_to_json(special)) == json.dumps(
            expr_to_json(specialize(plain, {"ACAL1": -1})[0]))


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
    with pytest.raises(UnknownLabelError) as excinfo:
        specialize(expr, {"A12": 1})  # wrong family
    assert excinfo.value.args == ("substitution: unknown label 'A12', not in set peres_mermin",)
    with pytest.raises(UnknownLabelError) as excinfo:
        specialize(catalog_get("ineq9", 5), {"B6": 1}, "subs.json")
    assert excinfo.value.args == ("subs.json: unknown label 'B6', not in set mermin_star n=5",)
    for value in (0,) + NOT_INTEGER_SIGNS:
        with pytest.raises(ValueError, match="^substitution for P14 must be the integer 1 or -1"):
            specialize(expr, {"P14": value})
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


@pytest.mark.parametrize("label", ["P35", "Q9"], ids=["substituted", "in_no_set"])
def test_absorb_sign_flip_names_the_label_and_the_expression(label):
    with pytest.raises(UnknownLabelError) as info:
        absorb_sign_flip(catalog_get("chsh8"), label)
    assert info.value.args == (f"unknown label {label!r}, not in expression chsh8",)


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


def assert_round_trip(expr):
    assert expr_from_json(json.loads(json.dumps(expr_to_json(expr)))) == expr


@settings(max_examples=150)
@given(case=st.sampled_from(CATALOG_CASES), data=st.data())
def test_built_expressions_round_trip(case, data):
    # Whatever the library builds reads back equal from its JSON form;
    # a substitution it cannot write as JSON is refused instead.
    expr = catalog_get(*case)
    assert_round_trip(expr)
    assert_round_trip(absorb_sign_flip(expr, data.draw(st.sampled_from(expr.labels))))
    values = st.sampled_from((1, -1) + NOT_INTEGER_SIGNS)
    subs = data.draw(st.dictionaries(st.sampled_from(set_labels(expr.set_id, expr.n)), values))
    try:
        specialized, _ = specialize(expr, subs)
    except ValueError:
        assert any(type(v) is not int for v in subs.values())
    else:
        assert_round_trip(specialized)


def test_relabeled_expressions_round_trip(ks18_obs):
    maps = incidence_automorphisms(ks18_obs)
    for id_ in ("ineq1", "kcbs3"):
        for label_map in maps:
            assert_round_trip(relabel_expr(catalog_get(id_), label_map))


@pytest.mark.parametrize("key", ["id", "set_id", "terms", "sign", "factors"])
def test_json_names_a_missing_key(key):
    # bound and n are the only optional keys of an expression.
    data = expr_to_json(catalog_get("chsh8"))
    del data["bound"]
    what = "inequality JSON"
    if key in ("sign", "factors"):
        del data["terms"][1][key]
        what = "term"
    else:
        del data[key]
    with pytest.raises(ValueError, match=f"^{what} missing field: '{key}'$"):
        expr_from_json(data)


def test_json_validation():
    with pytest.raises(ValueError):
        expr_from_json({"id": "x", "terms": []})  # missing set_id
    with pytest.raises(ValueError):
        expr_from_json([expr_to_json(catalog_get("chsh8"))])  # not an object
    bad = expr_to_json(catalog_get("chsh8"))
    bad["terms"][0]["factors"] = ["P14", "Q99"]
    with pytest.raises(UnknownLabelError) as excinfo:
        expr_from_json(bad)
    assert excinfo.value.args == ("inequality JSON: unknown label 'Q99', not in set peres_mermin",)
    with pytest.raises(UnknownLabelError) as excinfo:
        expr_from_json({**bad, "set_id": "foo"}, "ineq.json")
    assert excinfo.value.args == (
        "ineq.json: unknown set_id 'foo', not one of ks18, peres_mermin, mermin_star",
    )
    # id and set_id are JSON strings, never coerced; only the star family
    # takes n.
    chsh = expr_to_json(catalog_get("chsh8"))
    for data in ({**chsh, "id": 5}, {**chsh, "set_id": ["peres_mermin"]},
                 {**chsh, "n": 3}, {**expr_to_json(catalog_get("kcbs3")), "n": 5}):
        with pytest.raises(ValueError):
            expr_from_json(data)


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

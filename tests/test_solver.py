import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxkit.exceptions import ResourceLimitError
from ctxkit.inequalities import InequalityExpr, Term, catalog_get
from ctxkit import solver
from ctxkit.solver import bound_sign_flip_check, classical_bound, evaluate_assignment


def naive_bound(expr):
    """Independent reference: walk assignments in lexicographic order
    (-1 before +1, first label most significant) and keep the first
    maximizer, which is exactly the solver's witness convention."""
    labels = expr.labels
    best = None
    best_assignment = None
    for values in itertools.product((-1, 1), repeat=len(labels)):
        assignment = dict(zip(labels, values))
        total = evaluate_assignment(expr, assignment)
        if best is None or total > best:
            best = total
            best_assignment = assignment
    return best, best_assignment


CATALOG_CASES = [
    ("ineq1", None, 7, 2**18),
    ("kcbs3", None, 3, 2**5),
    ("ineq4", None, 4, 2**9),
    ("cfrh6", None, 3, 2**6),
    ("nambu7", None, 4, 2**8),
    ("chsh8", None, 2, 2**4),
    ("ineq9", 3, 3, 2**10),
    ("ineq9", 5, 3, 2**14),
    ("mermin11", 3, 2, 2**6),
    ("mermin11", 5, 2, 2**10),
]


@pytest.mark.parametrize("id_,n,bound,evaluations", CATALOG_CASES)
def test_catalog_bounds(id_, n, bound, evaluations):
    result = classical_bound(catalog_get(id_, n))
    assert result.bound == bound
    assert result.evaluations == evaluations


@pytest.mark.parametrize("id_,n", [
    ("kcbs3", None), ("ineq4", None), ("cfrh6", None),
    ("nambu7", None), ("chsh8", None), ("mermin11", 3), ("ineq9", 3),
    ("mermin11", 5), ("ineq9", 5),
])
def test_against_naive_enumeration(id_, n):
    expr = catalog_get(id_, n)
    expected_bound, expected_witness = naive_bound(expr)
    result = classical_bound(expr)
    assert result.bound == expected_bound
    assert result.witness == expected_witness


def test_witness_attains_bound():
    for id_, n, bound, _ in CATALOG_CASES:
        expr = catalog_get(id_, n)
        result = classical_bound(expr)
        assert evaluate_assignment(expr, result.witness) == bound
        assert set(result.witness) == set(expr.labels)
        assert set(result.witness.values()) <= {-1, 1}


def test_chsh8_witness_frozen():
    result = classical_bound(catalog_get("chsh8"))
    assert result.witness == {"P14": -1, "P16": -1, "P24": -1, "P26": -1}


def random_expr(rng, label_count, term_count):
    labels = [f"L{i}" for i in range(label_count)]
    terms = []
    for _ in range(term_count):
        size = int(rng.integers(1, label_count + 1))
        factors = tuple(str(f) for f in rng.choice(labels, size=size, replace=False))
        sign = int(rng.choice([-1, 1]))
        terms.append(Term(sign, factors))
    return InequalityExpr(id="random", set_id="test", terms=tuple(terms), bound=None)


def test_random_expressions_match_naive():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        expr = random_expr(rng, label_count=int(rng.integers(2, 9)),
                           term_count=int(rng.integers(1, 7)))
        expected_bound, expected_witness = naive_bound(expr)
        result = classical_bound(expr)
        assert result.bound == expected_bound
        assert result.witness == expected_witness


def test_constant_term_expression():
    expr = InequalityExpr(
        id="const", set_id="test",
        terms=(Term(1, ()), Term(-1, ("L0",))),
        bound=None,
    )
    result = classical_bound(expr)
    assert result.bound == 2
    assert result.witness == {"L0": -1}


def test_label_cap(monkeypatch):
    with pytest.raises(ResourceLimitError):
        classical_bound(catalog_get("ineq9", 15))  # past the star cap (34 labels)
    monkeypatch.setattr(solver, "MAX_LABELS", 3)
    with pytest.raises(ResourceLimitError):
        classical_bound(catalog_get("chsh8"))


def test_witness_is_lex_first_across_blocks():
    # 17 labels span two scan blocks.  The maximizers are L0 = L1 = -1
    # (first block) and L0 = L1 = +1 (second block); the witness must be
    # the first in lexicographic order.
    labels = [f"L{i:02d}" for i in range(17)]
    terms = (Term(1, (labels[0], labels[1])),) + tuple(Term(1, (lab,)) for lab in labels[2:])
    result = classical_bound(InequalityExpr(id="two-blocks", set_id="test", terms=terms, bound=None))
    assert result.bound == 16
    assert result.witness == {lab: (-1 if lab in labels[:2] else 1) for lab in labels}


def test_merged_witness_past_the_first_block():
    # 17 labels with 17 distinct term incidences, so nothing merges and
    # the scan spans two blocks.  L00 = +1 puts every maximizer in the
    # second block; the triangle L01 L02, L02 L03, L01 L03 is maximal at
    # all -1 and at all +1, and the witness takes all -1.
    labels = [f"L{i:02d}" for i in range(17)]
    triangle = ((labels[1], labels[2]), (labels[2], labels[3]), (labels[1], labels[3]))
    terms = ((Term(1, (labels[0],)),) + tuple(Term(1, pair) for pair in triangle)
             + tuple(Term(1, (lab,)) for lab in labels[4:]))
    expr = InequalityExpr(id="second-block", set_id="test", terms=terms, bound=None)
    result = classical_bound(expr)
    assert result.bound == 17
    assert result.witness == {lab: (-1 if lab in labels[1:4] else 1) for lab in labels}
    assert result.evaluations == 2**17


@st.composite
def repeated_incidence_exprs(draw):
    """Expressions whose labels come in groups sharing one term incidence,
    with the groups' names interleaved in sorted order; a term no group
    reaches has no factors."""
    term_count = draw(st.integers(1, 6))
    incidences = draw(st.lists(
        st.frozensets(st.integers(0, term_count - 1)), min_size=1, max_size=5))
    sizes = draw(st.lists(st.integers(1, 3), min_size=len(incidences),
                          max_size=len(incidences)))
    names = iter(draw(st.permutations([f"L{i}" for i in range(sum(sizes))])))
    placed = [(next(names), inc) for inc, size in zip(incidences, sizes) for _ in range(size)]
    terms = tuple(
        Term(draw(st.sampled_from((-1, 1))), tuple(lab for lab, inc in placed if t in inc))
        for t in range(term_count)
    )
    return InequalityExpr(id="merged", set_id="test", terms=terms, bound=None)


@settings(max_examples=300, deadline=None, database=None)
@given(repeated_incidence_exprs())
def test_merged_labels_match_naive(expr):
    expected_bound, expected_witness = naive_bound(expr)
    result = classical_bound(expr)
    assert result.bound == expected_bound
    assert result.witness == expected_witness
    assert result.evaluations == 2 ** len(expr.labels)


def test_evaluate_assignment():
    expr = catalog_get("chsh8")
    assert evaluate_assignment(expr, {lab: 1 for lab in expr.labels}) == 2
    with pytest.raises(KeyError):
        evaluate_assignment(expr, {"P14": 1})


def test_bound_sign_flip_invariance():
    assert bound_sign_flip_check(catalog_get("kcbs3"), "A12")
    assert bound_sign_flip_check(catalog_get("mermin11", 3), "C1")

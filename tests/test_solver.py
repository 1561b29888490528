import functools
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxkit.exceptions import ResourceLimitError
from ctxkit.inequalities import InequalityExpr, Term, absorb_sign_flip, catalog_get
from ctxkit.pauli import pauli
from ctxkit.observables import ObservableSet
from ctxkit.parity import ks_colorable
from ctxkit import solver
from ctxkit.solver import classical_bound, evaluate_assignment


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
    assert result.classical_bound == bound
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
    assert result.classical_bound == expected_bound
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
        assert result.classical_bound == expected_bound
        assert result.witness == expected_witness


def test_constant_term_expression():
    expr = InequalityExpr(
        id="const", set_id="test",
        terms=(Term(1, ()), Term(-1, ("L0",))),
        bound=None,
    )
    result = classical_bound(expr)
    assert result.classical_bound == 2
    assert result.witness == {"L0": -1}


def test_label_cap():
    with pytest.raises(ResourceLimitError):
        classical_bound(catalog_get("ineq9", 15))  # past the star cap (34 labels)
    # The scan work is the only limit on a bound: 40 labels in one term
    # have one independent term column (rank 1), a scan of 2 x 1.
    labels = [f"L{i:02d}" for i in range(40)]
    one = InequalityExpr(id="one", set_id="test", terms=(Term(1, tuple(labels)),), bound=None)
    result = classical_bound(one)
    assert (result.classical_bound, result.evaluations) == (1, 2**40)
    assert result.witness == dict.fromkeys(labels, -1)
    # 70 labels in 70 groups are refused on the work alone, before a bit
    # position past 64 is read.
    wide = [f"L{i:02d}" for i in range(70)]
    with pytest.raises(ResourceLimitError, match="scan-work cap"):
        solver.label_bits(wide, [(label,) for label in wide])
    # A set whose labels are in no context still counts 2^labels.
    bare = ObservableSet(set_id="bare", dim=2, observables=dict.fromkeys(labels, pauli("Z")),
                         contexts=())
    with pytest.raises(ResourceLimitError, match=r"2\^40 assignments x 1 "):
        ks_colorable(bare)


def test_scan_work_cap(monkeypatch):
    # 30 labels in 30 one-label terms: 2^30 assignments x 30 terms is
    # past the work cap, refused before any scan.
    labels = [f"L{i:02d}" for i in range(30)]
    wide = InequalityExpr(id="wide", set_id="test",
                          terms=tuple(Term(1, (lab,)) for lab in labels), bound=None)
    with pytest.raises(ResourceLimitError, match="scan-work cap"):
        classical_bound(wide)
    # 4 independent term columns (rank 4) in 4 terms is 2^4 x 4 = 64
    # units of work.
    four = InequalityExpr(id="four", set_id="test",
                          terms=tuple(Term(1, (lab,)) for lab in labels[:4]), bound=None)
    monkeypatch.setattr(solver, "MAX_SCAN_WORK", 64)
    assert classical_bound(four).classical_bound == 4
    monkeypatch.setattr(solver, "MAX_SCAN_WORK", 63)
    with pytest.raises(ResourceLimitError, match="scan-work cap"):
        classical_bound(four)


def test_label_bits_refuse_a_repeated_label(monkeypatch):
    # A repeat would count one label's column twice in a group; the group
    # is refused before any scan, even one past the caps.
    assert solver.label_bits(["a", "b", "c"], [("a", "b"), ("c",)]) == [[2, 1], [0]]
    with pytest.raises(ValueError, match=r"group \('a', 'a'\) repeats a label"):
        solver.label_bits(["a", "b", "c"], [("a", "a")])
    monkeypatch.setattr(solver, "MAX_SCAN_WORK", 1)
    with pytest.raises(ValueError, match="repeats a label"):
        solver.label_bits(["a", "b", "c"], iter([("b", "c"), ("c", "a", "c")]))


def test_label_bits_refuse_a_string_group():
    # "ab" would be read as the group (a, b), bits [1, 0].
    assert solver.label_bits(["a", "b"], [["a", "b"]]) == [[1, 0]]
    with pytest.raises(ValueError, match="sequence of str"):
        solver.label_bits(["a", "b"], ["ab"])


def random_formula(rng, m, depth=3):
    """A random predicate on the m bits of k, as a nested tuple: a bit
    ("bit", p), a constant ("const", b), or not/and/or/xor of formulas."""
    if m == 0 or rng.random() < 0.1:
        return ("const", rng.random() < 0.5)
    if depth == 0 or rng.random() < 0.3:
        return ("bit", rng.randrange(m))
    op = rng.choice(["not", "and", "or", "xor"])
    args = [random_formula(rng, m, depth - 1) for _ in range(1 if op == "not" else 2)]
    return (op, *args)


def formula_column(formula, columns, ones):
    """The formula on a block, through the kernel's bit columns."""
    op, *args = formula
    if op == "const":
        return ones if args[0] else 0
    if op == "bit":
        return columns[args[0]]
    a, *rest = (formula_column(f, columns, ones) for f in args)
    if op == "not":
        return ones ^ a
    return {"and": a & rest[0], "or": a | rest[0], "xor": a ^ rest[0]}[op]


def formula_holds(formula, k):
    """The formula at one k, bit by bit."""
    op, *args = formula
    if op == "const":
        return args[0]
    if op == "bit":
        return bool(k >> args[0] & 1)
    a, *rest = (formula_holds(f, k) for f in args)
    if op == "not":
        return not a
    return {"and": a and rest[0], "or": a or rest[0], "xor": a != rest[0]}[op]


def brute_lex_first_max(m, formulas):
    counts = [sum(formula_holds(f, k) for f in formulas) for k in range(1 << m)]
    best = max(counts)
    return best, counts.index(best)


def test_kernel_matches_brute_force_argmax(monkeypatch):
    # Blocks of 4 assignments, so from m = 3 on the scan spans many
    # blocks and most bits of k are constant within a block.
    monkeypatch.setattr(solver, "_BLOCK_BITS", 2)
    rng = random.Random(35)
    for m in range(11):
        for _ in range(12):
            formulas = [random_formula(rng, m) for _ in range(rng.randrange(10))]
            got = solver.lex_first_max(
                m, lambda columns, ones: [formula_column(f, columns, ones) for f in formulas]
            )
            assert got == brute_lex_first_max(m, formulas), (m, formulas)


def test_kernel_ties_go_to_the_first_k(monkeypatch):
    monkeypatch.setattr(solver, "_BLOCK_BITS", 2)
    # No indicators: every k counts 0, and the first is 0.
    assert solver.lex_first_max(5, lambda columns, ones: []) == (0, 0)
    # bit0 and not bit1 and bit2 == bit3 holds at k = 1 (block 0) and at
    # k = 13 (block 3): the later block's equal count does not replace it.
    def one_and_thirteen(columns, ones):
        return [columns[0] & (ones ^ columns[1]) & (ones ^ columns[2] ^ columns[3])]
    assert solver.lex_first_max(4, one_and_thirteen) == (1, 1)


def scan_of_rank(monkeypatch, expr, rank):
    """The bound of ``expr``, after checking that its scan is over exactly
    ``rank`` labels: a work cap of 2^rank x terms passes and one less
    raises."""
    work = (1 << rank) * len(expr.terms)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "MAX_SCAN_WORK", work - 1)
        with pytest.raises(ResourceLimitError, match="scan-work cap"):
            classical_bound(expr)
        patch.setattr(solver, "MAX_SCAN_WORK", work)
        return classical_bound(expr)


@pytest.mark.parametrize("id_,n,rank", [
    ("ineq1", None, 8), ("ineq4", None, 5), ("kcbs3", None, 4), ("cfrh6", None, 4),
    ("nambu7", None, 5), ("chsh8", None, 3), ("ineq9", 3, 4), ("ineq9", 13, 4),
    ("mermin11", 3, 3), ("mermin11", 13, 3),
])
def test_catalog_scans_its_rank(monkeypatch, id_, n, rank):
    expr = catalog_get(id_, n)
    assert scan_of_rank(monkeypatch, expr, rank) == classical_bound(expr)


def test_witness_is_lex_first_across_blocks(monkeypatch):
    # 18 labels.  L00 and L01 share the incidence {0}, so L00 is dropped
    # and the basis, L01 to L17, has 17 labels: two scan blocks.  The
    # maximizers are L00 = L01 = -1 and L00 = L01 = +1; the witness must be
    # the first in lexicographic order.
    labels = [f"L{i:02d}" for i in range(18)]
    terms = (Term(1, (labels[0], labels[1])),) + tuple(Term(1, (lab,)) for lab in labels[2:])
    expr = InequalityExpr(id="two-blocks", set_id="test", terms=terms, bound=None)
    result = scan_of_rank(monkeypatch, expr, 17)
    assert result.classical_bound == 17
    assert result.witness == {lab: (-1 if lab in labels[:2] else 1) for lab in labels}


def test_merged_witness_past_the_first_block(monkeypatch):
    # 18 labels with 18 distinct term incidences.  The triangle L01 L02,
    # L02 L03, L01 L03 is dependent (L01's column is the XOR of L02's and
    # L03's), so L01 is dropped and the basis has 17 labels: two scan
    # blocks.  L00 = +1 puts every maximizer in the second block; the
    # triangle is maximal at all -1 and at all +1, and the witness takes
    # all -1.
    labels = [f"L{i:02d}" for i in range(18)]
    triangle = ((labels[1], labels[2]), (labels[2], labels[3]), (labels[1], labels[3]))
    terms = ((Term(1, (labels[0],)),) + tuple(Term(1, pair) for pair in triangle)
             + tuple(Term(1, (lab,)) for lab in labels[4:]))
    expr = InequalityExpr(id="second-block", set_id="test", terms=terms, bound=None)
    result = scan_of_rank(monkeypatch, expr, 17)
    assert result.classical_bound == 18
    assert result.witness == {lab: (-1 if lab in labels[1:4] else 1) for lab in labels}
    assert result.evaluations == 2**18


@st.composite
def repeated_incidence_exprs(draw):
    """Expressions whose labels come in groups sharing one term incidence,
    plus single labels whose incidence is the XOR of two or three groups'
    and equal to no group's, so that their columns are dependent but not
    repeated; the names are interleaved in sorted order, and a term no
    label reaches has no factors."""
    term_count = draw(st.integers(1, 6))
    incidences = draw(st.lists(
        st.frozensets(st.integers(0, term_count - 1)), min_size=1, max_size=5))
    sizes = draw(st.lists(st.integers(1, 3), min_size=len(incidences),
                          max_size=len(incidences)))
    picks = st.sets(st.integers(0, len(incidences) - 1), min_size=min(2, len(incidences)),
                    max_size=3)
    for picked in draw(st.lists(picks, min_size=1, max_size=2)):
        xor = functools.reduce(frozenset.symmetric_difference, (incidences[i] for i in picked))
        if xor not in incidences:
            incidences.append(xor)
            sizes.append(1)
    names = iter(draw(st.permutations([f"L{i}" for i in range(sum(sizes))])))
    placed = [(next(names), inc) for inc, size in zip(incidences, sizes) for _ in range(size)]
    terms = tuple(
        Term(draw(st.sampled_from((-1, 1))), tuple(lab for lab, inc in placed if t in inc))
        for t in range(term_count)
    )
    return InequalityExpr(id="merged", set_id="test", terms=terms, bound=None)


@settings(max_examples=300)
@given(repeated_incidence_exprs())
def test_merged_labels_match_naive(expr):
    expected_bound, expected_witness = naive_bound(expr)
    result = classical_bound(expr)
    assert result.classical_bound == expected_bound
    assert result.witness == expected_witness
    assert result.evaluations == 2 ** len(expr.labels)


def test_evaluate_assignment():
    expr = catalog_get("chsh8")
    assert evaluate_assignment(expr, {lab: 1 for lab in expr.labels}) == 2
    with pytest.raises(KeyError):
        evaluate_assignment(expr, {"P14": 1})


def test_bound_sign_flip_invariance():
    # Negating one label is a bijection on assignments, so the bound holds.
    for expr, label in ((catalog_get("kcbs3"), "A12"), (catalog_get("mermin11", 3), "C1")):
        flipped = classical_bound(absorb_sign_flip(expr, label))
        assert flipped.classical_bound == classical_bound(expr).classical_bound

"""The exact, numpy-free layer: Bell expansions against the dense oracle,
the GF(2) elimination, the residual against its j-loop oracle, and an
expression's own label check."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_oracle import operator
from ctxkit.exceptions import UnknownLabelError
from ctxkit.gf2 import eliminate
from ctxkit.inequalities import CATALOG_IDS, InequalityExpr, Term, catalog_get
from ctxkit.linalg import dense
from ctxkit.observables import _bell, build_set
from ctxkit.pauli import Expansion, combine, max_entry, split_identity
from ctxkit.solver import classical_bound


STAR_IDS = ("ineq9", "mermin11")


@pytest.mark.parametrize("id_,n", [(id_, n) for id_ in CATALOG_IDS
                                   for n in ((3, 5, 7) if id_ in STAR_IDS else (None,))])
def test_bell_expansion_equals_the_dense_oracle(id_, n):
    # sum(sign * ordered product of the oracle's matrices), entry for
    # entry: the expansions are exact, and so is this product.
    expr = catalog_get(id_, n)
    obs = build_set(expr.set_id, expr.n)
    want = np.zeros((obs.dim, obs.dim), dtype=complex)
    for term in expr.terms:
        prod = np.eye(obs.dim, dtype=complex)
        for label in term.factors:
            prod = prod @ operator(obs, label)
        want += term.sign * prod
    assert np.array_equal(dense(_bell(obs, expr), obs.dim), want)


def _span(vectors, indices) -> int:
    out = 0
    for i in indices:
        out ^= vectors[i]
    return out


@given(st.lists(st.integers(0, 63), max_size=12))
def test_eliminate_keeps_a_basis_and_writes_the_rest_in_it(vectors):
    kept, coords = eliminate(vectors)
    assert kept == sorted(set(kept)) and len(coords) == len(vectors)
    # Each kept vector is independent of those kept before it: the kept
    # ones span 2^rank distinct sums.
    sums = {_span(vectors, [k for j, k in enumerate(kept) if mask >> j & 1])
            for mask in range(1 << len(kept))}
    assert len(sums) == 1 << len(kept)
    # Each vector is the XOR of the kept vectors at its coordinates' bits:
    # a kept vector's own single bit, another's kept vectors before it
    # (none for a zero vector).
    for i, coord in enumerate(coords):
        parts = [k for p, k in enumerate(kept) if coord >> p & 1]
        assert coord < 1 << len(kept) and _span(vectors, parts) == vectors[i]
        if i in kept:
            assert coord == 1 << kept.index(i)
        else:
            assert all(k < i for k in parts)


def max_entry_by_index(e, dim) -> float:
    """The oracle for ``max_entry``: every entry of each x-group, the sum
    of c (-1)^|z & j| over its terms in term order, for each j in
    range(dim)."""
    groups = {}
    for x, z, c in e:
        groups.setdefault(x, []).append((z, c))
    best = 0.0
    for terms in groups.values():
        for j in range(dim):
            entry = 0j
            for z, c in terms:
                entry += -c if (z & j).bit_count() & 1 else c
            best = max(best, abs(entry))
    return best


@pytest.mark.parametrize("id_,n", [(id_, n) for id_ in CATALOG_IDS
                                   for n in (range(3, 14, 2) if id_ in STAR_IDS else (None,))])
def test_residual_equals_the_index_loop(id_, n):
    # The same sums in the same order, so the same float, not just a
    # close one.
    expr = catalog_get(id_, n)
    obs = build_set(expr.set_id, expr.n)
    _, rest = split_identity(_bell(obs, expr))
    assert repr(max_entry(rest)) == repr(max_entry_by_index(rest, obs.dim))


_TERMS = st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.tuples(
    st.integers(0, 1), st.integers(0, 2**n - 1),
    st.sampled_from([1, -1, 0.5, -3, 1j, -0.5j, 2 + 1j, 0.125 - 0.375j])), max_size=12)))


@given(_TERMS)
def test_max_entry_equals_the_index_loop(case):
    # Up to 12 terms on up to 4 qubits in at most two x-groups, so a
    # group's z-masks are often zero or sums of others.
    n, terms = case
    e = combine((c, Expansion([(x, z, 1 + 0j)])) for x, z, c in terms)
    assert repr(max_entry(e)) == repr(max_entry_by_index(e, 2**n))


def test_an_expression_checks_its_labels_when_it_is_built():
    # The quantum side and the bound used to disagree on Q9: the bound
    # scan gave 1 where the set has no such label.
    with pytest.raises(UnknownLabelError) as info:
        InequalityExpr(id="x", set_id="peres_mermin", terms=(Term(1, ("Q9",)),), bound=None)
    assert info.value.args == ("unknown label 'Q9', not in set peres_mermin",)
    with pytest.raises(UnknownLabelError, match="not in set mermin_star n=3"):
        InequalityExpr(id="x", set_id="mermin_star", terms=(Term(1, ("B5",)),), bound=None, n=3)
    with pytest.raises(ValueError, match="does not take n"):
        InequalityExpr(id="x", set_id="ks18", terms=(), bound=None, n=3)
    # A caller's own set passes, as before.
    own = InequalityExpr(id="x", set_id="own", terms=(Term(1, ("Q9",)),), bound=None)
    assert classical_bound(own).classical_bound == 1

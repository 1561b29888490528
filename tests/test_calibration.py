import itertools

import numpy as np
import pytest

from ctxkit import calibration
from ctxkit.calibration import (
    incidence_automorphisms,
    kcbs_calibration,
    relabel_expr,
)
from ctxkit.inequalities import catalog_get
from ctxkit.pauli import pauli
from ctxkit.observables import ObservableSet
from ctxkit.quantum import bell_operator, evaluate_inequality
from ctxkit.runtime import ASCENT_LANE, draws
from ctxkit.solver import classical_bound
from ctxkit.states import paper_kcbs_product


def brute_force_automorphism_count(obs):
    """Count context-graph automorphisms by checking all 9! vertex
    permutations against the adjacency matrix.  Independent of the
    backtracking search."""
    n = len(obs.contexts)
    membership = {}
    for idx, ctx in enumerate(obs.contexts):
        for label in ctx:
            membership.setdefault(label, []).append(idx)
    adj = [[False] * n for _ in range(n)]
    for pair in membership.values():
        u, v = pair
        adj[u][v] = adj[v][u] = True
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(adj[perm[i]][perm[j]] == adj[i][j] for i, j in pairs):
            count += 1
    return count


def test_automorphism_count_matches_brute_force(ks18_obs):
    maps = incidence_automorphisms(ks18_obs)
    assert len(maps) == 72
    assert len(maps) == brute_force_automorphism_count(ks18_obs)


def test_automorphisms_form_a_group(ks18_obs):
    maps = incidence_automorphisms(ks18_obs)
    labels = sorted(ks18_obs.labels)
    keys = {tuple(m[lab] for lab in labels) for m in maps}
    identity = tuple(labels)
    assert identity in keys
    assert len(keys) == len(maps)  # all distinct
    for a in maps:
        assert sorted(a.values()) == labels  # bijections
        for b in maps[:6]:
            composed = tuple(a[b[lab]] for lab in labels)
            assert composed in keys


def test_automorphisms_preserve_contexts(ks18_obs):
    context_sets = {frozenset(ctx) for ctx in ks18_obs.contexts}
    for m in incidence_automorphisms(ks18_obs)[:12]:
        for ctx in ks18_obs.contexts:
            assert frozenset(m[lab] for lab in ctx) in context_sets


def test_incidence_automorphisms_input_validation():
    # Every label is ZI in dimension 4: commuting involutions, so only
    # the incidence rules are under test.
    observables = {lab: pauli("ZI") for lab in "abcdefgh"}

    def toy_set(contexts):
        return ObservableSet(set_id="toy", dim=4, observables=observables, contexts=contexts)

    lonely = toy_set((("a", "b", "c", "d"), ("e", "f", "g", "h")))
    with pytest.raises(ValueError):
        incidence_automorphisms(lonely)  # labels in only one context
    doubled = toy_set((
        ("a", "b", "c", "d"),
        ("a", "b", "e", "f"),
        ("c", "e", "g", "h"),
        ("d", "f", "g", "h"),
    ))
    with pytest.raises(ValueError):
        incidence_automorphisms(doubled)  # two contexts share two labels
    with pytest.raises(ValueError, match="repeats a label"):
        incidence_automorphisms(toy_set((("a", "a", "b", "c"),)))


def test_relabel_expr(ks18_obs):
    expr = catalog_get("kcbs3")
    maps = incidence_automorphisms(ks18_obs)
    identity = next(m for m in maps if all(k == v for k, v in m.items()))
    assert relabel_expr(expr, identity) == expr
    # Renaming cannot change an exhaustive bound.
    for m in maps[:5]:
        assert classical_bound(relabel_expr(expr, m)).classical_bound == 3


def draw_start(seed, pentagon, start):
    """One ascent's unnormalized starting factors (a, b), from its draws row."""
    row = draws(seed, ASCENT_LANE, (pentagon,), (start,), 8)[0]
    return row[0:2] + 1j * row[2:4], row[4:6] + 1j * row[6:8]


def test_product_state_ascent_properties(ks18_obs):
    # One product-state ascent, run alone as a one-row _ascend.
    bell = bell_operator(ks18_obs, catalog_get("kcbs3"))
    a0, b0 = draw_start(0, 0, 0)
    values, a, b = calibration._ascend(bell.reshape(1, 2, 2, 2, 2), a0[None], b0[None])
    value, a, b = values[0], a[0], b[0]

    assert np.linalg.norm(a) == pytest.approx(1.0)
    assert np.linalg.norm(b) == pytest.approx(1.0)
    psi = np.kron(a, b)
    assert value == pytest.approx(float(np.real(psi.conj() @ bell @ psi)))
    assert value <= float(np.linalg.eigvalsh(bell)[-1]) + 1e-9

    # The ascent never moves below its own starting point.
    psi0 = np.kron(a0 / np.linalg.norm(a0), b0 / np.linalg.norm(b0))
    start_value = float(np.real(psi0.conj() @ bell @ psi0))
    assert value >= start_value - 1e-12


def test_calibration_report_frozen_values():
    report = kcbs_calibration()
    assert report.automorphism_count == 72
    assert report.pentagon_count == 36
    assert len(report.paper_state_values) == 72
    assert report.best_paper_value == pytest.approx(3.175878456661612, abs=1e-9)
    assert max(report.paper_state_values) == report.best_paper_value
    assert report.target == 3.6
    assert not report.target_matched
    assert report.best_product_value == pytest.approx(3.6804412798304726, abs=1e-9)
    assert report.qualitative_violation
    assert len(report.best_pentagon) == 5


def test_calibration_best_value_is_reachable(ks18_obs):
    # The reported best product state must actually evaluate to the
    # reported value on the reported pentagon.
    report = kcbs_calibration()
    from ctxkit.inequalities import InequalityExpr, Term

    expr = InequalityExpr(
        id="best", set_id="ks18",
        terms=tuple(Term(-1, f) for f in report.best_pentagon),
        bound=None,
    )
    rho = np.outer(report.best_product_state, report.best_product_state.conj())
    assert evaluate_inequality(rho, ks18_obs, expr) == pytest.approx(
        report.best_product_value, abs=1e-9
    )
    assert report.best_product_value <= float(
        np.linalg.eigvalsh(bell_operator(ks18_obs, expr))[-1]
    ) + 1e-9


def test_calibration_deterministic():
    a = kcbs_calibration(seed=0)
    b = kcbs_calibration(seed=0)
    assert a.paper_state_values == b.paper_state_values
    assert a.best_product_value == b.best_product_value
    assert a.best_pentagon == b.best_pentagon
    assert np.array_equal(a.best_product_state, b.best_product_state)


def test_paper_state_value_at_reference_labeling(ks18_obs):
    # The identity relabeling's value appears in the sweep.
    value = evaluate_inequality(paper_kcbs_product(), ks18_obs, catalog_get("kcbs3"))
    report = kcbs_calibration()
    assert any(v == pytest.approx(value, abs=1e-12) for v in report.paper_state_values)


def test_each_relabeling_builds_one_bell_operator(monkeypatch):
    # 72 relabelings onto 36 distinct pentagons: each pentagon's operator
    # is built once, by the first relabeling that reaches it, and every
    # relabeling reads its reference value from its pentagon.
    calls = []

    def counted(obs, expr):
        calls.append(expr)
        return bell_operator(obs, expr)

    monkeypatch.setattr(calibration, "bell_operator", counted)
    report = kcbs_calibration()
    assert (report.automorphism_count, report.pentagon_count) == (72, 36)
    assert len(calls) == 36
    assert len({frozenset(frozenset(t.factors) for t in e.terms) for e in calls}) == 36


@pytest.mark.parametrize("seed, message", [
    (-1, "must fit in an unsigned 64-bit integer, got -1"),
    (2**64, "must fit in an unsigned 64-bit integer, got 18446744073709551616"),
    (1.5, "must be an integer, got 1.5"),
    (True, "must be an integer, got True"),
], ids=["negative", "past 2^64", "float", "bool"])
def test_a_bad_seed_is_refused_before_any_work(monkeypatch, seed, message):
    # Refused before the relabeling sweep and its 36 Bell operators.
    calls = {"bell_operator": 0, "incidence_automorphisms": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(calibration, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(calibration, name, counted)
    with pytest.raises(ValueError, match=f"^seed {message}$"):
        kcbs_calibration(seed)
    assert calls == {"bell_operator": 0, "incidence_automorphisms": 0}


def test_top_eigvec_2x2_degenerate_keeps_the_current_vector():
    # Any unit vector is a top eigenvector of a multiple of the identity.
    current = np.array([[0.6, 0.8j]])
    vecs = calibration._top_eigvecs((np.eye(2) * 3.0)[None].astype(complex), current)
    assert vecs.tobytes() == current.tobytes()


@pytest.mark.parametrize("diag,want", [((3.0, 1.0), [1, 0]), ((1.0, 3.0), [0, 1])])
def test_top_eigvec_2x2_diagonal(diag, want):
    vecs = calibration._top_eigvecs(
        np.diag(diag).astype(complex)[None], np.array([[0.6, 0.8]], dtype=complex)
    )
    assert vecs[0].tolist() == want


def test_top_eigvecs_on_a_mixed_batch():
    # A degenerate row (any unit vector is a top eigenvector of a multiple
    # of the identity) keeps its current vector, and the two diagonal
    # rows give the basis vector of their larger entry, beside a general
    # row whose eigenvector comes from the closed form.
    general = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, -1.0]])
    m = np.array(
        [np.eye(2) * 3.0, np.diag([3.0, 1.0]), general, np.diag([1.0, 3.0])], dtype=complex
    )
    current = np.array([[0.6, 0.8j], [0.6, 0.8], [0.6, 0.8], [0.6, 0.8]])
    vecs = calibration._top_eigvecs(m, current)
    assert vecs[0].tobytes() == current[0].tobytes()
    assert vecs[1].tolist() == [1, 0]
    assert vecs[3].tolist() == [0, 1]
    assert np.linalg.norm(vecs[2]) == pytest.approx(1.0)
    assert general @ vecs[2] == pytest.approx(np.linalg.eigvalsh(general)[-1] * vecs[2])


def test_each_batch_row_is_a_lone_ascent(ks18_obs):
    # The calibration runs its 216 ascents in lock step; every row must
    # have the bits of a one-row ascent from that start alone, and be a
    # product state whose value is <ab|B|ab>, within the spectrum and no
    # lower than its start's.
    report = kcbs_calibration(seed=2)
    expr = catalog_get("kcbs3")
    bells = {}
    for m in incidence_automorphisms(ks18_obs):
        mapped = relabel_expr(expr, m)
        key = frozenset(frozenset(t.factors) for t in mapped.terms)
        bells.setdefault(key, bell_operator(ks18_obs, mapped))
    bells = list(bells.values())
    starts = calibration.ASCENT_STARTS
    rows = [(p, s) for p in range(len(bells)) for s in range(starts)]
    a, b = (np.array(f) for f in zip(*(
        draw_start(2, p, s) for p, s in rows
    )))
    tensors = np.repeat(np.array(bells).reshape(-1, 2, 2, 2, 2), starts, axis=0)
    values, a, b = calibration._ascend(tensors, a, b)
    assert len(values) == 216
    for r, (p, s) in enumerate(rows):
        a0, b0 = draw_start(2, p, s)
        value, lone_a, lone_b = calibration._ascend(
            bells[p].reshape(1, 2, 2, 2, 2), a0[None], b0[None])
        assert value[0] == values[r]
        assert lone_a[0].tobytes() == a[r].tobytes()
        assert lone_b[0].tobytes() == b[r].tobytes()

        assert np.linalg.norm(a[r]) == pytest.approx(1.0)
        assert np.linalg.norm(b[r]) == pytest.approx(1.0)
        psi = np.kron(a[r], b[r])
        assert values[r] == pytest.approx(float(np.real(psi.conj() @ bells[p] @ psi)))
        assert values[r] <= float(np.linalg.eigvalsh(bells[p])[-1]) + 1e-9
        psi0 = np.kron(a0 / np.linalg.norm(a0), b0 / np.linalg.norm(b0))
        assert values[r] >= float(np.real(psi0.conj() @ bells[p] @ psi0)) - 1e-12
    best = int(np.argmax(values))
    assert report.best_product_value == values[best]
    assert report.best_product_state.tobytes() == np.kron(a[best], b[best]).tobytes()


PENTAGON_A56 = (("A56", "A69"), ("A56", "A45"), ("A45", "A34"), ("A34", "A39"), ("A69", "A39"))
PENTAGON_A23 = (("A23", "A39"), ("A23", "A12"), ("A12", "A16"), ("A16", "A69"), ("A39", "A69"))


@pytest.mark.parametrize("seed, best_product, pentagon", [
    (0, "3.680441279830472", PENTAGON_A56),
    (2, "3.6804412798304718", PENTAGON_A23),
    (3, "3.6804412798304718", PENTAGON_A56),
    (7, "3.680441279830472", PENTAGON_A56),
])
def test_calibration_is_pinned(seed, best_product, pentagon):
    report = kcbs_calibration(seed=seed)
    assert repr(report.best_product_value) == best_product
    assert repr(report.best_paper_value) == "3.1758784566616125"
    assert report.best_pentagon == pentagon

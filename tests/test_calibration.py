import itertools

import numpy as np
import pytest

from ctxkit import calibration
from ctxkit.calibration import (
    incidence_automorphisms,
    kcbs_calibration,
    product_state_ascent,
    relabel_expr,
)
from ctxkit.inequalities import catalog_get
from ctxkit.observables import RaySet
from ctxkit.quantum import bell_operator, evaluate_inequality
from ctxkit.runtime import substream
from ctxkit.solver import classical_bound
from ctxkit.states import paper_kcbs_product


def brute_force_automorphism_count(rayset):
    """Count context-graph automorphisms by checking all 9! vertex
    permutations against the adjacency matrix.  Independent of the
    backtracking search."""
    n = len(rayset.contexts)
    membership = {}
    for idx, ctx in enumerate(rayset.contexts):
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


def test_automorphism_count_matches_brute_force(ks18_rayset):
    maps = incidence_automorphisms(ks18_rayset)
    assert len(maps) == 72
    assert len(maps) == brute_force_automorphism_count(ks18_rayset)


def test_automorphisms_form_a_group(ks18_rayset):
    maps = incidence_automorphisms(ks18_rayset)
    labels = sorted(ks18_rayset.rays)
    keys = {tuple(m[lab] for lab in labels) for m in maps}
    identity = tuple(labels)
    assert identity in keys
    assert len(keys) == len(maps)  # all distinct
    for a in maps:
        assert sorted(a.values()) == labels  # bijections
        for b in maps[:6]:
            composed = tuple(a[b[lab]] for lab in labels)
            assert composed in keys


def test_automorphisms_preserve_contexts(ks18_rayset):
    context_sets = {frozenset(ctx) for ctx in ks18_rayset.contexts}
    for m in incidence_automorphisms(ks18_rayset)[:12]:
        for ctx in ks18_rayset.contexts:
            assert frozenset(m[lab] for lab in ctx) in context_sets


def test_incidence_automorphisms_input_validation():
    rays = {lab: np.array([1, 0, 0, 0]) for lab in "abcdefgh"}
    lonely = RaySet(rays=rays, contexts=(("a", "b", "c", "d"), ("e", "f", "g", "h")))
    with pytest.raises(ValueError):
        incidence_automorphisms(lonely)  # rays in only one context
    doubled = RaySet(
        rays=rays,
        contexts=(
            ("a", "b", "c", "d"),
            ("a", "b", "e", "f"),
            ("c", "e", "g", "h"),
            ("d", "f", "g", "h"),
        ),
    )
    with pytest.raises(ValueError):
        incidence_automorphisms(doubled)  # two contexts share two rays


def test_relabel_expr(ks18_rayset):
    expr = catalog_get("kcbs3")
    maps = incidence_automorphisms(ks18_rayset)
    identity = next(m for m in maps if all(k == v for k, v in m.items()))
    assert relabel_expr(expr, identity) == expr
    # Renaming cannot change an exhaustive bound.
    for m in maps[:5]:
        assert classical_bound(relabel_expr(expr, m)).bound == 3


def test_product_state_ascent_properties(ks18_obs):
    bell = bell_operator(ks18_obs, catalog_get("kcbs3"))
    rng = substream(0, 3, index=0, subindex=0)
    value, a, b = product_state_ascent(bell, rng)

    assert np.linalg.norm(a) == pytest.approx(1.0)
    assert np.linalg.norm(b) == pytest.approx(1.0)
    psi = np.kron(a, b)
    assert value == pytest.approx(float(np.real(psi.conj() @ bell @ psi)))
    assert value <= float(np.linalg.eigvalsh(bell)[-1]) + 1e-9

    # The ascent never moves below its own starting point.
    replay = substream(0, 3, index=0, subindex=0)
    a0 = replay.standard_normal(2) + 1j * replay.standard_normal(2)
    b0 = replay.standard_normal(2) + 1j * replay.standard_normal(2)
    psi0 = np.kron(a0 / np.linalg.norm(a0), b0 / np.linalg.norm(b0))
    start_value = float(np.real(psi0.conj() @ bell @ psi0))
    assert value >= start_value - 1e-12


def test_product_state_ascent_needs_two_qubits():
    with pytest.raises(ValueError):
        product_state_ascent(np.eye(8, dtype=complex), substream(0, 3))


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
    # 72 relabelings, one operator each; the 36 distinct pentagons reuse
    # the first operator built for them.
    calls = []

    def counted(obs, expr):
        calls.append(expr)
        return bell_operator(obs, expr)

    monkeypatch.setattr(calibration, "bell_operator", counted)
    report = kcbs_calibration()
    assert (report.automorphism_count, report.pentagon_count) == (72, 36)
    assert len(calls) == 72


def test_top_eigvec_2x2_degenerate_keeps_the_current_vector():
    # Any unit vector is a top eigenvector of a multiple of the identity.
    current = np.array([0.6, 0.8j])
    assert calibration._top_eigvec_2x2(np.eye(2) * 3.0, current) is current


@pytest.mark.parametrize("diag,want", [((3.0, 1.0), [1, 0]), ((1.0, 3.0), [0, 1])])
def test_top_eigvec_2x2_diagonal(diag, want):
    vec = calibration._top_eigvec_2x2(np.diag(diag).astype(complex), np.array([0.6, 0.8]))
    assert vec.tolist() == want

import itertools

import numpy as np
import pytest

from ctxkit.exceptions import ResourceLimitError
from ctxkit.pauli import combine, pauli
from ctxkit.observables import ObservableSet
from ctxkit.parity import ks_colorable, parity_stats
from ctxkit import solver
from ctxkit.solver import classical_bound
from ctxkit.inequalities import catalog_get


def toy_set(contexts, extra=()):
    """A set in dimension 4 whose every label is ZI: commuting involutions,
    so any contexts of distinct labels are accepted."""
    labels = sorted({lab for ctx in contexts for lab in ctx} | set(extra))
    observables = {lab: pauli("ZI") for lab in labels}
    return ObservableSet(set_id="toy", dim=4, observables=observables, contexts=contexts)


def naive_coloring(obs):
    """Independent reference: walk 0/1 assignments to the sorted labels in
    lexicographic order (0 before 1, first label most significant) and
    return the first with exactly one 1 per context, or None."""
    labels = sorted(obs.labels)
    index = {lab: i for i, lab in enumerate(labels)}
    contexts = [[index[lab] for lab in ctx] for ctx in obs.contexts]
    for values in itertools.product((0, 1), repeat=len(labels)):
        if all(sum(values[i] for i in ctx) == 1 for ctx in contexts):
            return dict(zip(labels, values))
    return None


def test_ks18_not_colorable(ks18_obs):
    result = ks_colorable(ks18_obs)
    assert not result.satisfiable
    assert result.witness is None
    assert naive_coloring(ks18_obs) is None


def test_dropping_any_context_restores_colorability(ks18_obs):
    # The 18-ray set is critical: remove one context and both the
    # kernel scan and the naive enumeration find the same first coloring.
    for skip in range(9):
        contexts = tuple(
            ctx for i, ctx in enumerate(ks18_obs.contexts) if i != skip
        )
        sub = ObservableSet(
            set_id="ks18", dim=4, observables=ks18_obs.observables, contexts=contexts
        )
        result = ks_colorable(sub)
        assert result.satisfiable
        assert result.witness == naive_coloring(sub)
        for ctx in contexts:
            assert sum(result.witness[lab] for lab in ctx) == 1
        assert set(result.witness) == set(ks18_obs.labels)


def test_unsat_is_consistent_with_classical_bound(ks18_obs):
    # A coloring would give an assignment with all nine context products
    # equal to -1, pushing the sum inequality to 9; the exact bound of 7
    # independently confirms no such assignment exists.
    assert classical_bound(catalog_get("ineq1")).classical_bound < 9
    assert not ks_colorable(ks18_obs).satisfiable


def test_toy_satisfiable_witness():
    obs = toy_set([("a", "b", "c", "d"), ("e", "f", "g", "h")])
    result = ks_colorable(obs)
    assert result.satisfiable
    assert sorted(result.witness) == list("abcdefgh")
    for ctx in obs.contexts:
        assert sum(result.witness[lab] for lab in ctx) == 1


def test_shared_ray_propagation():
    # Two contexts sharing one label: coloring exists (e.g. the shared
    # label set to 1 covers both contexts).
    obs = toy_set([("a", "b", "c", "d"), ("a", "e", "f", "g")])
    result = ks_colorable(obs)
    assert result.satisfiable
    assert result.witness == naive_coloring(obs)


def test_malformed_raysets(pm_obs, star3_obs):
    # A coloring needs every context to be a basis of dim labels; an
    # ObservableSet checks its contexts' labels when it is built.
    with pytest.raises(ValueError, match="is not a basis of 4 labels"):
        ks_colorable(toy_set([("a", "b", "c")]))  # not 4 labels
    for obs in (pm_obs, star3_obs):
        with pytest.raises(ValueError, match="is not a basis"):
            ks_colorable(obs)
    with pytest.raises(ValueError, match="repeats a label"):
        ks_colorable(toy_set([("a", "a", "b", "c")]))  # a repeated label
    observables = {lab: pauli("ZI") for lab in "abcd"}
    with pytest.raises(ValueError, match="unknown label x"):
        ks_colorable(
            ObservableSet(set_id="toy", dim=4, observables=observables,
                          contexts=(("a", "b", "c", "x"),))
        )


def test_witness_is_lex_first_coloring():
    # 0 < 1 and the first label is most significant, so the first
    # coloring puts each context's 1 on its last label.
    result = ks_colorable(toy_set([("a", "b", "c", "d"), ("e", "f", "g", "h")]))
    assert result.witness == {lab: int(lab in "dh") for lab in "abcdefgh"}


def test_random_raysets_match_naive():
    rng = np.random.default_rng(2026)
    verdicts = set()
    for _ in range(30):
        pool = [f"r{i:02d}" for i in range(int(rng.integers(4, 11)))]
        contexts = [
            tuple(str(lab) for lab in rng.choice(pool, size=4, replace=False))
            for _ in range(int(rng.integers(1, 8)))
        ]
        obs = toy_set(contexts, extra=pool)
        result = ks_colorable(obs)
        expected = naive_coloring(obs)
        assert result.satisfiable == (expected is not None)
        assert result.witness == expected
        verdicts.add(result.satisfiable)
    assert verdicts == {True, False}


def test_first_coloring_past_the_first_block():
    # Five disjoint contexts over 20 labels: the first coloring is
    # k = 0x11111 = 69905, in the second scan block of 2^16.
    contexts = [tuple(f"r{4 * i + j:02d}" for j in range(4)) for i in range(5)]
    obs = toy_set(contexts)
    result = ks_colorable(obs)
    assert result.witness == naive_coloring(obs)
    assert [lab for lab, v in result.witness.items() if v] == [ctx[-1] for ctx in contexts]


def test_ray_cap():
    contexts = [tuple(f"r{i}_{j}" for j in range(4)) for i in range(8)]  # 32 labels
    with pytest.raises(ResourceLimitError):
        ks_colorable(toy_set(contexts))


def test_coloring_shares_the_scan_work_cap(monkeypatch, ks18_obs):
    # 2^18 assignments x 9 contexts is the 18-ray coloring's scan work.
    monkeypatch.setattr(solver, "MAX_SCAN_WORK", 9 * 2**18 - 1)
    with pytest.raises(ResourceLimitError, match="scan-work cap"):
        ks_colorable(ks18_obs)


def test_parity_stats_ks18(ks18_obs):
    stats = parity_stats(ks18_obs)
    assert stats.context_count == 9
    assert set(stats.occurrences.values()) == {2}
    assert stats.minus_identity_contexts == 9
    assert stats.parity_contradiction


def test_parity_stats_peres_mermin(pm_obs):
    stats = parity_stats(pm_obs)
    assert stats.context_count == 6
    assert set(stats.occurrences.values()) == {2}
    assert stats.minus_identity_contexts == 1
    assert stats.parity_contradiction


def test_parity_stats_star(star3_obs, star5_obs):
    for obs in (star3_obs, star5_obs):
        stats = parity_stats(obs)
        assert stats.context_count == 5
        assert set(stats.occurrences.values()) == {2}
        assert stats.minus_identity_contexts == 1
        assert stats.parity_contradiction


def test_parity_no_contradiction_with_odd_occurrence():
    # A label in an odd number of contexts breaks the counting argument
    # even when the minus count is odd: Z (-Z) = -1, each label once.
    obs = ObservableSet(
        set_id="toy", dim=2,
        observables={"a": pauli("Z"), "b": combine([(-1, pauli("Z"))])},
        contexts=(("a", "b"),),
    )
    stats = parity_stats(obs)
    assert stats.occurrences == {"a": 1, "b": 1}
    assert stats.minus_identity_contexts == 1
    assert not stats.parity_contradiction

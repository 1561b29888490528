import itertools

import numpy as np
import pytest

from ctxkit.exceptions import ResourceLimitError
from ctxkit.linalg import combine, pauli
from ctxkit.observables import ObservableSet, RaySet
from ctxkit.parity import ks_colorable, parity_stats
from ctxkit import solver
from ctxkit.solver import classical_bound
from ctxkit.inequalities import catalog_get


def toy_rayset(contexts, extra=()):
    labels = sorted({lab for ctx in contexts for lab in ctx} | set(extra))
    rays = {lab: np.array([1, 0, 0, 0]) for lab in labels}
    return RaySet(rays=rays, contexts=tuple(tuple(c) for c in contexts))


def naive_coloring(rayset):
    """Independent reference: walk 0/1 assignments to the sorted rays in
    lexicographic order (0 before 1, first ray most significant) and
    return the first with exactly one 1 per context, or None."""
    labels = sorted(rayset.rays)
    index = {lab: i for i, lab in enumerate(labels)}
    contexts = [[index[lab] for lab in ctx] for ctx in rayset.contexts]
    for values in itertools.product((0, 1), repeat=len(labels)):
        if all(sum(values[i] for i in ctx) == 1 for ctx in contexts):
            return dict(zip(labels, values))
    return None


def test_ks18_not_colorable(ks18_rayset):
    result = ks_colorable(ks18_rayset)
    assert not result.satisfiable
    assert result.witness is None
    assert naive_coloring(ks18_rayset) is None


def test_dropping_any_context_restores_colorability(ks18_rayset):
    # The 18-ray set is critical: remove one context and both the
    # kernel scan and the naive enumeration find the same first coloring.
    for skip in range(9):
        contexts = tuple(
            ctx for i, ctx in enumerate(ks18_rayset.contexts) if i != skip
        )
        sub = RaySet(rays=ks18_rayset.rays, contexts=contexts)
        result = ks_colorable(sub)
        assert result.satisfiable
        assert result.witness == naive_coloring(sub)
        for ctx in contexts:
            assert sum(result.witness[lab] for lab in ctx) == 1
        assert set(result.witness) == set(ks18_rayset.rays)


def test_unsat_is_consistent_with_classical_bound(ks18_rayset):
    # A coloring would give an assignment with all nine context products
    # equal to -1, pushing the sum inequality to 9; the exact bound of 7
    # independently confirms no such assignment exists.
    assert classical_bound(catalog_get("ineq1")).bound < 9
    assert not ks_colorable(ks18_rayset).satisfiable


def test_toy_satisfiable_witness():
    rayset = toy_rayset([("a", "b", "c", "d"), ("e", "f", "g", "h")])
    result = ks_colorable(rayset)
    assert result.satisfiable
    assert sorted(result.witness) == list("abcdefgh")
    for ctx in rayset.contexts:
        assert sum(result.witness[lab] for lab in ctx) == 1


def test_shared_ray_propagation():
    # Two contexts sharing one ray: coloring exists (e.g. the shared ray
    # set to 1 covers both contexts).
    rayset = toy_rayset([("a", "b", "c", "d"), ("a", "e", "f", "g")])
    result = ks_colorable(rayset)
    assert result.satisfiable
    assert result.witness == naive_coloring(rayset)


def test_malformed_raysets():
    # A RaySet checks its contexts when it is built.
    with pytest.raises(ValueError):
        ks_colorable(toy_rayset([("a", "b", "c")]))  # not 4 rays
    with pytest.raises(ValueError, match="is not 4 distinct rays"):
        ks_colorable(toy_rayset([("a", "a", "b", "c")]))  # a repeated ray
    rays = {lab: np.array([1, 0, 0, 0]) for lab in "abcd"}
    with pytest.raises(ValueError):
        ks_colorable(RaySet(rays=rays, contexts=(("a", "b", "c", "x"),)))


def test_witness_is_lex_first_coloring():
    # 0 < 1 and the first ray is most significant, so the first coloring
    # puts each context's 1 on its last ray.
    result = ks_colorable(toy_rayset([("a", "b", "c", "d"), ("e", "f", "g", "h")]))
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
        rayset = toy_rayset(contexts, extra=pool)
        result = ks_colorable(rayset)
        expected = naive_coloring(rayset)
        assert result.satisfiable == (expected is not None)
        assert result.witness == expected
        verdicts.add(result.satisfiable)
    assert verdicts == {True, False}


def test_first_coloring_past_the_first_block():
    # Five disjoint contexts over 20 rays: the first coloring is
    # k = 0x11111 = 69905, in the second scan block of 2^16.
    contexts = [tuple(f"r{4 * i + j:02d}" for j in range(4)) for i in range(5)]
    rayset = toy_rayset(contexts)
    result = ks_colorable(rayset)
    assert result.witness == naive_coloring(rayset)
    assert [lab for lab, v in result.witness.items() if v] == [ctx[-1] for ctx in contexts]


def test_ray_cap():
    contexts = [tuple(f"r{i}_{j}" for j in range(4)) for i in range(8)]  # 32 rays
    with pytest.raises(ResourceLimitError):
        ks_colorable(toy_rayset(contexts))


def test_coloring_shares_the_scan_work_cap(monkeypatch, ks18_rayset):
    # 2^18 assignments x 9 contexts is the 18-ray coloring's scan work.
    monkeypatch.setattr(solver, "MAX_SCAN_WORK", 9 * 2**18 - 1)
    with pytest.raises(ResourceLimitError, match="scan-work cap"):
        ks_colorable(ks18_rayset)


def test_parity_stats_ks18(ks18_obs):
    stats = parity_stats(ks18_obs)
    assert stats.context_count == 9
    assert set(stats.occurrences.values()) == {2}
    assert stats.minus_identity_contexts == 9
    assert stats.parity_contradiction


def test_parity_stats_rejects_a_rayset(ks18_rayset):
    # A RaySet holds no observables, so its context signs could only be
    # assumed; four copies of one ray would then count as minus-identity.
    with pytest.raises(TypeError):
        parity_stats(ks18_rayset)


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

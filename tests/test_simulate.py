import gc
import weakref

import numpy as np
import pytest

from dense_oracle import ray_operator, star_operators
from ctxkit import linalg, quantum
from ctxkit.exceptions import IncompatibleContextError, NumericError, ResourceLimitError
from ctxkit.inequalities import Term, catalog_get
from ctxkit.linalg import expand
from ctxkit.observables import KS18_RAYS, ObservableSet, build_set, star_contexts
from ctxkit.runtime import substream
from ctxkit.simulate import (
    MAX_SHOTS,
    _branch_outcomes,
    estimate_term,
    marginal_consistency,
    report_to_json,
    run_protocol,
    sequential_measure,
)
from ctxkit.states import (
    ghz,
    haar_random,
    make_state,
    maximally_mixed,
    singlet,
    zero_product,
)


def outcome_product(record):
    prod = 1
    for _, outcome in record.outcomes:
        prod *= outcome
    return prod


def test_sequential_measure_record_shape(ks18_obs):
    rng = substream(0, 1, 0, 0)
    ctx = ks18_obs.contexts[0]
    record = sequential_measure(maximally_mixed(4), ks18_obs, ctx, rng)
    assert tuple(lab for lab, _ in record.outcomes) == ctx
    assert all(outcome in (-1, 1) for _, outcome in record.outcomes)
    assert np.trace(record.post_state) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ks18_context_products_always_minus_one(ks18_obs, seed):
    rho = haar_random(4, seed=seed)
    for index, ctx in enumerate(ks18_obs.contexts):
        for shot in range(5):
            rng = substream(seed, 1, index, shot)
            record = sequential_measure(rho, ks18_obs, ctx, rng)
            assert outcome_product(record) == -1


def test_sequential_measure_deterministic_outcome(pm_obs):
    # |00> is a +1 eigenstate of both Z x 1 and 1 x Z.
    rng = substream(3, 1, 0, 0)
    record = sequential_measure(zero_product(2), pm_obs, ("P14", "P15"), rng)
    assert record.outcomes == (("P14", 1), ("P15", 1))


def test_sequential_measure_rejects_incompatible(pm_obs):
    with pytest.raises(IncompatibleContextError):
        sequential_measure(singlet(), pm_obs, ("P14", "P25"), substream(0, 1))


def test_sequential_measure_rejects_wrong_dimension(ks18_obs):
    with pytest.raises(ValueError):
        sequential_measure(np.eye(2) / 2, ks18_obs, ("A12",), substream(0, 1))


def test_simulator_rejects_non_states(ks18_obs):
    # Trace 2: every entry point must refuse it rather than estimate.
    not_a_state = 2 * np.eye(4) / 4
    ctx = ks18_obs.contexts[0]
    with pytest.raises(ValueError):
        estimate_term(not_a_state, ks18_obs, Term(-1, ctx), 10, seed=0)
    with pytest.raises(ValueError):
        run_protocol(not_a_state, ks18_obs, catalog_get("ineq1"), 10, seed=0)
    with pytest.raises(ValueError):
        sequential_measure(not_a_state, ks18_obs, ctx, substream(0, 1))
    with pytest.raises(ValueError):
        marginal_consistency(not_a_state, ks18_obs, "A12", (ctx, ks18_obs.contexts[1]), 10, seed=0)


def test_zero_probability_branch_raises(pm_obs):
    class AlwaysHigh:
        # A real generator never returns 1.0; this forces the sampler
        # into the probability-zero branch to exercise the guard.
        def random(self):
            return 1.0

    with pytest.raises(NumericError):
        sequential_measure(zero_product(2), pm_obs, ("P14",), AlwaysHigh())


def test_estimate_term_matches_per_shot_replay(ks18_obs):
    """The batched estimator must reproduce, bit for bit, what per-shot
    sequential measurement with the documented substreams gives."""
    rho = haar_random(4, seed=8)
    term = catalog_get("kcbs3").terms[1]
    shots, seed, term_index = 64, 5, 1
    est = estimate_term(rho, ks18_obs, term, shots, seed, term_index=term_index)

    values = np.empty(shots)
    for s in range(shots):
        rng = substream(seed, 1, term_index, s)
        record = sequential_measure(rho, ks18_obs, term.factors, rng)
        values[s] = term.sign * outcome_product(record)
    assert est.estimate == float(values.mean())
    assert est.standard_error == float(values.std(ddof=1) / np.sqrt(shots))
    assert est.shots == shots


def test_estimate_term_exact_cases(pm_obs, ks18_obs):
    est = estimate_term(zero_product(2), pm_obs, Term(1, ("P14", "P15")), 50, seed=0)
    assert est.estimate == 1.0
    assert est.standard_error == 0.0

    # A full minus-identity context estimates its sign exactly.
    full_context = catalog_get("ineq1").terms[0]
    est = estimate_term(maximally_mixed(4), ks18_obs, full_context, 50, seed=0)
    assert est.estimate == 1.0
    assert est.standard_error == 0.0


def test_estimate_term_constant_term(pm_obs):
    est = estimate_term(singlet(), pm_obs, Term(-1, ()), 10, seed=0)
    assert est.estimate == -1.0
    assert est.standard_error == 0.0
    assert est.shots == 10


def test_estimate_term_needs_two_shots(pm_obs):
    with pytest.raises(ValueError):
        estimate_term(singlet(), pm_obs, Term(1, ("P14",)), 1, seed=0)


def test_shot_cap_comes_before_any_draw(pm_obs, ks18_obs):
    # Constant terms too: their values would otherwise be one array of
    # ``shots`` floats.
    for shots in (MAX_SHOTS + 1, 10**12):
        for term in (Term(1, ("P14",)), Term(-1, ())):
            with pytest.raises(ResourceLimitError):
                estimate_term(singlet(), pm_obs, term, shots, seed=0)
        with pytest.raises(ResourceLimitError):
            marginal_consistency(maximally_mixed(4), ks18_obs, "A12", ks18_obs.contexts[:2],
                                 shots, seed=0)


def test_singlet_z_outcomes_anticorrelated(pm_obs):
    for shot in range(8):
        rng = substream(1, 1, 0, shot)
        record = sequential_measure(singlet(), pm_obs, ("P14", "P15"), rng)
        assert record.outcomes[0][1] == -record.outcomes[1][1]


def test_estimate_term_converges(pm_obs):
    # The pair terms of cfrh6 genuinely fluctuate on the maximally mixed
    # state (expectation 0); the reported error bars must cover the truth.
    term = catalog_get("cfrh6").terms[0]
    rho = maximally_mixed(4)
    for shots in (100, 1000):
        est = estimate_term(rho, pm_obs, term, shots, seed=12)
        assert est.standard_error > 0
        assert abs(est.estimate) <= 5 * est.standard_error
        assert est.standard_error <= 2 / np.sqrt(shots)


def test_run_protocol_report(pm_obs):
    expr = catalog_get("cfrh6")
    report = run_protocol(maximally_mixed(4), pm_obs, expr, 200, seed=4)
    assert report.inequality_id == "cfrh6"
    assert report.seed == 4
    assert report.shots_per_term == 200
    assert len(report.terms) == len(expr.terms)
    assert report.lhs_estimate == pytest.approx(sum(t.estimate for t in report.terms))
    rss = np.sqrt(sum(t.standard_error**2 for t in report.terms))
    assert report.lhs_standard_error == pytest.approx(float(rss))
    assert report.lhs_standard_error > 0  # the pair terms fluctuate here


def test_run_protocol_repeatable(pm_obs):
    a = run_protocol(singlet(), pm_obs, catalog_get("cfrh6"), 150, seed=21)
    b = run_protocol(singlet(), pm_obs, catalog_get("cfrh6"), 150, seed=21)
    assert a == b


def test_run_protocol_terms_use_independent_streams(pm_obs):
    # chsh8 repeats the pair (P14, P16) nowhere, but its four terms all
    # draw from distinct term-index substreams; estimates must not be
    # copies of each other even for equal-distribution terms.
    report = run_protocol(maximally_mixed(4), pm_obs, catalog_get("chsh8"), 300, seed=2)
    estimates = [t.estimate for t in report.terms]
    assert len(set(estimates)) > 1


def test_report_to_json_shape(pm_obs):
    report = run_protocol(singlet(), pm_obs, catalog_get("chsh8"), 80, seed=6)
    data = report_to_json(report, "singlet")
    assert list(data) == [
        "inequality", "state", "seed", "shots_per_term",
        "terms", "lhs_estimate", "lhs_stderr",
    ]
    assert data["inequality"] == "chsh8"
    assert data["state"] == "singlet"
    assert data["seed"] == 6
    assert data["shots_per_term"] == 80
    assert [list(t) for t in data["terms"]] == [["estimate", "stderr"]] * 4
    assert data["lhs_estimate"] == report.lhs_estimate
    assert data["lhs_stderr"] == report.lhs_standard_error


def test_marginal_consistency_repeatable(ks18_obs):
    contexts = (ks18_obs.contexts[0], ks18_obs.contexts[1])
    a = marginal_consistency(maximally_mixed(4), ks18_obs, "A12", contexts, 500, seed=7)
    b = marginal_consistency(maximally_mixed(4), ks18_obs, "A12", contexts, 500, seed=7)
    assert a == b
    assert a.label == "A12"
    assert a.shots == 500


def test_marginal_same_context_twice_is_identical(ks18_obs):
    ctx = ks18_obs.contexts[0]
    report = marginal_consistency(haar_random(4, seed=3), ks18_obs, "A12", (ctx, ctx), 400, seed=7)
    assert report.freq_plus_first == report.freq_plus_second
    assert report.z_statistic == 0.0


def test_marginal_swapping_contexts_negates_z(ks18_obs):
    first, second = ks18_obs.contexts[0], ks18_obs.contexts[1]
    rho = maximally_mixed(4)
    fwd = marginal_consistency(rho, ks18_obs, "A12", (first, second), 600, seed=7)
    rev = marginal_consistency(rho, ks18_obs, "A12", (second, first), 600, seed=7)
    assert rev.freq_plus_first == fwd.freq_plus_second
    assert rev.z_statistic == pytest.approx(-fwd.z_statistic)


def test_marginals_agree_between_contexts(ks18_obs):
    # Quantum mechanics gives one marginal for a ray regardless of what
    # it is measured with; the z statistic stays at noise level.
    rho = haar_random(4, seed=11)
    contexts = [c for c in ks18_obs.contexts if "A45" in c]
    for seed in range(10):
        report = marginal_consistency(rho, ks18_obs, "A45", contexts, 1000, seed=seed)
        assert abs(report.z_statistic) <= 5.0


def test_marginal_validation(ks18_obs):
    contexts = (ks18_obs.contexts[0], ks18_obs.contexts[1])
    with pytest.raises(ValueError):
        marginal_consistency(maximally_mixed(4), ks18_obs, "A45", contexts, 100, seed=0)
    with pytest.raises(ValueError):
        marginal_consistency(maximally_mixed(4), ks18_obs, "A12", contexts, 1, seed=0)


@pytest.mark.parametrize("scale", [3.0, -3.0])
def test_branch_probability_out_of_range_raises(scale):
    # (1 + 3Z)/2 on |0> gives p = 2, and (1 - 3Z)/2 gives p = -1: neither
    # may be clamped into [0, 1].
    op = expand(scale * np.diag([1.0, -1.0]))
    uniforms = np.full((4, 1), 0.5)
    with pytest.raises(NumericError, match="outside"):
        _branch_outcomes(zero_product(1), [op], uniforms)


def test_branch_probability_rounding_is_clamped():
    # p = 1 + 1e-12 is rounding error, inside STRUCT_TOL: clamped to 1.
    op = expand(np.diag([1.0 + 2e-12, -1.0]))
    outcomes = _branch_outcomes(zero_product(1), [op], np.full((4, 1), 0.5))
    assert (outcomes == 1).all()


def test_branch_walk_frees_its_operators():
    # The recursive walk must not leave a reference cycle that keeps each
    # term's expansions alive until the next garbage-collection pass.
    op = expand(np.diag([1.0, -1.0]))
    ref = weakref.ref(op)
    gc.disable()
    try:
        _branch_outcomes(zero_product(1), [op], np.full((4, 1), 0.5))
        del op
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("family", ["ks18", 3, 5])
def test_post_state_matches_dense_projection(family, ks18_obs):
    # The expansion walk against the dense Lueders rule: measuring a
    # context's first k labels leaves P rho P / p, P the product of the
    # outcomes' projectors (1 + s A)/2 and p the probability of those
    # outcomes.  A full context's post-state barely depends on rho, so
    # every prefix is checked.
    if family == "ks18":
        obs, contexts = ks18_obs, ks18_obs.contexts
        ops = {label: ray_operator(v) for label, v in KS18_RAYS.items()}
    else:
        obs, contexts = build_set("mermin_star", family), star_contexts(family)
        ops = star_operators(family)
    eye = np.eye(obs.dim)
    for index, ctx in enumerate(contexts):
        rho = haar_random(obs.dim, seed=index)
        for k in range(1, len(ctx) + 1):
            record = sequential_measure(rho, obs, ctx[:k], substream(4, 1, index, k))
            proj = eye
            for label, outcome in record.outcomes:
                proj = (eye + outcome * ops[label]) / 2 @ proj
            unnormalized = proj @ rho @ proj.conj().T
            expected = unnormalized / np.trace(unnormalized).real
            assert np.abs(record.post_state - expected).max() <= 1e-12


def test_simulator_builds_no_dense_observable(monkeypatch, star5_obs, ks18_obs):
    def refuse(*args):
        raise AssertionError("the simulator built a dense observable")

    monkeypatch.setattr(linalg, "dense", refuse)
    monkeypatch.setattr(quantum, "dense", refuse)
    monkeypatch.setattr(ObservableSet, "operator", refuse)
    rho = ghz(5)
    for index, term in enumerate(catalog_get("ineq9", 5).terms):
        assert estimate_term(rho, star5_obs, term, 20, seed=1, term_index=index).estimate == 1.0
    contexts = (ks18_obs.contexts[0], ks18_obs.contexts[1])
    marginal_consistency(maximally_mixed(4), ks18_obs, "A12", contexts, 20, seed=1)


# Per-term estimates of run_protocol at 500 shots, seed 11, recorded from
# the dense-projector simulator: each is k/500, so it compares exactly.
PINNED_ESTIMATES = {
    ("ineq1", None, "maximally_mixed"): [1.0] * 9,
    ("ineq4", None, "singlet"): [1.0] * 6,
    ("cfrh6", None, "maximally_mixed"): [0.012, -0.108, -0.028, 1.0, 1.0],
    ("ineq9", 5, "ghz"): [1.0] * 5,
    ("kcbs3", None, "paper_kcbs_product"): [-0.18, 0.544, 0.268, -0.572, -0.952],
}


@pytest.mark.parametrize("ineq, n, state", sorted(PINNED_ESTIMATES, key=str))
def test_seeded_estimates_are_pinned(ineq, n, state):
    expr = catalog_get(ineq, n)
    obs = build_set(expr.set_id, n)
    report = run_protocol(make_state(state, dim=obs.dim), obs, expr, 500, seed=11)
    assert [t.estimate for t in report.terms] == PINNED_ESTIMATES[ineq, n, state]


def test_seeded_marginals_are_pinned(ks18_obs):
    contexts = (ks18_obs.contexts[0], ks18_obs.contexts[1])
    report = marginal_consistency(maximally_mixed(4), ks18_obs, "A12", contexts, 500, seed=11)
    assert (report.freq_plus_first, report.freq_plus_second) == (0.244, 0.242)

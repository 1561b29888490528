import dataclasses
import gc
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dense_oracle import expand, ket_density, ray_operator, star_operators
from ctxkit import linalg, quantum, runtime, simulate
from ctxkit.exceptions import IncompatibleContextError, NumericError, ResourceLimitError
from ctxkit.families import KS18_CONTEXTS, KS18_RAYS
from ctxkit.inequalities import InequalityExpr, Term, catalog_get, specialize
from ctxkit.observables import ObservableSet, build_set
from ctxkit.pauli import pauli
from ctxkit.runtime import substream
from ctxkit.simulate import (
    MAX_SHOTS,
    _walk,
    estimate_term,
    marginal_consistency,
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


def test_measured_labels_are_a_sequence_of_str():
    # With one-letter labels, "ab" would be measured as a then b.
    obs = ObservableSet("t", 4, {"a": pauli("ZI"), "b": pauli("IZ")}, (("a", "b"),))
    state = maximally_mixed(4)
    with pytest.raises(ValueError, match="sequence of str"):
        sequential_measure(state, obs, "ab", substream(0, 1))
    with pytest.raises(ValueError, match="sequence of str"):
        marginal_consistency(state, obs, "a", ["ab", "ab"], 100, seed=0)
    with pytest.raises(ValueError, match="is not a str"):
        marginal_consistency(state, obs, "a", [("a", "b"), ("a", 1)], 100, seed=0)


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


STATE_CONSUMERS = {
    "evaluate_inequality": lambda s, obs: quantum.evaluate_inequality(s, obs, catalog_get("ineq1")),
    "estimate_term": lambda s, obs: estimate_term(s, obs, Term(-1, obs.contexts[0]), 10, seed=0),
    "run_protocol": lambda s, obs: run_protocol(s, obs, catalog_get("ineq1"), 10, seed=0),
    "sequential_measure": lambda s, obs: sequential_measure(s, obs, obs.contexts[0], substream(0, 1)),
    "marginal_consistency": lambda s, obs: marginal_consistency(
        s, obs, "A12", obs.contexts[:2], 10, seed=0),
    "factor": lambda s, obs: linalg.factor(s, obs.dim),
}


@pytest.mark.parametrize("state", [
    np.array([True, False, False, False]),
    np.array(["a", "b", "c", "d"]),
    ["0.6", "0.8", "0", "0"],
], ids=["bool", "str", "numeric-str"])
@pytest.mark.parametrize("consume", list(STATE_CONSUMERS.values()), ids=list(STATE_CONSUMERS))
def test_state_consumers_reject_arrays_that_are_not_numbers(ks18_obs, consume, state):
    # The array rule make_state applies: a bool is not read as the ket
    # (1, 0, 0, 0), nor a numeric string as its number.
    with pytest.raises(ValueError, match="must hold numbers"):
        consume(state, ks18_obs)


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
    assert est.stderr == float(values.std(ddof=1) / np.sqrt(shots))


def test_estimate_term_exact_cases(pm_obs, ks18_obs):
    est = estimate_term(zero_product(2), pm_obs, Term(1, ("P14", "P15")), 50, seed=0)
    assert est.estimate == 1.0
    assert est.stderr == 0.0

    # A full minus-identity context estimates its sign exactly.
    full_context = catalog_get("ineq1").terms[0]
    est = estimate_term(maximally_mixed(4), ks18_obs, full_context, 50, seed=0)
    assert est.estimate == 1.0
    assert est.stderr == 0.0


def test_estimate_term_constant_term(pm_obs):
    est = estimate_term(singlet(), pm_obs, Term(-1, ()), 10, seed=0)
    assert est.estimate == -1.0
    assert est.stderr == 0.0


def test_estimate_term_needs_two_shots(pm_obs):
    with pytest.raises(ValueError):
        estimate_term(singlet(), pm_obs, Term(1, ("P14",)), 1, seed=0)


def test_shot_cap_comes_before_any_draw(pm_obs, ks18_obs, monkeypatch):
    # Constant terms too: their values would otherwise be one array of
    # ``shots`` floats.  A density matrix is not certified either: its
    # eigendecomposition would come first.
    def no_eigh(*args, **kwargs):
        raise AssertionError("certified the state before checking the shots")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for shots in (MAX_SHOTS + 1, 10**12):
        for term in (Term(1, ("P14",)), Term(-1, ())):
            for state in (singlet(), maximally_mixed(4)):
                with pytest.raises(ResourceLimitError):
                    estimate_term(state, pm_obs, term, shots, seed=0)
        with pytest.raises(ResourceLimitError):
            marginal_consistency(maximally_mixed(4), ks18_obs, "A12", ks18_obs.contexts[:2],
                                 shots, seed=0)


@pytest.fixture
def work_calls(monkeypatch):
    """Counts of the simulator's first steps of work: certifying the state
    (``factor``, as ``simulate`` calls it) and opening a shot's substream
    (``runtime.substream``, which ``runtime.draws`` calls)."""
    calls = {"factor": 0, "substream": 0}
    for module, name in ((simulate, "factor"), (runtime, "substream")):
        def counted(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_an_incompatible_term_is_refused_before_any_work(pm_obs, work_calls):
    # Only the last term is incompatible; the refusal comes after the shot
    # cap and before the first term is simulated or the state certified.
    terms = (Term(1, ("P14", "P15")), Term(1, ("P14", "P25")))
    expr = InequalityExpr(id="t", set_id="peres_mermin", terms=terms, bound=None)
    with pytest.raises(ResourceLimitError):
        run_protocol(singlet(), pm_obs, expr, MAX_SHOTS + 1, seed=1)
    with pytest.raises(IncompatibleContextError):
        run_protocol(singlet(), pm_obs, expr, 200, seed=1)
    with pytest.raises(IncompatibleContextError):
        estimate_term(singlet(), pm_obs, terms[1], 200, seed=1)
    assert work_calls == {"factor": 0, "substream": 0}


@pytest.mark.parametrize("contexts, error, message", [
    (KS18_CONTEXTS[:3], ValueError, "^marginal consistency takes exactly two contexts, got 3$"),
    (KS18_CONTEXTS[:1], ValueError, "exactly two contexts, got 1$"),
    ((KS18_CONTEXTS[0], KS18_CONTEXTS[2]), ValueError, "^label A12 is not in context"),
    ((KS18_CONTEXTS[0], ("A12", "A48")), IncompatibleContextError, "cannot be measured jointly"),
], ids=["three contexts", "one context", "label missing", "not jointly measurable"])
def test_marginal_contexts_are_checked_before_any_work(ks18_obs, work_calls, contexts, error,
                                                      message):
    # A bad second context used to be found after all of the first's shots.
    with pytest.raises(error, match=message):
        marginal_consistency(maximally_mixed(4), ks18_obs, "A12", contexts, 200, seed=1)
    assert work_calls == {"factor": 0, "substream": 0}


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "past 2^64"])
def test_a_bad_seed_is_refused_before_any_work(pm_obs, ks18_obs, work_calls, seed):
    # The first substream call used to refuse it, after the state was
    # certified; a term with no factors opened no substream and passed it.
    constant = Term(1, ())
    only_constant = InequalityExpr(id="c", set_id="peres_mermin", terms=(constant,), bound=None)
    runs = [
        lambda: run_protocol(singlet(), pm_obs, catalog_get("ineq4"), 2, seed),
        lambda: run_protocol(singlet(), pm_obs, only_constant, 2, seed),
        lambda: estimate_term(singlet(), pm_obs, constant, 2, seed),
        lambda: marginal_consistency(maximally_mixed(4), ks18_obs, "A12", KS18_CONTEXTS[:2], 2,
                                     seed),
    ]
    for run in runs:
        with pytest.raises(ValueError, match=f"^seed must fit in an unsigned 64-bit integer, "
                                             f"got {seed}$"):
            run()
    assert work_calls == {"factor": 0, "substream": 0}


@pytest.mark.parametrize("term_index, message", [
    (-1, "^index must fit in an unsigned 64-bit integer, got -1$"),
    (2.5, "^index must be an integer, got 2.5$"),
    (True, "^index must be an integer, got True$"),
    (2**64, f"^index must fit in an unsigned 64-bit integer, got {2**64}$"),
], ids=["negative", "float", "bool", "past 2^64"])
def test_a_bad_term_index_is_refused_before_any_work(pm_obs, work_calls, term_index, message):
    # Checked with the seed, before the state is certified, also for a
    # term with no factors, which opens no substream.
    for term in (Term(1, ()), Term(1, ("P14", "P15"))):
        with pytest.raises(ValueError, match=message):
            estimate_term(singlet(), pm_obs, term, 2, 1, term_index)
    assert work_calls == {"factor": 0, "substream": 0}



def test_an_expression_with_no_terms_checks_the_seed_then_the_state(pm_obs):
    # No term is left to check them once specialize substitutes every label.
    empty, dropped = specialize(catalog_get("ineq4"), dict.fromkeys(pm_obs.labels, 1))
    assert (empty.terms, dropped) == ((), 4)
    trace_zero = np.zeros((4, 4))
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=f"^seed must fit in an unsigned 64-bit integer, "
                                             f"got {seed}$"):
            run_protocol(trace_zero, pm_obs, empty, 2, seed)
    with pytest.raises(ValueError, match=r"^density matrix trace 0j is not 1$"):
        run_protocol(trace_zero, pm_obs, empty, 2, 1)
    report = run_protocol(singlet(), pm_obs, empty, 2, 1)
    assert (report.terms, report.lhs_estimate, report.lhs_stderr) == ((), 0.0, 0.0)


@pytest.mark.parametrize("shots", [10.0, True, "10"], ids=["float", "bool", "str"])
def test_a_non_integer_shot_count_is_refused_before_any_work(pm_obs, ks18_obs, work_calls,
                                                             shots):
    # A float count used to pass the range checks, certify the state and
    # fail inside np.empty with a TypeError.
    runs = [
        lambda: estimate_term(singlet(), pm_obs, Term(1, ("P14",)), shots, 1),
        lambda: run_protocol(singlet(), pm_obs, catalog_get("ineq4"), shots, 1),
        lambda: marginal_consistency(maximally_mixed(4), ks18_obs, "A12", KS18_CONTEXTS[:2],
                                     shots, 1),
    ]
    for run in runs:
        with pytest.raises(ValueError, match=f"^shots must be an integer, got {shots!r}$"):
            run()
    assert work_calls == {"factor": 0, "substream": 0}
    term = Term(1, ("P14", "P15"))
    assert estimate_term(singlet(), pm_obs, term, np.int64(10), 1) == estimate_term(
        singlet(), pm_obs, term, 10, 1)

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
        assert est.stderr > 0
        assert abs(est.estimate) <= 5 * est.stderr
        assert est.stderr <= 2 / np.sqrt(shots)


def test_run_protocol_report(pm_obs):
    expr = catalog_get("cfrh6")
    report = run_protocol(maximally_mixed(4), pm_obs, expr, 200, seed=4)
    assert report.inequality == "cfrh6"
    assert report.seed == 4
    assert report.shots_per_term == 200
    assert len(report.terms) == len(expr.terms)
    assert report.lhs_estimate == pytest.approx(sum(t.estimate for t in report.terms))
    rss = np.sqrt(sum(t.stderr**2 for t in report.terms))
    assert report.lhs_stderr == pytest.approx(float(rss))
    assert report.lhs_stderr > 0  # the pair terms fluctuate here


def test_numpy_integer_arguments_are_reported_as_plain_ints(pm_obs, ks18_obs):
    # A numpy scalar in a report is not JSON serializable.
    rho, expr, contexts = maximally_mixed(4), catalog_get("cfrh6"), ks18_obs.contexts[:2]
    reports = [
        (run_protocol(rho, pm_obs, expr, np.int64(10), np.uint64(1)),
         run_protocol(rho, pm_obs, expr, 10, 1)),
        (marginal_consistency(rho, ks18_obs, "A12", contexts, np.int64(10), 1),
         marginal_consistency(rho, ks18_obs, "A12", contexts, 10, 1)),
    ]
    for numpy_args, plain_args in reports:
        assert json.dumps(dataclasses.asdict(numpy_args)) == json.dumps(
            dataclasses.asdict(plain_args))


def test_run_protocol_certifies_the_state_once(ks18_obs, work_calls):
    # One eigendecomposition for all nine terms, and each term's estimate
    # is the public estimate_term's, which certifies the state itself.
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    expr = catalog_get("ineq1")
    report = run_protocol(rho, ks18_obs, expr, 50, seed=3)
    assert work_calls == {"factor": 1, "substream": 9 * 50}
    assert report.terms == tuple(
        estimate_term(rho, ks18_obs, term, 50, 3, t) for t, term in enumerate(expr.terms)
    )


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


def simulate_results(report, state):
    """``report`` as the ``simulate`` command prints it: its fields, with
    the ``--state`` argument echoed after ``inequality``, through JSON."""
    fields = dataclasses.asdict(report)
    return json.loads(json.dumps({"inequality": fields.pop("inequality"), "state": state,
                                  **fields}))


def test_simulate_results_shape(pm_obs):
    report = run_protocol(singlet(), pm_obs, catalog_get("chsh8"), 80, seed=6)
    data = simulate_results(report, "singlet")
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
    assert data["lhs_stderr"] == report.lhs_stderr


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


def test_marginal_in_the_rays_own_state_has_zero_spread(ks18_obs):
    # In A12's own ray state A12 reads +1 in every shot of both contexts:
    # the pooled variance is 0, and z is 0 by definition, not 0/0.
    ray = np.array(KS18_RAYS["A12"], dtype=complex)
    contexts = [c for c in ks18_obs.contexts if "A12" in c]
    report = marginal_consistency(ray, ks18_obs, "A12", contexts, 50, seed=2)
    assert (report.freq_plus_first, report.freq_plus_second, report.z_statistic) == (1.0, 1.0, 0.0)


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
        _walk(zero_product(1)[:, None], [op], uniforms)


def test_branch_probability_rounding_is_clamped():
    # p = 1 + 1e-12 is rounding error, inside STRUCT_TOL: clamped to 1.
    op = expand(np.diag([1.0 + 2e-12, -1.0]))
    outcomes, _ = _walk(zero_product(1)[:, None], [op], np.full((4, 1), 0.5))
    assert (outcomes == 1).all()


def test_branch_walk_frees_its_operators():
    # The walk must hold each term's expansions only while it runs, with
    # no reference cycle that keeps them alive until a garbage-collection
    # pass.  An expansion is a tuple, which takes no weak reference, so
    # its reference count is read instead.
    op = expand(np.diag([1.0, -1.0]))
    held = sys.getrefcount(op)
    gc.disable()
    try:
        _walk(zero_product(1)[:, None], [op], np.full((4, 1), 0.5))
        assert sys.getrefcount(op) == held
    finally:
        gc.enable()


def _full_branch_tree(depth: int = 6, dim: int = 512):
    """A full branch tree: Z on each of the first ``depth`` qubits of the
    maximally mixed state, one shot per outcome string.  Returns the
    walk's (K, expansions, uniforms) and each shot's outcome bits."""
    k = linalg.factor(maximally_mixed(dim), dim)
    expansions = [pauli("I" * i + "Z" + "I" * (8 - i)) for i in range(depth)]
    bits = (np.arange(2**depth)[:, None] >> np.arange(depth)) & 1
    return (k, expansions, np.where(bits, 0.75, 0.25)), bits


def test_branch_walk_keeps_one_pending_sibling_per_level():
    # Depth first, the walk holds one pending sibling per level plus the
    # node it splits, about depth + 4 factors of 4 MB, not each
    # ancestor's factor and both its branches (about 3 * depth).
    walk_args, bits = _full_branch_tree()
    k, depth = walk_args[0], bits.shape[1]
    tracemalloc.start()
    try:
        outcomes, _ = _walk(*walk_args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (outcomes == 1 - 2 * bits).all()
    assert peak <= (depth + 5) * k.nbytes


def test_branch_walk_compiles_each_level_once(monkeypatch):
    # The full depth-6 tree splits at 63 nodes; each level's expansion
    # is compiled once per walk, not once per node.
    walk_args, bits = _full_branch_tree()
    compiled = []
    monkeypatch.setattr(simulate, "tables", lambda e, d: compiled.append(e) or linalg.tables(e, d))
    outcomes, _ = _walk(*walk_args)
    assert (outcomes == 1 - 2 * bits).all()
    assert compiled == walk_args[1]


@pytest.mark.parametrize("family", ["ks18", 3, 5])
def test_post_state_matches_dense_projection(family, ks18_obs):
    # The expansion walk against the dense Lueders rule: measuring a
    # context's first k labels leaves P rho P / p, P the product of the
    # outcomes' projectors (1 + s A)/2 and p the probability of those
    # outcomes.  A full context's post-state barely depends on rho, so
    # every prefix is checked, for the state as a ket (the post-state is
    # then a ket) and as a density matrix.
    if family == "ks18":
        obs, contexts = ks18_obs, ks18_obs.contexts
        ops = {label: ray_operator(v) for label, v in KS18_RAYS.items()}
    else:
        obs = build_set("mermin_star", family)
        contexts = obs.contexts
        ops = star_operators(family)
    eye = np.eye(obs.dim)
    for index, ctx in enumerate(contexts):
        psi = haar_random(obs.dim, seed=index)
        rho = ket_density(psi)
        for k in range(1, len(ctx) + 1):
            record = sequential_measure(psi, obs, ctx[:k], substream(4, 1, index, k))
            dm_record = sequential_measure(rho, obs, ctx[:k], substream(4, 1, index, k))
            assert dm_record.outcomes == record.outcomes
            proj = eye
            for label, outcome in record.outcomes:
                proj = (eye + outcome * ops[label]) / 2 @ proj
            unnormalized = proj @ rho @ proj.conj().T
            expected = unnormalized / np.trace(unnormalized).real
            assert record.post_state.shape == (obs.dim,)
            assert np.abs(ket_density(record.post_state) - expected).max() <= 1e-12
            assert np.abs(dm_record.post_state - expected).max() <= 1e-12


def test_simulator_builds_no_dense_observable(monkeypatch, star5_obs, ks18_obs):
    def refuse(*args):
        raise AssertionError("the simulator built a dense observable")

    monkeypatch.setattr(linalg, "dense", refuse)
    monkeypatch.setattr(quantum, "dense", refuse)
    rho = ghz(5)
    for index, term in enumerate(catalog_get("ineq9", 5).terms):
        assert estimate_term(rho, star5_obs, term, 20, seed=1, term_index=index).estimate == 1.0
    contexts = (ks18_obs.contexts[0], ks18_obs.contexts[1])
    marginal_consistency(maximally_mixed(4), ks18_obs, "A12", contexts, 20, seed=1)
    # Evaluation and sweeps read the Bell expansion too.
    ineq9 = catalog_get("ineq9", 5)
    assert quantum.evaluate_inequality(rho, star5_obs, ineq9) == pytest.approx(5.0)
    assert quantum.evaluate_inequality(maximally_mixed(4), ks18_obs, catalog_get("kcbs3")) == (
        pytest.approx(0.0, abs=1e-12)
    )
    assert np.abs(quantum.haar_sweep(star5_obs, ineq9, 3, seed=1) - 5.0).max() <= 1e-12


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


# Full seeded outputs, pinned exactly: the simulate_results of run_protocol
# at 200 shots and seed 1 per "run_protocol/id[@n]/state", the marginal
# check of A12 between 18-ray contexts 1 and 2 (200 shots, seed 1), and
# ineq1's haar_sweep over 20 states (seed 1).
GOLDEN = json.loads((Path(__file__).parent / "simulate_golden.json").read_text())


@pytest.mark.parametrize("key", [k for k in GOLDEN if k.startswith("run_protocol/")])
def test_protocol_report_matches_golden(key):
    _, ineq, state = key.split("/")
    id_, _, n = ineq.partition("@")
    expr = catalog_get(id_, int(n) if n else None)
    obs = build_set(expr.set_id, expr.n)
    report = run_protocol(make_state(state, dim=obs.dim), obs, expr, 200, seed=1)
    assert simulate_results(report, state) == GOLDEN[key]


def test_marginal_and_sweep_match_golden(ks18_obs):
    contexts = ks18_obs.contexts[:2]
    report = marginal_consistency(maximally_mixed(4), ks18_obs, "A12", contexts, 200, seed=1)
    assert dataclasses.asdict(report) == GOLDEN["marginal_consistency/A12"]
    sweep = quantum.haar_sweep(ks18_obs, catalog_get("ineq1"), 20, seed=1)
    assert sweep.tolist() == GOLDEN["haar_sweep/ineq1"]

from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dense_oracle import expectation_term, ket_density, operator
from ctxkit import bell, quantum, runtime, solver
from ctxkit.bell import QuantumMaximum, certify_state_independence, max_quantum_value
from ctxkit.exceptions import IncompatibleContextError, ResourceLimitError
from ctxkit.inequalities import CATALOG_IDS, InequalityExpr, Term, catalog_get, expr_from_json
from ctxkit.linalg import MAX_DENSE_DIM, dense
from ctxkit.observables import (
    ObservableSet,
    _bell,
    build_set,
    compatible_expansions,
    context_product,
)
from ctxkit.pauli import IDENTITY, combine, multiply, pauli, split_identity
from ctxkit.quantum import MAX_STATES, bell_operator, evaluate_inequality, haar_sweep
from ctxkit.simulate import MAX_SHOTS, run_protocol
from ctxkit.states import haar_random, maximally_mixed, singlet, y_plus_pair, zero_product


def one_term(obs, term):
    """A term's expectation is the value of the one-term expression."""
    return InequalityExpr(id="term", set_id=obs.set_id, terms=(term,), bound=None)


def test_expectation_term_matches_trace(pm_obs):
    rho = ket_density(singlet())
    term = Term(-1, ("P14", "P15"))
    manual = -np.trace(rho @ operator(pm_obs, "P14") @ operator(pm_obs, "P15"))
    for state in (singlet(), rho):
        value = evaluate_inequality(state, pm_obs, one_term(pm_obs, term))
        assert value == pytest.approx(manual.real)


def test_expectation_term_rejects_incompatible(pm_obs):
    with pytest.raises(IncompatibleContextError):
        evaluate_inequality(singlet(), pm_obs, one_term(pm_obs, Term(1, ("P14", "P25"))))


def test_an_incompatible_term_is_refused_before_the_state_is_certified(pm_obs, monkeypatch):
    # Certifying a density matrix costs an eigendecomposition (seconds at
    # the dense cap); a bad term is found from the set alone.
    calls = []
    certify = quantum.factor
    monkeypatch.setattr(quantum, "factor", lambda *args: calls.append(args) or certify(*args))
    with pytest.raises(IncompatibleContextError):
        evaluate_inequality(maximally_mixed(4), pm_obs, one_term(pm_obs, Term(1, ("P14", "P25"))))
    assert calls == []
    assert evaluate_inequality(maximally_mixed(4), pm_obs, one_term(pm_obs, Term(1, ()))) == 1.0
    assert len(calls) == 1


def test_compatible_expansions_passes_for_catalog_terms(ks18_obs, pm_obs, star3_obs):
    families = {"ks18": ks18_obs, "peres_mermin": pm_obs, "mermin_star": star3_obs}
    for id_ in CATALOG_IDS:
        expr = catalog_get(id_, 3 if id_ in ("ineq9", "mermin11") else None)
        obs = families[expr.set_id]
        for term in expr.terms:
            assert len(compatible_expansions(obs, term.factors)) == len(term.factors)


def test_compatible_expansions_names_incompatible_pair(ks18_obs):
    assert len(compatible_expansions(ks18_obs, ("A12", "A16"))) == 2
    with pytest.raises(IncompatibleContextError) as info:
        compatible_expansions(ks18_obs, ("A12", "A34"))
    assert "[('A12', 'A34')]" in str(info.value)


@pytest.mark.parametrize("set_args, expr_args, message", [
    (("mermin_star", 7), ("ineq9", 5),
     "expression on set mermin_star n=5 cannot be evaluated on set mermin_star (dimension 128)"),
    (("ks18",), ("chsh8",),
     "expression on set peres_mermin cannot be evaluated on set ks18 (dimension 4)"),
], ids=["star_n5_on_n7", "peres_mermin_on_ks18"])
def test_expression_is_evaluated_only_on_its_own_set(set_args, expr_args, message):
    # Every n = 5 star label also names an operator of the n = 7 set, so
    # without the set check ineq9 at n = 5 certifies there as constant 1.
    obs, expr = build_set(*set_args), catalog_get(*expr_args)
    state = maximally_mixed(obs.dim)
    for run in (lambda: certify_state_independence(obs, expr),
                lambda: evaluate_inequality(state, obs, expr),
                lambda: max_quantum_value(obs, expr),
                lambda: haar_sweep(obs, expr, 2, 1),
                lambda: run_protocol(state, obs, expr, 2, 1)):
        with pytest.raises(ValueError) as info:
            run()
        assert str(info.value) == message
    # The protocol checks its shot cap first.
    with pytest.raises(ResourceLimitError):
        run_protocol(state, obs, expr, MAX_SHOTS + 1, 1)


def test_expectation_term_dimension_check(ks18_obs):
    for wrong in (np.eye(2) / 2, np.array([1.0, 0.0]), singlet()[:, None]):
        with pytest.raises(ValueError):
            evaluate_inequality(wrong, ks18_obs, one_term(ks18_obs, Term(1, ("A12",))))


def test_expectation_term_empty_factors_is_sign(pm_obs):
    value = evaluate_inequality(singlet(), pm_obs, one_term(pm_obs, Term(-1, ())))
    assert value == pytest.approx(-1.0)


def test_quantum_entry_points_reject_non_states(pm_obs):
    # Trace 2 and a negative eigenvalue: the simulator rejects these, and
    # so must every quantum entry point that takes a state.
    expr = catalog_get("ineq4")
    for bad in (2 * np.eye(4) / 4, np.diag([1.5, -0.5, 0.0, 0.0]), np.array([0.9, 0, 0, 0])):
        with pytest.raises(ValueError):
            evaluate_inequality(bad, pm_obs, expr)
        with pytest.raises(ValueError):
            evaluate_inequality(bad, pm_obs, one_term(pm_obs, expr.terms[0]))


def test_evaluate_is_sum_of_terms(ks18_obs):
    expr = catalog_get("kcbs3")
    rho = haar_random(4, seed=5)
    total = sum(expectation_term(rho, ks18_obs, t) for t in expr.terms)
    assert evaluate_inequality(rho, ks18_obs, expr) == pytest.approx(total)


def test_named_state_values(pm_obs, ks18_obs):
    assert evaluate_inequality(singlet(), pm_obs, catalog_get("cfrh6")) == pytest.approx(5.0)
    assert evaluate_inequality(y_plus_pair(), pm_obs, catalog_get("nambu7")) == pytest.approx(6.0)
    kcbs_at_zero = evaluate_inequality(zero_product(2), ks18_obs, catalog_get("kcbs3"))
    assert abs(kcbs_at_zero) <= 1e-12


def test_bell_operator_explicit(pm_obs):
    expr = catalog_get("chsh8")
    ops = {lab: operator(pm_obs, lab) for lab in expr.labels}
    expected = (
        ops["P14"] @ ops["P16"]
        + ops["P24"] @ ops["P26"]
        + ops["P14"] @ ops["P24"]
        - ops["P16"] @ ops["P26"]
    )
    assert np.allclose(bell_operator(pm_obs, expr), expected)


@pytest.mark.parametrize("id_,n,constant", [
    ("ineq1", None, 9.0),
    ("ineq4", None, 6.0),
    *(("ineq9", n, 5.0) for n in (3, 5, 7, 9, 11, 13)),
])
def test_certificates(id_, n, constant):
    # Exact: the constant is the identity coefficient and the residual 0.
    expr = catalog_get(id_, n)
    obs = build_set(expr.set_id, expr.n)
    cert = certify_state_independence(obs, expr)
    assert (cert.state_independent, cert.quantum_constant, cert.residual) == (True, constant, 0.0)


def test_certificate_negative_case(ks18_obs):
    cert = certify_state_independence(ks18_obs, catalog_get("kcbs3"))
    assert not cert.state_independent
    assert cert.residual > 0.1
    # The rays' expansions are exact, so the pentagon's Bell operator is
    # traceless and its largest entry is 4 exactly.
    assert (cert.quantum_constant, cert.residual) == (0.0, 4.0)
    bell = bell_operator(ks18_obs, catalog_get("kcbs3"))
    assert cert.residual == np.abs(bell).max()


def test_context_product(pm_obs, ks18_obs, star3_obs):
    assert context_product(pm_obs, ("P14", "P15", "P16")) == 1
    assert context_product(pm_obs, ("P16", "P26", "P36")) == -1
    assert all(context_product(ks18_obs, ctx) == -1 for ctx in ks18_obs.contexts)
    assert context_product(star3_obs, star3_obs.contexts[0]) == 1
    assert context_product(star3_obs, ("ACAL1", "ACAL2", "ACAL3", "ACAL4")) == -1
    with pytest.raises(ValueError):
        context_product(ks18_obs, ("A12",))  # a single ray is not +-identity
    with pytest.raises(IncompatibleContextError):
        context_product(pm_obs, ("P14", "P25"))


def test_context_product_refuses_a_string():
    obs = ObservableSet("t", 4, {"a": pauli("ZI"), "b": pauli("ZI")}, (("a", "b"),))
    assert context_product(obs, ("a", "b")) == 1
    with pytest.raises(ValueError, match="sequence of str"):
        context_product(obs, "ab")


def test_all_context_products_are_exact(pm_obs, ks18_obs, star3_obs):
    # 9 + 6 + 5 contexts, each product exactly +-1 times the identity.
    for obs in (ks18_obs, pm_obs, star3_obs):
        for ctx in obs.contexts:
            s = context_product(obs, ctx)
            prod = np.eye(obs.dim, dtype=complex)
            for label in ctx:
                prod = prod @ operator(obs, label)
            assert np.array_equal(prod, s * np.eye(obs.dim))


# Each catalog id's route: the state-independent ones are certified
# constants, the star and Peres-Mermin ids whose terms commute take the
# GF(2) route, and the rays and CHSH the eigensolver.
ROUTES = {"ineq1": "constant", "ineq4": "constant", "ineq9": "constant",
          "cfrh6": "commuting", "nambu7": "commuting", "mermin11": "commuting",
          "kcbs3": "dense", "chsh8": "dense"}


@pytest.mark.parametrize("id_,n", [
    ("ineq1", None), ("kcbs3", None), ("ineq4", None), ("cfrh6", None),
    ("nambu7", None), ("chsh8", None), ("ineq9", 3), ("mermin11", 3),
    ("ineq9", 5), ("mermin11", 5), ("ineq9", 7), ("mermin11", 7),
])
def test_max_quantum_value_matches_dense_solver(id_, n):
    # The exact routes against the eigensolver, within its rounding.
    expr = catalog_get(id_, n)
    obs = build_set(expr.set_id, expr.n)
    dense_top = float(np.linalg.eigvalsh(bell_operator(obs, expr))[-1])
    top = max_quantum_value(obs, expr)
    assert top.route == ROUTES[id_]
    assert abs(top.max_quantum_value - dense_top) <= 1e-12


@pytest.mark.parametrize("n", [9, 11, 13])
def test_exact_routes_are_exact_at_any_star_size(n):
    # Mermin's 4 and Cabello's 5 exactly, with no eigensolver.
    for id_, want in (("mermin11", 4.0), ("ineq9", 5.0)):
        expr = catalog_get(id_, n)
        top = max_quantum_value(build_set(expr.set_id, n), expr)
        assert (top.max_quantum_value, top.route) == (want, ROUTES[id_])


def test_one_scan_cap_for_bound_and_maxval(monkeypatch):
    # mermin11's commuting route is the bound of 4 terms over 3
    # generators, a scan of 2^3 x 4 = 32: the solver's one cap governs
    # it, and one below it the expression falls to the eigensolver.
    expr = catalog_get("mermin11", 5)
    obs = build_set(expr.set_id, expr.n)
    monkeypatch.setattr(solver, "MAX_SCAN_WORK", 31)
    top = max_quantum_value(obs, expr)
    assert top.route == "dense" and abs(top.max_quantum_value - 4) <= 1e-12
    monkeypatch.setattr(solver, "MAX_SCAN_WORK", 32)
    assert max_quantum_value(obs, expr) == QuantumMaximum(4.0, "commuting")


# The seven non-identity elements of the commuting group generated by
# XXX, ZZI and IZZ, element k the product of the generators at the bits
# of k: XXX ZZI = -YYX, so products carry Y and signs.
GENERATORS = [pauli("XXX"), pauli("ZZI"), pauli("IZZ")]
GROUP = {k: reduce(multiply, (g for b, g in enumerate(GENERATORS) if k >> b & 1), IDENTITY)
         for k in range(1, 8)}


@given(st.dictionaries(st.sampled_from(sorted(GROUP)),
                       st.integers(-4, 4).filter(bool), min_size=1))
@example({1: 2, 2: 2, 4: -1, 3: 1, 7: 1})  # repeated weights; 3 and 7 depend on 1, 2, 4
def test_commuting_route_equals_the_eigensolver_on_a_pauli_group(weights):
    # Any integer-weighted sum of group elements takes the commuting
    # route, whose maximum is an integer and the dense eigensolver's.
    rest = combine((w, GROUP[k]) for k, w in weights.items())
    top = bell._commuting_max(rest)
    assert isinstance(top, int)
    assert abs(top - float(np.linalg.eigvalsh(dense(rest, 8))[-1])) <= 1e-12


def test_non_integer_weights_leave_the_commuting_route(ks18_obs):
    # One ray: -1/2 I - 1/2 IZ + 1/2 ZI - 1/2 ZZ.  The strings commute, but
    # their weights are +-1/2, so the maximum comes from the eigensolver.
    expr = expr_from_json({"id": "ray", "set_id": "ks18",
                           "terms": [{"sign": 1, "factors": ["A12"]}]})
    rest = split_identity(_bell(ks18_obs, expr))[1]
    assert {c for _, _, c in rest} == {0.5, -0.5}
    assert bell._commuting_max(rest) is None
    top = max_quantum_value(ks18_obs, expr)
    assert top == QuantumMaximum(1.0, "dense")
    assert top.max_quantum_value == float(np.linalg.eigvalsh(bell_operator(ks18_obs, expr))[-1])


def test_a_wrong_sign_in_a_basis_rewrite_moves_the_maximum(monkeypatch):
    # mermin11's four strings have rank 3, so one of them is rewritten as
    # a product of the other three.  With that sign flipped, the route
    # reads 2 where the operator's maximum is 4.
    expr = catalog_get("mermin11", 5)
    obs = build_set(expr.set_id, expr.n)
    want = float(np.linalg.eigvalsh(bell_operator(obs, expr))[-1])
    rewrite = bell._rewrite

    def flipped(*args):
        return [(-s if len(generators) > 1 else s, generators)
                for s, generators in rewrite(*args)]

    monkeypatch.setattr(bell, "_rewrite", flipped)
    top = max_quantum_value(obs, expr)
    assert top.route == "commuting"
    assert (top.max_quantum_value, want) == (2.0, pytest.approx(4.0, abs=1e-12))


def test_chsh8_reaches_tsirelson(pm_obs):
    assert max_quantum_value(pm_obs, catalog_get("chsh8")).max_quantum_value == pytest.approx(
        2 * np.sqrt(2), abs=1e-12
    )
    # Mermin's maximum 4 for the star family, exactly.
    star = catalog_get("mermin11", 7)
    assert max_quantum_value(build_set(star.set_id, star.n), star).max_quantum_value == 4.0


def test_max_value_dominates_states(ks18_obs):
    expr = catalog_get("kcbs3")
    top = max_quantum_value(ks18_obs, expr).max_quantum_value
    for i in range(5):
        value = evaluate_inequality(haar_random(4, seed=2, index=i), ks18_obs, expr)
        assert value <= top + 1e-6


def test_max_value_dimension_cap(monkeypatch):
    # X and Z on one qubit of 12 anticommute, so only the eigensolver can
    # take this maximum, and it is refused past the dense cap before any
    # array is built.  (A set with no terms is the constant 0 now.)
    n = 2 * MAX_DENSE_DIM
    obs = ObservableSet(set_id="big", dim=n, contexts=(),
                        observables={"x": pauli("X" + "I" * 11), "z": pauli("Z" + "I" * 11)})
    expr = InequalityExpr(id="xz", set_id="big", terms=(Term(1, ("x",)), Term(1, ("z",))),
                          bound=None)

    def refuse(*args, **kwargs):
        raise AssertionError("built a dense array past the cap")

    monkeypatch.setattr(np, "zeros", refuse)
    with pytest.raises(ResourceLimitError, match="dense cap"):
        max_quantum_value(obs, expr)
    empty = InequalityExpr(id="none", set_id="big", terms=(), bound=None)
    assert max_quantum_value(obs, empty) == QuantumMaximum(0.0, "constant")


def test_haar_sweep_deterministic(ks18_obs):
    expr = catalog_get("kcbs3")
    a = haar_sweep(ks18_obs, expr, 20, seed=9)
    b = haar_sweep(ks18_obs, expr, 20, seed=9)
    assert np.array_equal(a, b)
    assert a.std() > 0.01  # a state-dependent expression actually varies
    with pytest.raises(ValueError):
        haar_sweep(ks18_obs, expr, 0, seed=9)


def test_state_cap_comes_before_any_draw(monkeypatch, ks18_obs):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep drew a state past the cap")

    # Every Haar draw opens its stream through runtime.substream.
    monkeypatch.setattr(runtime, "substream", refuse)
    with pytest.raises(AssertionError, match="drew a state"):
        haar_sweep(ks18_obs, catalog_get("kcbs3"), 1, seed=9)  # the patch is on the draw path
    for count in (MAX_STATES + 1, 10**12):
        with pytest.raises(ResourceLimitError):
            haar_sweep(ks18_obs, catalog_get("kcbs3"), count, seed=9)



@pytest.mark.parametrize("count", [2.0, True, "2"], ids=["float", "bool", "str"])
def test_a_non_integer_sweep_count_is_refused(ks18_obs, count):
    with pytest.raises(ValueError, match=f"^count must be an integer, got {count!r}$"):
        haar_sweep(ks18_obs, catalog_get("kcbs3"), count, seed=1)
    expr = catalog_get("kcbs3")
    assert haar_sweep(ks18_obs, expr, np.int64(2), 1).tolist() == haar_sweep(
        ks18_obs, expr, 2, 1).tolist()


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "past 2^64"])
def test_a_bad_sweep_seed_is_refused_before_any_work(monkeypatch, ks18_obs, seed):
    # Refused before the Bell expansion is built, as simulate and
    # calibrate refuse theirs; it used to be refused at the first draw.
    calls = []
    bell = quantum._bell

    def counted(*args):
        calls.append(args)
        return bell(*args)

    monkeypatch.setattr(quantum, "_bell", counted)
    with pytest.raises(ValueError, match=f"^seed must fit in an unsigned 64-bit integer, "
                                         f"got {seed}$"):
        haar_sweep(ks18_obs, catalog_get("kcbs3"), 2, seed)
    assert calls == []

@pytest.mark.parametrize("id_, n", [
    ("kcbs3", None), ("cfrh6", None), ("ineq4", None), ("ineq9", 5), ("mermin11", 7),
], ids=["kcbs3", "cfrh6", "ineq4", "ineq9-n5", "mermin11-n7"])
def test_haar_sweep_matches_per_state_evaluation(id_, n):
    expr = catalog_get(id_, n)
    obs = build_set(expr.set_id, expr.n)
    block = max(1, quantum.SWEEP_BLOCK_ENTRIES // obs.dim)
    for count in (1, block - 1, block, block + 1, 2 * block + 3):
        values = haar_sweep(obs, expr, count, seed=13)
        expected = [evaluate_inequality(haar_random(obs.dim, 13, i), obs, expr)
                    for i in range(count)]
        assert values.tolist() == expected, (id_, n, count)


def test_state_independent_sweep_is_flat(pm_obs):
    values = haar_sweep(pm_obs, catalog_get("ineq4"), 32, seed=1)
    assert np.max(np.abs(values - 6.0)) <= 1e-9


def test_mixed_state_sees_the_constant(ks18_obs):
    expr = catalog_get("ineq1")
    assert evaluate_inequality(maximally_mixed(4), ks18_obs, expr) == pytest.approx(9.0)

import re

import numpy as np
import pytest

from dense_oracle import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    expand,
    kron_all,
    operator,
    peres_mermin_operators,
    ray_operator,
    star_operators,
)

from ctxkit.exceptions import IncompatibleContextError, ResourceLimitError, UnknownLabelError
from ctxkit.inequalities import InequalityExpr, Term
from ctxkit.pauli import combine, pauli
from ctxkit.families import KS18_CONTEXTS, KS18_RAYS, incidence, set_contexts, set_labels
from ctxkit.observables import (
    ObservableSet,
    build_mermin_star,
    build_set,
    compatible,
    compatible_expansions,
    context_product,
)
from ctxkit.quantum import evaluate_inequality
from ctxkit.runtime import substream
from ctxkit.simulate import estimate_term, run_protocol, sequential_measure
from ctxkit.solver import label_bits
from ctxkit.states import singlet


def test_ks18_table_shape(ks18_rays, ks18_obs):
    assert len(ks18_rays) == 18
    assert len(ks18_obs.contexts) == 9
    assert all(len(ctx) == 4 for ctx in ks18_obs.contexts)


def test_ks18_every_ray_in_two_contexts(ks18_obs):
    counts = {}
    for ctx in ks18_obs.contexts:
        for label in ctx:
            counts[label] = counts.get(label, 0) + 1
    assert set(counts.values()) == {2}


def test_ks18_contexts_are_orthogonal_bases(ks18_rays, ks18_obs):
    for ctx in ks18_obs.contexts:
        vecs = np.array([ks18_rays[label] for label in ctx])
        gram = vecs @ vecs.T
        assert np.array_equal(gram - np.diag(np.diag(gram)), np.zeros((4, 4), dtype=np.int64))


def test_ks18_ray_spot_checks(ks18_rays):
    assert np.array_equal(ks18_rays["A12"], [0, 1, 0, 0])
    assert np.array_equal(ks18_rays["A37"], [1, 1, 1, 1])
    assert np.array_equal(ks18_rays["A69"], [-1, 1, 1, 1])


def test_ks18_observables_are_involutions(ks18_obs):
    assert ks18_obs.dim == 4
    for label in ks18_obs.labels:
        op = operator(ks18_obs, label)
        assert np.array_equal(op, op.conj().T)
        assert np.array_equal(op @ op, np.eye(4))


def test_ks18_observable_from_ray(ks18_rays, ks18_obs):
    for label in ks18_obs.labels:
        assert np.array_equal(operator(ks18_obs, label), ray_operator(ks18_rays[label]))


def test_ks18_context_products_are_minus_identity(ks18_obs):
    for ctx in ks18_obs.contexts:
        prod = np.eye(4, dtype=complex)
        for label in ctx:
            prod = prod @ operator(ks18_obs, label)
        assert np.array_equal(prod, -np.eye(4))


def test_unknown_label_raises(ks18_rays, ks18_obs):
    with pytest.raises(KeyError):
        ks18_rays["A99"]
    with pytest.raises(UnknownLabelError):
        ks18_obs.expansion("A99")


def test_operators_are_frozen(ks18_obs, pm_obs):
    for obs in (ks18_obs, pm_obs):
        op = operator(obs, obs.labels[0])
        with pytest.raises(ValueError):
            op[0, 0] = 5.0
        with pytest.raises(TypeError):
            obs.expansion(obs.labels[0])[0] = (0, 0, 5.0)


def test_observable_set_checks_contexts_at_construction(pm_obs):
    ops = dict(pm_obs.observables)
    with pytest.raises(IncompatibleContextError):
        ObservableSet(set_id="bad", dim=4, observables=ops, contexts=(("P14", "P25"),))
    with pytest.raises(ValueError):
        ObservableSet(set_id="bad", dim=4, observables={"Z": pauli("ZZZ")}, contexts=())
    with pytest.raises(ValueError):
        ObservableSet(set_id="bad", dim=4, observables={"Z": PAULI_Z}, contexts=())
    with pytest.raises(ValueError):
        ObservableSet(set_id="bad", dim=6, observables={}, contexts=())
    with pytest.raises(TypeError):
        pm_obs.observables["P14"] = ops["P25"]
    # Every context is distinct labels of the set; a one-label context
    # forms no pairs, so its label is checked on its own.
    with pytest.raises(ValueError, match="unknown label x"):
        ObservableSet(set_id="bad", dim=4, observables=ops, contexts=(("x",),))
    with pytest.raises(ValueError, match="repeats a label"):
        ObservableSet(set_id="bad", dim=4, observables=ops, contexts=(("P14", "P14", "P15"),))


PAIR = ("P14", "P25")


@pytest.mark.parametrize("measure", [
    lambda obs: ObservableSet(set_id=obs.set_id, dim=obs.dim, observables=dict(obs.observables),
                              contexts=(PAIR,)),
    lambda obs: compatible_expansions(obs, PAIR),
    lambda obs: estimate_term(singlet(), obs, Term(1, PAIR), 2, seed=1),
    lambda obs: sequential_measure(singlet(), obs, PAIR, substream(1, 1)),
    lambda obs: context_product(obs, PAIR),
    lambda obs: evaluate_inequality(
        singlet(), obs, InequalityExpr(id="t", set_id=obs.set_id, terms=(Term(1, PAIR),),
                                       bound=None)),
], ids=["set", "compatible_expansions", "estimate_term", "sequential_measure",
        "context_product", "evaluate_inequality"])
def test_one_commutation_rule_names_set_labels_and_pairs(pm_obs, measure):
    with pytest.raises(IncompatibleContextError) as info:
        measure(pm_obs)
    assert str(info.value) == (
        "peres_mermin: labels ('P14', 'P25') cannot be measured jointly, "
        "non-commuting pairs [('P14', 'P25')]"
    )


# An expression on a family refuses a label outside it when it is built,
# so the lookup is seen on a caller's own copy of the square.
Q9 = InequalityExpr(id="x", set_id="own", terms=(Term(1, ("Q9",)),), bound=None)


@pytest.mark.parametrize("measure", [
    lambda obs: evaluate_inequality(singlet(), obs, Q9),
    lambda obs: run_protocol(singlet(), obs, Q9, 2, seed=1),
    lambda obs: estimate_term(singlet(), obs, Q9.terms[0], 2, seed=1),
    lambda obs: sequential_measure(singlet(), obs, ("Q9",), substream(1, 1)),
    lambda obs: context_product(obs, ("P14", "Q9")),
], ids=["evaluate_inequality", "run_protocol", "estimate_term", "sequential_measure",
        "context_product"])
def test_one_label_lookup_names_the_label_and_the_set(pm_obs, measure):
    # Every label group reaches its operators through ObservableSet.expansion.
    own = ObservableSet("own", pm_obs.dim, dict(pm_obs.observables), pm_obs.contexts)
    with pytest.raises(UnknownLabelError) as info:
        measure(own)
    assert info.value.args == ("unknown label 'Q9', not in set own (dimension 4)",)


def test_observable_set_freezes_its_contexts():
    ctx = [["a", "b"]]
    ops = {"a": pauli("ZI"), "b": pauli("ZI"), "c": pauli("XI")}
    obs = ObservableSet(set_id="t", dim=4, observables=ops, contexts=ctx)
    ctx[0].append("c")
    assert obs.contexts == (("a", "b"),)
    with pytest.raises(IncompatibleContextError):
        compatible_expansions(obs, ("a", "c"))


@pytest.mark.parametrize("contexts, observables", [
    (("ab",), {"a": pauli("ZI"), "b": pauli("ZI")}),
    ("ab", {"a": pauli("ZI"), "b": pauli("ZI")}),
    ((b"ab",), {"a": pauli("ZI"), "b": pauli("ZI")}),
    (((1,),), {1: pauli("ZI")}),
])
def test_a_context_is_a_sequence_of_str_labels(contexts, observables):
    # A string context would be split into one-letter labels, and a
    # non-str label would pass as any other key of the set.
    with pytest.raises(ValueError, match=r"sequence of str|is not a str"):
        ObservableSet(set_id="t", dim=4, observables=observables, contexts=contexts)


AB = {"a": pauli("ZI"), "b": pauli("IZ")}
REPEAT = ("a", "b", "a")


@pytest.mark.parametrize("what, refuse", [
    ("term", lambda: Term(1, REPEAT)),
    ("t: context", lambda: ObservableSet(set_id="t", dim=4, observables=AB, contexts=(REPEAT,))),
    ("group", lambda: label_bits(["a", "b"], [("a", "b"), REPEAT])),
    ("context", lambda: context_product(
        ObservableSet(set_id="t", dim=4, observables=AB, contexts=(("a", "b"),)), REPEAT)),
], ids=["term", "context", "scan group", "context_product"])
def test_every_label_group_refuses_a_repeat_with_one_message(what, refuse):
    message = f"{what} ('a', 'b', 'a') repeats a label"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        refuse()


def test_incidence_maps_labels_to_groups_in_first_seen_order():
    groups = [("b", "a"), (), ("a", "c"), ("b",)]
    held = incidence(iter(groups))
    assert list(held.items()) == [("b", (0, 3)), ("a", (0, 2)), ("c", (2,))]
    assert "d" not in held and incidence([]) == {}  # an unheld label has no entry


def test_ks18_rays_are_read_only(ks18_rays):
    with pytest.raises(TypeError):
        ks18_rays["A12"] = np.array([1, 0, 0, 0])
    with pytest.raises(TypeError):
        del ks18_rays["A12"]
    with pytest.raises(TypeError):
        ks18_rays["A12"][0] = 5
    assert len(ks18_rays) == 18 and ks18_rays["A12"] == (0, 1, 0, 0)


def test_observable_set_rejects_non_involutions():
    # i*X squares to -1 and is not Hermitian; 2*Z is Hermitian but squares
    # to 4; the upper-triangular matrix is neither.
    for bad in (
        combine([(1j, pauli("X"))]),
        combine([(2, pauli("Z"))]),
        expand(np.array([[1.0, 1.0], [0.0, 1.0]])),
    ):
        with pytest.raises(ValueError, match="not a \\+-1 observable"):
            ObservableSet(set_id="bad", dim=2, observables={"A": bad}, contexts=())
    ObservableSet(set_id="good", dim=2, observables={"A": pauli("Y")}, contexts=())


def test_peres_mermin_layout(pm_obs):
    assert pm_obs.set_id == "peres_mermin"
    assert pm_obs.dim == 4
    assert len(pm_obs.labels) == 9
    assert len(pm_obs.contexts) == 6
    assert np.array_equal(operator(pm_obs, "P36"), kron_all([PAULI_Y, PAULI_Y]))
    assert np.array_equal(operator(pm_obs, "P24"), kron_all([IDENTITY_2, PAULI_X]))
    oracle = peres_mermin_operators()
    assert set(oracle) == set(pm_obs.labels)
    for label, op in oracle.items():
        assert np.array_equal(operator(pm_obs, label), op)


def test_peres_mermin_row_and_column_products(pm_obs):
    # Rows multiply to +1, columns to +1 +1 -1: the magic square.
    signs = []
    for ctx in pm_obs.contexts:
        prod = np.eye(4, dtype=complex)
        for label in ctx:
            prod = prod @ operator(pm_obs, label)
        sign = 1 if np.array_equal(prod, np.eye(4)) else -1
        assert np.array_equal(prod, sign * np.eye(4))
        signs.append(sign)
    assert signs == [1, 1, 1, 1, 1, -1]


def test_star_labels():
    assert set_labels("mermin_star", 3) == (
        "ACAL1", "ACAL2", "ACAL3", "ACAL4", "B1", "B2", "B3", "C1", "C2", "C3",
    )
    with pytest.raises(ValueError):
        set_labels("mermin_star", 4)
    with pytest.raises(ValueError):
        set_labels("mermin_star", 1)


def test_star_contexts():
    assert set_contexts("mermin_star", 5) == (
        ("ACAL1", "B1", "B2", "B3", "B4", "B5"),
        ("ACAL2", "B1", "C2", "C3", "C4", "C5"),
        ("ACAL3", "C1", "B2", "C3", "C4", "C5"),
        ("ACAL4", "C1", "C2", "B3", "B4", "B5"),
        ("ACAL1", "ACAL2", "ACAL3", "ACAL4"),
    )


@pytest.mark.parametrize("set_id, n, error", [
    ("nope", None, UnknownLabelError),
    ("nope", 3, UnknownLabelError),
    ("ks18", 3, ValueError),
    ("peres_mermin", 3, ValueError),
    ("mermin_star", None, ValueError),
    ("mermin_star", 4, ValueError),
    ("mermin_star", 1, ValueError),
    ("mermin_star", 15, ResourceLimitError),
])
def test_every_family_lookup_checks_the_id_and_n_alike(set_id, n, error):
    messages = set()
    for lookup in (build_set, set_labels, set_contexts):
        with pytest.raises(error) as exc:
            lookup(set_id, n)
        messages.add(str(exc.value))
    assert len(messages) == 1


def test_star3_operators(star3_obs):
    assert star3_obs.dim == 8
    assert np.array_equal(operator(star3_obs, "ACAL1"), kron_all([PAULI_Z, PAULI_Z, PAULI_Z]))
    assert np.array_equal(operator(star3_obs, "ACAL3"), kron_all([PAULI_X, PAULI_Z, PAULI_X]))
    assert np.array_equal(operator(star3_obs, "B2"), kron_all([IDENTITY_2, PAULI_Z, IDENTITY_2]))
    assert np.array_equal(operator(star3_obs, "C3"), kron_all([IDENTITY_2, IDENTITY_2, PAULI_X]))


@pytest.mark.parametrize("n", [3, 5, 7])
def test_star_operators_match_dense_oracle(n):
    obs = build_mermin_star(n)
    oracle = star_operators(n)
    assert set(oracle) == set(obs.labels)
    for label, op in oracle.items():
        assert np.array_equal(operator(obs, label), op)


@pytest.mark.parametrize("n", [3, 5])
def test_star_context_products(n, star3_obs, star5_obs):
    obs = star3_obs if n == 3 else star5_obs
    signs = []
    for ctx in obs.contexts:
        prod = np.eye(obs.dim, dtype=complex)
        for label in ctx:
            prod = prod @ operator(obs, label)
        sign = 1 if np.array_equal(prod, np.eye(obs.dim)) else -1
        assert np.array_equal(prod, sign * np.eye(obs.dim))
        signs.append(sign)
    # Four mixed contexts square to +1; the all-ACAL context gives -1.
    assert signs == [1, 1, 1, 1, -1]


def test_star_context_shapes(star5_obs):
    lengths = [len(ctx) for ctx in star5_obs.contexts]
    assert lengths == [6, 6, 6, 6, 4]


def test_star_rejects_bad_n():
    with pytest.raises(ValueError):
        build_mermin_star(4)
    with pytest.raises(ValueError):
        build_mermin_star(1)
    with pytest.raises(ResourceLimitError):
        build_mermin_star(15)


def test_build_set_dispatch(pm_obs):
    assert build_set("ks18").set_id == "ks18"
    assert build_set("peres_mermin").labels == pm_obs.labels
    assert build_set("mermin_star", n=3).dim == 8
    with pytest.raises(ValueError):
        build_set("mermin_star")
    with pytest.raises(UnknownLabelError):
        build_set("unknown_family")


def test_set_labels_matches_builders(ks18_obs, pm_obs, star3_obs):
    assert set_labels("ks18") == ks18_obs.labels
    assert set_labels("peres_mermin") == pm_obs.labels
    assert set_labels("mermin_star", n=3) == star3_obs.labels
    with pytest.raises(ValueError):
        set_labels("mermin_star")


def test_module_tables_match_built_set(ks18_rays, ks18_obs):
    assert tuple(KS18_RAYS) == tuple(ks18_rays)
    assert KS18_CONTEXTS == ks18_obs.contexts


def test_compatible(pm_obs, ks18_obs):
    assert compatible(pm_obs, "P14", "P15")
    assert compatible(pm_obs, "P14", "P24")
    assert not compatible(pm_obs, "P14", "P25")
    assert compatible(ks18_obs, "A12", "A16")
    assert not compatible(ks18_obs, "A12", "A34")


@pytest.mark.parametrize("family", ["ks18_obs", "pm_obs", "star3_obs", "star5_obs"])
def test_compatible_agrees_with_dense_commutation(family, request):
    obs = request.getfixturevalue(family)
    ops = {label: operator(obs, label) for label in obs.labels}
    for a in obs.labels:
        for b in obs.labels:
            commute = np.array_equal(ops[a] @ ops[b], ops[b] @ ops[a])
            assert compatible(obs, a, b) == commute, (a, b)

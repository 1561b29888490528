"""Property tests of the input boundary: generated expression and state
JSON, both through the library parsers and through ``cli.main``.

Every case must end in a result or in one of the exception families
the CLI maps to exit 2 (ValueError, KeyError) or exit 3
(ResourceLimitError): never another exception, a warning or exit 1.
States are always resolved against a target dimension, as the CLI does,
so a generated haar ``dim`` is compared before anything is allocated.
"""

import json

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ctxkit.cli import main
from ctxkit.exceptions import ResourceLimitError
from ctxkit.inequalities import InequalityExpr, expr_from_json
from ctxkit.observables import KS18_RAYS, PERES_MERMIN_WORDS
from ctxkit.states import NAMED_STATES, make_state

BOUNDARY_ERRORS = (ValueError, KeyError, ResourceLimitError)

scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def mostly(real):
    """Usually a value of ``real``, sometimes any JSON value."""
    return st.integers(0, 4).flatmap(lambda i: json_values if i == 0 else real)


@st.composite
def objects(draw, fields: dict, key_sets: list[tuple[str, ...]]):
    """A JSON object on one of the real key sets, with a key sometimes
    dropped or a junk key added, and each value ``mostly`` real."""
    keys = list(draw(st.sampled_from(key_sets)))
    if keys and draw(st.integers(0, 5)) == 0:
        keys.remove(draw(st.sampled_from(keys)))
    if draw(st.integers(0, 5)) == 0:
        keys.append(draw(st.sampled_from(["typo", "index", "weight"])))
    return {k: draw(mostly(fields.get(k, json_values))) for k in keys}


labels = st.sampled_from(
    sorted(KS18_RAYS) + sorted(PERES_MERMIN_WORDS)
    + [f"ACAL{k}" for k in range(1, 5)] + [f"{p}{i}" for p in "BC" for i in range(1, 8)]
    + ["", "A99", "P77"]
)
terms = objects(
    {"sign": st.sampled_from([1, -1]), "factors": st.lists(labels, max_size=5)},
    [("sign", "factors")],
)
expressions = mostly(objects(
    {
        "id": st.text(max_size=6),
        "set_id": st.sampled_from(["ks18", "peres_mermin", "mermin_star", "square"]),
        "bound": st.integers(-3, 10),
        "terms": st.lists(terms, max_size=6),
        "n": st.sampled_from([3, 4, 5, 1, -3, 15, 10**6 + 1]),
    },
    [("id", "set_id", "terms"), ("id", "set_id", "bound", "terms"), ("id", "set_id", "terms", "n")],
))

numbers = st.floats(-1, 1) | st.sampled_from([0, 1, 1e308, -1e308, 10**400, float("nan"), float("inf")])
unit_kets = st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)), min_size=4, max_size=4).map(
    lambda ps: np.array([complex(*p) for p in ps]) / 2 + [1, 0, 0, 0]
).map(lambda v: v / np.linalg.norm(v))


def as_pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in values]


state_fields = {
    "name": st.sampled_from(NAMED_STATES + ("bell",)),
    "dim": st.sampled_from([4, 4, 2, 0, -4, 10**6, 10**12]),
    "seed": st.integers(-1, 2**65),
    "amplitudes": unit_kets.map(as_pairs)
    | st.lists(st.lists(numbers, min_size=2, max_size=2), min_size=4, max_size=4)
    | st.lists(st.lists(numbers, max_size=3), max_size=5),
    "entries": unit_kets.map(lambda v: as_pairs(np.outer(v, v.conj()).ravel()))
    | st.lists(st.lists(numbers, min_size=2, max_size=2), min_size=16, max_size=16),
}
state_keys = {
    "named": ("kind", "name"),
    "ket": ("kind", "dim", "amplitudes"),
    "dm": ("kind", "dim", "entries"),
    "haar": ("kind", "dim", "seed"),
    "pure": ("kind", "dim"),
}
# Inputs that once ended in a traceback or a numpy warning, kept as
# fixed examples: a haar dim built before it was compared, and entries
# whose norm or Hermiticity check overflowed.
HUGE_HAAR = {"kind": "haar", "dim": 10**6, "seed": 1}
HUGE_KET = {"kind": "ket", "dim": 4, "amplitudes": [[1e308, 0], [0, 0], [0, 0], [0, 0]]}
HUGE_DM = {"kind": "dm", "dim": 4, "entries": [[0, 0], [1e308, 0]] + [[0, 0]] * 2
           + [[-1e308, 0]] + [[0, 0]] * 11}

state_objects = st.sampled_from(sorted(state_keys)).flatmap(
    lambda kind: objects({**state_fields, "kind": st.just(kind)}, [state_keys[kind]])
)


@settings(max_examples=300, deadline=None, database=None)
@given(expressions)
def test_expr_from_json_accepts_or_rejects_cleanly(data):
    try:
        expr = expr_from_json(data)
    except BOUNDARY_ERRORS:
        return
    assert isinstance(expr, InequalityExpr)


@settings(max_examples=300, deadline=None, database=None)
@given(state_objects | st.sampled_from(NAMED_STATES) | st.text(max_size=8))
@example(HUGE_HAAR)
@example(HUGE_KET)
@example(HUGE_DM)
def test_make_state_accepts_or_rejects_cleanly(spec):
    # Library callers may also pass numpy arrays; JSON reaches make_state
    # only as an object (``load_state``) or a named-state string.
    try:
        rho = make_state(spec, dim=4)
    except BOUNDARY_ERRORS:
        return
    assert rho.shape == (4, 4)
    assert np.isfinite(rho).all()


def _run(capsys, argv) -> None:
    rc = main(argv)
    out, err = capsys.readouterr()
    assert rc in (0, 2, 3)
    if rc == 0:
        assert err == ""
        json.loads(out)
    else:
        assert out == ""
        assert list(json.loads(err)) == ["error"]


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(expressions, st.sampled_from(["bound", "certify", "quantum", "maxval"]))
@example({"id": "x", "set_id": "mermin_star", "n": 10**6 + 1, "terms": []}, "bound")
def test_cli_on_generated_expression_files(capsys, tmp_path, data, command):
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(data))
    extra = ["--state", "maximally_mixed"] if command == "quantum" else []
    _run(capsys, [command, "--inequality", str(path)] + extra)


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(state_objects | json_values, st.sampled_from(["quantum", "simulate"]))
@example(HUGE_HAAR, "quantum")
@example(HUGE_KET, "quantum")
@example(HUGE_DM, "simulate")
@example([{}], "quantum")
@example([True, False, False, False], "quantum")
def test_cli_on_generated_state_files(capsys, tmp_path, spec, command):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(spec))
    extra = ["--shots", "4", "--seed", "1"] if command == "simulate" else []
    _run(capsys, [command, "--inequality", "chsh8", "--state", str(path)] + extra)

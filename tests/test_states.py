import json
import re

import numpy as np
import pytest

from ctxkit.exceptions import ResourceLimitError
from ctxkit.inequalities import catalog_get
from ctxkit.linalg import MAX_DENSE_DIM, factor
from ctxkit.quantum import evaluate_inequality
from ctxkit.runtime import substream
from ctxkit.states import (
    NAMED_STATES,
    ghz,
    haar_random,
    load_state,
    make_state,
    maximally_mixed,
    paper_kcbs_product,
    singlet,
    y_plus_pair,
    zero_product,
)


def test_named_constructors_return_density_matrices():
    # Pure states are validated kets; the mixed one is a density matrix.
    for psi in (singlet(), y_plus_pair(), zero_product(2), paper_kcbs_product(),
                ghz(3), haar_random(4, seed=1)):
        assert psi.ndim == 1
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-15)
    assert factor(maximally_mixed(5), 5).shape == (5, 5)


def test_singlet_entries():
    psi = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert np.allclose(singlet(), psi)


def test_ghz_entries():
    psi = ghz(3)
    assert psi.shape == (8,)
    assert psi[0] == pytest.approx(np.sqrt(0.5))
    assert psi[7] == pytest.approx(np.sqrt(0.5))
    assert np.linalg.norm(psi) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ghz(0)


def test_y_plus_pair_is_y_eigenstate():
    psi = y_plus_pair()
    y = np.array([[0, -1j], [1j, 0]])
    y1 = np.kron(y, np.eye(2))
    y2 = np.kron(np.eye(2), y)
    assert np.vdot(psi, y1 @ psi) == pytest.approx(1.0)
    assert np.vdot(psi, y2 @ psi) == pytest.approx(1.0)


def test_paper_kcbs_product_structure():
    a = np.array([np.cos(0.3), np.sin(0.3)])
    b = np.array([np.cos(0.7), -np.sin(0.7)])
    assert np.allclose(paper_kcbs_product(), np.kron(a, b))


def test_haar_random_seeded():
    assert np.array_equal(haar_random(4, seed=3, index=7), haar_random(4, seed=3, index=7))
    assert not np.allclose(haar_random(4, seed=3, index=7), haar_random(4, seed=3, index=8))
    assert not np.allclose(haar_random(4, seed=3, index=7), haar_random(4, seed=4, index=7))
    with pytest.raises(ValueError):
        haar_random(0, seed=1)


U64_MAX = 2**64 - 1


@pytest.mark.parametrize("d", [1, 4, 32, 8192])
@pytest.mark.parametrize("seed, index", [(0, 0), (3, 7), (U64_MAX, 5), (2, U64_MAX), (U64_MAX, U64_MAX)])
def test_haar_random_replays_two_normal_draws(d, seed, index):
    # The specification of lane 0: re and im are two successive
    # standard_normal(d) draws from substream (seed, 0, index).
    rng = substream(seed, 0, index)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    expected = psi / np.linalg.norm(psi)
    assert haar_random(d, seed, index).tobytes() == expected.tobytes()


def test_haar_random_is_pure():
    psi = haar_random(8, seed=0)
    assert psi.shape == (8,)
    assert np.linalg.norm(psi) == pytest.approx(1.0)


def test_make_state_named_with_dim():
    assert make_state("singlet", dim=4).shape == (4,)
    assert make_state("maximally_mixed", dim=18).shape == (18, 18)
    assert make_state("ghz", dim=8)[7] == pytest.approx(np.sqrt(0.5))
    with pytest.raises(ValueError):
        make_state("singlet", dim=8)
    with pytest.raises(ValueError):
        make_state("ghz")  # needs a dimension
    with pytest.raises(ValueError):
        make_state("ghz", dim=6)  # not a power of two
    with pytest.raises(ValueError):
        make_state("no_such_state", dim=4)
    assert "singlet" in NAMED_STATES


def test_make_state_from_arrays():
    psi = np.zeros(4)
    psi[0] = 1.0
    rho = make_state(psi)
    assert np.allclose(rho, zero_product(2))
    assert np.allclose(make_state(np.eye(4) / 4), maximally_mixed(4))
    with pytest.raises(ValueError):
        make_state(np.array([0.9, 0.0]))  # norm too far from 1
    for shape in ((2, 2, 2), (2, 3), (0, 0)):
        with pytest.raises(ValueError, match="1-D or square 2-D"):
            make_state(np.zeros(shape))
    with pytest.raises(ValueError):
        make_state(np.eye(4) / 4, dim=8)
    with pytest.raises(ValueError, match="non-finite"):
        make_state(np.array([np.nan, 0, 0, 0]))
    with pytest.raises(ValueError, match="non-finite"):
        make_state(np.diag([np.nan, 1.0]))


@pytest.mark.parametrize("rho", [
    np.diag([0.5, 0.5, 0.0, 0.0]) + np.eye(4, k=1) / 2,  # not Hermitian
    np.eye(4) / 2,  # trace 2
    np.diag([1.5, -0.5, 0.0, 0.0]),  # a negative eigenvalue
])
def test_density_matrices_are_certified_by_factor(ks18_obs, rho):
    # make_state builds the matrix; the consumer's linalg.factor refuses it.
    entries = [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]
    for spec in (rho, {"kind": "dm", "dim": 4, "entries": entries}):
        state = make_state(spec, dim=4)
        assert state.shape == (4, 4) and np.array_equal(state, rho)
        with pytest.raises(ValueError, match="density matrix"):
            evaluate_inequality(state, ks18_obs, catalog_get("ineq1"))


def test_state_json_entries_keep_every_bit():
    # Every entry is at most 2 in magnitude: larger ones are refused at
    # build (test_dm_entries_above_2_are_refused_at_build).
    pairs = [[-0.0, 1e-300], [2, 0], [0.1, -5e-324], [1, 0]]
    expected = np.array([complex(float(re), float(im)) for re, im in pairs])
    entries = make_state({"kind": "dm", "dim": 2, "entries": pairs})
    assert entries.reshape(-1).view(np.uint64).tolist() == expected.view(np.uint64).tolist()


@pytest.mark.parametrize("spec", [[True, False, False, False], [{}], ["1", "0", "0", "0"], None])
def test_make_state_arrays_must_be_numeric(spec):
    # A bool array is not read as the ket (1, 0, 0, 0), and an object
    # array is a ValueError, not a TypeError from numpy.
    with pytest.raises(ValueError, match="must hold numbers"):
        make_state(spec, dim=4)


def test_dm_entries_above_2_are_refused_at_build(tmp_path):
    # Refused where the state is built, with factor's message, rather
    # than built and then refused by every consumer.
    rho = np.diag([3.0, -2.0, 0.0, 0.0])
    spec = {"kind": "dm", "dim": 4, "entries": [[float(x), 0.0] for x in rho.reshape(-1)]}
    path = tmp_path / "dm.json"
    path.write_text(json.dumps(spec))
    wide = {"kind": "dm", "dim": 2, "entries": [[-0.0, 1e-300], [3, 2**53 + 1], [0.1, 0], [1, 0]]}
    for build in (lambda: make_state(rho), lambda: make_state(spec, dim=4),
                  lambda: load_state(str(path)), lambda: make_state(wide)):
        with pytest.raises(ValueError, match="^density matrix has non-finite entries or one above 2"):
            build()


FULL_STATE_SPECS = [
    {"kind": "named", "name": "singlet"},
    {"kind": "ket", "dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
    {"kind": "dm", "dim": 1, "entries": [[1.0, 0.0]]},
    {"kind": "haar", "dim": 4, "seed": 11},
]


@pytest.mark.parametrize("spec,key", [
    (spec, key) for spec in FULL_STATE_SPECS for key in spec if key != "kind"
])
def test_state_json_names_a_missing_key(spec, key):
    make_state(spec)  # whole, it builds
    partial = {k: v for k, v in spec.items() if k != key}
    with pytest.raises(ValueError, match=f"^{spec['kind']} state missing field: '{key}'$"):
        make_state(partial)


@pytest.mark.parametrize("name", [5, ["singlet"], None, True])
def test_named_state_name_must_be_a_string(name):
    with pytest.raises(ValueError, match="^state name must be a JSON string, got "):
        make_state({"kind": "named", "name": name}, dim=4)


def test_make_state_json_forms():
    rho = make_state({"kind": "named", "name": "singlet"}, dim=4)
    assert np.allclose(rho, singlet())
    ket_spec = {"kind": "ket", "dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
    assert np.allclose(make_state(ket_spec), [1, 0])
    dm_spec = {
        "kind": "dm", "dim": 2,
        "entries": [[0.5, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]],
    }
    assert np.allclose(make_state(dm_spec), np.eye(2) / 2)
    haar_spec = {"kind": "haar", "dim": 4, "seed": 11}
    assert np.array_equal(make_state(haar_spec), haar_random(4, seed=11))
    with pytest.raises(ValueError):
        make_state({"kind": "ket", "dim": 3, "amplitudes": [[1.0, 0.0]]})
    with pytest.raises(ValueError):
        make_state({"kind": "wavefunction"})


@pytest.mark.parametrize("spec", [
    {"kind": "haar", "dim": 4, "seed": 1.9},
    {"kind": "haar", "dim": 4, "seed": True},
    {"kind": "haar", "dim": 4, "seed": "1"},
    {"kind": "haar", "dim": 4.7, "seed": 1},
    {"kind": "ket", "dim": 2.0, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
    {"kind": "dm", "dim": "1", "entries": [[1.0, 0.0]]},
])
def test_state_json_integers_are_strict(spec):
    with pytest.raises(ValueError, match="JSON integer"):
        make_state(spec)


@pytest.mark.parametrize("spec", [
    {"kind": "ket", "dim": 2, "amplitudes": [[1, "a"], [0, 0]]},
    {"kind": "ket", "dim": 4, "amplitudes": [1, 0, 0, 0]},
    {"kind": "dm", "dim": 1, "entries": [1, 0]},
    {"kind": "ket", "dim": 2, "amplitudes": [[True, 0], [0, 0]]},
    {"kind": "ket", "dim": 2, "amplitudes": [[1, 0, 0], [0, 0]]},
    {"kind": "ket", "dim": 2, "amplitudes": {"re": [1, 0], "im": [0, 0]}},
    {"kind": "ket", "dim": 2, "amplitudes": [[float("nan"), 0], [0, 0]]},
    {"kind": "dm", "dim": 2, "entries": [[0.5, 0], [float("inf"), 0], [0, 0], [0.5, 0]]},
    {"kind": "ket", "dim": 2, "amplitudes": [[10**400, 0], [0, 0]]},
])
def test_state_json_entries_are_number_pairs(spec):
    with pytest.raises(ValueError, match="ket amplitudes|dm entries"):
        make_state(spec)


@pytest.mark.parametrize("spec", [
    {"kind": "named", "name": "singlet", "dim": 4},
    {"kind": "ket", "dim": 1, "amplitudes": [[1.0, 0.0]], "entries": []},
    {"kind": "dm", "dim": 1, "entries": [[1.0, 0.0]], "seed": 0},
    {"kind": "haar", "dim": 4, "seed": 1, "index": 2},
    {"kind": ["haar"]},
])
def test_state_json_rejects_unknown_keys(spec):
    with pytest.raises(ValueError):
        make_state(spec)


@pytest.mark.parametrize("d", [0, -1])
@pytest.mark.parametrize("kind, rest", [
    ("ket", {"amplitudes": []}),
    ("dm", {"entries": []}),
    ("haar", {"seed": 1}),
])
def test_state_json_rejects_a_dim_below_1(kind, rest, d):
    # The array form rejects the (0, 0) matrix a dm of dim 0 would be.
    with pytest.raises(ValueError, match=f"^{kind} state declares dim {d}, below 1$"):
        make_state({"kind": kind, "dim": d, **rest})


def test_dm_entry_count_must_match_its_dim():
    with pytest.raises(ValueError, match="^dm declares dim 2 but has 3 entries$"):
        make_state({"kind": "dm", "dim": 2, "entries": [[0.5, 0.0]] * 3})


def test_state_builders_need_a_positive_dimension():
    for d in (0, -1):
        for build in (lambda: haar_random(d, 1), lambda: maximally_mixed(d)):
            with pytest.raises(ValueError, match=f"^dimension must be positive, got {d}$"):
                build()


@pytest.mark.parametrize("build, message", [
    (lambda: make_state("ghz", dim=32.0), "dim must be an integer, got 32.0"),
    (lambda: make_state("zero_product", dim=True), "dim must be an integer, got True"),
    (lambda: make_state("maximally_mixed", dim=4.0), "dim must be an integer, got 4.0"),
    (lambda: make_state([1.0, 0.0], dim="2"), "dim must be an integer, got '2'"),
    (lambda: haar_random(4.0, 1), "dim must be an integer, got 4.0"),
    (lambda: maximally_mixed(np.float64(2.0)), "dim must be an integer, got np.float64(2.0)"),
    (lambda: ghz(3.0), "n must be an integer, got 3.0"),
    (lambda: zero_product(True), "n must be an integer, got True"),
], ids=["ghz", "zero_product", "maximally_mixed", "array", "haar", "numpy_float", "ghz_n",
        "zero_product_n"])
def test_a_dimension_is_an_integer_never_coerced(build, message):
    # int() made 32.0 a 5-qubit GHZ ket and True a 1-dimensional state.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_numpy_integer_dimensions_build_as_ints():
    for name in ("ghz", "zero_product", "maximally_mixed"):
        assert np.array_equal(make_state(name, dim=np.int64(4)), make_state(name, dim=4))
    assert np.array_equal(haar_random(np.uint8(4), 1), haar_random(4, 1))


def test_declared_dim_is_checked_before_building():
    for spec in (
        {"kind": "haar", "dim": 10**6, "seed": 1},
        {"kind": "ket", "dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
        {"kind": "dm", "dim": 10**9, "entries": [[1.0, 0.0]]},
    ):
        with pytest.raises(ValueError, match="declares dim"):
            make_state(spec, dim=4)


def test_load_state(tmp_path):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"kind": "named", "name": "y_plus_pair"}))
    assert np.allclose(load_state(str(path), dim=4), y_plus_pair())


def test_dense_states_are_capped_before_building(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a dense state past the cap")

    monkeypatch.setattr(np, "eye", refuse)
    with pytest.raises(ResourceLimitError, match="dense cap"):
        maximally_mixed(2 * MAX_DENSE_DIM)
    with pytest.raises(ResourceLimitError, match="dense cap"):
        make_state("maximally_mixed", dim=2 * MAX_DENSE_DIM)
    # A dm's declared dim is checked before its entries are read.
    with pytest.raises(ResourceLimitError, match="dense cap"):
        make_state({"kind": "dm", "dim": 2 * MAX_DENSE_DIM, "entries": "not read"})
    # Kets past the cap stay kets.
    assert ghz(13).shape == (2**13,) and 2**13 > MAX_DENSE_DIM

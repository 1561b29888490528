import json

import numpy as np
import pytest

from ctxkit.linalg import check_density_matrix
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
    for rho in (singlet(), y_plus_pair(), zero_product(2), paper_kcbs_product(),
                ghz(3), maximally_mixed(5), haar_random(4, seed=1)):
        check_density_matrix(rho)


def test_singlet_entries():
    rho = singlet()
    psi = np.array([0, 1, -1, 0]) / np.sqrt(2)
    assert np.allclose(rho, np.outer(psi, psi))


def test_ghz_entries():
    rho = ghz(3)
    assert rho[0, 0] == pytest.approx(0.5)
    assert rho[7, 7] == pytest.approx(0.5)
    assert rho[0, 7] == pytest.approx(0.5)
    assert np.trace(rho) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        ghz(0)


def test_y_plus_pair_is_y_eigenstate():
    rho = y_plus_pair()
    y = np.array([[0, -1j], [1j, 0]])
    y1 = np.kron(y, np.eye(2))
    y2 = np.kron(np.eye(2), y)
    assert np.trace(rho @ y1) == pytest.approx(1.0)
    assert np.trace(rho @ y2) == pytest.approx(1.0)


def test_paper_kcbs_product_structure():
    a = np.array([np.cos(0.3), np.sin(0.3)])
    b = np.array([np.cos(0.7), -np.sin(0.7)])
    psi = np.kron(a, b)
    assert np.allclose(paper_kcbs_product(), np.outer(psi, psi))


def test_haar_random_seeded():
    assert np.array_equal(haar_random(4, seed=3, index=7), haar_random(4, seed=3, index=7))
    assert not np.allclose(haar_random(4, seed=3, index=7), haar_random(4, seed=3, index=8))
    assert not np.allclose(haar_random(4, seed=3, index=7), haar_random(4, seed=4, index=7))
    with pytest.raises(ValueError):
        haar_random(0, seed=1)


def test_haar_random_is_pure():
    rho = haar_random(8, seed=0)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.allclose(rho @ rho, rho)


def test_make_state_named_with_dim():
    assert make_state("singlet", dim=4).shape == (4, 4)
    assert make_state("maximally_mixed", dim=18).shape == (18, 18)
    assert make_state("ghz", dim=8)[0, 7] == pytest.approx(0.5)
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
    with pytest.raises(ValueError):
        make_state(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        make_state(np.eye(4) / 4, dim=8)
    with pytest.raises(ValueError, match="non-finite"):
        make_state(np.array([np.nan, 0, 0, 0]))
    with pytest.raises(ValueError, match="non-finite"):
        make_state(np.diag([np.nan, 1.0]))


def test_make_state_json_forms():
    rho = make_state({"kind": "named", "name": "singlet"}, dim=4)
    assert np.allclose(rho, singlet())
    ket_spec = {"kind": "ket", "dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}
    assert np.allclose(make_state(ket_spec), [[1, 0], [0, 0]])
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

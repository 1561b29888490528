import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_oracle import LETTERS, PAULI_X, PAULI_Y, PAULI_Z, ray_operator, word_matrix
from ctxkit.linalg import (
    EXPANSION,
    IDENTITY,
    adjoint,
    apply,
    as_ket,
    check_density_matrix,
    combine,
    dense,
    expand,
    ket_density,
    max_entry,
    multiply,
    pauli,
)
from ctxkit.observables import KS18_RAYS


def test_paulis_are_involutions():
    for letter, matrix in LETTERS.items():
        p = pauli(letter)
        assert np.array_equal(adjoint(p), p)
        assert np.array_equal(multiply(p, p), IDENTITY)
        assert np.array_equal(dense(p, 2), matrix)


def test_expansion_layout():
    # Y = iXZ; qubit 1 is the most significant bit of the masks.
    assert pauli("YI").tolist() == [(2, 2, 1j)]
    assert pauli("IZ").tolist() == [(0, 1, 1)]
    assert pauli("").tolist() == [(0, 0, 1)]
    assert pauli("XX").dtype == EXPANSION
    with pytest.raises(ValueError):
        pauli("XA")
    with pytest.raises(ValueError):
        pauli("X")[0] = (0, 0, 1)  # read-only


def test_pauli_word_dense_is_kron_left_to_right():
    for word in ("XYZ", "ZIY", "YYX", "IIII", "ZXIYZ"):
        assert np.array_equal(dense(pauli(word), 2 ** len(word)), word_matrix(word))


def test_multiply_order_matters():
    # XY = iZ while YX = -iZ.
    x, y, z = pauli("X"), pauli("Y"), pauli("Z")
    assert np.array_equal(multiply(x, y), combine([(1j, z)]))
    assert np.array_equal(multiply(y, x), combine([(-1j, z)]))
    assert np.array_equal(dense(multiply(x, y), 2), PAULI_X @ PAULI_Y)


def test_commutes():
    x, z = pauli("X"), pauli("Z")
    assert np.array_equal(multiply(x, z), combine([(-1, multiply(z, x))]))
    xi, iz = pauli("XI"), pauli("IZ")
    assert np.array_equal(multiply(xi, iz), multiply(iz, xi))


def test_combine_merges_and_drops_zeros():
    x, z = pauli("X"), pauli("Z")
    total = combine([(0.5, x), (1, z), (-0.5, x)])
    assert np.array_equal(total, z)
    assert combine([(1, x), (-1, x)]).size == 0
    assert np.array_equal(dense(combine([(2, x), (1j, z)]), 2), 2 * PAULI_X + 1j * PAULI_Z)


def test_adjoint_conjugates():
    iy = combine([(1j, pauli("Y"))])
    assert np.array_equal(dense(adjoint(iy), 2), dense(iy, 2).conj().T)
    assert not np.array_equal(adjoint(iy), iy)


def test_expand_round_trips_rays():
    for v in KS18_RAYS.values():
        a = ray_operator(v)
        e = expand(a)
        assert np.array_equal(dense(e, 4), a)
        # |v|^2 in {1, 2, 4}: every coefficient is a multiple of 1/8.
        assert np.array_equal(e["c"] * 8, np.round(e["c"].real * 8))
    with pytest.raises(ValueError):
        expand(np.eye(3))


def test_max_entry_matches_dense():
    e = combine([(1, pauli("XZ")), (-0.5, pauli("XI")), (0.25j, pauli("YY")), (3, pauli("II"))])
    assert max_entry(e, 4) == np.abs(dense(e, 4)).max()
    # Terms sharing an x-mask add before the magnitude: |1 +- i| = sqrt(2).
    e = combine([(1, pauli("XI")), (1j, pauli("XZ"))])
    assert max_entry(e, 4) == np.abs(dense(e, 4)).max() == np.abs(1 + 1j)
    assert max_entry(combine([]), 8) == 0.0


_WEIGHTS = st.sampled_from([1, -1, 0.5, -0.25, 1j, -0.5j])


@st.composite
def _word_expansions(draw, n):
    words = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    terms = draw(st.lists(st.tuples(_WEIGHTS, words), min_size=1, max_size=3))
    return combine((w, pauli(word)) for w, word in terms)


_RAYS = st.lists(st.sampled_from([-1, 0, 1]), min_size=4, max_size=4).filter(
    lambda v: sum(c * c for c in v) in (1, 2, 4)
)


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(2**n), _word_expansions(n), _word_expansions(n))
))
def test_multiply_matches_dense_product_on_words(case):
    dim, a, b = case
    assert np.array_equal(dense(multiply(a, b), dim), dense(a, dim) @ dense(b, dim))


@given(_RAYS, _RAYS)
def test_multiply_matches_dense_product_on_rays(u, v):
    a, b = expand(ray_operator(u)), expand(ray_operator(v))
    assert np.array_equal(dense(a, 4), ray_operator(u))
    assert np.array_equal(dense(multiply(a, b), 4), dense(a, 4) @ dense(b, 4))


def _random_matrix(seed: int, dim: int, cols: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))


_SEEDS = st.integers(0, 2**32 - 1)


@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(2**n), _word_expansions(n))
), _SEEDS, st.booleans())
def test_apply_matches_dense_product_on_words(case, seed, ket):
    dim, e = case
    m = _random_matrix(seed, dim, 1 if ket else dim)
    assert np.abs(apply(e, m) - dense(e, dim) @ m).max() <= 1e-12


@given(st.sampled_from(sorted(KS18_RAYS)), _SEEDS)
def test_apply_matches_dense_product_on_rays(label, seed):
    e = expand(ray_operator(KS18_RAYS[label]))
    m = _random_matrix(seed, 4, 4)
    assert np.abs(apply(e, m) - dense(e, 4) @ m).max() <= 1e-12


def test_as_ket_renormalizes_within_slack():
    psi = as_ket(np.array([1.0 + 5e-7, 0.0]))
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-15)


def test_as_ket_rejects_bad_norm():
    with pytest.raises(ValueError):
        as_ket(np.array([0.9, 0.0]))
    with pytest.raises(ValueError):
        as_ket(np.zeros(4))
    with pytest.raises(ValueError):
        as_ket(np.array([]))


def test_as_ket_rejects_non_finite():
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            as_ket(np.array([bad, 0, 0, 0]))


def test_state_checks_reject_large_entries_without_overflow():
    # 1e308 squared overflows a norm; with warnings as errors, an
    # overflow here would fail the test instead of raising ValueError.
    with pytest.raises(ValueError, match="above 2"):
        as_ket(np.array([1e308, 0, 0, 0]))
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 1], rho[1, 0] = 1e308, -1e308
    with pytest.raises(ValueError, match="above 2"):
        check_density_matrix(rho)


def test_ket_density_is_projector():
    psi = np.array([1.0, 1.0j]) / np.sqrt(2)
    rho = ket_density(psi)
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.allclose(rho @ rho, rho)


def test_check_density_matrix_accepts_mixed():
    rho = check_density_matrix(np.eye(4) / 4)
    assert rho.shape == (4, 4)


def test_check_density_matrix_rejections():
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        check_density_matrix(np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        check_density_matrix(np.ones(3))  # not a matrix


def test_check_density_matrix_rejects_non_finite():
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        check_density_matrix(rho)
    with pytest.raises(ValueError, match="non-finite"):
        check_density_matrix(np.diag([np.inf, 0.0]))

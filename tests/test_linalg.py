import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dense_oracle import LETTERS, PAULI_X, PAULI_Y, PAULI_Z, expand, ray_operator, word_matrix
from ctxkit.exceptions import ResourceLimitError
from ctxkit.families import KS18_RAYS
from ctxkit.linalg import MAX_DENSE_DIM, apply, as_ket, dense, factor, tables
from ctxkit.pauli import (
    IDENTITY,
    Expansion,
    adjoint,
    combine,
    max_entry,
    multiply,
    pauli,
    ray,
)


def test_paulis_are_involutions():
    for letter, matrix in LETTERS.items():
        p = pauli(letter)
        assert adjoint(p) == p
        assert multiply(p, p) == IDENTITY
        assert np.array_equal(dense(p, 2), matrix)


def test_expansion_layout():
    # Y = iXZ; qubit 1 is the most significant bit of the masks, which
    # are ints, and each coefficient is a Python complex.
    assert pauli("YI") == ((2, 2, 1j),)
    assert pauli("IZ") == ((0, 1, 1),)
    assert pauli("") == ((0, 0, 1),)
    assert type(pauli("XX")) is Expansion
    assert [tuple(map(type, t)) for t in combine([(1, pauli("XX")), (0.5, pauli("ZY"))])] == [
        (int, int, complex)] * 2
    # 32 bytes a term, the size of the record array the tuple replaced.
    assert combine([(1, pauli("XX")), (0.5, pauli("ZY"))]).nbytes == 64
    with pytest.raises(ValueError):
        pauli("XA")
    with pytest.raises(TypeError):
        pauli("X")[0] = (0, 0, 1)  # read-only


def test_pauli_word_dense_is_kron_left_to_right():
    for word in ("XYZ", "ZIY", "YYX", "IIII", "ZXIYZ"):
        assert np.array_equal(dense(pauli(word), 2 ** len(word)), word_matrix(word))


def test_multiply_order_matters():
    # XY = iZ while YX = -iZ.
    x, y, z = pauli("X"), pauli("Y"), pauli("Z")
    assert multiply(x, y) == combine([(1j, z)])
    assert multiply(y, x) == combine([(-1j, z)])
    assert np.array_equal(dense(multiply(x, y), 2), PAULI_X @ PAULI_Y)


def test_commutes():
    x, z = pauli("X"), pauli("Z")
    assert multiply(x, z) == combine([(-1, multiply(z, x))])
    xi, iz = pauli("XI"), pauli("IZ")
    assert multiply(xi, iz) == multiply(iz, xi)


def test_combine_merges_and_drops_zeros():
    x, z = pauli("X"), pauli("Z")
    total = combine([(0.5, x), (1, z), (-0.5, x)])
    assert total == z
    assert combine([(1, x), (-1, x)]) == ()
    assert np.array_equal(dense(combine([(2, x), (1j, z)]), 2), 2 * PAULI_X + 1j * PAULI_Z)


def test_adjoint_conjugates():
    iy = combine([(1j, pauli("Y"))])
    assert np.array_equal(dense(adjoint(iy), 2), dense(iy, 2).conj().T)
    assert adjoint(iy) != iy


def test_expand_round_trips_rays():
    # A ray's expansion, summed over integers, equals the dense oracle's
    # expansion of its matrix term for term, and round-trips to it.
    for v in KS18_RAYS.values():
        a = ray_operator(v)
        e = ray(v)
        assert e == expand(a)
        assert np.array_equal(dense(e, 4), a)
        # |v|^2 in {1, 2, 4}: every coefficient is a multiple of 1/8.
        assert all(c.imag == 0 and (c.real * 8).is_integer() for _, _, c in e)
    with pytest.raises(ValueError):
        expand(np.eye(3))


@pytest.mark.parametrize("matrix", [np.ones((2, 4)), np.eye(3), np.eye(6), np.zeros((0, 0)),
                                    np.ones(4)])
def test_expand_needs_a_square_power_of_two_matrix(matrix):
    with pytest.raises(ValueError, match="square with a power-of-two side"):
        expand(matrix)


def test_max_entry_matches_dense():
    e = combine([(1, pauli("XZ")), (-0.5, pauli("XI")), (0.25j, pauli("YY")), (3, pauli("II"))])
    assert max_entry(e) == np.abs(dense(e, 4)).max()
    # Terms sharing an x-mask add before the magnitude: |1 +- i| = sqrt(2).
    e = combine([(1, pauli("XI")), (1j, pauli("XZ"))])
    assert max_entry(e) == np.abs(dense(e, 4)).max() == np.abs(1 + 1j)
    assert max_entry(combine([])) == 0.0


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
    a, b = ray(u), ray(v)
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
    # A factor, and a block of kets as columns (F order, as a sweep
    # passes it): each column is the apply of that column alone, bit for
    # bit, and the output keeps the input's layout, so a sweep's kets
    # come back contiguous for np.vdot.
    dim, e = case
    compiled = tables(e, dim)
    for m in (_random_matrix(seed, dim, 1 if ket else dim), _random_matrix(seed, 3, dim).T):
        out = apply(compiled, m)
        assert np.abs(out - dense(e, dim) @ m).max() <= 1e-12
        assert (out.flags.c_contiguous, out.flags.f_contiguous) == (
            m.flags.c_contiguous, m.flags.f_contiguous)
        for j in range(m.shape[1]):
            assert np.array_equal(out[:, j], apply(compiled, m[:, j:j + 1])[:, 0])


@given(st.sampled_from(sorted(KS18_RAYS)), _SEEDS)
def test_apply_matches_dense_product_on_rays(label, seed):
    e = ray(KS18_RAYS[label])
    m = _random_matrix(seed, 4, 4)
    assert np.abs(apply(tables(e, 4), m) - dense(e, 4) @ m).max() <= 1e-12


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
        factor(rho, 2)


def test_ket_density_is_projector():
    # A ket's factor is the ket itself as one column, so K K^dagger is
    # the rank-one projector.
    psi = np.array([1.0, 1.0j]) / np.sqrt(2)
    k = factor(psi, 2)
    assert k.shape == (2, 1)
    assert np.array_equal(k[:, 0], as_ket(psi))
    rho = k @ k.conj().T
    assert np.trace(rho) == pytest.approx(1.0)
    assert np.allclose(rho @ rho, rho)


def test_factor_of_density_matrix():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    rho = m @ m.conj().T
    rho /= np.trace(rho)
    k = factor(rho, 4)
    assert np.abs(k @ k.conj().T - rho).max() <= 1e-14
    with pytest.raises(ValueError, match="shape"):
        factor(rho, 8)
    with pytest.raises(ValueError, match="shape"):
        factor(np.array([1.0, 0.0]), 4)


def test_dense_cap_comes_before_any_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a dense array past the cap")

    monkeypatch.setattr(np, "zeros", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    with pytest.raises(ResourceLimitError, match="dense cap"):
        dense(pauli("Z"), 2 * MAX_DENSE_DIM)
    # A read-only view of one zero, in the shape of a density matrix past
    # the cap.
    hollow = np.broadcast_to(np.complex128(0), (2 * MAX_DENSE_DIM,) * 2)
    with pytest.raises(ResourceLimitError, match="dense cap"):
        factor(hollow, 2 * MAX_DENSE_DIM)


def test_factor_accepts_mixed():
    k = factor(np.eye(4) / 4, 4)
    assert k.shape == (4, 4)
    assert np.abs(k @ k.conj().T - np.eye(4) / 4).max() <= 1e-15


def test_factor_rejections():
    with pytest.raises(ValueError, match="not Hermitian"):
        factor(np.array([[1.0, 1.0], [0.0, 0.0]]), 2)
    with pytest.raises(ValueError, match="trace"):
        factor(np.eye(2), 2)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        factor(np.diag([1.5, -0.5]), 2)
    with pytest.raises(ValueError, match="shape"):
        factor(np.ones((3, 2)), 3)  # not a square matrix


def test_factor_rejects_non_finite():
    rho = np.eye(2, dtype=complex) / 2
    rho[0, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        factor(rho, 2)
    with pytest.raises(ValueError, match="non-finite"):
        factor(np.diag([np.inf, 0.0]), 2)

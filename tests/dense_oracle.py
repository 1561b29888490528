"""Dense references the library is tested against: Kronecker-product
builders of the Peres-Mermin and star observables for n <= 7 qubits, an
observable's dense matrix, a dense matrix's Pauli expansion, a ket's
density matrix, and a term's expectation as a trace."""

import numpy as np

from ctxkit.linalg import _signs, as_ket, dense, factor
from ctxkit.pauli import combine

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
LETTERS = {"I": IDENTITY_2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def kron_all(factors) -> np.ndarray:
    """Tensor product of a sequence of matrices, left to right."""
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def word_matrix(word: str) -> np.ndarray:
    return kron_all([LETTERS[ch] for ch in word])


def peres_mermin_operators() -> dict[str, np.ndarray]:
    z1 = kron_all([PAULI_Z, IDENTITY_2])
    z2 = kron_all([IDENTITY_2, PAULI_Z])
    x1 = kron_all([PAULI_X, IDENTITY_2])
    x2 = kron_all([IDENTITY_2, PAULI_X])
    return {
        "P14": z1,
        "P15": z2,
        "P16": kron_all([PAULI_Z, PAULI_Z]),
        "P24": x2,
        "P25": x1,
        "P26": kron_all([PAULI_X, PAULI_X]),
        "P34": kron_all([PAULI_Z, PAULI_X]),
        "P35": kron_all([PAULI_X, PAULI_Z]),
        "P36": kron_all([PAULI_Y, PAULI_Y]),
    }


def star_operators(n: int) -> dict[str, np.ndarray]:
    """ACAL1 = Z...Z, ACAL2 = Z X X...X, ACAL3 = X Z X...X,
    ACAL4 = X X Z...Z, B_i = Z on site i, C_i = X on site i."""

    def string_op(site_paulis: dict[int, np.ndarray]) -> np.ndarray:
        return kron_all([site_paulis.get(i, IDENTITY_2) for i in range(1, n + 1)])

    ops = {
        "ACAL1": string_op({i: PAULI_Z for i in range(1, n + 1)}),
        "ACAL2": string_op({1: PAULI_Z} | {i: PAULI_X for i in range(2, n + 1)}),
        "ACAL3": string_op({2: PAULI_Z} | {i: PAULI_X for i in range(1, n + 1) if i != 2}),
        "ACAL4": string_op({1: PAULI_X, 2: PAULI_X} | {i: PAULI_Z for i in range(3, n + 1)}),
    }
    for i in range(1, n + 1):
        ops[f"B{i}"] = string_op({i: PAULI_Z})
        ops[f"C{i}"] = string_op({i: PAULI_X})
    return ops


def ray_operator(v) -> np.ndarray:
    """2 v v^T / |v|^2 - 1 for an integer ray v with |v|^2 a power of two,
    so every entry is exact."""
    v = np.asarray(v, dtype=np.int64)
    return 2 * np.outer(v, v) / int(v @ v) - np.eye(len(v))


def expand(matrix):
    """The Pauli expansion of a 2^n x 2^n matrix M:
    c(x, z) = Tr((X^x Z^z)^dagger M) / d = sum_j (-1)^|z & j| M[j ^ x, j] / d."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or not m.shape[0] == m.shape[1] > 0 or m.shape[0] & (m.shape[0] - 1):
        raise ValueError(f"matrix must be square with a power-of-two side, got shape {m.shape}")
    j = np.arange(m.shape[0])
    coefficients = _signs(j[:, None], j) @ m[j ^ j[:, None], j].T / j.size  # [z, x]
    terms = [(int(x), int(z), complex(c)) for (z, x), c in np.ndenumerate(coefficients)]
    return combine([(1, terms)])


def operator(obs, label: str) -> np.ndarray:
    """An observable of the set as a read-only dense matrix."""
    return dense(obs.expansion(label), obs.dim)


def ket_density(psi) -> np.ndarray:
    """Rank-one density matrix |psi><psi| from a (near-)normalized ket."""
    psi = as_ket(psi)
    return np.outer(psi, psi.conj())


def expectation_term(state, obs, term) -> float:
    """sign * Re Tr(rho * product of the term's factor operators), for a
    ket or density matrix of the set's dimension."""
    factor(state, obs.dim)  # certifies the state; the trace uses it as given
    rho = ket_density(state) if np.ndim(state) == 1 else np.asarray(state, dtype=complex)
    prod = np.eye(obs.dim, dtype=complex)
    for label in term.factors:
        prod = prod @ operator(obs, label)
    return term.sign * float(np.trace(rho @ prod).real)

"""Exact Pauli expansions of observables, and dense state checks.

An observable is a read-only record array of ``EXPANSION`` terms
(x, z, c), each c * X^x Z^z with qubit 1 in the masks' top bit, sorted
by (x, z) with distinct masks and nonzero c: equal operators are equal
arrays.  X^x1 Z^z1 X^x2 Z^z2 = (-1)^|z1 & x2| X^(x1^x2) Z^(z1^z2) and
dyadic coefficients keep the algebra exact.  ``apply`` multiplies a
dense state by an expansion; ``dense`` builds a matrix only for dense
states and eigensolvers.  Kets are 1-D complex vectors;
density matrices are checked within 1e-9.
"""

from __future__ import annotations

import numpy as np

STRUCT_TOL = 1e-9
KET_NORM_SLACK = 1e-6

EXPANSION = np.dtype([("x", np.uint64), ("z", np.uint64), ("c", np.complex128)])


def _as_operator(a, name: str = "operator") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError(f"{name} has zero dimension")
    return a


def _collect(terms) -> np.ndarray:
    """The expansion of a sum of (x, z, c) terms: equal masks merged,
    zero coefficients dropped."""
    acc: dict[tuple[int, int], complex] = {}
    for x, z, c in terms:
        acc[x, z] = acc.get((x, z), 0) + c
    out = np.array([(x, z, c) for (x, z), c in sorted(acc.items()) if c != 0], dtype=EXPANSION)
    out.flags.writeable = False
    return out


def pauli(word: str) -> np.ndarray:
    """The expansion of a Pauli word over "IXYZ", qubit 1 first (Y = iXZ).
    The empty word is the identity in every dimension."""
    x = z = ys = 0
    for ch in word:
        if ch not in "IXYZ":
            raise ValueError(f"Pauli word {word!r} has a letter outside IXYZ")
        x = (x << 1) | (ch in "XY")
        z = (z << 1) | (ch in "YZ")
        ys += ch == "Y"
    return _collect([(x, z, 1j**ys)])


IDENTITY = pauli("")


def multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The expansion of the operator product a b."""
    return _collect(
        (xa ^ xb, za ^ zb, -ca * cb if (za & xb).bit_count() & 1 else ca * cb)
        for xa, za, ca in a.tolist()
        for xb, zb, cb in b.tolist()
    )


def combine(weighted) -> np.ndarray:
    """The expansion of sum(w * e) over (weight, expansion) pairs."""
    return _collect((x, z, w * c) for w, e in weighted for x, z, c in e.tolist())


def adjoint(e: np.ndarray) -> np.ndarray:
    """The expansion of the adjoint: (X^x Z^z)^dagger = (-1)^|x & z| X^x Z^z."""
    return _collect(
        (x, z, -c.conjugate() if (x & z).bit_count() & 1 else c.conjugate())
        for x, z, c in e.tolist()
    )


def _signs(z, j: np.ndarray) -> np.ndarray:
    """(-1)^|z & j| for every basis index j: the diagonal of Z^z."""
    return 1.0 - 2.0 * (np.bitwise_count(j & z) & 1)


def _entries(e: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per term, the rows j ^ x and values c (-1)^|z & j| of columns j:
    X^x Z^z maps |j> to (-1)^|z & j| |j ^ x>."""
    x, z = (e[f].astype(np.int64)[:, None] for f in "xz")
    return j ^ x, e["c"][:, None] * _signs(z, j)


def dense(e: np.ndarray, dim: int) -> np.ndarray:
    """The read-only dim x dim matrix of an expansion."""
    j = np.arange(dim)
    rows, values = _entries(e, j)
    out = np.zeros((dim, dim), dtype=complex)
    np.add.at(out, (rows, j), values)
    out.flags.writeable = False
    return out


def apply(e: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``dense(e, len(m)) @ m`` without the matrix: term c X^x Z^z moves
    row j of m, times c (-1)^|z & j|, to row j ^ x."""
    rows, values = _entries(e, np.arange(len(m)))
    out = np.zeros(m.shape, dtype=complex)
    for r, v in zip(rows, values):
        out[r] += v[:, None] * m
    return out


def max_entry(e: np.ndarray, dim: int) -> float:
    """Largest |entry| of ``dense(e, dim)``, without a dim x dim array:
    terms with equal x-masks fill the same entries, others disjoint ones,
    so one length-dim vector per distinct x-mask holds every entry."""
    j = np.arange(dim)
    xs, group = np.unique(e["x"], return_inverse=True)
    out = np.zeros((xs.size, dim), dtype=complex)
    np.add.at(out, (group[:, None], j), _entries(e, j)[1])
    return float(np.abs(out).max(initial=0.0))


def expand(matrix) -> np.ndarray:
    """The expansion of a 2^n x 2^n matrix M:
    c(x, z) = Tr((X^x Z^z)^dagger M) / d = sum_j (-1)^|z & j| M[j ^ x, j] / d."""
    m = _as_operator(matrix, "matrix")
    j = np.arange(m.shape[0])
    if j.size & (j.size - 1):
        raise ValueError(f"dimension {j.size} is not a power of two")
    coefficients = _signs(j[:, None], j) @ m[j ^ j[:, None], j].T / j.size  # [z, x]
    return _collect((x, z, c) for (z, x), c in np.ndenumerate(coefficients))


def as_ket(amplitudes) -> np.ndarray:
    """Validate and normalize a state vector.

    Norms within 1e-6 of 1 are silently renormalized; anything further off,
    and any non-finite amplitude or one above 2 in magnitude (no unit
    vector has one), is rejected rather than guessed at.
    """
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if psi.size == 0:
        raise ValueError("empty state vector")
    if not np.abs(psi).max() <= 2.0:  # also keeps the norm from overflowing
        raise ValueError("state vector has non-finite amplitudes or one above 2 in magnitude")
    norm = float(np.linalg.norm(psi))
    if norm == 0.0:
        raise ValueError("zero state vector")
    if abs(norm - 1.0) > KET_NORM_SLACK:
        raise ValueError(f"state vector norm {norm} is not within {KET_NORM_SLACK} of 1")
    return psi / norm


def ket_density(psi) -> np.ndarray:
    """Rank-one density matrix |psi><psi| from a (near-)normalized ket."""
    psi = as_ket(psi)
    return np.outer(psi, psi.conj())


def check_density_matrix(rho) -> np.ndarray:
    """Certify rho as a density matrix: entries finite and at most 2 in
    magnitude (a density matrix's are at most 1), Hermitian, unit trace,
    positive semidefinite within STRUCT_TOL.  Returns rho as a complex
    array on success."""
    rho = _as_operator(rho, "rho")
    if not np.abs(rho).max() <= 2.0:  # also keeps the checks below from overflowing
        raise ValueError("density matrix has non-finite entries or one above 2 in magnitude")
    if np.max(np.abs(rho - rho.conj().T)) > STRUCT_TOL:
        raise ValueError("density matrix is not Hermitian")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > STRUCT_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1")
    eigvals = np.linalg.eigvalsh(rho)
    if float(eigvals.min()) < -STRUCT_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {eigvals.min()}")
    return rho

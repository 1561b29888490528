"""Exact Pauli expansions of observables, and state certification.

An observable is a read-only record array of ``EXPANSION`` terms
(x, z, c), each c * X^x Z^z with qubit 1 in the masks' top bit, sorted
by (x, z) with distinct masks and nonzero c: equal operators are equal
arrays.  X^x1 Z^z1 X^x2 Z^z2 = (-1)^|z1 & x2| X^(x1^x2) Z^(z1^z2) and
dyadic coefficients keep the algebra exact.  ``tables`` compiles an
expansion for one dimension into the one form every consumer reads:
``apply`` multiplies a 2-D operand, a factor or a block of kets, by it,
and ``dense`` (only for the eigensolver and the 4x4 calibration) and
``max_entry`` read the same tables.

A state is a ket (1-D complex vector) or a density matrix, checked
within 1e-9.  ``checked_state`` is the one rule for a state array, and
``factor``, built on it, the one place that certifies either kind, as
its d x r factor K with rho = K K^dagger; every consumer of a state calls
it once per computation (a Haar sweep certifies its blocks of kets with
``as_kets``, the row-wise form of ``as_ket``).  No d x d array is built
past ``MAX_DENSE_DIM``.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ResourceLimitError

STRUCT_TOL = 1e-9
KET_NORM_SLACK = 1e-6
MAX_DENSE_DIM = 2**11

EXPANSION = np.dtype([("x", np.uint64), ("z", np.uint64), ("c", np.complex128)])


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


def check_dense(dim: int, what: str) -> None:
    """The one cap on d x d arrays, checked before one is built."""
    if dim > MAX_DENSE_DIM:
        raise ResourceLimitError(f"{what} of dimension {dim} exceeds the dense cap {MAX_DENSE_DIM}")


def tables(e: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The expansion compiled for dimension ``dim``, as (cols, values) of
    shape (terms, dim): X^x Z^z maps |j> to (-1)^|z & j| |j ^ x>, so per
    term, row i of the product takes row i ^ x, times c (-1)^|z & (i ^ x)|."""
    x, z = (e[f].astype(np.int64)[:, None] for f in "xz")
    cols = np.arange(dim) ^ x
    return cols, e["c"][:, None] * _signs(z, cols)


def dense(e: np.ndarray, dim: int) -> np.ndarray:
    """The read-only dim x dim matrix of an expansion."""
    check_dense(dim, "dense operator")
    cols, values = tables(e, dim)
    out = np.zeros((dim, dim), dtype=complex)
    np.add.at(out, (np.arange(dim), cols), values)
    out.flags.writeable = False
    return out


def apply(compiled: tuple[np.ndarray, np.ndarray], m: np.ndarray) -> np.ndarray:
    """``dense(e, len(m)) @ m`` from ``compiled = tables(e, len(m))``,
    without the matrix, for a 2-D m (a d x r factor, or a block of kets
    as columns).  Terms are summed in order into a zeroed output in m's
    layout, so each column equals ``apply`` on that column alone bit for
    bit, and a transposed block comes back with contiguous kets."""
    cols, values = compiled
    values = values[:, :, None]
    out = np.zeros_like(m, dtype=complex)
    for c, v in zip(cols, values):
        moved = m[c]
        out += np.multiply(v, moved, out=moved)
    return out


def max_entry(e: np.ndarray, dim: int) -> float:
    """Largest |entry| of ``dense(e, dim)``, without a dim x dim array:
    terms with equal x-masks fill the same entries, others disjoint ones,
    so one length-dim vector per distinct x-mask holds every entry."""
    xs, group = np.unique(e["x"], return_inverse=True)
    out = np.zeros((xs.size, dim), dtype=complex)
    np.add.at(out, (group[:, None], np.arange(dim)), tables(e, dim)[1])
    return float(np.abs(out).max(initial=0.0))


def expand(matrix) -> np.ndarray:
    """The expansion of a 2^n x 2^n matrix M:
    c(x, z) = Tr((X^x Z^z)^dagger M) / d = sum_j (-1)^|z & j| M[j ^ x, j] / d."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or not m.shape[0] == m.shape[1] > 0 or m.shape[0] & (m.shape[0] - 1):
        raise ValueError(f"matrix must be square with a power-of-two side, got shape {m.shape}")
    j = np.arange(m.shape[0])
    coefficients = _signs(j[:, None], j) @ m[j ^ j[:, None], j].T / j.size  # [z, x]
    return _collect((x, z, c) for (z, x), c in np.ndenumerate(coefficients))


def row_norms(kets: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each row of a 2-D complex array, bit for bit:
    sqrt(re.re + im.im) on the rows' strided real and imaginary views.
    ``np.vecdot`` takes each row's dot product with the same inner loop
    as ``ndarray.dot`` (a vectorized sum can round differently)."""
    re, im = kets.real, kets.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def as_kets(rows) -> np.ndarray:
    """Validate and normalize each row of a 2-D array as ``as_ket`` does
    one state vector, with the same checks and messages."""
    psi = np.ascontiguousarray(rows, dtype=complex)  # as np.linalg.norm's ravel would
    if psi.shape[1] == 0:
        raise ValueError("empty state vector")
    if not np.abs(psi).max() <= 2.0:  # also keeps the norms from overflowing
        raise ValueError("state vector has non-finite amplitudes or one above 2 in magnitude")
    norms = row_norms(psi)
    if (norms == 0.0).any():
        raise ValueError("zero state vector")
    if (off := np.abs(norms - 1.0) > KET_NORM_SLACK).any():
        norm = float(norms[off][0])
        raise ValueError(f"state vector norm {norm} is not within {KET_NORM_SLACK} of 1")
    return psi / norms[:, None]


def as_ket(amplitudes) -> np.ndarray:
    """Validate and normalize a state vector.

    Norms within 1e-6 of 1 are silently renormalized; anything further off,
    and any non-finite amplitude or one above 2 in magnitude (no unit
    vector has one), is rejected rather than guessed at.
    """
    return as_kets(np.asarray(amplitudes, dtype=complex).reshape(1, -1))[0]


def checked_state(state, dim: int | None = None) -> np.ndarray:
    """The one rule for a state array (of dimension ``dim`` when given):
    numbers, never bools or strings, 1-D or non-empty square 2-D, within
    the dense cap, entries finite and at most 2 in magnitude.  A 1-D array
    comes back through ``as_ket``, a 2-D one as a complex matrix, not yet
    certified."""
    arr = np.asarray(state)
    if arr.dtype.kind not in "iufc":
        raise ValueError(f"state array must hold numbers, got dtype {arr.dtype}")
    if not (arr.ndim == 1 or arr.ndim == 2 and arr.shape[0] == arr.shape[1] > 0):
        raise ValueError(f"state array must be 1-D or square 2-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"state has shape {arr.shape}, set dimension is {dim}")
    if arr.ndim == 1:
        return as_ket(arr)
    check_dense(arr.shape[0], "density matrix")
    rho = arr.astype(complex, copy=False)
    if not np.abs(rho).max() <= 2.0:  # also keeps factor's checks from overflowing
        raise ValueError("density matrix has non-finite entries or one above 2 in magnitude")
    return rho


def factor(state, dim: int) -> np.ndarray:
    """The certified state of dimension ``dim`` as its factor K, rho = K K^dagger.

    After ``checked_state``, a ket psi has K = psi[:, None]; a density
    matrix must be Hermitian, unit trace and positive semidefinite within
    STRUCT_TOL, and K is V sqrt(lambda) from the one ``eigh`` that checks
    the last, with rounding below 0 taken as 0.
    """
    rho = checked_state(state, dim)
    if rho.ndim == 1:  # a ket
        return rho[:, None]
    if np.max(np.abs(rho - rho.conj().T)) > STRUCT_TOL:
        raise ValueError("density matrix is not Hermitian")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > STRUCT_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1")
    eigvals, vecs = np.linalg.eigh(rho)
    if float(eigvals[0]) < -STRUCT_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {eigvals[0]}")
    return vecs * np.sqrt(np.maximum(eigvals, 0.0))

"""The numeric half of the operator layer: expansions compiled into
arrays, and state certification.

``tables`` compiles an exact Pauli expansion (``pauli.Expansion``) for
one dimension into the one form every state-side consumer reads:
``apply`` multiplies a 2-D operand, a factor or a block of kets, by it,
and ``dense`` (only for the eigensolver and the 4x4 calibration) reads
the same tables.

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
from .pauli import Expansion

STRUCT_TOL = 1e-9
KET_NORM_SLACK = 1e-6
MAX_DENSE_DIM = 2**11


def _signs(z, j: np.ndarray) -> np.ndarray:
    """(-1)^|z & j| for every basis index j: the diagonal of Z^z."""
    return 1.0 - 2.0 * (np.bitwise_count(j & z) & 1)


def check_dense(dim: int, what: str) -> None:
    """The one cap on d x d arrays, checked before one is built."""
    if dim > MAX_DENSE_DIM:
        raise ResourceLimitError(f"{what} of dimension {dim} exceeds the dense cap {MAX_DENSE_DIM}")


def tables(e: Expansion, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The expansion compiled for dimension ``dim``, as (cols, values) of
    shape (terms, dim): X^x Z^z maps |j> to (-1)^|z & j| |j ^ x>, so per
    term, row i of the product takes row i ^ x, times c (-1)^|z & (i ^ x)|."""
    x, z = (np.array([t[f] for t in e], dtype=np.int64).reshape(-1, 1) for f in (0, 1))
    c = np.array([t[2] for t in e], dtype=complex).reshape(-1, 1)
    cols = np.arange(dim) ^ x
    return cols, c * _signs(z, cols)


def dense(e: Expansion, dim: int) -> np.ndarray:
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

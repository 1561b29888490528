"""Quantum state construction: named states, raw vectors and matrices,
seeded Haar-random states, and the JSON state form used by the CLI.

Pure states are 1-D unit kets, never expanded to a density matrix;
mixed states are dense density matrices, capped at
``linalg.MAX_DENSE_DIM`` before they are built.  An array or a dm file
passes ``linalg.checked_state`` here; ``linalg.factor`` certifies a
density matrix (Hermitian, unit trace, positive semidefinite) once per
computation that uses it.  The named states, ``NAMED_STATES``, are the
names of one table, ``_NAMED``, which also builds them.

Haar-random states are normalized complex-Gaussian vectors, state i of
a sweep from the ``runtime.draws`` row (seed, lane 0, i, 0), so a
sweep's i-th state is the same no matter how the sweep is chunked.
``haar_kets`` draws a block of them as the rows of one array and
``haar_random`` is its one-row case; each state is one row of 2d
standard normals split into real and imaginary parts, the same numbers
as two successive ``standard_normal(d)`` draws.

Every dimension or qubit count a builder takes is an integer, an int or
a numpy integer (ValueError for a float, bool or string, never coerced),
checked before anything is built.
"""

from __future__ import annotations

import contextlib
import math
from itertools import chain
from typing import Mapping

import numpy as np

from .inequalities import check_keys, parse_int, read_json
from .linalg import as_ket, check_dense, checked_state, row_norms
from .runtime import STATE_LANE, _integer, draws


def singlet() -> np.ndarray:
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1 / np.sqrt(2)
    psi[2] = -1 / np.sqrt(2)
    return as_ket(psi)


def ghz(n: int) -> np.ndarray:
    if (n := _integer("n", n)) < 1:
        raise ValueError(f"ghz needs at least one qubit, got n={n}")
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    return as_ket(psi)


def y_plus_pair() -> np.ndarray:
    y_plus = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
    return as_ket(np.kron(y_plus, y_plus))


def zero_product(n: int = 2) -> np.ndarray:
    psi = np.zeros(2 ** _integer("n", n), dtype=complex)
    psi[0] = 1.0
    return as_ket(psi)


def paper_kcbs_product() -> np.ndarray:
    a = np.array([np.cos(0.3), np.sin(0.3)], dtype=complex)
    b = np.array([np.cos(0.7), -np.sin(0.7)], dtype=complex)
    return as_ket(np.kron(a, b))


def maximally_mixed(d: int) -> np.ndarray:
    if (d := _integer("dim", d)) < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    check_dense(d, "maximally mixed state")
    return np.eye(d, dtype=complex) / d


def haar_kets(d: int, seed: int, indices) -> np.ndarray:
    """The Haar-random pure states at ``indices`` of a sweep, as the rows
    of a (len(indices), d) array: state i is the normalized complex
    Gaussian vector re + 1j * im, with re and im the two halves of the
    2d standard normals of the ``draws`` row (seed, lane 0, i, 0).
    """
    if (d := _integer("dim", d)) < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    normals = draws(seed, STATE_LANE, indices, (0,), 2 * d)
    kets = normals[:, :d] + 1j * normals[:, d:]
    kets /= row_norms(kets)[:, None]
    return kets


def haar_random(d: int, seed: int, index: int = 0) -> np.ndarray:
    """Haar-distributed pure state: normalized complex-Gaussian vector,
    a ket by construction, which consumers certify like any other.

    ``index`` selects the position within a sweep; (d, seed, index)
    determines the state exactly, and it is row 0 of
    ``haar_kets(d, seed, [index])``.
    """
    return haar_kets(d, seed, (index,))[0]


def _target(dim: int | None, name: str) -> int:
    if dim is None:
        raise ValueError(f"state {name!r} needs a target dimension")
    return dim


def _qubits_for(dim: int | None, name: str) -> int:
    n = _target(dim, name).bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"named state {name!r} needs a power-of-two dimension, got {dim}")
    return n


# Each named state's builder, called with its name and the target
# dimension (None when there is none): the first three are fixed and
# ignore it (make_state checks their dimension), the others are built
# for it.
_NAMED = {
    "singlet": lambda name, dim: singlet(),
    "y_plus_pair": lambda name, dim: y_plus_pair(),
    "paper_kcbs_product": lambda name, dim: paper_kcbs_product(),
    "ghz": lambda name, dim: ghz(_qubits_for(dim, name)),
    "zero_product": lambda name, dim: zero_product(_qubits_for(dim, name)),
    "maximally_mixed": lambda name, dim: maximally_mixed(_target(dim, name)),
}
NAMED_STATES = tuple(_NAMED)


def _named_state(name: str, dim: int | None) -> np.ndarray:
    if name not in _NAMED:
        raise ValueError(f"unknown named state {name!r}")
    return _NAMED[name](name, dim)


_STATE_KEYS = {
    "named": ("kind", "name"),
    "ket": ("kind", "dim", "amplitudes"),
    "dm": ("kind", "dim", "entries"),
    "haar": ("kind", "dim", "seed"),
}


def _first_bad_pair(values, what: str) -> str:
    """The message for the first item, in order, that is not an [re, im]
    pair of finite JSON numbers (a bool, string, bare number or pair of
    any other length is rejected, not coerced)."""
    for pair in values:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(x) in (int, float) for x in pair)):
            return f"{what} must be [re, im] pairs of JSON numbers, got {pair!r}"
        try:
            re, im = float(pair[0]), float(pair[1])
        except OverflowError:
            return f"{what} entry {pair!r} is too large"
        if not (math.isfinite(re) and math.isfinite(im)):
            return f"{what} entry {pair!r} is not finite"
    raise AssertionError(f"{what}: no bad pair")


def _complex_entries(values, what: str) -> np.ndarray:
    """A JSON list of [re, im] pairs as complex entries: the types are
    checked in one pass over the items' types and lengths, the floats
    fill one flat buffer, viewed as complex, and one ``np.isfinite``
    checks it.  Any failure is named by ``_first_bad_pair``."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of [re, im] pairs, got {values!r}")
    floats = None
    if (all(issubclass(t, list) for t in set(map(type, values)))
            and set(map(len, values)) <= {2}
            and set(map(type, chain.from_iterable(values))) <= {int, float}):
        with contextlib.suppress(OverflowError):  # an int past the float range
            floats = np.fromiter(chain.from_iterable(values), dtype=float, count=2 * len(values))
    if floats is None or not np.isfinite(floats).all():
        raise ValueError(_first_bad_pair(values, what))
    return floats.view(complex)


def _state_from_mapping(spec: Mapping, dim: int | None) -> np.ndarray:
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _STATE_KEYS:
        raise ValueError(f"unknown state kind {kind!r}")
    check_keys(spec, _STATE_KEYS[kind], f"{kind} state")
    if kind == "named":
        if not isinstance(name := spec["name"], str):
            raise ValueError(f"state name must be a JSON string, got {name!r}")
        return _named_state(name, dim)
    d = parse_int(spec["dim"], "state dim")
    if d < 1:
        raise ValueError(f"{kind} state declares dim {d}, below 1")
    if dim is not None and d != dim:
        raise ValueError(f"{kind} state declares dim {d}, set needs {dim}")
    if kind == "haar":
        return haar_random(d, parse_int(spec["seed"], "state seed"))
    if kind == "ket":
        amps = _complex_entries(spec["amplitudes"], "ket amplitudes")
        if amps.size != d:
            raise ValueError(f"ket declares dim {d} but has {amps.size} amplitudes")
        return as_ket(amps)
    check_dense(d, "dm state")
    entries = _complex_entries(spec["entries"], "dm entries")
    if entries.size != d * d:
        raise ValueError(f"dm declares dim {d} but has {entries.size} entries")
    return checked_state(entries.reshape(d, d))


def make_state(spec, dim: int | None = None) -> np.ndarray:
    """Resolve a state specification to a validated 1-D ket or a
    complex density matrix.

    ``spec`` may be a named-state string, a dict in the JSON form
    ({"kind": "named"|"ket"|"dm"|"haar", ...}), or an array, which
    passes ``linalg.checked_state``.  When ``dim`` is given the result
    must match it; it is an integer (ValueError otherwise), checked
    before anything is built.  A density matrix is built here, not
    certified: its Hermiticity, trace and positivity are certified by
    ``linalg.factor``, which every consumer runs once.
    """
    dim = None if dim is None else _integer("dim", dim)
    if isinstance(spec, str):
        state = _named_state(spec, dim)
    elif isinstance(spec, Mapping):
        state = _state_from_mapping(spec, dim)
    else:
        return checked_state(spec, dim)
    if dim is not None and state.shape[0] != dim:
        raise ValueError(f"state has shape {state.shape}, set dimension is {dim}")
    return state


def load_state(path: str, dim: int | None = None) -> np.ndarray:
    """A state file: one JSON object in the form ``make_state`` takes.
    A dm file is built, not certified: ``linalg.factor`` does that."""
    spec = read_json(path)
    if not isinstance(spec, Mapping):
        raise ValueError(f"state file must hold a JSON object, got {type(spec).__name__}")
    return make_state(spec, dim)

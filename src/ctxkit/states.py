"""Quantum state construction: named states, raw vectors and matrices,
seeded Haar-random states, and the JSON state form used by the CLI.

All constructors return density matrices.  Named states:

* ``singlet``: (|01> - |10>)/sqrt(2), dimension 4,
* ``y_plus_pair``: the +1 eigenstate of Y on each of two qubits,
* ``zero_product``: |0...0> (any power-of-two dimension),
* ``paper_kcbs_product``: (cos 0.3, sin 0.3) x (cos 0.7, -sin 0.7),
* ``ghz``: (|0...0> + |1...1>)/sqrt(2) (any power-of-two dimension),
* ``maximally_mixed``: identity/d (any dimension).

Haar-random states are normalized complex-Gaussian vectors drawn from
substream (seed, lane 0, index), so a sweep's i-th state is the same no
matter how the sweep is chunked.
"""

from __future__ import annotations

import json
import math
from typing import Mapping

import numpy as np

from .inequalities import check_keys, parse_int
from .linalg import as_ket, check_density_matrix, ket_density
from .runtime import substream


def singlet() -> np.ndarray:
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1 / np.sqrt(2)
    psi[2] = -1 / np.sqrt(2)
    return ket_density(psi)


def ghz(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError(f"ghz needs at least one qubit, got n={n}")
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = 1 / np.sqrt(2)
    return ket_density(psi)


def y_plus_pair() -> np.ndarray:
    y_plus = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2)
    return ket_density(np.kron(y_plus, y_plus))


def zero_product(n: int = 2) -> np.ndarray:
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = 1.0
    return ket_density(psi)


def paper_kcbs_product() -> np.ndarray:
    a = np.array([np.cos(0.3), np.sin(0.3)], dtype=complex)
    b = np.array([np.cos(0.7), -np.sin(0.7)], dtype=complex)
    return ket_density(np.kron(a, b))


def maximally_mixed(d: int) -> np.ndarray:
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return np.eye(d, dtype=complex) / d


def haar_random(d: int, seed: int, index: int = 0) -> np.ndarray:
    """Haar-distributed pure state: normalized complex-Gaussian vector.

    ``index`` selects the position within a sweep; (d, seed, index)
    determines the state exactly.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    rng = substream(seed, 0, index)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return ket_density(psi / np.linalg.norm(psi))


def _qubits_for(dim: int, name: str) -> int:
    n = int(dim).bit_length() - 1
    if 2**n != dim:
        raise ValueError(f"named state {name!r} needs a power-of-two dimension, got {dim}")
    return n


def _named_state(name: str, dim: int | None) -> np.ndarray:
    fixed = {
        "singlet": singlet,
        "y_plus_pair": y_plus_pair,
        "paper_kcbs_product": paper_kcbs_product,
    }
    if name in fixed:
        rho = fixed[name]()
        if dim is not None and rho.shape[0] != dim:
            raise ValueError(f"state {name!r} has dimension {rho.shape[0]}, set needs {dim}")
        return rho
    if name in ("ghz", "zero_product", "maximally_mixed"):
        if dim is None:
            raise ValueError(f"state {name!r} needs a target dimension")
        if name == "maximally_mixed":
            return maximally_mixed(dim)
        n = _qubits_for(dim, name)
        return ghz(n) if name == "ghz" else zero_product(n)
    raise ValueError(f"unknown named state {name!r}")


NAMED_STATES = ("singlet", "y_plus_pair", "paper_kcbs_product", "ghz", "zero_product", "maximally_mixed")


_STATE_KEYS = {
    "named": ("kind", "name"),
    "ket": ("kind", "dim", "amplitudes"),
    "dm": ("kind", "dim", "entries"),
    "haar": ("kind", "dim", "seed"),
}


def _complex_entries(values, what: str) -> np.ndarray:
    """A JSON list of [re, im] pairs of finite numbers; a bool, string,
    bare number or pair of any other length is rejected, not coerced."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of [re, im] pairs, got {values!r}")
    parts = []
    for pair in values:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(type(x) in (int, float) for x in pair)):
            raise ValueError(f"{what} must be [re, im] pairs of JSON numbers, got {pair!r}")
        try:
            re, im = float(pair[0]), float(pair[1])
        except OverflowError:
            raise ValueError(f"{what} entry {pair!r} is too large") from None
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f"{what} entry {pair!r} is not finite")
        parts.append(complex(re, im))
    return np.array(parts, dtype=complex)


def _state_from_mapping(spec: Mapping, dim: int | None) -> np.ndarray:
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _STATE_KEYS:
        raise ValueError(f"unknown state kind {kind!r}")
    check_keys(spec, _STATE_KEYS[kind], f"{kind} state")
    if kind == "named":
        return _named_state(str(spec["name"]), dim)
    d = parse_int(spec["dim"], "state dim")
    if dim is not None and d != dim:
        raise ValueError(f"{kind} state declares dim {d}, set needs {dim}")
    if kind == "haar":
        return haar_random(d, parse_int(spec["seed"], "state seed"))
    if kind == "ket":
        amps = _complex_entries(spec["amplitudes"], "ket amplitudes")
        if amps.size != d:
            raise ValueError(f"ket declares dim {d} but has {amps.size} amplitudes")
        return ket_density(amps)
    entries = _complex_entries(spec["entries"], "dm entries")
    if entries.size != d * d:
        raise ValueError(f"dm declares dim {d} but has {entries.size} entries")
    return np.asarray(check_density_matrix(entries.reshape(d, d)))


def make_state(spec, dim: int | None = None) -> np.ndarray:
    """Resolve a state specification to a density matrix.

    ``spec`` may be a named-state string, a dict in the JSON form
    ({"kind": "named"|"ket"|"dm"|"haar", ...}), or an array (1-D vectors
    become rank-one density matrices, 2-D matrices are validated as
    density matrices).  When ``dim`` is given the result must match it.
    """
    if isinstance(spec, str):
        rho = _named_state(spec, dim)
    elif isinstance(spec, Mapping):
        rho = _state_from_mapping(spec, dim)
    else:
        arr = np.asarray(spec, dtype=complex)
        if arr.ndim == 1:
            rho = ket_density(as_ket(arr))
        elif arr.ndim == 2:
            rho = np.asarray(check_density_matrix(arr))
        else:
            raise ValueError(f"state array must be 1-D or 2-D, got shape {arr.shape}")
    if dim is not None and rho.shape[0] != dim:
        raise ValueError(f"state has dimension {rho.shape[0]}, set needs {dim}")
    return rho


def load_state(path: str, dim: int | None = None) -> np.ndarray:
    """A state file: one JSON object in the form ``make_state`` takes."""
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    if not isinstance(spec, Mapping):
        raise ValueError(f"state file must hold a JSON object, got {type(spec).__name__}")
    return make_state(spec, dim)

"""Quantum-side evaluation: expectation values, the dense Bell operator,
and Haar sweeps.

The Bell operator's exact expansion (``observables._bell``) is the one
compiled form of an expression.  A state's value is Re vdot(K, B K) on
its factor K (``linalg.factor``), with B compiled once per evaluation
(``linalg.tables``) and no dense B; a dense B is built only for the
calibration and ``bell.max_quantum_value``'s eigensolver fallback.  A
Haar sweep compiles B once and applies it once per block of
``SWEEP_BLOCK_ENTRIES`` complex entries, and every value equals
``evaluate_inequality`` on that state alone bit for bit.
"""

from __future__ import annotations

import numpy as np

from .exceptions import NumericError, ResourceLimitError
from .inequalities import InequalityExpr
from .linalg import STRUCT_TOL, apply, as_kets, dense, factor, tables
from .observables import ObservableSet, _bell
from .pauli import Expansion
from .runtime import _checked, _integer
from .states import haar_kets

MAX_STATES = 10**6
# Complex entries in one block of a Haar sweep: 256 kets at d = 4, 32
# at d = 32, one ket from d = 1024 up.  A block array of 16 KiB keeps a
# sweep's peak memory where one ket at a time had it (2**12 entries
# raised it by 0.3-0.5 MB), while per-block calls cost little per ket.
SWEEP_BLOCK_ENTRIES = 2**10


def _real(value) -> float:
    """An expectation vdot(K, B K), checked real."""
    value = complex(value)
    if abs(value.imag) > STRUCT_TOL:
        raise NumericError(f"expectation has imaginary part {value.imag}")
    return value.real


def _value(k: np.ndarray, bell: Expansion) -> float:
    """<B> in the state K K^dagger: Re Tr(K^dagger B K) = Re vdot(K, B K)."""
    return _real(np.vdot(k, apply(tables(bell, len(k)), k)))


def evaluate_inequality(state: np.ndarray, obs: ObservableSet, expr: InequalityExpr) -> float:
    """Left-hand-side value of the expression in a ket or density matrix.
    The Bell operator is built, and so every term checked, before the
    state is certified."""
    bell = _bell(obs, expr)
    return _value(factor(state, obs.dim), bell)


def bell_operator(obs: ObservableSet, expr: InequalityExpr) -> np.ndarray:
    """sum(sign * ordered product of factor operators), read-only dense."""
    return dense(_bell(obs, expr), obs.dim)


def haar_sweep(
    obs: ObservableSet, expr: InequalityExpr, count: int, seed: int
) -> np.ndarray:
    """Expression values over ``count`` seeded Haar-random pure states.

    State i comes from the ``runtime.draws`` row (seed, lane 0, i, 0), so
    the result is independent of evaluation order.  States are evaluated in blocks of
    ``SWEEP_BLOCK_ENTRIES // d`` kets (at least one): each block is drawn
    as one array (``haar_kets``), certified row by row (``as_kets``) and
    multiplied by the Bell expansion in one ``apply`` to its transpose,
    the kets as columns, from ``tables`` compiled once per sweep.  Norms
    and inner products are taken per ket, so every value equals
    ``evaluate_inequality`` on ``haar_random(d, seed, i)`` bit for bit.
    Before the Bell expansion is compiled or any state drawn, ``count``
    is checked (an integer and at least one, else ValueError; more than
    ``MAX_STATES`` raise ResourceLimitError), and then the seed.
    """
    if _integer("count", count) < 1:
        raise ValueError(f"sweep needs at least one state, got {count}")
    if count > MAX_STATES:
        raise ResourceLimitError(f"{count} states exceeds the cap of {MAX_STATES}")
    _checked(seed)
    compiled = tables(_bell(obs, expr), obs.dim)
    block = max(1, SWEEP_BLOCK_ENTRIES // obs.dim)
    values = np.empty(count)
    for start in range(0, count, block):
        stop = min(start + block, count)
        kets = as_kets(haar_kets(obs.dim, seed, range(start, stop)))
        applied = apply(compiled, kets.T).T
        values[start:stop] = [_real(np.vdot(k, b)) for k, b in zip(kets, applied)]
        del kets, applied  # freed before the next block is drawn
    return values

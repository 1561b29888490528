"""Quantum-side evaluation: expectation values, Bell operators,
state-independence certificates, extremal values, and Haar sweeps.

The Bell operator B of an expression is sum(sign * ordered product of
factor operators), and it is the one compiled form of the expression:
the value in a state rho is Re Tr(rho B), the maximal quantum value is
the top eigenvalue of B (dense ``eigvalsh``), and for the
state-independent inequalities B is a multiple c of the identity, which
is what ``certify_state_independence`` checks: constant = Tr(B)/d,
residual = max |B - c*1|, certified when the residual is within
tolerance.

Factors that lie inside one declared context of the set were checked to
commute when the set was built and are not checked again; any other
group of factors is checked pairwise when it is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import IncompatibleContextError, NumericError
from .inequalities import InequalityExpr, Term
from .linalg import STRUCT_TOL, commutes, is_hermitian, product_trace
from .observables import ObservableSet
from .states import haar_random

MAX_EIG_DIM = 2**13


def compatible_operators(obs: ObservableSet, labels) -> list[np.ndarray]:
    """Operators of labels that must be jointly measurable, in order.

    Raises IncompatibleContextError when two of them do not commute.
    Labels inside one of ``obs.contexts`` need no check here, because
    constructing the set already checked that context.
    """
    labels = tuple(labels)
    ops = [obs.operator(label) for label in labels]
    if any(set(labels) <= set(ctx) for ctx in obs.contexts):
        return ops
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            if not commutes(ops[i], ops[j], STRUCT_TOL):
                raise IncompatibleContextError(
                    f"labels {labels[i]} and {labels[j]} cannot be measured jointly"
                )
    return ops


def _product(obs: ObservableSet, labels) -> np.ndarray:
    prod = np.eye(obs.dim, dtype=complex)
    for op in compatible_operators(obs, labels):
        prod = prod @ op
    return prod


def _check_shape(rho, dim: int) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValueError(f"state has shape {rho.shape}, set dimension is {dim}")
    return rho


def _real_part(value: complex) -> float:
    if abs(value.imag) > STRUCT_TOL:
        raise NumericError(f"expectation has imaginary part {value.imag}")
    return float(value.real)


def expectation_term(rho: np.ndarray, obs: ObservableSet, term: Term) -> float:
    """sign * <product of the term's factors> in state rho.

    The factors must pairwise commute (otherwise the average of products
    is ill-defined); an empty factor list gives the constant sign.
    """
    rho = _check_shape(rho, obs.dim)
    return term.sign * _real_part(product_trace(rho, compatible_operators(obs, term.factors)))


def _value(rho: np.ndarray, bell: np.ndarray) -> float:
    """Re Tr(rho B) for a state of the Bell operator's dimension."""
    return _real_part(complex(np.einsum("ij,ji->", rho, bell)))


def evaluate_inequality(rho: np.ndarray, obs: ObservableSet, expr: InequalityExpr) -> float:
    """Left-hand-side value of the expression in state rho: Re Tr(rho B)."""
    rho = _check_shape(rho, obs.dim)
    return _value(rho, bell_operator(obs, expr))


def bell_operator(obs: ObservableSet, expr: InequalityExpr) -> np.ndarray:
    """sum(sign * ordered product of factor operators), Hermitian."""
    total = np.zeros((obs.dim, obs.dim), dtype=complex)
    for term in expr.terms:
        total += term.sign * _product(obs, term.factors)
    if not is_hermitian(total, STRUCT_TOL):
        raise NumericError("Bell operator is not Hermitian within tolerance")
    return total


@dataclass(frozen=True)
class Certificate:
    is_state_independent: bool
    constant: float
    residual: float


def certify_state_independence(
    obs: ObservableSet, expr: InequalityExpr, tol: float = STRUCT_TOL
) -> Certificate:
    """Whether the Bell operator is a constant multiple of the identity.

    constant = Tr(B)/d; residual = max-magnitude entry of B - constant*1.
    A certified expression takes the value ``constant`` in every state.
    """
    bell = bell_operator(obs, expr)
    constant = float(np.trace(bell).real) / obs.dim
    residual = float(np.max(np.abs(bell - constant * np.eye(obs.dim))))
    return Certificate(
        is_state_independent=residual <= tol, constant=constant, residual=residual
    )


def context_product(obs: ObservableSet, context) -> int:
    """Sign s with product(context operators) = s*1 within 1e-9.

    Raises IncompatibleContextError for non-commuting labels and
    ValueError when the product is not proportional to the identity.
    """
    prod = _product(obs, Term(1, tuple(context)).factors)  # Term rejects repeats
    for s in (1, -1):
        if np.max(np.abs(prod - s * np.eye(obs.dim))) <= STRUCT_TOL:
            return s
    raise ValueError(f"product over context {tuple(context)} is not proportional to identity")


def max_quantum_value(obs: ObservableSet, expr: InequalityExpr) -> float:
    """Largest eigenvalue of the Bell operator (the maximal quantum value
    of the expression over all states), by dense Hermitian eigensolver."""
    if obs.dim > MAX_EIG_DIM:
        raise ValueError(f"dimension {obs.dim} exceeds the eigenvalue cap {MAX_EIG_DIM}")
    return float(np.linalg.eigvalsh(bell_operator(obs, expr))[-1])


def haar_sweep(
    obs: ObservableSet, expr: InequalityExpr, count: int, seed: int
) -> np.ndarray:
    """Expression values over ``count`` seeded Haar-random pure states.

    State i comes from substream (seed, lane 0, i), so the result is
    independent of evaluation order.  The Bell operator is built once and
    each state is evaluated against it exactly as ``evaluate_inequality``
    would.
    """
    if count < 1:
        raise ValueError(f"sweep needs at least one state, got {count}")
    bell = bell_operator(obs, expr)
    return np.array([_value(haar_random(obs.dim, seed, index=i), bell) for i in range(count)])

"""Exact noncontextual bounds by exhaustive +-1 assignment enumeration.

Every distinct label in the expression becomes one +-1 variable; the
maximum of sum(sign * product of values) over all 2^m assignments is the
noncontextual bound.  Terms are encoded as bitmasks over the sorted label
list and whole blocks of assignments are evaluated at once with
vectorized popcount parity, so m = 18 takes well under a second.

Canonical enumeration order: with labels sorted, assignment k (an integer
in [0, 2^m)) gives label j the value +1 when bit (m-1-j) of k is set and
-1 otherwise.  Ascending k is then exactly lexicographic order over
assignment tuples with -1 < +1, and the reported witness is the first
maximizer in that order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ResourceLimitError
from .inequalities import InequalityExpr, absorb_sign_flip

MAX_LABELS = 30
_BLOCK = 1 << 16


@dataclass(frozen=True)
class BoundResult:
    bound: int
    witness: dict[str, int]
    evaluations: int


def _encode(expr: InequalityExpr) -> tuple[list[str], np.ndarray, np.ndarray, int]:
    """Bitmask form: (sorted labels, term masks, folded coefficients, m).

    A term's product at assignment k is (-1)^(|mask| - popcount(k & mask))
    under the bit convention above, so folding sign * (-1)^|mask| into the
    coefficient leaves value(k) = sum_t coeff_t * (-1)^popcount(k & mask_t).
    """
    labels = list(expr.labels)
    m = len(labels)
    bit = {label: m - 1 - j for j, label in enumerate(labels)}
    masks = np.array(
        [sum(1 << bit[f] for f in t.factors) for t in expr.terms], dtype=np.uint64
    )
    coeff = np.array(
        [t.sign * (-1 if len(t.factors) & 1 else 1) for t in expr.terms], dtype=np.int64
    )
    return labels, masks, coeff, m


def _scan_block(lo: int, hi: int, masks: np.ndarray, coeff: np.ndarray) -> tuple[int, int]:
    ks = np.arange(lo, hi, dtype=np.uint64)
    parity = (np.bitwise_count(ks[:, None] & masks[None, :]) & 1).astype(np.int64)
    totals = (1 - 2 * parity) @ coeff
    return int(totals.max()), lo + int(np.argmax(totals))


def classical_bound(expr: InequalityExpr, max_labels: int = MAX_LABELS) -> BoundResult:
    """Exact maximum of the expression over all +-1 label assignments.

    Returns the bound, the lexicographically smallest maximizing
    assignment, and the number of assignments evaluated (2^m).  Raises
    ResourceLimitError when the expression has more than ``max_labels``
    distinct labels.
    """
    labels, masks, coeff, m = _encode(expr)
    if m > max_labels:
        raise ResourceLimitError(
            f"{m} labels exceeds the enumeration cap of {max_labels} (2^{m} assignments)"
        )

    total = 1 << m
    results = [
        _scan_block(lo, min(lo + _BLOCK, total), masks, coeff)
        for lo in range(0, total, _BLOCK)
    ]

    best, best_k = results[0]
    for value, k in results[1:]:
        if value > best:
            best, best_k = value, k

    witness = {
        label: (1 if (best_k >> (m - 1 - j)) & 1 else -1)
        for j, label in enumerate(labels)
    }
    return BoundResult(bound=best, witness=witness, evaluations=total)


def evaluate_assignment(expr: InequalityExpr, assignment: dict[str, int]) -> int:
    """Value of the expression at one +-1 assignment (used to check
    witnesses; the assignment must cover every label in the expression)."""
    total = 0
    for term in expr.terms:
        prod = term.sign
        for f in term.factors:
            prod *= assignment[f]
        total += prod
    return total


def bound_sign_flip_check(expr: InequalityExpr, label: str) -> bool:
    """Whether the bound is unchanged when ``label`` is relabeled by its
    negation.  Always true mathematically (the flip is a bijection on
    assignments); exposed as a runnable oracle."""
    flipped = absorb_sign_flip(expr, label)
    return classical_bound(expr).bound == classical_bound(flipped).bound

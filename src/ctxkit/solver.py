"""Exact noncontextual bounds by exhaustive assignment enumeration, and
the one enumeration kernel behind them.

Every distinct label in the expression becomes one +-1 variable; the
maximum of sum(sign * product of values) over all 2^m assignments is the
noncontextual bound.  ``parity.ks_colorable`` runs the same kernel with
0/1 values and a different score.

Canonical enumeration order: with labels sorted, assignment k (an integer
in [0, 2^m)) gives label j its upper value (+1, or 1 for a coloring) when
bit (m-1-j) of k is set and its lower value (-1, or 0) otherwise.
Ascending k is then exactly lexicographic order over assignment tuples,
and ``lex_first_max`` scans k in blocks of ``_BLOCK``, scoring a whole
block at once with vectorized popcounts, and reports the first maximizer
in that order.  ``label_masks`` and ``decode`` are the only places that
convention is written.

Label merging.  Labels with the same term incidence (the tuple of terms
they appear in) enter the value only through their product, so
``classical_bound`` scans one variable per such group, named by the
group's last label in sorted order, and sets every other label of the
group to -1.  The maximum over the merged variables is the maximum over
all 2^m assignments, and the witness stays the lexicographically first
maximizer: flipping a +1 non-last label together with its group's last
label keeps the value and makes the tuple smaller, so the first
maximizer has every non-last label at -1, and on that face
lexicographic order is the canonical order over the last labels.  The
star inequalities shrink to a fixed number of variables at every n
(ineq9 to 10, mermin11 to 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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


def _check_cap(m: int) -> None:
    if m > MAX_LABELS:
        raise ResourceLimitError(
            f"{m} labels exceeds the enumeration cap of {MAX_LABELS} (2^{m} assignments)"
        )


def label_masks(labels: Sequence[str], groups: Iterable[Iterable[str]]) -> np.ndarray:
    """Bitmask of each group of (sorted) labels under the canonical
    convention.  Raises ResourceLimitError when there are more than
    ``MAX_LABELS`` labels to enumerate."""
    m = len(labels)
    _check_cap(m)
    bit = {label: m - 1 - j for j, label in enumerate(labels)}
    return np.array([sum(1 << bit[f] for f in g) for g in groups], dtype=np.uint64)


def decode(k: int, labels: Sequence[str], values: tuple[int, int]) -> dict[str, int]:
    """Assignment k as {label: value}, with values = (lower, upper)."""
    m = len(labels)
    return {label: values[(k >> (m - 1 - j)) & 1] for j, label in enumerate(labels)}


def _best_in_block(lo: int, hi: int, score: Callable) -> tuple[int, int]:
    # Reduced to Python ints here, so no block's scores outlive the block.
    totals = score(np.arange(lo, hi, dtype=np.uint64))
    i = int(np.argmax(totals))
    return int(totals[i]), lo + i


def lex_first_max(m: int, score: Callable[[np.ndarray], np.ndarray]) -> tuple[int, int]:
    """Largest integer score over the assignments k in [0, 2^m), and the
    first k that attains it.  ``score`` maps a uint64 array of ks to
    their integer scores."""
    total = 1 << m
    best, best_k = _best_in_block(0, min(_BLOCK, total), score)
    for lo in range(_BLOCK, total, _BLOCK):
        value, k = _best_in_block(lo, min(lo + _BLOCK, total), score)
        if value > best:
            best, best_k = value, k
    return best, best_k


def classical_bound(expr: InequalityExpr) -> BoundResult:
    """Exact maximum of the expression over all +-1 label assignments.

    Returns the bound, the lexicographically smallest maximizing
    assignment, and the number of assignments covered (2^m).  Raises
    ResourceLimitError when the expression has more than ``MAX_LABELS``
    distinct labels.  The scan runs over the merged variables described
    in the module docstring.

    With the non-last labels at -1, a term's product at assignment k of
    the last labels is (-1)^(|factors| - popcount(k & mask)), so folding
    sign * (-1)^|factors| into a coefficient leaves
    value(k) = sum_t coeff_t * (-1)^popcount(k & mask_t).
    """
    labels = expr.labels
    _check_cap(len(labels))
    incidence: dict[str, list[int]] = {label: [] for label in labels}
    for t, term in enumerate(expr.terms):
        for f in term.factors:
            incidence[f].append(t)
    last = {tuple(ts): label for label, ts in incidence.items()}
    merged = sorted(last.values())
    kept = set(merged)
    masks = label_masks(merged, ([f for f in t.factors if f in kept] for t in expr.terms))
    coeff = np.array(
        [t.sign * (-1 if len(t.factors) & 1 else 1) for t in expr.terms], dtype=np.int64
    )
    offset = int(coeff.sum())

    def score(ks: np.ndarray) -> np.ndarray:
        flips = np.zeros(len(ks), dtype=np.int64)
        for mask, c in zip(masks, coeff):
            flips += c * (np.bitwise_count(ks & mask) & 1)
        return offset - 2 * flips

    best, best_k = lex_first_max(len(merged), score)
    values = decode(best_k, merged, (-1, 1))
    return BoundResult(
        bound=best,
        witness={label: values.get(label, -1) for label in labels},
        evaluations=1 << len(labels),
    )


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

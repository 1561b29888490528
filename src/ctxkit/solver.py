"""Exact noncontextual bounds by exhaustive assignment enumeration, and
the one enumeration kernel behind them.

Every distinct label in the expression becomes one +-1 variable; the
maximum of sum(sign * product of values) over all 2^m assignments is the
noncontextual bound.  ``parity.ks_colorable`` runs the same kernel with
0/1 values and a different indicator, and ``bell.max_quantum_value``
takes its commuting route's maximum as ``classical_bound`` over its
generator labels, so this module's ``MAX_SCAN_WORK`` caps every scan.

Canonical enumeration order: with labels sorted, assignment k (an integer
in [0, 2^m)) gives label j its upper value (+1, or 1 for a coloring) when
bit (m-1-j) of k is set and its lower value (-1, or 0) otherwise.
Ascending k is then exactly lexicographic order over assignment tuples,
and ``lex_first_max`` reports the first maximizer in that order.
``label_bits`` and ``decode`` are the only places that convention is
written.

The kernel is bit-sliced on Python ints (Biham, FSE 1997): a block of
2^16 assignments is one int per bit of k, with bit i standing for
assignment lo + i, so one integer operation evaluates a whole block.  The
caller turns those columns into one indicator column per scored group
(a term's sign, or a context's "exactly one 1"), and the kernel adds the
indicators with a bit-sliced counter.  No array library is loaded.

Basis scan.  A value depends on an assignment only through its term
parities, a GF(2)-linear image whose dimension r is the rank of the
term x label incidence.  ``classical_bound`` walks the sorted labels
last to first, keeps each one whose column (its terms) is independent
of the columns kept after it (``gf2.eliminate``), scans those r labels
and sets the others to -1.  A dropped column is a sum of later kept
columns, so flipping a +1 dropped label with those labels keeps the
value and makes the tuple smaller: the first maximizer has every
dropped label at -1, and on that face lexicographic order is the
canonical order over the kept labels (ineq9 has 4 at every n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .exceptions import ResourceLimitError
from .families import label_group
from .gf2 import eliminate
from .inequalities import InequalityExpr

# The one limit on a scan: assignments x scored groups (terms, or
# contexts for a coloring), counting at least one group.  The kernel
# counts 0.8-1.3e10 of them per second on a 2-vCPU box, so a scan at the
# cap (say 2^27 assignments x 32 terms) takes 0.3-0.5 s.
MAX_SCAN_WORK = 1 << 32
_BLOCK_BITS = 16


@dataclass(frozen=True)
class BoundResult:
    classical_bound: int
    witness: dict[str, int]
    evaluations: int


def label_bits(labels: Sequence[str], groups: Iterable[Iterable[str]]) -> list[list[int]]:
    """Bit positions of each group's labels, in group order, under the
    canonical convention for the (sorted) labels.  Raises ValueError when
    a group is not distinct labels (``label_group``), and
    ResourceLimitError, before any position is read, when the scan's
    work, 2^labels assignments x max(1, groups), is more than
    ``MAX_SCAN_WORK``."""
    groups = [label_group(g, "group") for g in groups]
    m, scored = len(labels), max(1, len(groups))
    if (1 << m) * scored > MAX_SCAN_WORK:
        raise ResourceLimitError(
            f"2^{m} assignments x {scored} terms or contexts exceeds the scan-work cap of "
            f"{MAX_SCAN_WORK} (2^{MAX_SCAN_WORK.bit_length() - 1})"
        )
    bit = {label: m - 1 - j for j, label in enumerate(labels)}
    return [[bit[f] for f in g] for g in groups]


def decode(k: int, labels: Sequence[str], values: tuple[int, int]) -> dict[str, int]:
    """Assignment k as {label: value}, with values = (lower, upper)."""
    m = len(labels)
    return {label: values[(k >> (m - 1 - j)) & 1] for j, label in enumerate(labels)}


def _bit_column(p: int, b: int) -> int:
    """Bit p of i for i in [0, 2^b), as one int: runs of 2^p zeros, then
    2^p ones, doubled up to 2^b bits."""
    column, width = ((1 << (1 << p)) - 1) << (1 << p), 2 << p
    while width < 1 << b:
        column |= column << width
        width <<= 1
    return column


def _block_max(planes: list[int], ones: int) -> tuple[int, int]:
    # The largest count, taken one plane at a time from the top, and the
    # lowest bit among the columns that reach it.
    best, reach = 0, ones
    for p in range(len(planes) - 1, -1, -1):
        if hit := reach & planes[p]:
            best, reach = best | 1 << p, hit
    return best, (reach ^ (reach - 1)).bit_length() - 1


def lex_first_max(
    m: int, indicators: Callable[[Sequence[int], int], Iterable[int]]
) -> tuple[int, int]:
    """Largest number of indicators that hold at one assignment k in
    [0, 2^m), and the first k that attains it.

    Bit-sliced: k runs in blocks of 2^``_BLOCK_BITS``, and a block is
    held as Python ints, one bit per k, bit i standing for k = lo + i.
    ``indicators(columns, ones)`` is given the block's column of each bit
    of k (columns[p] has bit i set when bit p of lo + i is) and its
    all-ones column, and returns one column per indicator.  A ripple-carry
    counter adds them into count planes, the block's maximum is read off
    the planes from the top, and a later block replaces the best only on
    a strictly higher count, so ties go to the first k.
    """
    b = min(_BLOCK_BITS, m)
    ones = (1 << (1 << b)) - 1
    low = [_bit_column(p, b) for p in range(b)]
    best = best_k = -1
    for lo in range(0, 1 << m, 1 << b):
        columns = low + [ones if lo >> p & 1 else 0 for p in range(b, m)]
        planes: list[int] = []
        for carry in indicators(columns, ones):
            p = 0
            while carry:
                if p == len(planes):
                    planes.append(carry)
                    break
                planes[p], carry = planes[p] ^ carry, planes[p] & carry
                p += 1
        value, i = _block_max(planes, ones)
        if value > best:
            best, best_k = value, lo + i
    return best, best_k


def classical_bound(expr: InequalityExpr) -> BoundResult:
    """Exact maximum of the expression over all +-1 label assignments.

    Returns the bound, the lexicographically smallest maximizing
    assignment, and the number of assignments covered (2^m).  Raises
    ResourceLimitError when its basis scan (module docstring), 2^r x
    terms, is past ``MAX_SCAN_WORK``, so the label count alone is no
    limit.  Its columns come from a basis of the terms' rows, which keeps
    their dependencies in r bits a column instead of one bit a term.

    With the dropped labels at -1, a term's product at assignment k of
    the kept labels is (-1)^(|factors| - popcount(k & mask)), so folding
    sign * (-1)^|factors| into a coefficient c leaves each term worth
    c * (-1)^popcount(k & mask), +1 or -1.  Its indicator is the parity
    of its columns, complemented when c = +1, and with T terms the value
    is 2 * (indicators that hold) - T.
    """
    labels = expr.labels
    bit = {label: j for j, label in enumerate(labels)}
    rows = [sum(1 << bit[f] for f in t.factors) for t in expr.terms]
    basis = [rows[i] for i in eliminate(rows)[0]]
    columns = [sum(1 << r for r, row in enumerate(basis) if row >> j & 1) for j in bit.values()]
    kept = {labels[~i] for i in eliminate(columns[::-1])[0]}
    scanned = sorted(kept)
    groups = label_bits(scanned, ([f for f in t.factors if f in kept] for t in expr.terms))
    parities = [
        (bits, t.sign * (-1 if len(t.factors) & 1 else 1) == 1)
        for bits, t in zip(groups, expr.terms)
    ]

    def indicators(bit_columns, ones):
        for bits, complement in parities:
            column = ones if complement else 0
            for p in bits:
                column ^= bit_columns[p]
            yield column

    best, best_k = lex_first_max(len(scanned), indicators)
    return BoundResult(
        classical_bound=2 * best - len(expr.terms),
        witness=dict.fromkeys(labels, -1) | decode(best_k, scanned, (-1, 1)),
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

"""Gaussian elimination over GF(2) on int bitmasks, with no array library.

A vector is an int, bit i its i-th coordinate.  ``eliminate`` is the one
elimination: it takes vectors in order, keeps each one that is
independent of the vectors kept before it, and writes each other one as
the sum (XOR) of kept vectors.  On the columns of a matrix it gives a
basis of the column space; on its rows, the row dependencies.
"""

from __future__ import annotations

from typing import Sequence


def eliminate(vectors: Sequence[int]) -> tuple[list[int], dict[int, list[int]]]:
    """The indices of the kept vectors, ascending, and for each other
    index the kept indices, ascending, whose vectors XOR to its vector
    (none for a zero vector).

    Each kept vector is stored reduced, under its top bit, with the set
    of input indices (a bitmask) that XOR to it; a new vector is reduced
    by the stored one at its top bit until it is zero (dependent) or its
    top bit is free (kept).
    """
    pivots: dict[int, tuple[int, int]] = {}  # top bit -> (reduced vector, index mask)
    kept: list[int] = []
    dependent: dict[int, list[int]] = {}
    for i, v in enumerate(vectors):
        combo = 0
        while v and (top := v.bit_length() - 1) in pivots:
            row, rows = pivots[top]
            v, combo = v ^ row, combo ^ rows
        if v:
            pivots[v.bit_length() - 1] = (v, combo | 1 << i)
            kept.append(i)
        else:
            dependent[i] = [j for j in kept if combo >> j & 1]
    return kept, dependent

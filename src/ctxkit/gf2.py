"""Gaussian elimination over GF(2) on int bitmasks, with no array library.

A vector is an int, bit i its i-th coordinate.  ``eliminate`` is the one
elimination: it takes vectors in order, keeps each one that is
independent of the vectors kept before it, and gives every vector its
coordinates in the kept ones, as a bitmask over their positions.  On the
columns of a matrix it gives a basis of the column space; on its rows,
the row dependencies.
"""

from __future__ import annotations

from typing import Sequence


def eliminate(vectors: Sequence[int]) -> tuple[list[int], list[int]]:
    """The indices of the kept vectors, ascending, and each vector's
    coordinates: a bitmask whose bit p is set when the kept vector at
    position p of the first list is in the sum (XOR) that gives it.  A
    kept vector's coordinates are its own single bit, a zero vector's
    none.

    Each kept vector is stored reduced, under its top bit, with the
    coordinates of the reduced vector; a new vector is reduced by the
    stored one at its top bit until it is zero (dependent) or its top bit
    is free (kept).
    """
    pivots: dict[int, tuple[int, int]] = {}  # top bit -> (reduced vector, its coordinates)
    kept: list[int] = []
    coords: list[int] = []
    for i, v in enumerate(vectors):
        combo = 0
        while v and (top := v.bit_length() - 1) in pivots:
            row, rows = pivots[top]
            v, combo = v ^ row, combo ^ rows
        if v:
            pivots[v.bit_length() - 1] = (v, combo | 1 << len(kept))
            combo = 1 << len(kept)
            kept.append(i)
        coords.append(combo)
    return kept, coords

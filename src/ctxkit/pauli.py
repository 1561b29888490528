"""Exact Pauli expansions of operators, with no array library.

An operator on 2^n dimensions is an ``Expansion``: a sorted tuple of
terms (x, z, c), each c * X^x Z^z with int masks (qubit 1 in the top
bit) and a Python complex c, with distinct masks and nonzero c, so equal
operators are equal tuples.  X^x1 Z^z1 X^x2 Z^z2 = (-1)^|z1 & x2|
X^(x1^x2) Z^(z1^z2), and the coefficients here are dyadic (Pauli words
have 1 and i, an 18-ray observable multiples of 1/8), so ``multiply``,
``combine`` and ``adjoint`` are exact.  ``linalg.tables`` compiles an
expansion into arrays for the state layer; everything that needs only
the algebra (sets, contexts, the Bell expansion and its certificate)
runs here.
"""

from __future__ import annotations

from .gf2 import eliminate


class Expansion(tuple):
    """A sorted tuple of (x, z, c) terms (see the module docstring)."""

    __slots__ = ()

    @property
    def nbytes(self) -> int:
        # 32 bytes a term: the size of the (uint64, uint64, complex128)
        # record array this type replaced, which the benchmark's
        # operator_bytes still sums; it goes with ROADMAP item 1b.
        return 32 * len(self)


def _collect(terms) -> Expansion:
    """The expansion of a sum of (x, z, c) terms: equal masks merged,
    zero coefficients dropped."""
    acc: dict[tuple[int, int], complex] = {}
    for x, z, c in terms:
        acc[x, z] = acc.get((x, z), 0) + c
    return Expansion((x, z, complex(c)) for (x, z), c in sorted(acc.items()) if c != 0)


def pauli(word: str) -> Expansion:
    """The expansion of a Pauli word over "IXYZ", qubit 1 first (Y = iXZ).
    The empty word is the identity in every dimension."""
    x = z = ys = 0
    for ch in word:
        if ch not in "IXYZ":
            raise ValueError(f"Pauli word {word!r} has a letter outside IXYZ")
        x = (x << 1) | (ch in "XY")
        z = (z << 1) | (ch in "YZ")
        ys += ch == "Y"
    return _collect([(x, z, 1j**ys)])


IDENTITY = pauli("")


def multiply(a: Expansion, b: Expansion) -> Expansion:
    """The expansion of the operator product a b."""
    return _collect(
        (xa ^ xb, za ^ zb, -ca * cb if (za & xb).bit_count() & 1 else ca * cb)
        for xa, za, ca in a
        for xb, zb, cb in b
    )


def combine(weighted) -> Expansion:
    """The expansion of sum(w * e) over (weight, expansion) pairs."""
    return _collect((x, z, w * c) for w, e in weighted for x, z, c in e)


def adjoint(e: Expansion) -> Expansion:
    """The expansion of the adjoint: (X^x Z^z)^dagger = (-1)^|x & z| X^x Z^z."""
    return _collect(
        (x, z, -c.conjugate() if (x & z).bit_count() & 1 else c.conjugate()) for x, z, c in e
    )


def commute(xa: int, za: int, xb: int, zb: int) -> bool:
    """Whether the Pauli strings X^xa Z^za and X^xb Z^zb commute."""
    return not ((xa & zb).bit_count() + (za & xb).bit_count()) & 1


def ray(v) -> Expansion:
    """The expansion of 2|v><v|/|v|^2 - 1 on 2^k dimensions, for an
    integer vector v of length 2^k:
    c(x, z) = sum_j (-1)^|z & j| A[j ^ x, j] / d, summed over integers
    and divided once, so every coefficient is exact when |v|^2 d is a
    power of two (the 18-ray set's are multiples of 1/8)."""
    d, norm = len(v), sum(a * a for a in v)
    terms = []
    for x in range(d):
        for z in range(d):
            total = sum(
                -2 * v[j ^ x] * v[j] if (z & j).bit_count() & 1 else 2 * v[j ^ x] * v[j]
                for j in range(d)
            )
            if x == z == 0:
                total -= d * norm
            terms.append((x, z, total / (d * norm)))
    return _collect(terms)


def split_identity(e: Expansion) -> tuple[float, Expansion]:
    """The real part of the identity coefficient, and the other terms."""
    if e and e[0][:2] == (0, 0):  # sorted, so the identity comes first
        return e[0][2].real, Expansion(e[1:])
    return 0.0, e


def max_entry(e: Expansion) -> float:
    """Largest |entry| of the matrix of an expansion: terms with equal
    x-masks fill the same entries, others disjoint ones, so each distinct
    x-mask's entries are sum c (-1)^|z & j| over its terms, added in term
    order.  An entry depends on j only through the parities |z & j| of a
    basis of the group's z-masks (``gf2.eliminate``), and every pattern of
    those r parities occurs at some j, so each group's entries are its sums
    over the 2^r patterns: a term's parity is that of the pattern's bits at
    its coordinates, the basis masks that XOR to its own."""
    groups: dict[int, list[tuple[int, complex]]] = {}
    for x, z, c in e:
        groups.setdefault(x, []).append((z, c))
    best = 0.0
    for terms in groups.values():
        kept, coords = eliminate([z for z, _ in terms])
        for pattern in range(1 << len(kept)):
            entry = 0j
            for coord, (_, c) in zip(coords, terms):
                entry += -c if (pattern & coord).bit_count() & 1 else c
            best = max(best, abs(entry))
    return best

"""The Bell operator of an expression as an exact Pauli expansion: its
state-independence certificate and its maximal quantum value.

The Bell operator B, sum(sign * ordered product of factor observables),
is formed exactly (``observables._bell``); it is the one compiled form
of the expression.  ``certify_state_independence`` reads it directly: constant = the
identity coefficient, residual = max |B - c*1| entry, certified when the
residual is exactly 0.

``max_quantum_value`` takes the first of three routes that applies, and
reports which one ran:

* ``constant``: B has no term but the identity, B = c*1, so every state
  takes the value c (the certified case);
* ``commuting``: B - c*1 = sum w_k P_k over Hermitian Pauli strings P_k
  that commute pairwise, with integer weights w_k.  A GF(2) basis of
  their (x|z) vectors (``gf2.eliminate``) gives independent commuting
  generators g_i, which reach every +-1 pattern together, and each P_k
  is s_k times a product of them, s_k = +-1 read off the exact product.
  The maximum is then c plus the largest sum w_k s_k prod(g_i) over all
  +-1 patterns: the noncontextual bound (``solver.classical_bound``) of
  the expression with |w_k| terms sgn(w_k s_k) prod(g_i) over the
  generator labels g0, g1, ...  Past the solver's one scan cap the
  expression falls to the dense route;
* ``dense``: the largest eigenvalue of the dense B by ``eigvalsh``, up to
  ``linalg.MAX_DENSE_DIM`` (ResourceLimitError past it, before any array
  is built).  This is the only route, and the only code in the module,
  that loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .exceptions import ResourceLimitError
from .gf2 import eliminate
from .inequalities import InequalityExpr, Term
from .observables import ObservableSet, _bell
from .pauli import IDENTITY, Expansion, commute, max_entry, multiply, split_identity
from .solver import classical_bound


@dataclass(frozen=True)
class Certificate:
    quantum_constant: float
    residual: float
    state_independent: bool


def certify_state_independence(obs: ObservableSet, expr: InequalityExpr) -> Certificate:
    """Whether the Bell operator is a constant multiple of the identity.

    quantum_constant = identity coefficient; residual = max-magnitude
    entry of B - quantum_constant*1, exact, so a state-independent
    expression (residual 0) takes ``quantum_constant`` in every state.
    """
    constant, rest = split_identity(_bell(obs, expr))
    residual = max_entry(rest)
    return Certificate(
        quantum_constant=constant, residual=residual, state_independent=residual == 0.0
    )


@dataclass(frozen=True)
class QuantumMaximum:
    max_quantum_value: float
    route: str


def _hermitian(x: int, z: int) -> Expansion:
    """The Hermitian Pauli string on masks x, z: i^|x & z| X^x Z^z."""
    return Expansion(((x, z, 1j ** ((x & z).bit_count() % 4)),))


def _rewrite(strings: list[Expansion], kept: list[int], coords: list[int]):
    """Each string as (s, generators): s times the product of the basis
    strings at its coordinates, named g0, g1, ... by their positions in
    ``kept``, with s = +-1 from the exact product."""
    out = []
    for string, coord in zip(strings, coords):
        positions = [p for p in range(len(kept)) if coord >> p & 1]
        product = reduce(multiply, (strings[kept[p]] for p in positions), IDENTITY)
        ((_, _, s),) = multiply(product, string)  # s * 1, as string^2 = 1
        out.append((int(s.real), tuple(f"g{p}" for p in positions)))
    return out


def _commuting_max(rest: Expansion) -> int | None:
    """max over states of ``rest`` when its terms are integer multiples
    of pairwise-commuting Hermitian Pauli strings, within the bound
    solver's scan cap, else None."""
    strings, weights = [], []
    for x, z, c in rest:
        string = _hermitian(x, z)
        w = c * string[0][2].conjugate()  # exact: the phase is 1, i, -1 or -i
        if w.imag != 0 or not w.real.is_integer():
            return None
        strings.append(string)
        weights.append(int(w.real))
    shift = max(z.bit_length() for _, z, _ in rest)
    kept, coords = eliminate([x << shift | z for x, z, _ in rest])
    if not all(commute(x, z, rest[g][0], rest[g][1]) for x, z, _ in rest for g in kept):
        return None
    terms = []
    for w, (s, generators) in zip(weights, _rewrite(strings, kept, coords)):
        terms += [Term(1 if w * s > 0 else -1, generators)] * abs(w)
    try:
        bound = classical_bound(InequalityExpr("commuting", "generators", tuple(terms), None))
    except ResourceLimitError:
        return None
    return bound.classical_bound


def max_quantum_value(obs: ObservableSet, expr: InequalityExpr) -> QuantumMaximum:
    """The largest value of the expression over all states (the largest
    eigenvalue of its Bell operator), by the first route of the module
    docstring that applies, and the route's name."""
    bell = _bell(obs, expr)
    constant, rest = split_identity(bell)
    if not rest:
        return QuantumMaximum(constant, "constant")
    if (top := _commuting_max(rest)) is not None:
        return QuantumMaximum(constant + top, "commuting")
    import numpy as np

    from .linalg import dense

    return QuantumMaximum(float(np.linalg.eigvalsh(dense(bell, obs.dim))[-1]), "dense")

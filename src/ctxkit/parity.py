"""The two contradiction arguments behind the inequalities.

``ks_colorable`` searches every 0/1 assignment to a set's labels for one
with exactly one 1 in every context (the noncontextual coloring the
18-ray set famously does not admit), on the bound solver's bit-sliced
enumeration kernel with one "exactly one 1" indicator column per
context; it takes a set whose contexts are bases, as the 18-ray set's
are.
``parity_stats`` exposes the counting argument: with every label in an
even number of contexts, the product of all context outcome products is
forced to +1 for any fixed +-1 assignment, while quantum mechanics gives
(-1)^(number of minus-identity contexts), each computed exactly from the
observables' Pauli expansions (``observables.context_product``, so no
state or Bell operator is built); an odd number of minus-identity
contexts is a contradiction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import incidence
from .observables import ObservableSet, context_product
from .solver import decode, label_bits, lex_first_max


@dataclass(frozen=True)
class ColorabilityResult:
    satisfiable: bool
    witness: dict[str, int] | None


def ks_colorable(obs: ObservableSet) -> ColorabilityResult:
    """Search for an assignment with exactly one 1 per context.

    Every context must be a basis, ``obs.dim`` labels (ValueError
    otherwise, so the Peres-Mermin set and the star are refused).
    Exhaustive scan on the bound solver's kernel: each 0/1 assignment to
    the sorted labels counts the contexts holding exactly one 1, and the
    set is colorable when the best count is every context.
    UNSAT verdicts are therefore proofs, and the witness is the
    lexicographically first coloring (0 < 1).  Raises ResourceLimitError
    past the solver's one limit, ``MAX_SCAN_WORK``, for 2^labels
    assignments x max(1, contexts), so a set with no contexts is still
    refused on its labels alone.
    """
    if short := [ctx for ctx in obs.contexts if len(ctx) != obs.dim]:
        raise ValueError(f"{obs.set_id}: context {short[0]} is not a basis of {obs.dim} labels")
    labels = sorted(obs.labels)
    contexts = label_bits(labels, obs.contexts)

    def indicators(columns, ones):
        # A bit of ``twice`` is set once its assignment has met two 1s,
        # so twice lies within once and their XOR is "exactly one 1".
        for bits in contexts:
            once = twice = 0
            for p in bits:
                twice |= once & columns[p]
                once |= columns[p]
            yield once ^ twice

    best, k = lex_first_max(len(labels), indicators)
    if best == len(obs.contexts):
        return ColorabilityResult(satisfiable=True, witness=decode(k, labels, (0, 1)))
    return ColorabilityResult(satisfiable=False, witness=None)


@dataclass(frozen=True)
class ParityStats:
    context_count: int
    occurrences: dict[str, int]
    minus_identity_contexts: int
    parity_contradiction: bool


def parity_stats(obs: ObservableSet) -> ParityStats:
    """Context count, per-label occurrence counts, and the parity verdict.

    parity_contradiction is true when the number of minus-identity
    context products is odd while every label occurs in an even number of
    contexts: no +-1 assignment can then reproduce the quantum products.
    """
    signs = [context_product(obs, ctx) for ctx in obs.contexts]

    occurrences = {label: len(ctxs) for label, ctxs in incidence(obs.contexts).items()}

    minus = sum(1 for s in signs if s == -1)
    all_even = all(c % 2 == 0 for c in occurrences.values())
    return ParityStats(
        context_count=len(obs.contexts),
        occurrences=occurrences,
        minus_identity_contexts=minus,
        parity_contradiction=(minus % 2 == 1) and all_even,
    )

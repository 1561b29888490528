"""The two contradiction arguments behind the inequalities.

``ks_colorable`` searches every 0/1 assignment to the rays, on the bound
solver's enumeration kernel, for one with exactly one 1 in every context
(the noncontextual coloring the 18-ray set famously does not admit).
``parity_stats`` exposes the counting argument: with every label in an
even number of contexts, the product of all context outcome products is
forced to +1 for any fixed +-1 assignment, while quantum mechanics gives
(-1)^(number of minus-identity contexts), each computed exactly from the
observables; an odd number of minus-identity contexts is a contradiction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .observables import ObservableSet, RaySet
from .quantum import context_product
from .solver import decode, label_masks, lex_first_max


@dataclass(frozen=True)
class ColorabilityResult:
    satisfiable: bool
    witness: dict[str, int] | None


def _check_rayset(rayset: RaySet) -> None:
    for ctx in rayset.contexts:
        if len(ctx) != 4:
            raise ValueError(f"context {ctx} does not have exactly 4 rays")
        for label in ctx:
            if label not in rayset.rays:
                raise ValueError(f"context {ctx} references unknown ray {label}")


def ks_colorable(rayset: RaySet) -> ColorabilityResult:
    """Search for an assignment with exactly one 1 per 4-ray context.

    Exhaustive scan on the bound solver's kernel: each 0/1 assignment to
    the sorted rays scores the number of contexts holding exactly one 1,
    and the set is colorable when the best score counts every context.
    UNSAT verdicts are therefore proofs, and the witness is the
    lexicographically first coloring (0 < 1).  Raises ResourceLimitError
    past the solver's cap of ``MAX_LABELS`` rays.
    """
    _check_rayset(rayset)
    labels = sorted(rayset.rays)
    masks = label_masks(labels, rayset.contexts)

    def score(ks: np.ndarray) -> np.ndarray:
        hits = np.zeros(len(ks), dtype=np.int64)
        for mask in masks:
            hits += np.bitwise_count(ks & mask) == 1
        return hits

    best, k = lex_first_max(len(labels), score)
    if best == len(rayset.contexts):
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
    A RaySet is rejected with TypeError: it holds no observables, so its
    context signs could only be assumed.
    """
    if not isinstance(obs, ObservableSet):
        raise TypeError(f"parity_stats needs an ObservableSet, got {type(obs).__name__}")
    signs = [context_product(obs, ctx) for ctx in obs.contexts]

    occurrences: dict[str, int] = {}
    for ctx in obs.contexts:
        for label in ctx:
            occurrences[label] = occurrences.get(label, 0) + 1

    minus = sum(1 for s in signs if s == -1)
    all_even = all(c % 2 == 0 for c in occurrences.values())
    return ParityStats(
        context_count=len(obs.contexts),
        occurrences=occurrences,
        minus_identity_contexts=minus,
        parity_contradiction=(minus % 2 == 1) and all_even,
    )

"""Monte Carlo simulation of the sequential-measurement protocol.

Each shot prepares the state, measures the term's observables one after
another (projection postulate: rho -> P rho P / p with P = (1 +- A)/2),
and records the product of the outcomes.  Outcome sampling compares one
uniform draw per measurement against the +1 branch probability.

Randomness is organized so results do not depend on evaluation order:
shot ``s`` of term ``t`` consumes exactly the draws of substream
(seed, lane 1, t, s), and a marginal-consistency check of a context uses
(seed, lane 2, digest(context labels), s), so measuring the same context
twice reproduces the same runs while distinct contexts get independent
ensembles.  Estimation batches shots by walking the branching tree of
post-measurement states, which reproduces the per-shot sequential draws
bit for bit (same uniforms, same comparisons) while computing each
distinct branch state only once.

Every entry point that takes a state certifies it as a density matrix of
the set's dimension (``quantum.check_state``) before measuring, and
rejects anything else.  States stay dense, but measurements act on them
through the observables' Pauli expansions (``linalg.apply``).  A
branch probability further than ``STRUCT_TOL`` outside [0, 1] raises
NumericError; only rounding error inside that tolerance is clamped.
More than ``MAX_SHOTS`` shots raise ResourceLimitError before any draw.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .exceptions import NumericError, ResourceLimitError
from .inequalities import InequalityExpr, Term
from .linalg import STRUCT_TOL, apply
from .observables import ObservableSet
from .quantum import check_state, compatible_expansions
from .runtime import substream

PROTOCOL_LANE = 1
MARGINAL_LANE = 2
_P_FLOOR = 1e-12
MAX_SHOTS = 10**6


@dataclass(frozen=True)
class MeasurementRecord:
    outcomes: tuple[tuple[str, int], ...]
    post_state: np.ndarray


@dataclass(frozen=True)
class TermEstimate:
    estimate: float
    standard_error: float
    shots: int


@dataclass(frozen=True)
class EstimateReport:
    inequality_id: str
    seed: int
    shots_per_term: int
    terms: tuple[TermEstimate, ...]
    lhs_estimate: float
    lhs_standard_error: float


@dataclass(frozen=True)
class MarginalReport:
    label: str
    shots: int
    freq_plus_first: float
    freq_plus_second: float
    z_statistic: float


def _split(state: np.ndarray, e: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Measure A (expansion e) on state: the +1 probability
    p = (1 + Re Tr(A rho))/2 and both unnormalized post-states
    (1 +- A) rho (1 +- A)/4 = (rho + A rho A +- (A rho + (A rho)^dagger))/4.
    Rounding error within STRUCT_TOL of [0, 1] is clamped; anything
    further out raises NumericError."""
    a_rho = apply(e, state)
    p = (1.0 + float(np.trace(a_rho).real)) / 2.0
    if not -STRUCT_TOL <= p <= 1.0 + STRUCT_TOL:
        raise NumericError(f"branch probability {p} is outside [0, 1]")
    even = state + apply(e, a_rho.conj().T)
    odd = a_rho + a_rho.conj().T
    return min(max(p, 0.0), 1.0), (even + odd) / 4.0, (even - odd) / 4.0


def sequential_measure(
    rho: np.ndarray, obs: ObservableSet, labels, rng: np.random.Generator
) -> MeasurementRecord:
    """One experimental run: measure the labels in order on one copy.

    The labels must be jointly measurable.  Returns the ordered outcomes
    and the final post-measurement state.
    """
    labels = tuple(labels)
    expansions = compatible_expansions(obs, labels)
    state = check_state(rho, obs.dim)
    outcomes = []
    for label, e in zip(labels, expansions):
        p, plus, minus = _split(state, e)
        if rng.random() < p:
            outcome, post, prob = 1, plus, p
        else:
            outcome, post, prob = -1, minus, 1.0 - p
        if prob < _P_FLOOR:
            raise NumericError(
                f"sampled a measurement branch with probability {prob} for {label}"
            )
        state = post / prob
        outcomes.append((label, outcome))
    return MeasurementRecord(outcomes=tuple(outcomes), post_state=state)


def _branch_outcomes(
    rho: np.ndarray, expansions: list[np.ndarray], uniforms: np.ndarray
) -> np.ndarray:
    """Outcomes for a batch of shots sharing the same initial state.

    uniforms[s, i] is shot s's draw for measurement i.  Equivalent to
    running sequential_measure per shot with those draws: shots that have
    seen the same outcomes share a post-measurement state, so the state
    tree is walked once with index masks.
    """
    shots, depth = uniforms.shape
    outcomes = np.empty((shots, depth), dtype=np.int64)

    def walk(state: np.ndarray, idx: np.ndarray, level: int) -> None:
        if level == depth:
            return
        p, plus, minus = _split(state, expansions[level])
        took_plus = uniforms[idx, level] < p
        plus_idx = idx[took_plus]
        minus_idx = idx[~took_plus]
        outcomes[plus_idx, level] = 1
        outcomes[minus_idx, level] = -1
        for branch_idx, post, prob in ((plus_idx, plus, p), (minus_idx, minus, 1.0 - p)):
            if branch_idx.size:
                if prob < _P_FLOOR:
                    raise NumericError(f"sampled a measurement branch with probability {prob}")
                walk(post / prob, branch_idx, level + 1)

    walk(rho, np.arange(shots), 0)
    del walk  # the recursive closure is a cycle holding the expansions until a GC pass
    return outcomes


def _check_shots(shots: int) -> None:
    if shots < 2:
        raise ValueError(f"need at least 2 shots, got {shots}")
    if shots > MAX_SHOTS:
        raise ResourceLimitError(f"{shots} shots exceeds the cap of {MAX_SHOTS}")


def _shot_uniforms(seed: int, lane: int, index: int, shots: int, depth: int) -> np.ndarray:
    u = np.empty((shots, depth), dtype=float)
    for s in range(shots):
        u[s] = substream(seed, lane, index, subindex=s).random(depth)
    return u


def _context_stream_index(labels: tuple[str, ...]) -> int:
    """Stable 64-bit index for a context's substream, from its label list."""
    digest = hashlib.blake2b("\x1f".join(labels).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def estimate_term(
    rho: np.ndarray,
    obs: ObservableSet,
    term: Term,
    shots: int,
    seed: int,
    term_index: int = 0,
) -> TermEstimate:
    """Estimate sign * <product of outcomes> from ``shots`` preparations.

    Shot s draws from substream (seed, lane 1, term_index, s).  The
    standard error is the sample standard deviation over shots divided by
    sqrt(shots).
    """
    _check_shots(shots)
    state = check_state(rho, obs.dim)
    expansions = compatible_expansions(obs, term.factors)
    if expansions:
        uniforms = _shot_uniforms(seed, PROTOCOL_LANE, term_index, shots, len(expansions))
        outcomes = _branch_outcomes(state, expansions, uniforms)
        values = term.sign * outcomes.prod(axis=1).astype(float)
    else:
        values = np.full(shots, float(term.sign))
    estimate = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(shots))
    return TermEstimate(estimate=estimate, standard_error=stderr, shots=shots)


def run_protocol(
    rho: np.ndarray,
    obs: ObservableSet,
    expr: InequalityExpr,
    shots_per_term: int,
    seed: int,
) -> EstimateReport:
    """Estimate every term on an independent subensemble and sum.

    Term t uses substreams (seed, lane 1, t, shot), so the full report is
    a pure function of (state, expr, shots_per_term, seed).  The combined
    standard error is the root-sum-square of the per-term errors
    (independent subensembles).
    """
    estimates = [
        estimate_term(rho, obs, term, shots_per_term, seed, term_index=t)
        for t, term in enumerate(expr.terms)
    ]
    lhs = float(sum(e.estimate for e in estimates))
    lhs_err = float(np.sqrt(sum(e.standard_error**2 for e in estimates)))
    return EstimateReport(
        inequality_id=expr.id,
        seed=seed,
        shots_per_term=shots_per_term,
        terms=tuple(estimates),
        lhs_estimate=lhs,
        lhs_standard_error=lhs_err,
    )


def marginal_consistency(
    rho: np.ndarray,
    obs: ObservableSet,
    label: str,
    contexts,
    shots: int,
    seed: int,
) -> MarginalReport:
    """Compare one observable's outcome frequency across two contexts.

    Both contexts are measured in full, ``shots`` times each; a context's
    shots draw from substreams (seed, lane 2, digest(context), shot), so
    passing the same context twice reproduces identical frequencies while
    distinct contexts are measured on independent ensembles.  The report
    holds the +1 frequency of ``label`` in each context and a
    two-proportion z statistic; quantum mechanics predicts equal
    marginals, so |z| stays at noise level.
    """
    _check_shots(shots)
    first, second = (tuple(c) for c in contexts)
    state = check_state(rho, obs.dim)
    freqs = []
    for ctx in (first, second):
        if label not in ctx:
            raise ValueError(f"label {label} is not in context {ctx}")
        expansions = compatible_expansions(obs, ctx)
        uniforms = _shot_uniforms(seed, MARGINAL_LANE, _context_stream_index(ctx), shots, len(ctx))
        outcomes = _branch_outcomes(state, expansions, uniforms)
        col = ctx.index(label)
        freqs.append(float(np.mean(outcomes[:, col] == 1)))
    f1, f2 = freqs
    pooled = (f1 + f2) / 2.0
    spread = pooled * (1.0 - pooled)
    if spread == 0.0:
        z = 0.0
    else:
        z = (f1 - f2) / float(np.sqrt(spread * 2.0 / shots))
    return MarginalReport(
        label=label,
        shots=shots,
        freq_plus_first=f1,
        freq_plus_second=f2,
        z_statistic=float(z),
    )


def report_to_json(report: EstimateReport, state: str) -> dict:
    """The report's JSON form; ``state`` echoes the caller's state spec."""
    return {
        "inequality": report.inequality_id,
        "state": state,
        "seed": report.seed,
        "shots_per_term": report.shots_per_term,
        "terms": [
            {"estimate": t.estimate, "stderr": t.standard_error} for t in report.terms
        ],
        "lhs_estimate": report.lhs_estimate,
        "lhs_stderr": report.lhs_standard_error,
    }

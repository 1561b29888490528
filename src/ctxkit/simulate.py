"""Monte Carlo simulation of the sequential-measurement protocol.

Each shot prepares the state, measures the term's observables one after
another (projection postulate: rho -> P rho P / p with P = (1 +- A)/2),
and records the product of the outcomes.  Each step maps the state's
factor K, rho = K K^dagger, to P K / sqrt(p), for kets and density
matrices alike.  Outcome sampling compares one uniform draw per
measurement against the +1 branch probability.

Randomness is organized so results do not depend on evaluation order:
shot ``s`` of term ``t`` reads one row of uniforms, one per measurement,
from ``runtime.draws`` at (seed, lane 1, t, s), and a marginal-consistency
check of a context reads them at (seed, lane 2, ``runtime.context_index``
of its labels, s), so measuring the same context twice reproduces the
same runs while distinct contexts get independent ensembles.

Every measurement runs one Lüders walk: shots that have seen the same
outcomes share a post-measurement factor, so the branch tree is walked
once, depth first, holding at most one pending sibling per level.  A
single run (``sequential_measure``) is that walk on one shot; a batch
reproduces its per-shot draws bit for bit (same uniforms, same
comparisons) while computing each distinct branch state only once.

Every entry point that takes a state certifies it as a ket or density
matrix of the set's dimension (``linalg.factor``, after the one array
rule ``linalg.checked_state``) before measuring, and rejects the rest.
Measurements act on K through the observables' Pauli expansions, each
compiled once per walk (``linalg.tables``) and applied at every node of
its level (``linalg.apply``); a post-measurement factor is built only for
a branch that holds shots.  A branch probability further than
``STRUCT_TOL`` outside [0, 1] raises NumericError; only rounding error
inside that tolerance is clamped.  More than ``MAX_SHOTS`` shots raise
ResourceLimitError before any draw, and before the state is certified;
so does, checked after the shot cap, an expression on another set
(ValueError, ``run_protocol`` only) and a term or context that is not
jointly measurable (IncompatibleContextError), both from the one gate
``observables.term_expansions`` or ``compatible_expansions``, and a
seed outside [0, 2^64) (ValueError, ``runtime``'s coordinate rule;
``estimate_term`` checks its ``term_index`` with it), checked after
those, even when no term draws.  The state is certified last, once per
call, even for an expression with no terms: ``run_protocol`` hands its
one factor to every term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import NumericError, ResourceLimitError
from .families import label_tuple
from .inequalities import InequalityExpr, Term
from .linalg import STRUCT_TOL, apply, factor, tables
from .observables import ObservableSet, compatible_expansions, term_expansions
from .runtime import MARGINAL_LANE, PROTOCOL_LANE, _checked, _integer, context_index, draws

_P_FLOOR = 1e-12
MAX_SHOTS = 10**6


@dataclass(frozen=True)
class MeasurementRecord:
    outcomes: tuple[tuple[str, int], ...]
    post_state: np.ndarray


@dataclass(frozen=True)
class TermEstimate:
    estimate: float
    stderr: float


@dataclass(frozen=True)
class EstimateReport:
    inequality: str
    seed: int
    shots_per_term: int
    terms: tuple[TermEstimate, ...]
    lhs_estimate: float
    lhs_stderr: float


@dataclass(frozen=True)
class MarginalReport:
    label: str
    shots: int
    freq_plus_first: float
    freq_plus_second: float
    z_statistic: float


def _split(k: np.ndarray, compiled: tuple[np.ndarray, np.ndarray]) -> tuple[float, np.ndarray]:
    """Measure A (compiled by ``linalg.tables``) on the state K K^dagger:
    the +1 probability p = (1 + Re Tr(K^dagger A K))/2 and A K, from which
    a branch's unnormalized post-factor is (K +- A K)/2.  Rounding error
    within STRUCT_TOL of [0, 1] is clamped; anything further out raises
    NumericError."""
    a = apply(compiled, k)
    p = (1.0 + float(np.vdot(k, a).real)) / 2.0
    if not -STRUCT_TOL <= p <= 1.0 + STRUCT_TOL:
        raise NumericError(f"branch probability {p} is outside [0, 1]")
    return min(max(p, 0.0), 1.0), a


def _walk(k: np.ndarray, expansions, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Measure the expansions in order on shots sharing the state K K^dagger:
    shot s takes the +1 branch of measurement i when uniforms[s, i] is
    below its probability.  Each expansion is compiled once; the stack
    holds (K, shot indices, level), and only a branch that holds shots is
    built.  Returns the (shots, depth) outcomes and the last factor
    reached (for one shot, its post-measurement factor)."""
    shots, depth = uniforms.shape
    compiled = [tables(e, len(k)) for e in expansions]
    outcomes = np.empty((shots, depth), dtype=np.int64)
    stack = [(k, np.arange(shots), 0)]
    while stack:
        k, idx, level = stack.pop()
        if level == depth:
            continue
        p, a = _split(k, compiled[level])
        took_plus = uniforms[idx, level] < p
        outcomes[idx, level] = np.where(took_plus, 1, -1)
        branches = ((idx[took_plus], np.add, p), (idx[~took_plus], np.subtract, 1 - p))
        for branch_idx, op, prob in branches:
            if branch_idx.size:
                if prob < _P_FLOOR:
                    raise NumericError(f"sampled a measurement branch with probability {prob}")
                # (K +- A K)/2, renormalized: one real multiplier, not
                # numpy's complex division loop, for the same values (a
                # zero's sign aside).
                post = op(k, a)
                post *= 0.5 / np.sqrt(prob)
                stack.append((post, branch_idx, level + 1))
    return outcomes, k


def sequential_measure(
    state: np.ndarray, obs: ObservableSet, labels, rng: np.random.Generator
) -> MeasurementRecord:
    """One experimental run: measure the labels in order on one copy,
    drawing one ``rng.random()`` per label.

    The labels must be jointly measurable.  Returns the ordered outcomes
    and the final post-measurement state, in the input's form: a ket for
    a ket, a density matrix for a density matrix.
    """
    labels = label_tuple(labels)
    expansions = compatible_expansions(obs, labels)
    k = factor(state, obs.dim)
    uniforms = np.array([[rng.random() for _ in labels]])
    outcomes, k = _walk(k, expansions, uniforms)
    post_state = k[:, 0] if np.ndim(state) == 1 else k @ k.conj().T
    return MeasurementRecord(tuple(zip(labels, outcomes[0].tolist())), post_state)


def _check_shots(shots: int) -> int:
    """``shots`` as a plain int, at least 2 (ValueError) and at most
    ``MAX_SHOTS`` (ResourceLimitError)."""
    shots = _integer("shots", shots)
    if shots < 2:
        raise ValueError(f"need at least 2 shots, got {shots}")
    if shots > MAX_SHOTS:
        raise ResourceLimitError(f"{shots} shots exceeds the cap of {MAX_SHOTS}")
    return shots


def _shot_outcomes(
    k: np.ndarray, expansions, shots: int, seed: int, lane: int, index: int
) -> np.ndarray:
    """Outcomes of ``shots`` runs measuring the expansions in order on
    K K^dagger; shot s reads the ``draws`` row (seed, lane, index, s)."""
    uniforms = draws(seed, lane, (index,), range(shots), len(expansions))
    return _walk(k, expansions, uniforms)[0]


def estimate_term(
    state: np.ndarray,
    obs: ObservableSet,
    term: Term,
    shots: int,
    seed: int,
    term_index: int = 0,
    *,
    _certified: tuple[np.ndarray, list] | None = None,
) -> TermEstimate:
    """Estimate sign * <product of outcomes> from ``shots`` preparations.

    Shot s reads the ``draws`` row (seed, lane 1, term_index, s).  Returns
    the estimate and its ``stderr``, the sample standard deviation over
    shots divided by sqrt(shots); the result does not repeat ``shots``.
    The shot count, the term's compatibility, and the seed and
    ``term_index`` together (``runtime``'s coordinate rule) are checked
    before the state is certified, also for a term with no factors.
    ``run_protocol`` passes ``_certified``, the state's factor K and the
    term's expansions after running those checks and the certification
    once for all terms; a caller leaves it out.
    """
    if _certified is None:
        shots = _check_shots(shots)
        expansions = compatible_expansions(obs, term.factors)
        seed, _, term_index = _checked(seed, PROTOCOL_LANE, term_index)
        _certified = factor(state, obs.dim), expansions
    k, expansions = _certified
    if term.factors:
        outcomes = _shot_outcomes(k, expansions, shots, seed, PROTOCOL_LANE, term_index)
        values = term.sign * outcomes.prod(axis=1).astype(float)
    else:
        values = np.full(shots, float(term.sign))
    return TermEstimate(
        estimate=float(values.mean()), stderr=float(values.std(ddof=1) / np.sqrt(shots))
    )


def run_protocol(
    state: np.ndarray,
    obs: ObservableSet,
    expr: InequalityExpr,
    shots_per_term: int,
    seed: int,
) -> EstimateReport:
    """Estimate every term on an independent subensemble and sum.

    Term t reads the ``draws`` rows (seed, lane 1, t, shot), so the full
    report is a pure function of (state, expr, shots_per_term, seed).
    Its fields are the ``simulate`` command's results in order, with the
    command's ``--state`` echoed after ``inequality``; the seed and shot
    count are plain ints, also for numpy integer arguments.
    ``lhs_stderr`` is the root-sum-square of the terms' ``stderr``
    (independent subensembles).
    Every check runs once, before any term's work: the shot cap, then
    ``term_expansions`` (the expression is on ``obs`` and every term
    jointly measurable), then the seed.  The state is certified last,
    once for all terms (also when there are none), and each term's
    ``estimate_term`` reads that one factor and its own expansions.
    """
    shots_per_term = _check_shots(shots_per_term)
    expansions = term_expansions(obs, expr)
    (seed,) = _checked(seed)
    k = factor(state, obs.dim)
    estimates = [
        estimate_term(state, obs, term, shots_per_term, seed, t, _certified=(k, term_exps))
        for t, (term, term_exps) in enumerate(zip(expr.terms, expansions))
    ]
    lhs = float(sum(e.estimate for e in estimates))
    lhs_err = float(np.sqrt(sum(e.stderr**2 for e in estimates)))
    return EstimateReport(
        inequality=expr.id,
        seed=seed,
        shots_per_term=shots_per_term,
        terms=tuple(estimates),
        lhs_estimate=lhs,
        lhs_stderr=lhs_err,
    )


def marginal_consistency(
    state: np.ndarray,
    obs: ObservableSet,
    label: str,
    contexts,
    shots: int,
    seed: int,
) -> MarginalReport:
    """Compare one observable's outcome frequency across two contexts.

    Both contexts are measured in full, ``shots`` times each; a context's
    shots read the ``draws`` rows (seed, lane 2, ``context_index(context)``,
    shot), so passing the same context twice reproduces identical
    frequencies while distinct contexts are measured on independent
    ensembles.  The report holds ``shots`` as a plain int, the +1
    frequency of ``label`` in each context and a two-proportion z
    statistic; quantum mechanics predicts equal marginals, so |z| stays
    at noise level.  Before the state is
    certified, both contexts are checked: exactly two, each holding
    ``label`` and jointly measurable (ValueError otherwise), and then the
    seed.
    """
    shots = _check_shots(shots)
    contexts = [label_tuple(c) for c in contexts]
    if len(contexts) != 2:
        raise ValueError(f"marginal consistency takes exactly two contexts, got {len(contexts)}")
    for ctx in contexts:
        if label not in ctx:
            raise ValueError(f"label {label} is not in context {ctx}")
    expansions = [compatible_expansions(obs, ctx) for ctx in contexts]
    (seed,) = _checked(seed)
    k = factor(state, obs.dim)
    freqs = []
    for ctx, exps in zip(contexts, expansions):
        outcomes = _shot_outcomes(k, exps, shots, seed, MARGINAL_LANE, context_index(ctx))
        freqs.append(float(np.mean(outcomes[:, ctx.index(label)] == 1)))
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

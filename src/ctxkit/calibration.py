"""Relabeling calibration for the pentagon inequality.

The embedded 18-ray table fixes one label-to-ray assignment, but any
relabeling along an automorphism of the context incidence structure
(contexts as vertices, shared rays as edges) produces an equally valid
assignment with identical state-independent results.  State-dependent
values are another matter: the pentagon inequality evaluated at a fixed
product state changes under relabeling.  This module enumerates the full
automorphism group, evaluates the pentagon at the reference product state
under every relabeling, and searches for the best product-state violation
with a seeded alternating eigenvector ascent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .inequalities import InequalityExpr, Term, catalog_get
from .observables import RaySet, build_ks18
from .quantum import bell_operator
from .runtime import substream
from .states import paper_kcbs_product

TARGET, SLACK = 3.6, 0.05  # the reference-state value the relabeling sweep looks for
ASCENT_STARTS = 6  # seeded ascents per distinct pentagon
ASCENT_SWEEPS, ASCENT_TOL = 200, 1e-12  # each stops early once a sweep gains <= ASCENT_TOL


def _context_graph(rayset: RaySet) -> tuple[dict[int, set[int]], dict[frozenset[int], str]]:
    """Contexts as vertices; each ray in exactly two contexts is an edge."""
    membership: dict[str, list[int]] = {}
    for idx, ctx in enumerate(rayset.contexts):
        for label in ctx:
            membership.setdefault(label, []).append(idx)
    edges: dict[frozenset[int], str] = {}
    for label, ctxs in membership.items():
        if len(ctxs) != 2:
            raise ValueError(
                f"ray {label} is in {len(ctxs)} contexts; incidence automorphisms "
                "need every ray in exactly two"
            )
        key = frozenset(ctxs)
        if key in edges:
            raise ValueError(f"contexts {set(key)} share two rays ({edges[key]}, {label})")
        edges[key] = label
    adjacency: dict[int, set[int]] = {i: set() for i in range(len(rayset.contexts))}
    for key in edges:
        u, v = tuple(key)
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency, edges


def incidence_automorphisms(rayset: RaySet) -> list[dict[str, str]]:
    """All relabelings induced by automorphisms of the context graph.

    Returned as label -> label maps, in a deterministic order.  Identity
    first is not guaranteed; the identity map is always among them.
    """
    adjacency, edges = _context_graph(rayset)
    vertices = sorted(adjacency)
    degree = {v: len(adjacency[v]) for v in vertices}

    perms: list[dict[int, int]] = []

    def extend(mapping: dict[int, int], used: set[int]) -> None:
        if len(mapping) == len(vertices):
            perms.append(dict(mapping))
            return
        v = vertices[len(mapping)]
        for w in vertices:
            if w in used or degree[w] != degree[v]:
                continue
            # Adjacency to every already-mapped vertex must be preserved
            # both ways.
            if any((u in adjacency[v]) != (mapping[u] in adjacency[w]) for u in mapping):
                continue
            mapping[v] = w
            used.add(w)
            extend(mapping, used)
            del mapping[v]
            used.remove(w)

    extend({}, set())

    relabelings = []
    for perm in perms:
        label_map = {
            label: edges[frozenset(perm[c] for c in key)] for key, label in edges.items()
        }
        relabelings.append(label_map)
    return relabelings


def relabel_expr(expr: InequalityExpr, label_map: dict[str, str]) -> InequalityExpr:
    """Apply a label -> label map to every factor."""
    return replace(
        expr,
        terms=tuple(
            Term(t.sign, tuple(label_map.get(f, f) for f in t.factors)) for t in expr.terms
        ),
    )


def _top_eigvec_2x2(m: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Top eigenvector of a Hermitian 2x2 matrix, in closed form.

    Falls back to ``current`` when the spectrum is degenerate (any unit
    vector is then optimal, and keeping the current one makes the ascent
    deterministic).
    """
    alpha = float(m[0, 0].real)
    gamma = float(m[1, 1].real)
    beta = complex(m[0, 1])
    half_gap = (alpha - gamma) / 2.0
    radius = float(np.hypot(half_gap, abs(beta)))
    if radius < 1e-14:
        return current
    top = (alpha + gamma) / 2.0 + radius
    if abs(beta) < 1e-14:
        vec = np.array([1.0, 0.0], dtype=complex) if alpha >= gamma else np.array(
            [0.0, 1.0], dtype=complex
        )
        return vec
    vec = np.array([beta, top - alpha], dtype=complex)
    return vec / np.linalg.norm(vec)


def product_state_ascent(
    bell: np.ndarray, rng: np.random.Generator
) -> tuple[float, np.ndarray, np.ndarray]:
    """Locally maximize <a x b|B|a x b> over 2x2 product states.

    Alternating ascent: with one factor fixed, the optimal other factor
    is the top eigenvector of the conditional 2x2 matrix, so each half
    step cannot decrease the value.  Returns (value, a, b).
    """
    if bell.shape != (4, 4):
        raise ValueError(f"product-state ascent needs a 4x4 operator, got {bell.shape}")
    tensor = bell.reshape(2, 2, 2, 2)  # [i, k, j, l] = B[2i+k, 2j+l]
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    value = float(
        np.real(np.einsum("ikjl,i,k,j,l", tensor, a.conj(), b.conj(), a, b))
    )
    for _ in range(ASCENT_SWEEPS):
        cond_a = np.einsum("ikjl,k,l->ij", tensor, b.conj(), b)
        a = _top_eigvec_2x2(cond_a, a)
        cond_b = np.einsum("ikjl,i,j->kl", tensor, a.conj(), a)
        b = _top_eigvec_2x2(cond_b, b)
        new_value = float(
            np.real(np.einsum("ikjl,i,k,j,l", tensor, a.conj(), b.conj(), a, b))
        )
        if abs(new_value - value) <= ASCENT_TOL:
            value = new_value
            break
        value = new_value
    return value, a, b


@dataclass(frozen=True)
class CalibrationReport:
    automorphism_count: int
    pentagon_count: int
    paper_state_values: tuple[float, ...]
    best_paper_value: float
    target: float
    slack: float
    target_matched: bool
    best_product_value: float
    best_pentagon: tuple[tuple[str, ...], ...]
    best_product_state: np.ndarray
    qualitative_violation: bool


def kcbs_calibration(seed: int = 0) -> CalibrationReport:
    """Sweep the pentagon inequality over every incidence relabeling.

    Two results: the value at the reference product state for each
    relabeling (compared against ``TARGET`` +- ``SLACK``), and the best
    product-state value found by ``ASCENT_STARTS`` seeded ascents on each
    distinct pentagon image (compared against the noncontextual bound 3).
    """
    rayset, obs = build_ks18()
    expr = catalog_get("kcbs3")
    psi = paper_kcbs_product()

    relabelings = incidence_automorphisms(rayset)
    paper_values = []
    pentagons: dict[frozenset[frozenset[str]], tuple[InequalityExpr, np.ndarray]] = {}
    for label_map in relabelings:
        mapped = relabel_expr(expr, label_map)
        # The reference ket is built here, so this evaluates <psi|B|psi>
        # on the dense B the ascent needs, without re-certifying psi.
        bell = bell_operator(obs, mapped)
        paper_values.append(float(np.vdot(psi, bell @ psi).real))
        key = frozenset(frozenset(t.factors) for t in mapped.terms)
        pentagons.setdefault(key, (mapped, bell))

    best_product = -np.inf
    best_expr = expr
    best_state = np.zeros(4, dtype=complex)
    for pent_idx, (mapped, bell) in enumerate(pentagons.values()):
        for start in range(ASCENT_STARTS):
            rng = substream(seed, 3, index=pent_idx, subindex=start)
            value, a, b = product_state_ascent(bell, rng)
            if value > best_product:
                best_product = value
                best_expr = mapped
                best_state = np.kron(a, b)

    best_paper = max(paper_values)
    return CalibrationReport(
        automorphism_count=len(relabelings),
        pentagon_count=len(pentagons),
        paper_state_values=tuple(paper_values),
        best_paper_value=float(best_paper),
        target=TARGET,
        slack=SLACK,
        target_matched=any(abs(v - TARGET) <= SLACK for v in paper_values),
        best_product_value=float(best_product),
        best_pentagon=tuple(t.factors for t in best_expr.terms),
        best_product_state=best_state,
        qualitative_violation=bool(best_product > 3.0),
    )

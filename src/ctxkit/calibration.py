"""Relabeling calibration for the pentagon inequality.

The embedded 18-ray table fixes one label-to-ray assignment, but any
relabeling along an automorphism of the context incidence structure
(contexts as vertices, shared rays as edges) produces an equally valid
assignment with identical state-independent results.  State-dependent
values are another matter: the pentagon inequality evaluated at a fixed
product state changes under relabeling.  This module enumerates the full
automorphism group, evaluates the pentagon at the reference product state
under every relabeling, and searches for the best product-state violation
with seeded alternating eigenvector ascents.  The ascents from all
``ASCENT_STARTS`` starts on every distinct pentagon run together, in lock
step on one stack of 2x2x2x2 tensors; each row stops on its own and ends
with the bits a one-row ``_ascend`` gives for its start alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .families import incidence
from .inequalities import InequalityExpr, Term, catalog_get
from .linalg import row_norms
from .observables import ObservableSet, build_set
from .quantum import bell_operator
from .runtime import ASCENT_LANE, _checked, draws
from .states import paper_kcbs_product

TARGET, SLACK = 3.6, 0.05  # the reference-state value the relabeling sweep looks for
ASCENT_STARTS = 6  # seeded ascents per distinct pentagon
ASCENT_SWEEPS, ASCENT_TOL = 200, 1e-12  # each stops early once a sweep gains <= ASCENT_TOL


def _context_graph(obs: ObservableSet) -> tuple[dict[int, set[int]], dict[frozenset[int], str]]:
    """Contexts as vertices; each label in exactly two contexts is an edge."""
    edges: dict[frozenset[int], str] = {}
    for label, ctxs in incidence(obs.contexts).items():
        if len(ctxs) != 2:
            raise ValueError(
                f"label {label} is in {len(ctxs)} contexts; incidence automorphisms "
                "need every label in exactly two"
            )
        key = frozenset(ctxs)
        if key in edges:
            raise ValueError(f"contexts {set(key)} share two labels ({edges[key]}, {label})")
        edges[key] = label
    adjacency: dict[int, set[int]] = {i: set() for i in range(len(obs.contexts))}
    for key in edges:
        u, v = tuple(key)
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency, edges


def incidence_automorphisms(obs: ObservableSet) -> list[dict[str, str]]:
    """All relabelings induced by automorphisms of the context graph.

    As in the 18-ray set, every label of a context must be in exactly
    two contexts, and no two contexts may share two labels (ValueError
    otherwise).  Returned as label -> label maps, in a deterministic
    order.  Identity first is not guaranteed; the identity map is always
    among them.
    """
    adjacency, edges = _context_graph(obs)
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


def _top_eigvecs(m: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Top eigenvector of each Hermitian 2x2 matrix in an (n, 2, 2) stack,
    in closed form.

    A row whose spectrum is degenerate keeps its row of ``current`` (any
    unit vector is then optimal, and keeping the current one makes the
    ascent deterministic).  Each row has the bits of the one-matrix
    formula: |beta| is ``np.hypot`` of its parts, as Python's
    ``abs(complex)`` computes it (numpy's complex ``abs`` can differ in
    the last bit), and ``row_norms`` is ``np.linalg.norm`` of each row.
    """
    alpha, gamma, beta = m[:, 0, 0].real, m[:, 1, 1].real, m[:, 0, 1]
    abs_beta = np.hypot(beta.real, beta.imag)
    radius = np.hypot((alpha - gamma) / 2.0, abs_beta)
    top = (alpha + gamma) / 2.0 + radius
    vec = np.stack([beta, top - alpha], axis=1)
    diagonal = abs_beta < 1e-14
    vec[diagonal] = np.where((alpha >= gamma)[diagonal, None], [1.0, 0.0], [0.0, 1.0])
    vec /= row_norms(vec)[:, None]
    return np.where((radius < 1e-14)[:, None], current, vec)


def _product_values(tensors: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("nikjl,ni,nk,nj,nl->n", tensors, a.conj(), b.conj(), a, b).real


def _ascend(
    tensors: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternating ascents in lock step, one per row: row r maximizes
    <a x b|B|a x b> on tensors[r] ([i, k, j, l] = B[2i+k, 2j+l]) from the
    start (a[r], b[r]).  A row stops after the first sweep that changes
    its value by at most ``ASCENT_TOL``, or after ``ASCENT_SWEEPS``;
    the others go on without it.  Returns (values, a, b)."""
    a = a / row_norms(a)[:, None]
    b = b / row_norms(b)[:, None]
    values = _product_values(tensors, a, b)
    live = np.arange(len(tensors))
    for _ in range(ASCENT_SWEEPS):
        t, b_live = tensors[live], b[live]
        a_live = _top_eigvecs(np.einsum("nikjl,nk,nl->nij", t, b_live.conj(), b_live), a[live])
        b_live = _top_eigvecs(np.einsum("nikjl,ni,nj->nkl", t, a_live.conj(), a_live), b_live)
        new_values = _product_values(t, a_live, b_live)
        gain = np.abs(new_values - values[live])
        a[live], b[live], values[live] = a_live, b_live, new_values
        live = live[gain > ASCENT_TOL]
        if not live.size:
            break
    return values, a, b


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
    Start s on pentagon p is the ``draws`` row (seed, lane 3, p, s) of 8
    normals: its unnormalized factors are a = row[0:2] + 1j * row[2:4]
    and b = row[4:6] + 1j * row[6:8].  A seed outside [0, 2^64) raises
    ValueError (``runtime``'s coordinate rule) before any work.
    """
    _checked(seed)
    obs = build_set("ks18")
    expr = catalog_get("kcbs3")
    psi = paper_kcbs_product()

    relabelings = incidence_automorphisms(obs)
    paper_values = []
    # Relabelings onto one pentagon share its operator and reference value.
    pentagons: dict[frozenset[frozenset[str]], tuple[InequalityExpr, np.ndarray, float]] = {}
    for label_map in relabelings:
        mapped = relabel_expr(expr, label_map)
        key = frozenset(frozenset(t.factors) for t in mapped.terms)
        if key not in pentagons:
            # The reference ket is built here, so this evaluates <psi|B|psi>
            # on the dense B the ascent needs, without re-certifying psi.
            bell = bell_operator(obs, mapped)
            pentagons[key] = (mapped, bell, float(np.vdot(psi, bell @ psi).real))
        paper_values.append(pentagons[key][2])

    images = list(pentagons.values())
    starts = draws(seed, ASCENT_LANE, range(len(images)), range(ASCENT_STARTS), 8)
    a = starts[:, 0:2] + 1j * starts[:, 2:4]
    b = starts[:, 4:6] + 1j * starts[:, 6:8]
    bells = np.array([bell for _, bell, _ in images]).reshape(-1, 2, 2, 2, 2)
    values, a, b = _ascend(np.repeat(bells, ASCENT_STARTS, axis=0), a, b)
    best = int(np.argmax(values))  # the first best, in (pentagon, start) order
    best_product = float(values[best])
    best_expr = images[best // ASCENT_STARTS][0]

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
        best_product_state=np.kron(a[best], b[best]),
        qualitative_violation=bool(best_product > 3.0),
    )

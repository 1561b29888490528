"""The three families at the level of labels, and the label rules.

Everything here is labels and contexts, never operators, so reading an
expression and scanning its bound need no array library.  The operators
are built in ``observables`` from the same tables.

Three families:

* an 18-ray set in dimension 4: nine complete orthogonal bases (contexts)
  of four rays each, every ray shared by exactly two bases,
* the two-qubit Peres-Mermin square: nine observables P_ij arranged in
  three rows and three columns, compatible when they share a subindex,
* the n-qubit star family (n odd, 3 to 13): four collective observables
  ACAL1..ACAL4 plus single-site B_i = Z_i and C_i = X_i, grouped into
  four mixed contexts and one all-ACAL context.

Label convention for the 18-ray set: "Aij" names the ray shared by
contexts i and j (1-based, in the order of ``KS18_CONTEXTS``).  The
embedded ray table is fixed data, pinned by the tests.

Each family is one lookup, ``_family(set_id, n)``, the one check of a
family id and its n: its unbuilt operators by label and its contexts,
which the builders, ``set_labels`` and ``set_contexts`` all read.
``label_group`` is the one check of a group of distinct labels and
``incidence`` the one map from a label to the groups that hold it.
"""

from __future__ import annotations

from typing import Mapping

from .exceptions import ResourceLimitError, UnknownLabelError

KS18_RAYS: dict[str, tuple[int, int, int, int]] = {
    "A12": (0, 1, 0, 0),
    "A16": (1, 0, 1, 0),
    "A17": (1, 0, -1, 0),
    "A18": (0, 0, 0, 1),
    "A23": (1, 0, 0, -1),
    "A28": (0, 0, 1, 0),
    "A29": (1, 0, 0, 1),
    "A34": (1, -1, -1, 1),
    "A37": (1, 1, 1, 1),
    "A39": (0, 1, -1, 0),
    "A45": (0, 0, 1, 1),
    "A47": (1, -1, 1, -1),
    "A48": (1, 1, 0, 0),
    "A56": (1, 1, -1, 1),
    "A58": (1, -1, 0, 0),
    "A59": (1, 1, 1, -1),
    "A67": (0, 1, 0, -1),
    "A69": (-1, 1, 1, 1),
}

KS18_CONTEXTS: tuple[tuple[str, ...], ...] = (
    ("A12", "A16", "A17", "A18"),
    ("A12", "A23", "A28", "A29"),
    ("A23", "A34", "A37", "A39"),
    ("A34", "A45", "A47", "A48"),
    ("A45", "A56", "A58", "A59"),
    ("A16", "A56", "A67", "A69"),
    ("A17", "A37", "A47", "A67"),
    ("A18", "A28", "A48", "A58"),
    ("A29", "A39", "A59", "A69"),
)

PERES_MERMIN_WORDS: dict[str, str] = {
    "P14": "ZI",
    "P15": "IZ",
    "P16": "ZZ",
    "P24": "IX",
    "P25": "XI",
    "P26": "XX",
    "P34": "ZX",
    "P35": "XZ",
    "P36": "YY",
}

PERES_MERMIN_CONTEXTS: tuple[tuple[str, ...], ...] = (
    ("P14", "P15", "P16"),
    ("P24", "P25", "P26"),
    ("P34", "P35", "P36"),
    ("P14", "P24", "P34"),
    ("P15", "P25", "P35"),
    ("P16", "P26", "P36"),
)

MERMIN_STAR_MAX_QUBITS = 13
FAMILY_IDS = ("ks18", "peres_mermin", "mermin_star")


def label_tuple(labels) -> tuple[str, ...]:
    """The one rule for a sequence of labels (a measurement order, and
    every ``label_group``): a tuple of its items, each a str.  A str or
    bytes is refused rather than split into characters (ValueError)."""
    if isinstance(labels, (str, bytes)):
        raise ValueError(f"labels must be a sequence of str, not {labels!r}")
    labels = tuple(labels)
    if bad := [label for label in labels if not isinstance(label, str)]:
        raise ValueError(f"label {bad[0]!r} in {labels!r} is not a str")
    return labels


def label_group(labels, what: str) -> tuple[str, ...]:
    """The one rule for a group of distinct labels (a term's factors, a
    context, a bound-scan group): ``label_tuple``, and no label twice
    (ValueError naming ``what``)."""
    labels = label_tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValueError(f"{what} {labels} repeats a label")
    return labels


def incidence(groups) -> dict[str, tuple[int, ...]]:
    """Each label, in first-seen order, mapped to the indices of the
    groups that hold it."""
    held: dict[str, list[int]] = {}
    for i, group in enumerate(groups):
        for label in group:
            held.setdefault(label, []).append(i)
    return {label: tuple(indices) for label, indices in held.items()}


def family_name(set_id: str, n: int | None) -> str:
    """A family as messages name it: the set_id, and n when given."""
    return set_id if n is None else f"{set_id} n={n}"


def _family(set_id: str, n: int | None) -> tuple[Mapping, tuple[tuple[str, ...], ...]]:
    """A family's operators by label, unbuilt (``KS18_RAYS``,
    ``PERES_MERMIN_WORDS`` or the star's Pauli words), and its contexts.

    An unknown id raises UnknownLabelError; only the star takes n
    (ValueError otherwise), an integer (an int or a numpy integer, never
    a bool, float or str), odd and >= 3 (ValueError) and at most
    ``MERMIN_STAR_MAX_QUBITS`` (ResourceLimitError).
    """
    if set_id in ("ks18", "peres_mermin"):
        if n is not None:
            raise ValueError(f"{set_id} does not take n")
        if set_id == "ks18":
            return KS18_RAYS, KS18_CONTEXTS
        return PERES_MERMIN_WORDS, PERES_MERMIN_CONTEXTS
    if set_id != "mermin_star":
        raise UnknownLabelError(f"unknown set_id {set_id!r}, not one of {', '.join(FAMILY_IDS)}")
    if isinstance(n, bool) or not hasattr(n, "__index__") or n < 3 or n % 2 == 0:
        raise ValueError(f"star family is defined with n (odd) >= 3, got n={n}")
    if n > MERMIN_STAR_MAX_QUBITS:
        raise ResourceLimitError(
            f"star family with n={n} exceeds the {MERMIN_STAR_MAX_QUBITS}-qubit cap "
            f"(dimension 2^{n})"
        )
    words = {
        "ACAL1": "Z" * n,
        "ACAL2": "Z" + "X" * (n - 1),
        "ACAL3": "XZ" + "X" * (n - 2),
        "ACAL4": "XX" + "Z" * (n - 2),
    }
    for name, letter in (("B", "Z"), ("C", "X")):
        for i in range(1, n + 1):
            words[f"{name}{i}"] = "I" * (i - 1) + letter + "I" * (n - i)
    b_tail, c_tail = (tuple(f"{name}{i}" for i in range(3, n + 1)) for name in "BC")
    contexts = (
        ("ACAL1", "B1", "B2") + b_tail,
        ("ACAL2", "B1", "C2") + c_tail,
        ("ACAL3", "C1", "B2") + c_tail,
        ("ACAL4", "C1", "C2") + b_tail,
        ("ACAL1", "ACAL2", "ACAL3", "ACAL4"),
    )
    return words, contexts


def set_labels(set_id: str, n: int | None = None) -> tuple[str, ...]:
    """Label universe of a family, in its builder's order, without
    building any operators."""
    return tuple(_family(set_id, n)[0])


def set_contexts(set_id: str, n: int | None = None) -> tuple[tuple[str, ...], ...]:
    """Contexts of a family, in their fixed order, without building any
    operators."""
    return _family(set_id, n)[1]

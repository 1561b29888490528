"""Exception types shared across the package.

The CLI maps these onto exit codes: argument, lookup and file errors
(ValueError, KeyError and their subclasses here, and OSError) exit 2,
ResourceLimitError and MemoryError exit 3, NumericError exits 1.
"""


class UnknownLabelError(KeyError):
    """An observable label is not present in the target set or expression."""


class UnknownInequalityError(KeyError):
    """An inequality id is not in the catalog."""


class IncompatibleContextError(ValueError):
    """Observables that must be jointly measurable do not commute."""


class ResourceLimitError(RuntimeError):
    """A documented size cap was exceeded: qubit count, shots, states,
    bound-scan work, the dense dimension or input bytes."""


class NumericError(ArithmeticError):
    """A numeric invariant failed: a non-real expectation, a non-Hermitian
    Bell operator, or a branch probability outside [0, 1] or vanishing
    when sampled."""

"""Exception types shared across the package."""

from __future__ import annotations


class InputError(Exception):
    """Base of every error here but :class:`InternalCheckError`: bad input, on which the CLI exits 2.

    Each subclass also keeps its ``ValueError`` or ``RuntimeError`` base.
    """


class MalformedInputError(ValueError, InputError):
    """Raised when user-supplied data fails structural validation."""


class ParentMismatchError(ValueError, InputError):
    """Raised when an operation mixes subgroups of different parent groups."""


class NotASubgroupError(ValueError, InputError):
    """Raised when a set of elements is not closed under the group operations."""


class HypothesisError(ValueError, InputError):
    """Raised when a checker is invoked on inputs that violate its preconditions."""


class NotNilpotentError(ValueError, InputError):
    """Raised when a nilpotent subgroup is required but the input is not nilpotent."""


class NotNormalError(ValueError, InputError):
    """Raised when a normal subgroup is required but the input is not normal."""


class ArityMismatchError(ValueError, InputError):
    """Raised when a parameter tuple does not match the arity a formula expects."""


class FormulaSyntaxError(ValueError, InputError):
    """Raised on unparseable formula text.  Carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CapExceededError(RuntimeError, InputError):
    """Raised when an enumeration exceeds a configured cap; the message states the cap."""


class InternalCheckError(RuntimeError):
    """Raised when two independent computations of the same quantity disagree.

    This always indicates a bug in this package, never bad input.
    """

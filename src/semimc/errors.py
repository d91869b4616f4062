"""Exception hierarchy shared by all semimc components."""

from __future__ import annotations


def quote(token) -> str:
    """`token` as error messages show it: repr, a string clipped past 32
    characters, and a number past Python's digit limit by its type alone
    (programmatic models may name states by other values)."""
    if isinstance(token, str) and len(token) > 32:
        return f"{token[:32]!r}... ({len(token)} characters)"
    try:
        return repr(token)
    except ValueError:  # an integer with more digits than Python prints
        return f"<{type(token).__name__} with more digits than Python prints>"


class SemimcError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SemimcError):
    """Syntax error in a model, formula, fragment or scalar text."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)


class CarrierError(ParseError):
    """A scalar literal parses but lies outside the semiring carrier."""


class ValidationError(SemimcError):
    """A structurally well-formed model or formula violates an invariant.

    Carries the full diagnostic list when produced by model validation.
    """

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics) if diagnostics else []


class EvaluationError(SemimcError):
    """Formula evaluation failed (unbound variable, bad valuation, ...)."""


class NonConvergence(SemimcError):
    """The fixpoint iteration hit the iteration limit before stabilising.

    `last` and `previous` hold the final two iterates so callers can inspect
    how far apart the chain still was.
    """

    def __init__(self, message: str, last=None, previous=None, iterations: int = 0):
        super().__init__(message)
        self.last = last
        self.previous = previous
        self.iterations = iterations


class NonMonotoneChain(SemimcError):
    """A fixpoint chain left the expected order direction.

    Only reachable by seeding a fixpoint with a valuation that exceeds the
    model's extent; closed-formula evaluation never triggers it.
    """


class SizingError(SemimcError):
    """An enumeration would exceed the configured fragment cap."""


class OffsetUnsupported(SemimcError):
    """A trace-behaviour operation was applied to a model with offsets."""

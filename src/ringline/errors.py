"""Exception hierarchy shared by all ringline modules."""

from __future__ import annotations


class RinglineError(Exception):
    """Base class for every error raised by this package."""


class RingValidationError(RinglineError):
    """A ring axiom failed.

    ``witness`` holds the offending element indices (a tuple, possibly empty)
    so callers can report exactly where the tables break.
    """

    def __init__(self, message: str, witness: tuple[int, ...] = ()):
        super().__init__(message)
        self.witness = witness


class NotClosed(RingValidationError):
    pass


class NotAbelianGroup(RingValidationError):
    pass


class NotAssociative(RingValidationError):
    pass


class NotDistributive(RingValidationError):
    pass


class NoUnity(RingValidationError):
    pass


class ZeroIndexNotZero(RingValidationError):
    pass


class OrderTooLarge(RinglineError):
    """The ring is beyond the enumeration bound of the requested operation."""


class NotPrime(RinglineError):
    pass


class RingSyntaxError(RinglineError):
    """Malformed ring file. ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RecipeError(RinglineError, ValueError):
    """Malformed recipe text, or a recipe naming no known constructor or algebra."""


class RightLineBreakdown(RinglineError):
    """Right equivalence classes of admissible pairs are not all the same size.

    ``class_sizes`` maps class size -> number of classes of that size.
    """

    def __init__(self, ring_name: str, class_sizes: dict[int, int]):
        sizes = ", ".join(f"{k}x{v}" for k, v in sorted(class_sizes.items()))
        super().__init__(
            f"right line over {ring_name} breaks down: class sizes not constant ({sizes})"
        )
        self.class_sizes = dict(class_sizes)


class NoDistantPair(RinglineError):
    """The line has no pair of distant points."""


class UnknownCandidate(RinglineError):
    """Unknown id for the pluggable 'Jacobson point' statistic."""

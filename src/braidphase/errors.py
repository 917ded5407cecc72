"""Exception types shared across the package."""

__all__ = ["MissingOmegaError", "ParseError", "RankError"]


class ParseError(ValueError):
    """A word or angle expression could not be parsed."""


class RankError(ValueError):
    """Operands live in groups of different rank / strand count."""


class MissingOmegaError(ValueError):
    """A required value of an external 2-cocycle was not supplied."""

"""Error hierarchy shared by the library and the CLI.

Exit-code mapping used by the CLI: InvalidInputError -> 1,
BBoundExceededError -> 2, InconsistencyError / InternalError -> 3.
Every division ends by construction, so no error stands for a budget.
"""


class DerhamError(Exception):
    """Base class; carries an optional pipeline stage name."""

    def __init__(self, message, stage=None):
        super().__init__(message)
        self.stage = stage


class InvalidInputError(DerhamError):
    """Malformed user input: bad polynomial, zero polynomial, empty family."""


class DimensionMismatchError(InvalidInputError):
    """Operands live over Weyl algebras with different variable counts."""


class BBoundExceededError(DerhamError):
    """b-function search exceeded its degree bound.

    Signals a non-specializable module or a bound that is too low.
    """


class InconsistencyError(DerhamError):
    """A verified mathematical invariant failed on the given data."""


class InternalError(DerhamError):
    """A contract the construction guarantees was violated; a bug."""

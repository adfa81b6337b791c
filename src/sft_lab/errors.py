"""Exception hierarchy shared by all sft_lab modules.

The CLI maps these onto its exit-code contract: validation problems
exit 2, mathematical-consistency failures exit 3, and internal
invariant breaches exit 4.
"""


class SftLabError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(SftLabError):
    """Malformed or inconsistent user input (CLI exit code 2)."""


class ConfigurationError(ValidationError):
    """A model configuration violates one of its structural invariants."""


class TrivialClassError(ValidationError):
    """A loop word reduces to the trivial conjugacy class."""


class ConsistencyError(SftLabError):
    """A mathematical consistency check failed (CLI exit code 3)."""


class SquareZeroError(ConsistencyError):
    """The differential does not square to zero; carries a witness monomial."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalError(SftLabError):
    """An internal invariant was breached (CLI exit code 4)."""


class NoTwinError(SftLabError):
    """A building configuration has no flow-line data to twist.

    Callers treat the configuration as a sporadic candidate.
    """

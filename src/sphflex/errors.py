"""The package's exceptions.

Every refusal is a ``SphflexError`` whose message names the failure;
``cli.run`` catches it and prints that message.  ``RankDeficientError``
adds the one datum a caller reads off an error: the Jacobian corank at a
trace seed.
"""


class SphflexError(Exception):
    """A domain error raised by this package; its message names the failure."""


class RankDeficientError(SphflexError):
    """Jacobian corank at the seed is not 1 (0 means the framework is rigid)."""

    def __init__(self, corank: int, message: str):
        self.corank = corank
        super().__init__(message)

"""One error model: the base class of every error raised on bad input, and the exit codes."""

from fractions import Fraction
from typing import Optional

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BOUNDS = 3


class PtssError(Exception):
    """Malformed or ill-sorted input: a usage or parse error.

    `where` names the input at fault (a path, `path:line`, a command-line
    argument), or is None when the error names no place; an empty path is a place."""

    exit_code = EXIT_USAGE

    def __init__(self, message: str = "", where: Optional[str] = None):
        super().__init__(message)
        self.where = where

    def lines(self) -> list[str]:
        """The diagnostics, one a line: `<where>: error: <message>`, or
        `error: <message>` without a place."""
        return [f"{self.where}: error: {self}" if self.where is not None else f"error: {self}"]


class BoundError(PtssError):
    """A domain, iteration or search bound was hit before a verdict."""

    exit_code = EXIT_BOUNDS


def brief(q: Fraction) -> str:
    """`q` for a message: its text, or a stand-in past 40 digits, since a
    message need not be longer and an int of over 4,300 digits has no str."""
    return str(q) if max(abs(q.numerator), q.denominator) < 10**40 else "a number of over 40 digits"

"""One error model: the base class of every error raised on bad input, and the exit codes."""

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BOUNDS = 3


class PtssError(Exception):
    """Malformed or ill-sorted input: a usage or parse error."""

    exit_code = EXIT_USAGE


class BoundError(PtssError):
    """A domain, iteration or search bound was hit before a verdict."""

    exit_code = EXIT_BOUNDS

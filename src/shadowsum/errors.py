"""Exception taxonomy shared by the library and the CLI.

Exit-code mapping used by the CLI: 0 ok, 2 parse, 3 precondition,
4 internal-oracle failure.  Only the exception classes live here: each
tolerance is a constant of the module whose check it gates, such as
`fusion.ORACLE_TOL`.
"""


class ShadowsumError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    code = "error"


class ParseError(ShadowsumError):
    """Malformed input file or unparseable value."""

    exit_code = 2
    code = "parse"


class PreconditionError(ShadowsumError):
    """A documented precondition of an operation was violated."""

    exit_code = 3
    code = "precondition"


class OracleError(ShadowsumError):
    """An internal consistency oracle failed; signals a bug, not bad input."""

    exit_code = 4
    code = "oracle"


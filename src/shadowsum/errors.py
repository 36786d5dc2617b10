"""Exception taxonomy shared by the library and the CLI.

Exit-code mapping used by the CLI: 0 ok, 2 parse, 3 precondition,
4 internal-oracle failure.
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


# Rounding tolerance of the Verlinde oracle (`fusion.verlinde_table`); `fusion --verify`
# without --oracle-tol.  Kept here, beside OracleError, so the CLI's help text names it
# without importing numpy.
ORACLE_TOL = 1e-6

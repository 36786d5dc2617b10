"""Exception taxonomy shared by the library and the CLI.

Exit-code mapping used by the CLI: 0 ok, 2 parse, 3 precondition,
4 internal-oracle failure.  The exception classes live here, and the one
refusal of a resource budget (`require_budget`); each budget and each
tolerance is a constant of the module whose check it gates, such as
`fusion.MAX_FUSION_COEFFS` or `fusion.ORACLE_TOL`.
"""

import math


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


def require_budget(count: int, budget: int, what: str, unit: str) -> None:
    """Refuse `count` units of work past `budget`, before the work is done.

    A count too long for `str` (CPython's limit on the digits of an int) is
    named by its order of magnitude, so the refusal cannot itself raise."""
    if count > budget:
        try:
            shown = str(count)
        except ValueError:
            shown = f"about 10^{math.log10(count):.0f}"
        raise PreconditionError(f"{what}: {shown} {unit}; the budget is {budget}")

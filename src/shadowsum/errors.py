"""Exception taxonomy shared by the library and the CLI.

Exit-code mapping used by the CLI: 0 ok, 2 parse, 3 precondition,
4 internal-oracle failure: every broken internal invariant raises OracleError,
so it ends as exit 4 under any interpreter flags (`-O` included).  The
exception classes live here, the one refusal
of a resource budget (`require_budget`) and the one way a refusal shows a
number (`shown`); each budget and each tolerance is a constant of the module
whose check it gates, such as `fusion.MAX_FUSION_COEFFS` or `fusion_table.ORACLE_TOL`.
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


class BudgetError(PreconditionError):
    """A resource budget refused the work before it was done; exit 3 like any precondition."""


class OracleError(ShadowsumError):
    """An internal consistency oracle failed; signals a bug, not bad input."""

    exit_code = 4
    code = "oracle"


def shown(value) -> str:
    """`repr(value)`, but an int of more than 20 digits, alone or in a tuple, is named by
    its order of magnitude, `about 10^N` (N = log10|value| rounded, sign kept), so a
    refusal's echo stays short and cannot raise at CPython's limit on int digits."""
    if isinstance(value, tuple):
        return "(" + ", ".join(map(shown, value)) + "," * (len(value) == 1) + ")"
    if isinstance(value, int) and abs(value) >= 10**20:
        return f"{'-' * (value < 0)}about 10^{math.log10(abs(value)):.0f}"
    return repr(value)


def require_budget(count: int, budget: int, what: str, unit: str) -> None:
    """Refuse `count` units of work past `budget`, before the work is done."""
    if count > budget:
        raise BudgetError(f"{what}: {shown(count)} {unit}; the budget is {budget}")

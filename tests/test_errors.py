import ast
import builtins
from pathlib import Path

import pytest

import shadowsum
from shadowsum.errors import BudgetError, PreconditionError, require_budget, shown


def test_require_budget_admits_the_budget_and_refuses_past_it():
    require_budget(10, 10, "ten cells", "cells")
    with pytest.raises(PreconditionError) as ei:
        require_budget(11, 10, "eleven cells", "cells")
    assert str(ei.value) == "eleven cells: 11 cells; the budget is 10"


def test_a_budget_refusal_is_a_precondition_to_the_cli():
    """A refusal is a BudgetError, so a link's report can file it apart; the CLI shows
    it as any precondition, code `precondition` and exit 3."""
    with pytest.raises(BudgetError) as ei:
        require_budget(11, 10, "eleven cells", "cells")
    assert isinstance(ei.value, PreconditionError)
    assert (ei.value.code, ei.value.exit_code) == ("precondition", 3)


def test_require_budget_names_a_count_past_the_digit_limit_by_its_magnitude():
    """10^5000 has more digits than CPython converts to text (4300): the refusal
    names its order of magnitude instead of raising ValueError."""
    with pytest.raises(PreconditionError) as ei:
        require_budget(10**5000, 10, "a huge grid", "cells")
    assert str(ei.value) == "a huge grid: about 10^5000 cells; the budget is 10"


def test_shown_names_numbers_past_twenty_digits_by_their_magnitude():
    """Up to 20 digits a number, and a tuple of them, is shown as repr shows it; past
    that by its order of magnitude, sign kept, even past CPython's digit limit."""
    assert shown(10**20 - 1) == "99999999999999999999"
    assert shown((1,)) == "(1,)" and shown((2, -1, 0.5)) == "(2, -1, 0.5)"
    assert shown(10**20) == "about 10^20"
    assert shown((-3 * 10**4000, 7)) == "(-about 10^4000, 7)"
    assert shown(10**5000) == "about 10^5000"


def _raised_builtin(node) -> bool:
    """A `raise` of a builtin exception class, such as ValueError, called or bare."""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    builtin = getattr(builtins, exc.id, None) if isinstance(exc, ast.Name) else None
    return isinstance(builtin, type) and issubclass(builtin, BaseException)


def _unchecked_invariants(path: Path) -> list[str]:
    """module:line of each `assert` and each raise of a builtin exception in `path`."""
    tree = ast.parse(path.read_text(), str(path))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Assert) or _raised_builtin(node)]


def test_no_invariant_is_checked_by_assert():
    """No module of the package holds an `assert` statement, which `python -O` strips,
    or raises a builtin exception (AssertionError, ValueError, KeyError, ...), which the
    CLI does not map: every broken internal invariant raises OracleError, so it ends as
    exit 4 under any interpreter flags."""
    found = [line for path in sorted(Path(shadowsum.__file__).parent.glob("*.py"))
             for line in _unchecked_invariants(path)]
    assert not found, found

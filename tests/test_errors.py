import pytest

from shadowsum.errors import PreconditionError, require_budget


def test_require_budget_admits_the_budget_and_refuses_past_it():
    require_budget(10, 10, "ten cells", "cells")
    with pytest.raises(PreconditionError) as ei:
        require_budget(11, 10, "eleven cells", "cells")
    assert str(ei.value) == "eleven cells: 11 cells; the budget is 10"


def test_require_budget_names_a_count_past_the_digit_limit_by_its_magnitude():
    """10^5000 has more digits than CPython converts to text (4300): the refusal
    names its order of magnitude instead of raising ValueError."""
    with pytest.raises(PreconditionError) as ei:
        require_budget(10**5000, 10, "a huge grid", "cells")
    assert str(ei.value) == "a huge grid: about 10^5000 cells; the budget is 10"

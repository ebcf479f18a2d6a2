"""The one gate every run's size passes: ``errors.check_budget``."""

from __future__ import annotations

import pytest

from bchdenom import errors
from bchdenom.errors import BudgetError


def sizes_of(sized):
    """A size that is its degree, recording each degree it is asked for in ``sized``."""
    return lambda m: sized.append(m) or m


@pytest.mark.parametrize("n, degrees", [(1, [1]), (64, [1, 2, 4, 8, 16, 32, 64]), (100, [1, 2, 4, 8, 16, 32, 64, 100])])
def test_the_gate_sizes_doubling_degrees_then_n(n, degrees):
    sized = []
    assert errors.check_budget(sizes_of(sized), n, "never named", "units") == n
    assert sized == degrees


def test_the_gate_refuses_at_the_first_degree_over_its_limit(monkeypatch):
    sized = []
    with pytest.raises(BudgetError, match="^a run of degree 1000000000 of at least 64 units exceeds the limit 50$"):
        errors.check_budget(sizes_of(sized), 10**9, "a run of degree 1000000000", "units", (50, "the limit 50"))
    assert sized == [1, 2, 4, 8, 16, 32, 64]
    # by default the limit is the scan budget, read when the gate runs; a size equal to it passes
    monkeypatch.setattr(errors, "SCAN_BUDGET", 100)
    assert errors.check_budget(sizes_of([]), 100, "never named", "units") == 100


@pytest.mark.parametrize("n", [101, 128])
def test_a_refusal_at_n_itself_is_worded_exactly(monkeypatch, n):
    # "at least" exactly where a degree below n refused it: 101 is first over at 101, 128 at 128
    monkeypatch.setattr(errors, "SCAN_BUDGET", 100)
    with pytest.raises(BudgetError, match=f"^a run of {n} units exceeds the scan budget 100$"):
        errors.check_budget(sizes_of([]), n, "a run", "units")
    with pytest.raises(BudgetError, match="^a run of at least 128 units exceeds the scan budget 100$"):
        errors.check_budget(sizes_of([]), n + 100, "a run", "units")

"""Shared exception types, and the one scan budget."""

from __future__ import annotations

from collections.abc import Callable

#: The most table entries, words, classes or partitions one scan may hold or
#: visit; ``check_budget`` alone reads it.
SCAN_BUDGET = 1 << 22


class BudgetError(RuntimeError):
    """A requested scan is larger than the scan budget.

    Raised by ``check_budget`` before any enumeration or table allocation
    starts.
    """


def check_budget(size: int, what: str) -> None:
    """Refuse a scan of ``size`` items, ``what`` names them, beyond ``SCAN_BUDGET``."""
    if size > SCAN_BUDGET:
        raise BudgetError(f"{what} exceeds the scan budget {SCAN_BUDGET}")


def probed_count(count: Callable[[int], int], n: int, what: Callable[[int, int], str]) -> int:
    """``count(n)``, for a count that never falls as n grows, once no lower degree refuses n.

    The degrees m = 1, 2, 4, ... below n are counted first, each held to the budget and named
    by ``what(count(m), m)``.  So a refusal costs what counting about twice the budget's own
    degree costs, however large n is, and n's own count is computed only when none refuses.
    It is returned unchecked.
    """
    m = 1
    while m < n:
        size = count(m)
        check_budget(size, what(size, m))
        m *= 2
    return count(n)

"""Shared exception types, and the one scan budget."""

from __future__ import annotations

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

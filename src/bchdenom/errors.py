"""Shared exception types, and the one gate every run's size passes."""

from __future__ import annotations

from collections.abc import Callable

#: The most table entries, words, classes or partitions one scan may hold or
#: visit; ``check_budget`` alone reads it.
SCAN_BUDGET = 1 << 22


class BudgetError(RuntimeError):
    """A requested run is larger than its limit, by default the scan budget.

    Raised by ``check_budget`` before any enumeration, table allocation or
    output starts.
    """


def check_budget(size: Callable[[int], int], n: int, what: str, unit: str, limit: tuple[int, str] | None = None) -> int:
    """``size(n)``, for a size that never falls as n grows, once it is within ``limit``.

    ``limit`` is the largest size allowed and the text that names it, by default ``SCAN_BUDGET``.
    The degrees m = 1, 2, 4, ... below n are sized first, then n itself; the first over the limit
    refuses n, with a ``BudgetError`` worded "<what> of [at least ]<size(m)> <unit> exceeds <limit>",
    "at least" exactly where m < n.  So a refusal costs what sizing about twice the limit's own
    degree costs, however large n is, and n is sized only when no lower degree refuses it.
    """
    largest, name = (SCAN_BUDGET, f"the scan budget {SCAN_BUDGET}") if limit is None else limit
    m = 1
    while True:
        m = min(m, n)
        value = size(m)
        if value > largest:
            least = "at least " if m < n else ""
            raise BudgetError(f"{what} of {least}{value} {unit} exceeds {name}")
        if m == n:
            return value
        m *= 2

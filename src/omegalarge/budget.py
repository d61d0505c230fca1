"""Cooperative budget tokens for long searches."""

from __future__ import annotations


class BudgetExceeded(RuntimeError):
    def __init__(self, stage: str, spent: int):
        super().__init__(f"budget exhausted during {stage} after {spent} steps")
        self.stage = stage
        self.spent = spent


class Budget:
    """Step counter shared across a search; tick() raises when spent.

    The stage label travels with the token so exhaustion reports where the
    search gave up.
    """

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.spent = 0
        self.stage = "search"

    def tick(self, n: int = 1) -> None:
        self.spent += n
        if self.limit is not None and self.spent > self.limit:
            raise BudgetExceeded(self.stage, self.spent)

    def enter(self, stage: str) -> None:
        self.stage = stage


def budget_or_unlimited(budget: Budget | None) -> Budget:
    return budget if budget is not None else Budget(None)

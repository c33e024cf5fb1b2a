"""Evaluation budgets for the brute-force oracles.

Every exhaustive enumeration charges work units against a budget.  In the
table kernel (`fol.CompiledFo`, which also evaluates `semantics.valid_at`)
one unit is one table cell: each evaluation charges every cell of its plan
before it builds any table, so a refusal allocates nothing.  The per-step
checker `stepcheck` charges the same way, one unit per table cell, for each
frame before it builds that frame's tables.  The reference evaluators charge
one unit per node visited (`fol.fo_eval`) and per valuation
(`semantics.iter_valuations`).  When the budget runs out the
oracle raises BudgetExceeded instead of silently truncating: an oracle
result must never be partial.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded

DEFAULT_CAP = 10_000_000
ENV_VAR = "MVCORR_BUDGET"


def default_cap() -> int:
    raw = os.environ.get(ENV_VAR)
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise BudgetExceeded(f"bad {ENV_VAR} value: {raw!r}")
    return DEFAULT_CAP


class Budget:
    """A decrementing work counter shared along one oracle run."""

    def __init__(self, cap: int | None = None):
        self.cap = default_cap() if cap is None else cap
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.cap:
            raise BudgetExceeded(
                f"evaluation budget exceeded ({self.used} > {self.cap})"
            )

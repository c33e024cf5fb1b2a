"""Evaluation budgets for the brute-force oracles.

Every exhaustive enumeration charges work units against a budget.  In the
table kernel (`fol.CompiledFo`, which also evaluates `semantics.valid_at`)
one unit is one table cell: each evaluation charges every cell of its plan
before it builds any table, so a refusal allocates nothing.  The oracle
charges each frame at fixed points: its first-order cells when the scan
reaches the frame, and its degree cells at the frame's first `valid_at`
call; the calls for the frame's other states charge nothing.  A kernel
table may cover a batch of frames, but every frame is still charged its
own cells at those points, and a batch never spans more frames than the
budget left after its first frame's charge can pay for, so `used` and the
point of refusal are those of one table per frame.

The per-step checker `stepcheck` charges the same way, for each frame before
it builds that frame's tables: one unit per cell of each subformula's code
table over its own atoms (a subformula shared by several inequalities
counts once), of each inequality's table over its atoms, of each system's
tables over its axes and of the tables over the shared atoms on which the
two sides are compared (for first-approximation, the source's atoms).  A
cell is a unit however many bytes it takes: code cells are as wide as the
codes need, all others one byte.  The reference evaluator `fol.fo_eval`
charges one unit per node visited.  When the budget runs out the oracle raises
BudgetExceeded instead of silently truncating: an oracle result must never
be partial.  A negative cap, given or from MVCORR_BUDGET, raises
ValueError.
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
            cap = int(raw)
            if cap < 0:
                raise ValueError
        except ValueError:
            raise ValueError(f"bad {ENV_VAR} value: {raw!r}") from None
        return cap
    return DEFAULT_CAP


class Budget:
    """A decrementing work counter shared along one oracle run."""

    def __init__(self, cap: int | None = None):
        if cap is not None and cap < 0:
            raise ValueError(f"budget cap must not be negative, got {cap}")
        self.cap = default_cap() if cap is None else cap
        self.used = 0

    def charge(self, amount: int = 1) -> None:
        self.used += amount
        if self.used > self.cap:
            raise BudgetExceeded(
                f"evaluation budget exceeded ({self.used} > {self.cap})"
            )

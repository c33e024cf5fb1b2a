"""Evaluation budgets for the brute-force oracles.

Every exhaustive enumeration charges work units against a budget.  In the
table kernel (`fol.CompiledFo`, which also evaluates `semantics.valid_at`)
one unit is one table cell: each evaluation charges every cell of its plan
before it builds any table, so a refusal allocates nothing.  The oracle
charges each frame when the scan reaches it, tabulated (an orbit minimum
or a sample) or not: its first-order cells, then its degree cells (for
`fo_agree`, the left side's, then the right's); a side whose formula has
free individual symbols other than x is tabulated as its universal closure
over them, whose fold tables are charged too.  A kernel table may cover
a batch of minima, never more than the budget left after its first
frame's charge can pay for.  The frames past one the scan has reached, up
to the end of both sides' runs or their first disagreement, are charged in
one sum when it fits under `cap`, and otherwise up to the frame refused,
so `used` and the point of refusal are those of one table per frame.  The
re-read of a counterexample's state is not charged, nor is the search for
orbit minima, which runs once per process and frame size and group, as
far as any scan has read, and stops at five states, where a frame's
renamings still cost less than most tables.

The per-step checker `stepcheck` charges every frame one unit per cell of
each subformula's table over its own atoms (atoms included; a subformula
shared by several inequalities counts once), of each inequality's table
over its atoms, of each system's tables over its axes and of the tables
over the shared atoms on which the two sides are compared (for
first-approximation, the source's atoms), whatever the state axis: a bound
on what it builds.  It builds a batch of same-size frames at once, under
`fol.BATCH_CELLS` and the budget left after the first frame's charge, paid
before building; the later frames are charged once the batch is checked, up
to the first that fails, as if checked one at a time.  The reference
evaluator `fol.fo_eval` charges one unit per node visited.  When the budget
runs out the oracle raises BudgetExceeded instead of silently truncating:
an oracle result must never be partial.  A negative cap, given or from
MVCORR_BUDGET, raises ValueError.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded

DEFAULT_CAP = 50_000_000
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

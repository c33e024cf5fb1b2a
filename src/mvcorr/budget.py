"""Evaluation budgets for the brute-force verifiers, and the one rule by
which both batch and charge their frames.

Every exhaustive enumeration charges work units against a budget.  In the
table kernel (`fol.CompiledFo`, which also evaluates `semantics.valid_at`)
one unit is one cell of a formula's plan.  The oracle builds two sides per
frame, charged in the caller's order: the first-order side, then the degree
claim, or for `fo_agree` the left side, then the right; a side whose
formula has free individual symbols other than x is tabulated as its
universal closure over them, fold tables included.  The per-step checker
`stepcheck` makes one build per frame: one unit per cell of each
subformula's table over its own atoms (atoms included; a subformula shared
by several inequalities counts once), of each inequality's table over its
atoms, of each system's tables over its axes and of the tables over the
shared atoms on which the two sides are compared (for first-approximation,
the source's atoms), whatever the state axis: a bound on what it builds.
The reference evaluator `fol.fo_eval` charges one unit per node visited.

Both verifiers check each run of same-size frames with `scan`, in batches
of 16, 32, 64, ... frames, each within `BATCH_CELLS` cells for its widest
build and no longer than the budget left after its first frame can pay
for.  That first frame is charged build by build before anything is built;
once the batch's two verdict strings are compared, the frames after it are
charged up to the first disagreement, in one sum or up to the frame and
build the budget refuses.  A tabulated frame stands for the untabulated
frames after it (the oracle's orbit minima), counted and charged with it.
So `used`, the counts and the point of refusal are those of one table per
frame, checked in order.  The oracle's re-read of a counterexample and its
search for orbit minima are not charged.  When the budget runs out a
verifier raises BudgetExceeded: a result is never partial.  A negative cap,
given or from MVCORR_BUDGET, raises ValueError.
"""

from __future__ import annotations

import os
from itertools import chain, islice
from typing import Callable, Iterable, Optional, Sequence

from .errors import BudgetExceeded

DEFAULT_CAP = 50_000_000
ENV_VAR = "MVCORR_BUDGET"

# the ceiling on the cells of a batch's widest build; a batch of one frame
# may pass it, as one frame always could
BATCH_CELLS = 1 << 16


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


def scan(numbers: Iterable[int], total: int, builds: Sequence[int], budget: Budget,
         verdicts: Callable[[int, int], tuple[bytes, bytes]]
         ) -> tuple[int, Optional[tuple[int, int, int, int, int]]]:
    """Check a run of `total` frames of one size, batch by batch.  `numbers`
    are the places, increasing, of the frames tabulated; `builds` a frame's
    charges, in order; `verdicts(i, k)` builds tabulated frames i to
    i + k - 1 and gives their two verdict strings, in equal slices per
    frame.  The frames counted, and at the first disagreement the frame's
    place, its index in the batch, the byte's offset in its slice and the
    two bytes there."""
    per, places = sum(builds), chain(numbers, [total])
    # a short first batch leaves few frames built past an early disagreement
    counted, i, take, first = 0, 0, 16, next(places)
    while first < total:
        for cells in builds:
            budget.charge(cells)
        room = min(take, max(BATCH_CELLS // max(builds), 1), 1 + (budget.cap - budget.used) // per)
        batch = [first, *islice(places, room)]  # the batch's places, then the next
        k = len(batch) - 1
        lhs, rhs = verdicts(i, k)
        j = len(lhs) if lhs == rhs else next(j for j, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
        d, cell = divmod(j, len(lhs) // k)  # d == k where all agree
        covered = (batch[d] + 1 if d < k else batch[k]) - first
        paid = min(covered - 1, (budget.cap - budget.used) // per)
        budget.charge(paid * per)
        if paid < covered - 1:
            for cells in builds:
                budget.charge(cells)  # one of them raises
        counted += covered
        if d < k:
            return counted, (batch[d], d, cell, lhs[j], rhs[j])
        i, first, take = i + k, batch[k], 2 * take
    return counted, None

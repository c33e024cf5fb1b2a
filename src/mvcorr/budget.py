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
charged up to the first place a disagreement implies, in one sum or up to
the frame and build the budget refuses.  A tabulated frame stands for the
untabulated frames after it (the oracle's orbit minima), counted and
charged with it, and its disagreement may imply a first disagreeing frame
after it (the oracle's image of a minimum under an automorphism that
moves the thresholds): the scan keeps the least place implied and goes on
while the next tabulated frame comes before it.  Stepcheck's places are
its own frames.  So `used`, the counts and the point of refusal are those
of one table per frame, checked in order.  The oracle's re-read of a
counterexample and its search for orbit minima are not charged.  When the
budget runs out a verifier raises BudgetExceeded: a result is never
partial.  A negative cap, given or from MVCORR_BUDGET, raises ValueError.
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
         verdicts: Callable[[int, int], tuple[bytes, bytes]],
         implied: Callable[[int, int, bytes, bytes], int] = lambda place, *_: place,
         ) -> tuple[int, Optional[tuple[int, int, int, int]]]:
    """Check a run of `total` frames of one size, batch by batch.  `numbers`
    are the places, increasing, of the frames tabulated; `builds` a frame's
    charges, in order; `verdicts(i, k)` builds tabulated frames i to
    i + k - 1 and gives their two verdict strings, in equal slices per
    frame; `implied(place, d, lhs, rhs)` the place of the first frame that
    the disagreeing slices of the batch's d-th frame, at `place`, imply,
    never before it (by default that frame).  The frames counted, and at
    the least implied place the place, and in the slices that implied it
    the first differing byte's offset and the two bytes there."""
    per, places = sum(builds), chain(numbers, [total])
    # a short first batch leaves few frames built past an early disagreement
    counted, i, take, first, found = 0, 0, 16, next(places), None
    while first < total:
        for cells in builds:
            budget.charge(cells)
        room = min(take, max(BATCH_CELLS // max(builds), 1), 1 + (budget.cap - budget.used) // per)
        batch = [first, *islice(places, room)]  # the batch's places, then the next
        k = len(batch) - 1
        lhs, rhs = verdicts(i, k)
        span = len(lhs) // k
        for d in range(k) if lhs != rhs else ():
            if found and found[0] <= batch[d]:
                break
            left, right = lhs[d * span:(d + 1) * span], rhs[d * span:(d + 1) * span]
            if left != right:
                place = implied(batch[d], d, left, right)
                if not found or place < found[0]:
                    j = next(j for j in range(span) if left[j] != right[j])
                    found = place, j, left[j], right[j]
        # the frames before the next tabulated one, or up to the place found
        covered = (batch[k] if not found or found[0] >= batch[k] else found[0] + 1) - first
        paid = min(covered - 1, (budget.cap - budget.used) // per)
        budget.charge(paid * per)
        if paid < covered - 1:
            for cells in builds:
                budget.charge(cells)  # one of them raises
        counted += covered
        if found and found[0] < batch[k]:
            return counted, found
        i, first, take = i + k, batch[k], 2 * take
    return counted, None

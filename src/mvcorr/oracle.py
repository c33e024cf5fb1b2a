"""Exhaustive finite-frame correspondence checking.

The oracle enumerates every frame of the requested sizes (all accessibility
matrices over the algebra, in lexicographic order) plus optional seeded
random samples, and compares modal a-validity against first-order a-truth
at every state.  It returns either a pass report or the first
counterexample in enumeration order, never a silently partial verdict.

Frames come in batches, runs of at most `BATCH_FRAMES` consecutive frames
of one size, so that each side tabulates many frames with one run of the
kernel (`fol.CompiledFo`, `semantics.valid_at`); the scan itself still
goes frame by frame and state by state, and charges each frame's cells
when it reaches that frame.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, product
from typing import Callable, Iterable, Iterator, Optional

from .budget import Budget
from .errors import MvcorrError
from .fol import (
    _X,
    CompiledFo,
    Fo,
    free_individual_symbols,
    has_pred_nodes,
    interp_for_frame,
)
from .heyting import HeytingAlgebra
from .randomgen import random_frame
from .semantics import Frame, valid_at
from .syntax import Formula, Inequality


# a run of frames of one size comes in batches of 16, 32, ... frames, at
# most BATCH_FRAMES: one kernel run then tabulates many frames, while a
# counterexample early in a run leaves few frames built past it
BATCH_FRAMES = 128

# a frame's first-order or modal side: given a batch, the frame's verdict
# per state, for each frame index of the batch in turn
Side = Callable[[list[Frame]], Callable[[int], Callable[[int], bool]]]


def iter_frames(alg: HeytingAlgebra, size: int) -> Iterator[Frame]:
    """All frames with `size` states, lexicographic in the matrix entries."""
    states = tuple(f"w{i}" for i in range(size))
    starts = range(0, size * size, size)
    for flat in product(range(alg.n), repeat=size * size):
        yield Frame(alg, states, tuple(flat[i:i + size] for i in starts))


def sample_frames(
    alg: HeytingAlgebra, size: int, count: int, seed: int
) -> list[Frame]:
    rng = random.Random(seed)
    return [random_frame(rng, alg, size) for _ in range(count)]


@dataclass
class Counterexample:
    frame: Frame
    state: int
    modal_verdict: bool
    fo_verdict: bool

    def describe(self) -> str:
        rel = [
            [self.frame.algebra.element_name(v) for v in row]
            for row in self.frame.rel
        ]
        return (
            f"state {self.frame.states[self.state]} of frame {rel}: "
            f"modal side {self.modal_verdict}, first-order side {self.fo_verdict}"
        )


@dataclass
class OracleReport:
    passed: bool
    frames_checked: int
    states_checked: int
    counterexample: Optional[Counterexample] = None

    def describe(self) -> str:
        if self.passed:
            return (
                f"PASS ({self.frames_checked} frames, "
                f"{self.states_checked} state checks)"
            )
        assert self.counterexample is not None
        return f"FAIL at {self.counterexample.describe()}"


def correspondence_oracle(
    alg: HeytingAlgebra,
    target: Formula | Inequality,
    a: int,
    alpha: Fo,
    sizes: Iterable[int],
    samples: int = 0,
    sample_size: int = 3,
    seed: int = 0,
    budget: Budget | None = None,
    fo_threshold: int | None = None,
) -> OracleReport:
    """Check that `alpha[x := w]` tracks local a-validity of `target`.

    `fo_threshold` overrides the degree demanded of the first-order side;
    it defaults to `a` and is set to top for crisp formulas produced by
    translation pipelines.
    """
    if has_pred_nodes(alpha):
        raise MvcorrError("correspondent must not contain free predicate symbols")
    threshold = a if fo_threshold is None else fo_threshold
    budget = Budget() if budget is None else budget

    def modal(batch: list[Frame]):
        def at(i: int):
            frame = batch[i]
            return lambda w: valid_at(frame, target, w, a, budget, batch)

        return at

    return _first_disagreement(
        _frames(alg, sizes, samples, sample_size, seed),
        modal,
        _local_truth(alpha, threshold, budget),
    )


def fo_agree(
    alg: HeytingAlgebra,
    alpha: Fo,
    beta: Fo,
    sizes: Iterable[int],
    threshold_alpha: int,
    threshold_beta: int,
    samples: int = 0,
    sample_size: int = 3,
    seed: int = 0,
    budget: Budget | None = None,
) -> OracleReport:
    """Pointwise agreement of two local first-order conditions."""
    budget = Budget() if budget is None else budget
    return _first_disagreement(
        _frames(alg, sizes, samples, sample_size, seed),
        _local_truth(alpha, threshold_alpha, budget),
        _local_truth(beta, threshold_beta, budget),
    )


def _frames(
    alg: HeytingAlgebra, sizes: Iterable[int], samples: int, sample_size: int,
    seed: int,
) -> Iterator[list[Frame]]:
    """The frames of every size asked for, then the seeded samples, in
    batches of consecutive frames of one size, each built when the scan
    reaches it, so a counterexample ends the enumeration.  A request for
    frames without states raises ValueError at once."""
    sizes = list(sizes)
    if any(size < 1 for size in sizes):
        raise ValueError(f"frame sizes must be at least 1, got {sizes}")
    if samples < 0:
        raise ValueError(f"sample count must not be negative, got {samples}")
    if samples and sample_size < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_size}")

    def batches(frames: Iterable[Frame]) -> Iterator[list[Frame]]:
        frames, count = iter(frames), min(16, BATCH_FRAMES)
        while batch := list(islice(frames, count)):
            yield batch
            count = min(2 * count, BATCH_FRAMES)

    def frames() -> Iterator[list[Frame]]:
        for size in sizes:
            yield from batches(iter_frames(alg, size))
        if samples:
            yield from batches(sample_frames(alg, sample_size, samples, seed))

    return frames()


def _first_disagreement(
    batches: Iterable[list[Frame]], left: Side, right: Side
) -> OracleReport:
    """Compare two per-state verdicts, frame by frame and state by state."""
    frames_checked = states_checked = 0
    for batch in batches:
        left_in, right_in = left(batch), right(batch)
        for i, frame in enumerate(batch):
            frames_checked += 1
            left_at, right_at = left_in(i), right_in(i)
            for w in range(frame.size):
                states_checked += 1
                lv, rv = left_at(w), right_at(w)
                if lv != rv:
                    return OracleReport(
                        False, frames_checked, states_checked,
                        Counterexample(frame, w, lv, rv),
                    )
    return OracleReport(True, frames_checked, states_checked)


def _local_truth(alpha: Fo, threshold: int, budget: Budget) -> Side:
    """Per frame, the states at which a condition on x holds to degree
    `threshold` under every assignment of its other free symbols.  One
    `CompiledFo` tabulates a run of the batch's frames; each later frame
    of the run is charged its cells when the scan reaches it."""
    open_syms = sorted((t for t in free_individual_symbols(alpha) if t != _X), key=str)

    def per_batch(batch: list[Frame]) -> Callable[[int], Callable[[int], bool]]:
        evaluator, first = None, 0

        def at(i: int) -> Callable[[int], bool]:
            nonlocal evaluator, first
            if evaluator is None or i - first >= evaluator.frames:
                evaluator = CompiledFo(interp_for_frame(batch[i]), alpha, budget,
                                       islice(batch, i + 1, None))
                first = i
            elif budget is not None:
                budget.charge(evaluator.cells)
            value, k, size = evaluator.value, i - first, batch[i].size
            le = batch[i].algebra.le

            def holds(w: int) -> bool:
                for combo in product(range(size), repeat=len(open_syms)):
                    env = {_X: w}
                    env.update(zip(open_syms, combo))
                    if not le(threshold, value(env, k)):
                        return False
                return True

            return holds

        return at

    return per_batch

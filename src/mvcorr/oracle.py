"""Exhaustive finite-frame correspondence checking.

The oracle enumerates every frame of the requested sizes (all accessibility
matrices over the algebra, in lexicographic order) plus optional seeded
random samples, and compares modal a-validity against first-order a-truth
at every state.  It returns either a pass report or the first
counterexample in enumeration order, never a silently partial verdict.

Both sides are a formula with x free at a threshold: the candidate, and
the target's `fol.degree_claim` at a (a-valid at w iff a is below the
degree at w).  One kernel run (`fol.CompiledFo`) tabulates a batch of at
most `BATCH_FRAMES` frames of one size, and a byte mask turns its table
into one 0/1 verdict byte per state.  The scan compares the sides' bytes
frame by frame, charging each frame's cells when it reaches the frame;
a counterexample is read again, uncharged, through the per-state API.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, product
from typing import Callable, Iterable, Iterator, Optional

from .budget import Budget
from .errors import MvcorrError, UnboundSymbol
from .fol import (
    _X,
    CompiledFo,
    Fo,
    degree_claim,
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

# per batch, a side's verdict bytes of frame i and a re-read of state w of frame i
Side = Callable[[list[Frame]], tuple[Callable[[int], bytes], Callable[[int, int], bool]]]


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
    degree = _local_truth(degree_claim(target), a, budget)

    def modal(batch: list[Frame]):
        return degree(batch)[0], lambda i, w: valid_at(batch[i], target, w, a)

    return _first_disagreement(
        _frames(alg, sizes, samples, sample_size, seed),
        modal,
        _local_truth(alpha, threshold, budget),
        right_first=True,  # each frame's first-order side is charged first
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
    """The frames of every size asked for, once, then the seeded samples, in
    batches of consecutive frames of one size, each built when the scan
    reaches it, so a counterexample ends the enumeration.  A request for
    frames without states raises ValueError at once."""
    sizes = list(dict.fromkeys(sizes))
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
    batches: Iterable[list[Frame]], left: Side, right: Side, right_first: bool = False
) -> OracleReport:
    """Compare two sides frame by frame, reading (and charging) the left one
    first unless `right_first`; the first disagreement is re-read per state."""
    frames_checked = states_checked = 0
    for batch in batches:
        (left_at, left_read), (right_at, right_read) = left(batch), right(batch)
        for i, frame in enumerate(batch):
            frames_checked += 1
            lv, rv = (right_at(i), left_at(i))[::-1] if right_first else (left_at(i), right_at(i))
            if lv == rv:
                states_checked += len(lv)
                continue
            w = next(w for w, (x, y) in enumerate(zip(lv, rv)) if x != y)
            verdicts = left_read(i, w), right_read(i, w)
            if verdicts != (lv[w] == 1, rv[w] == 1):
                raise AssertionError(f"re-read {verdicts} against table bytes {lv[w]}, {rv[w]}")
            return OracleReport(False, frames_checked, states_checked + w + 1,
                                Counterexample(frame, w, *verdicts))
    return OracleReport(True, frames_checked, states_checked)


def _local_truth(formula: Fo, threshold: int, budget: Budget) -> Side:
    """Per frame, the states at which a condition on x holds to degree
    `threshold` under every assignment of its other free individual
    symbols; frames past a run's first are charged when the scan reaches them."""
    open_syms = sorted((t for t in free_individual_symbols(formula) if t != _X), key=str)

    def per_batch(batch: list[Frame]):
        alg, size = batch[0].algebra, batch[0].size
        mask = bytes(alg.le(threshold, v) for v in range(alg.n)).ljust(256, b"\0")
        evaluator, first, table = None, 0, b""

        def at(i: int) -> bytes:
            nonlocal evaluator, first, table
            if evaluator is None or i - first >= evaluator.frames:
                evaluator = CompiledFo(interp_for_frame(batch[i]), formula, budget,
                                       islice(batch, i + 1, None))
                first, table = i, evaluator.table.translate(mask)
                strides = {sym: stride for sym, stride, _ in evaluator.root}
                if unbound := strides.keys() - {_X, *open_syms}:
                    raise UnboundSymbol(f"free symbol {min(map(str, unbound))} is unbound")
                span, stride = evaluator.span, strides.get(_X, 0)
                if (span, stride) != (size, 1):  # other axes than x's
                    table = b"".join([_every_assignment(table[k:k + span], stride, size)
                                      for k in range(0, len(table), span)])
            else:
                budget.charge(evaluator.cells)
            k = (i - first) * size
            return table[k:k + size]

        def reread(i: int, w: int) -> bool:
            return all(
                alg.le(threshold, evaluator.value({_X: w, **dict(zip(open_syms, c))}, i - first))
                for c in product(range(size), repeat=len(open_syms)))

        return at, reread

    return per_batch


def _every_assignment(cells: bytes, stride: int, size: int) -> bytes:
    """Per state of x, 1 when every cell of the 0/1 table `cells` with x at
    that state is 1; x's `stride` is 0 when x is not among its axes."""
    if not stride:
        return bytes([0 not in cells]) * size
    acc, block = -1, stride * size  # 0/1 bytes meet as the and of their integers
    for j in range(0, len(cells), block):
        for r in range(j, j + stride):
            acc &= int.from_bytes(cells[r:j + block:stride], "little")
    return acc.to_bytes(size, "little")

"""Exhaustive finite-frame correspondence checking.

The oracle enumerates every frame of the requested sizes (all accessibility
matrices over the algebra, in lexicographic order) plus optional seeded
random samples, and compares modal a-validity against first-order a-truth
at every state.  It returns either a pass report or the first
counterexample in enumeration order, never a silently partial verdict.

Frames are enumerated as their relations' `fol.relation_bytes`, in
batches of at most `BATCH_FRAMES` frames of one size that both sides
read.  Both sides are a formula with x free at a threshold: the
candidate, and the target's `fol.degree_claim` at a (a-valid at w iff a
is below the degree at w).  A kernel run (`fol.CompiledFo`) tabulates
consecutive frames of a batch, and a byte mask turns its table into one
0/1 verdict byte per state.  The scan compares the sides' bytes a whole
common run at a time, charging as if frame by frame (see `budget`).
Besides one per kernel run for its interpretation, only a counterexample
gets a `Frame`, from `iter_frames` (the reference for the enumeration
order) or the samples, and is read again, uncharged, through the
per-state API.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, islice, product
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
    relation_bytes,
)
from .heyting import HeytingAlgebra
from .randomgen import random_frame
from .semantics import Frame, valid_at
from .syntax import Formula, Inequality


# a run of frames of one size comes in batches of 16, 32, ... frames, at
# most BATCH_FRAMES: one kernel run then tabulates many frames, while a
# counterexample early in a run leaves few frames enumerated past it
BATCH_FRAMES = 128

# a batch: its frames' size, their `relation_bytes` and the `Frame` of its frame k
Batch = tuple[int, list[bytes], Callable[[int], Frame]]


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
    modal = _Truth(alg, degree_claim(target), a, budget,
                   lambda frame, i, w: valid_at(frame, target, w, a))
    return _first_disagreement(
        _frames(alg, sizes, samples, sample_size, seed),
        modal,
        _Truth(alg, alpha, threshold, budget),
        budget,
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
        _Truth(alg, alpha, threshold_alpha, budget),
        _Truth(alg, beta, threshold_beta, budget),
        budget,
    )


def _frames(
    alg: HeytingAlgebra, sizes: Iterable[int], samples: int, sample_size: int,
    seed: int,
) -> Iterator[Batch]:
    """The frames of every size asked for, once, then the seeded samples, in
    batches of consecutive frames of one size, each batch's relations made
    when the scan reaches it, so a counterexample ends the enumeration.  A
    request for frames without states raises ValueError at once."""
    sizes = list(dict.fromkeys(sizes))
    if any(size < 1 for size in sizes):
        raise ValueError(f"frame sizes must be at least 1, got {sizes}")
    if samples < 0:
        raise ValueError(f"sample count must not be negative, got {samples}")
    if samples and sample_size < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_size}")

    def batches(size: int, rels: Iterable[bytes], frame: Callable[[int], Frame]):
        rels, start, count = iter(rels), 0, min(16, BATCH_FRAMES)
        while batch := list(islice(rels, count)):
            yield size, batch, lambda k, start=start: frame(start + k)
            start, count = start + len(batch), min(2 * count, BATCH_FRAMES)

    def frames() -> Iterator[Batch]:
        for size in sizes:
            # in `iter_frames` order, which alone builds a counterexample's frame
            yield from batches(size, map(relation_bytes, product(range(alg.n), repeat=size * size)),
                               lambda k, size=size: next(islice(iter_frames(alg, size), k, None)))
        if samples:
            drawn = sample_frames(alg, sample_size, samples, seed)
            yield from batches(sample_size, [relation_bytes(chain.from_iterable(f.rel))
                                             for f in drawn], drawn.__getitem__)

    return frames()


def _first_disagreement(
    batches: Iterable[Batch], left: _Truth, right: _Truth, budget: Budget,
    right_first: bool = False,
) -> OracleReport:
    """Compare two sides one common kernel run at a time, reading (and
    charging) the left one first unless `right_first`.  The frames of a
    run past its first are compared in one `==` and charged at once when
    the budget can pay for them all, else frame by frame; the first
    disagreement is re-read per state on its `Frame`."""
    frames_checked = states_checked = 0
    order = (right, left) if right_first else (left, right)
    for size, rels, frame in batches:
        i = 0
        while i < len(rels):
            for side in order:
                side.read(size, rels, i)
            end = min(left.end, right.end)
            rest = (end - i - 1) * (left.cells + right.cells)
            if budget.used + rest > budget.cap or left.verdicts(i, end) != right.verdicts(i, end):
                end, rest = i + 1, 0
                lv, rv = left.verdicts(i, end), right.verdicts(i, end)
                if lv != rv:
                    w = next(w for w, (x, y) in enumerate(zip(lv, rv)) if x != y)
                    found = frame(i)
                    verdicts = left.reread(found, i, w), right.reread(found, i, w)
                    if verdicts != (lv[w] == 1, rv[w] == 1):
                        raise AssertionError(f"re-read {verdicts} against table bytes {lv[w]}, {rv[w]}")
                    if relation_bytes(chain.from_iterable(found.rel)) != rels[i]:
                        raise AssertionError(f"frame {i} of the batch is not {found.rel}")
                    return OracleReport(False, frames_checked + 1, states_checked + w + 1,
                                        Counterexample(found, w, *verdicts))
            budget.charge(rest)
            frames_checked += end - i
            states_checked += (end - i) * size
            i = end
    return OracleReport(True, frames_checked, states_checked)


class _Truth:
    """One side of the scan: per frame, the states at which a condition on x
    holds to degree `threshold` under every assignment of its other free
    individual symbols, one 0/1 byte each, one kernel run of consecutive
    frames at a time; `reread(frame, i, w)` reads one again, uncharged."""

    def __init__(self, alg: HeytingAlgebra, formula: Fo, threshold: int, budget: Budget,
                 reread: Callable[[Frame, int, int], bool] | None = None):
        self.alg, self.formula, self.threshold, self.budget = alg, formula, threshold, budget
        self.open_syms = sorted((t for t in free_individual_symbols(formula) if t != _X), key=str)
        self.mask = bytes(alg.le(threshold, v) for v in range(alg.n)).ljust(256, b"\0")
        self.rels = None
        if reread is not None:
            self.reread = reread

    def read(self, size: int, rels: list[bytes], i: int) -> None:
        """Frame i's charge, the run's cells, or past the current run a new
        kernel run from frame i, whose kernel charges its first frame."""
        if rels is self.rels and i < self.end:
            self.budget.charge(self.cells)
            return
        rel = rels[i]
        frame = Frame(self.alg, tuple(f"w{k}" for k in range(size)),
                      tuple(tuple(rel[k:k + size]) for k in range(0, size * size, size)))
        evaluator = self.evaluator = CompiledFo(interp_for_frame(frame), self.formula,
                                                self.budget, islice(rels, i + 1, None))
        self.size, self.rels, self.first, self.end = size, rels, i, i + evaluator.frames
        self.cells = evaluator.cells
        table = evaluator.table.translate(self.mask)
        strides = {sym: stride for sym, stride, _ in evaluator.root}
        if unbound := strides.keys() - {_X, *self.open_syms}:
            raise UnboundSymbol(f"free symbol {min(map(str, unbound))} is unbound")
        span, stride = evaluator.span, strides.get(_X, 0)
        if (span, stride) != (size, 1):  # other axes than x's
            table = b"".join([_every_assignment(table[k:k + span], stride, size)
                              for k in range(0, len(table), span)])
        self.table = table

    def verdicts(self, i: int, end: int) -> bytes:
        """The verdict bytes of frames i to end - 1 of the current run."""
        return self.table[(i - self.first) * self.size:(end - self.first) * self.size]

    def reread(self, frame: Frame, i: int, w: int) -> bool:
        return all(
            self.alg.le(self.threshold, self.evaluator.value(
                {_X: w, **dict(zip(self.open_syms, c))}, i - self.first))
            for c in product(range(self.size), repeat=len(self.open_syms)))


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

"""Exhaustive finite-frame correspondence checking.

The oracle enumerates every frame of the requested sizes (all accessibility
matrices over the algebra, in lexicographic order) plus optional seeded
random samples, and compares modal a-validity against first-order a-truth
at every state.  It returns either a pass report or the first
counterexample in enumeration order, never a silently partial verdict.

Both sides are a formula with x free at a threshold, invariant under
renaming the states: the candidate, and the target's `fol.degree_claim`
at a (a-valid at w iff a is below the degree at w).  A candidate is read
under every assignment sending x to w: its side tabulates the universal
closure over its other free individual symbols, whose fold tables are
cells like any other (a sentence has one verdict per frame, repeated at
every state).  Both sides also keep their verdicts under the algebra's
automorphisms that fix both thresholds and every truth constant
(`_symmetries`), applied to every cell.  Of each size up to five states
only the minima of the orbits under renamings times those automorphisms
are tabulated (`_orbit_minima`, searched once per process), in batches
of at most `BATCH_FRAMES` `fol.relation_bytes`; a frame between them,
which disagrees exactly when its minimum (enumerated before it) does, is
counted and charged as if read, so the first counterexample, counts,
charges and refusals are those of one table per frame (see `budget`).
A kernel run (`fol.CompiledFo`) tabulates consecutive frames of a batch,
masked to one 0/1 verdict byte per state and compared a run at a time.
Besides one per kernel run for its interpretation, only a counterexample
gets a `Frame`, from `iter_frames` (the reference for the enumeration
order) or the samples, and is read again, uncharged, per state.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import chain, compress, islice, permutations, product, repeat
from math import factorial
from operator import floordiv, itemgetter, le, mod
from threading import Lock
from typing import Callable, Iterable, Iterator, Optional

from .budget import Budget
from .errors import MvcorrError, UnboundSymbol
from .fol import (
    _X,
    CompiledFo,
    Fo,
    Forall,
    degree_claim,
    free_individual_symbols,
    free_pred_names,
    interp_for_frame,
    relation_bytes,
    truth_constants,
)
from .heyting import HeytingAlgebra
from .randomgen import random_frame
from .semantics import Frame, valid_at
from .syntax import Formula, Inequality


# a run of frames of one size comes in batches of 16, 32, ... frames, at
# most BATCH_FRAMES: one kernel run then tabulates many frames, while a
# counterexample early in a run leaves few frames enumerated past it
BATCH_FRAMES = 128

# a batch: its frames' size, `relation_bytes` and numbers (then the next's), frame k's `Frame`
Batch = tuple[int, list[bytes], list[int], Callable[[int], Frame]]


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


@dataclass(slots=True)
class Counterexample:
    frame: Frame
    state: int
    modal_verdict: bool  # the left side's verdict
    fo_verdict: bool  # the right side's verdict
    sides: tuple[str, str]  # what `describe` calls the left and right side

    def describe(self) -> str:
        rel = [
            [self.frame.algebra.element_name(v) for v in row]
            for row in self.frame.rel
        ]
        return (
            f"state {self.frame.states[self.state]} of frame {rel}: "
            f"{self.sides[0]} {self.modal_verdict}, {self.sides[1]} {self.fo_verdict}"
        )


@dataclass(slots=True)
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
    if free_pred_names(alpha):
        raise MvcorrError("correspondent must not contain free predicate symbols")
    threshold = a if fo_threshold is None else fo_threshold
    budget = Budget() if budget is None else budget
    modal = _Truth(alg, degree_claim(target), a, budget,
                   lambda frame, i, w: valid_at(frame, target, w, a))
    fo = _Truth(alg, alpha, threshold, budget)
    return _first_disagreement(
        _frames(alg, sizes, samples, sample_size, seed, _symmetries(alg, modal, fo)),
        modal,
        fo,
        budget,
        ("modal side", "first-order side"),
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
    """Pointwise agreement of two local first-order conditions, alpha the left side."""
    budget = Budget() if budget is None else budget
    left = _Truth(alg, alpha, threshold_alpha, budget)
    right = _Truth(alg, beta, threshold_beta, budget)
    return _first_disagreement(
        _frames(alg, sizes, samples, sample_size, seed, _symmetries(alg, left, right)),
        left,
        right,
        budget,
        ("left side", "right side"),
    )


def _symmetries(alg: HeytingAlgebra, *sides: _Truth) -> tuple[bytes, ...]:
    """The automorphisms of `alg` other than the identity that fix each
    side's threshold and truth constants: every verdict on a frame is the
    verdict on its image under any of them."""
    fixed = set().union(*(side.constants for side in sides))
    return tuple(s for s in alg.automorphisms[1:] if all(s[v] == v for v in fixed))


def _frames(
    alg: HeytingAlgebra, sizes: Iterable[int], samples: int, sample_size: int,
    seed: int, group: tuple[bytes, ...],
) -> Iterator[Batch]:
    """The `_orbit_minima` of every size asked for, once, then the seeded
    samples, in batches of one size made as the scan reaches them.  A size
    whose renamings times `group` and the identity pass `MAX_GROUP` drops
    `group`.  A request for frames without states raises ValueError at
    once."""
    sizes = list(dict.fromkeys(sizes))
    if any(size < 1 for size in sizes):
        raise ValueError(f"frame sizes must be at least 1, got {sizes}")
    if samples < 0:
        raise ValueError(f"sample count must not be negative, got {samples}")
    if samples and sample_size < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_size}")

    def batches(size: int, places: Iterator[int], rels: Callable, frame: Callable):
        # `places`: the numbers of the frames to tabulate, then the frame count
        take, first = min(16, BATCH_FRAMES), next(places)
        while len(batch := [first, *islice(places, take)]) > 1:
            yield size, rels(batch[:-1]), batch, lambda k, b=batch: frame(b[k])
            first, take = batch[-1], min(2 * take, BATCH_FRAMES)

    def frames() -> Iterator[Batch]:
        for size in sizes:
            kept = group if factorial(size) * (len(group) + 1) <= MAX_GROUP else ()
            # in `iter_frames` order, which alone builds a counterexample's frame
            yield from batches(size, chain(_orbit_minima(alg.n, size, kept),
                                           [alg.n ** (size * size)]),
                               lambda numbers, size=size: _relations(alg.n, size, numbers),
                               lambda p, size=size: next(islice(iter_frames(alg, size), p, None)))
        if samples:
            drawn = sample_frames(alg, sample_size, samples, seed)
            yield from batches(sample_size, iter(range(samples + 1)), lambda numbers: [
                relation_bytes(chain.from_iterable(drawn[p].rel)) for p in numbers],
                drawn.__getitem__)

    return frames()


# the most images a frame is compared with: its renamings up to five
# states, where they still cost less than tabulating it
MAX_GROUP = 120


class _Minima:
    """The orbit minima of one (n, size, group) found so far, in a compact
    array, and the search that finds the next ones."""

    def __init__(self, n: int, size: int, group: tuple[bytes, ...]):
        self.numbers = array("Q")
        self.search = _search(n, size, group)
        self.lock = Lock()

    def past(self, read: int) -> bool:
        """Whether there are more than `read` minima, searching as far as
        the next one if need be."""
        with self.lock:
            while len(self.numbers) <= read:
                chunk = next(self.search, None)
                if chunk is None:
                    return False
                self.numbers.extend(chunk)
            return True


# every minima search of the process, kept as far as a scan has read it
_MINIMA: dict[tuple[int, int, tuple[bytes, ...]], _Minima] = {}


def _orbit_minima(n: int, size: int, group: tuple[bytes, ...]) -> Iterator[int]:
    """The numbers in `iter_frames` order of the frames over n elements whose
    cells are the least of their orbit (McKay, J. Algorithms 1998) under
    renaming the states and applying the element maps of `group`, searched
    once per process and only as far as any scan reads.  Past five states,
    where a frame's size! - 1 renamings (719 at six) can cost more than
    tabulating it, every frame."""
    if factorial(size) > MAX_GROUP:
        yield from range(n ** (size * size))
        return
    key = (n, size, group)
    minima = _MINIMA.get(key)
    if minima is None:
        minima = _MINIMA.setdefault(key, _Minima(n, size, group))
    i = 0
    while minima.past(i):
        chunk = minima.numbers[i:i + 4096]
        i += len(chunk)
        yield from chunk


def _search(n: int, size: int, group: tuple[bytes, ...]) -> Iterator[list[int]]:
    """Per chunk of frames in `iter_frames` order, the numbers of its orbit
    minima: the frames no renaming makes smaller, of those the ones no
    element map of `group`, after any renaming, makes smaller."""
    renamings = [itemgetter(*[i * size + j for i in perm for j in perm])
                 for perm in islice(permutations(range(size)), 1, None)]
    maps = [s.ljust(256, b"\0") for s in group]
    frames, total, first, take = product(range(n), repeat=size * size), n ** (size * size), 0, 64
    while first < total:
        yield _least(list(islice(frames, take)), first, renamings, maps)
        first, take = first + take, min(2 * take, 4096)


def _least(chunk: list[tuple], first: int, renamings: list, maps: list[bytes]) -> list[int]:
    """The numbers of the orbit minima among `chunk`, frames first, first + 1,
    ...: each image drops the frames it makes smaller from those left."""
    numbers = list(range(first, first + len(chunk)))
    for renamed in renamings:
        minimal = list(map(le, chunk, map(renamed, chunk)))
        numbers, chunk = list(compress(numbers, minimal)), list(compress(chunk, minimal))
    for table in maps:
        moved = [bytes(cells).translate(table) for cells in chunk]
        for image in (tuple, *renamings):
            minimal = list(map(le, chunk, map(image, moved)))
            numbers, chunk, moved = (list(compress(numbers, minimal)),
                                     list(compress(chunk, minimal)), list(compress(moved, minimal)))
    return numbers


def _relations(n: int, size: int, numbers: list[int]) -> list[bytes]:
    """The `relation_bytes` of frames `numbers` of `iter_frames`, a cell of all at a time."""
    cells = [map(mod, map(floordiv, numbers, repeat(n ** e)), repeat(n))
             for e in reversed(range(size * size))]
    return list(map(relation_bytes, zip(*cells)))


def _first_disagreement(
    batches: Iterable[Batch], left: _Truth, right: _Truth, budget: Budget,
    sides: tuple[str, str], right_first: bool = False,
) -> OracleReport:
    """Compare two sides, named `sides`, one common kernel run at a time,
    reading (and charging) the left one first unless `right_first`.  The
    frames after it up to the run's end or first disagreement are charged
    in one sum if the budget can pay for it, else up to the frame it
    refuses; a disagreement is re-read per state on its `Frame`."""
    frames_checked = states_checked = 0
    order = (right, left) if right_first else (left, right)
    for size, rels, places, frame in batches:
        i = 0
        while i < len(rels):
            for side in order:
                side.read(size, rels, i)
            end = min(left.end, right.end)
            lv, rv = left.verdicts(i, end), right.verdicts(i, end)
            k = len(lv) if lv == rv else next(k for k, (x, y) in enumerate(zip(lv, rv)) if x != y)
            d, w = i + k // size, k % size  # d == end where all agree
            covered = (places[end] if d == end else places[d] + 1) - places[i]
            per = left.cells + right.cells
            paid = min(covered - 1, (budget.cap - budget.used) // per)
            budget.charge(paid * per)
            if paid < covered - 1:
                for side in order:
                    budget.charge(side.cells)  # one of the two raises
            frames_checked += covered
            states_checked += covered * size
            if d < end:
                found = frame(d)
                verdicts = left.reread(found, d, w), right.reread(found, d, w)
                if verdicts != (lv[k] == 1, rv[k] == 1):
                    raise AssertionError(f"re-read {verdicts} against table bytes {lv[k]}, {rv[k]}")
                if relation_bytes(chain.from_iterable(found.rel)) != rels[d]:
                    raise AssertionError(f"frame {d} of the batch is not {found.rel}")
                return OracleReport(False, frames_checked, states_checked - size + w + 1,
                                    Counterexample(found, w, *verdicts, sides))
            i = end
    return OracleReport(True, frames_checked, states_checked)


class _Truth:
    """One side of the scan: per frame, the states at which a condition on x
    holds to degree `threshold`, one 0/1 byte each, one kernel run of
    consecutive frames at a time; `reread(frame, i, w)` reads one again,
    uncharged.  The condition holds under every assignment of its other
    free individual symbols: the kernel tabulates and folds its universal
    closure over them."""

    def __init__(self, alg: HeytingAlgebra, formula: Fo, threshold: int, budget: Budget,
                 reread: Callable[[Frame, int, int], bool] | None = None):
        for sym in sorted(free_individual_symbols(formula) - {_X}, key=str):
            formula = Forall(sym, formula)
        self.alg, self.formula, self.threshold, self.budget = alg, formula, threshold, budget
        self.constants = truth_constants(formula) | {threshold}
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
        if unbound := {sym for sym, _, _ in evaluator.root} - {_X}:
            raise UnboundSymbol(f"free symbol {min(map(str, unbound))} is unbound")
        table = evaluator.table.translate(self.mask)
        if evaluator.span != size:  # a sentence: one verdict per frame, the same at every state
            table = bytes(v for v in table for _ in range(size))
        self.table = table

    def verdicts(self, i: int, end: int) -> bytes:
        """The verdict bytes of frames i to end - 1 of the current run."""
        return self.table[(i - self.first) * self.size:(end - self.first) * self.size]

    def reread(self, frame: Frame, i: int, w: int) -> bool:
        return self.alg.le(self.threshold, self.evaluator.value({_X: w}, i - self.first))

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
every state).  Both sides also commute with the algebra's automorphisms
that fix every truth constant of both (`_symmetries`): applied to every
cell, such an s turns the frame F into s(F), which holds to degree t
where F holds to degree s^-1(t).  Of each size up to five states only the
minima of the orbits under renamings times those automorphisms are
tabulated (`_orbit_minima`, searched once per process and kept with their
cells in `_Minima`), each read at every distinct image of the two
thresholds, theirs first.  A disagreement of the minimum F at the image
under s implies one at the least frame of s(F)'s orbit under renamings
and the automorphisms that fix the thresholds (`_implied`), never before
F; a frame between minima is counted and charged as if read, up to the
least place so implied (see `budget`).  `budget.scan` checks each run of
one size (the minima, every frame past five states, the samples): a batch
is one flat slice of its frames' cells and one kernel run
(`fol.CompiledFo`) per side, masked to one 0/1 verdict byte per state and
threshold pair.  Only a counterexample gets a `Frame`, from `iter_frames`
(the reference for the enumeration order) or the samples, and is read
again, uncharged, at its first disagreeing state.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from functools import cache, lru_cache, partial, reduce
from itertools import chain, compress, islice, permutations, product
from math import factorial
from operator import itemgetter, le
from threading import Lock
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .budget import Budget, scan
from .errors import MvcorrError, UnboundSymbol
from .fol import (
    _X,
    CompiledFo,
    _plan,
    Fo,
    Forall,
    Term,
    broadcast,
    degree_claim,
    free_pred_names,
    free_symbols,
    interp_for_frame,
    truth_constants,
)
from .heyting import HeytingAlgebra
from .randomgen import random_frame
from .semantics import Frame, valid_at
from .syntax import Formula, Inequality

# no interpretation is built here; perfbench's tracer wraps `interp_for_frame` by this name
__all__ = ["correspondence_oracle", "fo_agree", "interp_for_frame", "iter_frames", "sample_frames"]


class Run(NamedTuple):
    """A run of frames of one size, as `_frames` gives it to the scan."""

    size: int
    numbers: Iterable[int]  # the places, increasing, of the frames it tabulates
    total: int  # the frames it counts
    cells: Callable[[int, int], bytes]  # the cells of its i-th to (i + k - 1)-th tabulated frames
    frame: Callable[[int], Frame]  # the `Frame` at place p
    pairs: tuple[tuple[int, int], ...]  # the thresholds each frame is read at, the given first
    # for k > 0, the place of the least frame that a disagreement of the
    # tabulated frame with these cells at the k-th pair implies, the
    # renaming that takes that frame's states to the tabulated frame's, and
    # that frame's cells
    implied: Optional[Callable[[bytes, int], tuple[int, tuple[int, ...], bytes]]] = None


def iter_frames(alg: HeytingAlgebra, size: int, start: int = 0) -> Iterator[Frame]:
    """All frames with `size` states, lexicographic in the matrix entries,
    from frame number `start` on, whose `size*size` base-n digits are the
    first frame's entries."""
    states, width, n = tuple(f"w{i}" for i in range(size)), size * size, alg.n
    first = tuple(start // n ** (width - 1 - j) % n for j in range(width))
    # after the first, per entry j from the last: the matrices that keep
    # the entries before j and raise entry j
    raised = (product(*([v] for v in first[:j]), range(first[j] + 1, n),
                      *[range(n)] * (width - j - 1)) for j in reversed(range(width)))
    for flat in chain([first], chain.from_iterable(raised)):  # each built as reached
        yield Frame(alg, states, tuple(flat[i:i + size] for i in range(0, width, size)))


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
    # the modal side re-reads a counterexample's own frame with `valid_at`
    modal = _Truth(alg, degree_claim(target), a,
                   lambda d, t: lambda frame, w, v: valid_at(frame, target, w, a))
    fo = _Truth(alg, alpha, threshold)
    return _first_disagreement(
        _frames(alg, sizes, samples, sample_size, seed, _symmetries(alg, modal, fo),
                (a, threshold)),
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
    left = _Truth(alg, alpha, threshold_alpha)
    right = _Truth(alg, beta, threshold_beta)
    return _first_disagreement(
        _frames(alg, sizes, samples, sample_size, seed, _symmetries(alg, left, right),
                (threshold_alpha, threshold_beta)),
        left,
        right,
        budget,
        ("left side", "right side"),
    )


def _symmetries(alg: HeytingAlgebra, *sides: _Truth) -> tuple[bytes, ...]:
    """The automorphisms of `alg` other than the identity that fix each
    side's truth constants.  Each such s commutes with both sides, which
    are built from the algebra's operations, the relation's cells and
    those constants: the degree of a side at w on the frame s(F), every
    cell moved by s, is s of its degree on F, so s(F) holds to degree t at
    w exactly where F holds to degree s^-1(t).  A frame is so read at the
    thresholds (t_left, t_right) through its image under s at
    (s^-1(t_left), s^-1(t_right))."""
    fixed = set().union(*(side.constants for side in sides))
    return tuple(s for s in alg.automorphisms[1:] if all(s[v] == v for v in fixed))


def _frames(
    alg: HeytingAlgebra, sizes: Iterable[int], samples: int, sample_size: int,
    seed: int, group: tuple[bytes, ...], thresholds: tuple[int, int],
) -> Iterator[Run]:
    """One run per size asked for, once, of its `_orbit_minima` under the
    group `_group` keeps of `group`, then one of the seeded samples, each
    read as the scan reaches it.  Past five states, where a frame's size! - 1
    renamings (719 at six) can cost more than tabulating it, every frame is
    tabulated, at `thresholds` only, as are the samples.  A request for
    frames without states raises ValueError at once."""
    sizes = list(dict.fromkeys(sizes))
    if any(size < 1 for size in sizes):
        raise ValueError(f"frame sizes must be at least 1, got {sizes}")
    if samples < 0:
        raise ValueError(f"sample count must not be negative, got {samples}")
    if samples and sample_size < 1:
        raise ValueError(f"sample size must be at least 1, got {sample_size}")

    def frames() -> Iterator[Run]:
        for size in sizes:
            total = alg.n ** (size * size)

            def built(p: int, size: int = size) -> Frame:
                # `iter_frames` alone builds a counterexample's frame; the
                # benchmark's tracer hands its frames back as a list
                return next(iter(iter_frames(alg, size, p)))

            if factorial(size) > MAX_GROUP:  # every frame: no minima kept
                every = product(range(alg.n), repeat=size * size)
                yield Run(size, range(total), total, lambda i, k, every=every: bytes(
                    chain.from_iterable(islice(every, k))), built, (thresholds,))
                continue
            kept, pairs, implied = _group(alg, size, group, thresholds)
            yield Run(size, _orbit_minima(alg.n, size, kept), total,
                      _minima(alg.n, size, kept).read, built, pairs, implied)
        if samples:
            drawn = sample_frames(alg, sample_size, samples, seed)
            yield Run(sample_size, range(samples), samples, lambda i, k: b"".join(
                [frame.cells for frame in drawn[i:i + k]]), drawn.__getitem__, (thresholds,))

    return frames()


@lru_cache(maxsize=256)
def _group(alg: HeytingAlgebra, size: int, group: tuple[bytes, ...], thresholds: tuple[int, int]
           ) -> tuple[tuple[bytes, ...], tuple[tuple[int, int], ...],
                      Callable[[bytes, int], tuple[int, tuple[int, ...], bytes]]]:
    """The maps kept with the renamings of `size` states: `group`, or where
    the renamings times `group` and the identity pass `MAX_GROUP` the maps
    of `group` that fix both `thresholds`, or where those pass it too none;
    the distinct images (s^-1(t_left), s^-1(t_right)) of the thresholds
    under s in those maps and the identity, the identity's first; and the
    place a disagreement at each image implies (`_implied`)."""
    fixing = tuple(s for s in group if all(s[t] == t for t in thresholds))
    kept = next(g for g in (group, fixing, ()) if factorial(size) * (len(g) + 1) <= MAX_GROUP)
    images: dict[tuple[int, int], bytes] = {}
    for s in (alg.automorphisms[0], *kept):  # the identity first
        images.setdefault((s.index(thresholds[0]), s.index(thresholds[1])), _padded(s))
    return kept, tuple(images), partial(_implied, alg.n, size, list(images.values()),
                                        [_padded(s) for s in fixing] if kept else [])


def _implied(n: int, size: int, images: list[bytes], fixing: list[bytes],
             cells: bytes, k: int) -> tuple[int, tuple[int, ...], bytes]:
    """The number of the least frame in the orbit of the frame with `cells`
    moved by `images[k]`, under renaming the states and applying the maps
    of `fixing` (which fix both thresholds, so the whole orbit disagrees
    where that image does), the renaming p that gives it (its state i is
    state p[i] of the frame with `cells`) and its cells.  Maps are
    `_padded`."""
    moved = cells.translate(images[k])
    least, perm = min((image(m), perm) for m in {moved, *(moved.translate(s) for s in fixing)}
                      for perm, image in _renamings(size))
    return reduce(lambda number, v: number * n + v, least, 0), perm, bytes(least)


def _padded(s: bytes) -> bytes:
    """An element map as a `bytes.translate` table."""
    return s.ljust(256, b"\0")


# the most images a frame is compared with: its renamings up to five
# states, where they still cost less than tabulating it
MAX_GROUP = 120


class _Minima:
    """The orbit minima of one (n, size, group) found so far, their numbers
    in a compact array and their cells in the same order, and the search
    that finds the next ones."""

    def __init__(self, n: int, size: int, group: tuple[bytes, ...]):
        self.numbers = array("Q")
        self.cells = bytearray()
        self.width = size * size
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
                self.cells += chunk[1]  # before the numbers that vouch for them
                self.numbers.extend(chunk[0])
            return True

    def read(self, i: int, k: int) -> bytes:
        """The cells of minima i to i + k - 1, frame-major."""
        self.past(i + k - 1)
        return bytes(self.cells[i * self.width:(i + k) * self.width])


# every minima search of the process, kept as far as a scan has read it
_MINIMA: dict[tuple[int, int, tuple[bytes, ...]], _Minima] = {}


def _minima(n: int, size: int, group: tuple[bytes, ...]) -> _Minima:
    """The process's one store of the minima of (n, size, group)."""
    key = (n, size, group)
    return _MINIMA.get(key) or _MINIMA.setdefault(key, _Minima(n, size, group))


def _orbit_minima(n: int, size: int, group: tuple[bytes, ...]) -> Iterator[int]:
    """The numbers in `iter_frames` order of the frames over n elements whose
    cells are the least of their orbit (McKay, J. Algorithms 1998) under
    renaming the states and applying the element maps of `group`, searched
    once per process and only as far as any scan reads; up to five states."""
    minima, i = _minima(n, size, group), 0
    while minima.past(i):
        chunk = minima.numbers[i:i + 4096]
        i += len(chunk)
        yield from chunk


@cache
def _renamings(size: int) -> list[tuple[tuple[int, ...], Callable[[bytes], tuple]]]:
    """Per renaming of `size` states, the identity first, its permutation p
    (state i of the renamed frame is state p[i]) and the map from a frame's
    cells to the renamed frame's, as a tuple."""
    identity, *others = permutations(range(size))
    return [(identity, tuple), *((perm, itemgetter(*[i * size + j for i in perm for j in perm]))
                                 for perm in others)]


def _search(n: int, size: int, group: tuple[bytes, ...]) -> Iterator[tuple[list[int], bytes]]:
    """Per chunk of frames in `iter_frames` order, the numbers and cells of
    its orbit minima: the frames no renaming makes smaller, of those the ones no
    element map of `group`, after any renaming, makes smaller."""
    renamings, maps = [image for _, image in _renamings(size)[1:]], list(map(_padded, group))
    frames, total, first, take = product(range(n), repeat=size * size), n ** (size * size), 0, 64
    while first < total:
        yield _least(list(islice(frames, take)), first, renamings, maps)
        first, take = first + take, min(2 * take, 4096)


def _least(chunk: list[tuple], first: int, renamings: list, maps: list[bytes]
           ) -> tuple[list[int], bytes]:
    """The numbers and cells of the orbit minima among `chunk`, frames first,
    first + 1, ...: each image drops the frames it makes smaller from those
    left."""
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
    return numbers, bytes(chain.from_iterable(chunk))


def _first_disagreement(
    runs: Iterable[Run], left: _Truth, right: _Truth, budget: Budget,
    sides: tuple[str, str], right_first: bool = False,
) -> OracleReport:
    """Compare two sides, named `sides`, run by run under `budget.scan`,
    charging the left one first unless `right_first`; the frame at the
    least place a disagreement implies is read again at its first
    disagreeing state."""
    frames_checked = states_checked = 0
    order = (right, left) if right_first else (left, right)
    for run in runs:
        size, width, count = run.size, run.size * run.size, len(run.pairs)
        masks = [[_mask(side.alg, t) for t in ts] for side, ts in zip((left, right),
                                                                      zip(*run.pairs))]
        batch = [b""]  # the cells of the batch last built
        # per place implied: its frame's cells, the implying frame's verdicts
        # at its pair, per state, the renaming from the place's frame to it,
        # and both re-reads
        implied_by: dict[int, tuple] = {}

        def verdicts(i: int, k: int) -> tuple[bytes, bytes]:
            batch[0] = run.cells(i, k)
            return (left.tabulate(size, batch[0], masks[0]),
                    right.tabulate(size, batch[0], masks[1]))

        def implied(place: int, d: int, lhs: bytes, rhs: bytes) -> int:
            # per state, one byte per pair: the pairs at which the frame disagrees
            moved = {j % count for j in range(len(lhs)) if lhs[j] != rhs[j]}
            cells = batch[0][d * width:(d + 1) * width]
            (place, perm, cells), k = ((place, range(size), cells), 0) if 0 in moved else min(
                (run.implied(cells, k), k) for k in moved)
            implied_by[place] = (cells, lhs[k::count], rhs[k::count], perm,
                                 left.reader(d, run.pairs[k][0]), right.reader(d, run.pairs[k][1]))
            return place

        counted, found = scan(run.numbers, run.total, [side.plan(size).cells for side in order],
                              budget, verdicts, implied)
        frames_checked += counted
        states_checked += counted * size
        if found:
            at = run.frame(found[0])
            cells, lhs, rhs, perm, *readers = implied_by[found[0]]
            if at.cells != cells:
                raise AssertionError(f"frame {found[0]} of the run is not {at.rel}")
            w = next(w for w in range(size) if lhs[perm[w]] != rhs[perm[w]])
            read = tuple(reader(at, w, perm[w]) for reader in readers)
            if read != (lhs[perm[w]] == 1, rhs[perm[w]] == 1):
                raise AssertionError(f"re-read {read} at state {w} of {at.rel} against table "
                                     f"bytes {lhs[perm[w]]}, {rhs[perm[w]]}")
            return OracleReport(False, frames_checked, states_checked - size + w + 1,
                                Counterexample(at, w, *read, sides))
    return OracleReport(True, frames_checked, states_checked)


@lru_cache(maxsize=1024)
def _mask(alg: HeytingAlgebra, threshold: int) -> bytes:
    """The translation of an element to 1 where it is at least `threshold`, else 0."""
    return _padded(bytes(alg.le(threshold, v) for v in range(alg.n)))


@lru_cache(maxsize=128)
def _closure(formula: Fo) -> tuple[Fo, frozenset[int]]:
    """`formula` closed universally over its free individual symbols other
    than x, and the elements its truth constants name, kept for the
    formulas of recent calls.  Any other free symbol raises UnboundSymbol."""
    free = free_symbols(formula) - {_X}
    if unbound := {s for s in free if not isinstance(s, Term)}:
        raise UnboundSymbol(f"free symbol {min(map(str, unbound))} is unbound")
    for sym in sorted((s for s in free if isinstance(s, Term)), key=str):
        formula = Forall(sym, formula)
    return formula, frozenset(truth_constants(formula))


class _Truth:
    """One side of the scan: per frame, the states at which a condition on x
    holds to degree `threshold`, or to each of several degrees, one 0/1
    byte each, from one kernel run of a batch of frames at a time;
    `reader(d, t)` reads that run's d-th frame again at degree t, uncharged.
    The condition holds under every assignment of its other free
    individual symbols: the kernel tabulates and folds its universal
    closure over them (`_closure`).  Any other free symbol raises
    UnboundSymbol at once."""

    def __init__(self, alg: HeytingAlgebra, formula: Fo, threshold: int,
                 reader: Callable[[int, int], Callable[[Frame, int, int], bool]] | None = None):
        formula, self.constants = _closure(formula)
        self.alg, self.threshold = alg, threshold
        self.plan = cache(lambda size: _plan(alg, formula, size))  # once per frame size
        if reader is not None:
            self.reader = reader

    def tabulate(self, size: int, rels: bytes, masks: list[bytes]) -> bytes:
        """The verdict bytes of one kernel run on the frames whose cells `rels`
        holds: per frame and state, one per mask, in order."""
        evaluator = self.evaluator = CompiledFo(self.plan(size), rels)
        count = len(masks)
        table = evaluator.table.translate(masks[0])
        if count > 1:
            out = bytearray(len(table) * count)
            for k, mask in enumerate(masks):
                out[k::count] = evaluator.table.translate(mask)
            table = bytes(out)
        if evaluator.span != size:  # a sentence: one verdict per frame, the same at every state
            table = broadcast(table, ((size, count),))
        return table

    def reader(self, d: int, threshold: int) -> Callable[[Frame, int, int], bool]:
        """A re-read of the last kernel run's d-th frame at degree
        `threshold`: given a counterexample's frame, its state w and the
        state v of the d-th frame that w is the image of, whether the
        condition holds at v."""
        evaluator = self.evaluator
        return lambda frame, w, v: self.alg.le(threshold, evaluator.value({_X: v}, d))

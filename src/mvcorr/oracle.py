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
are tabulated (`_orbit_minima`, searched once per process and kept with
their cells in `_Minima`); a frame between them, which disagrees exactly
when its minimum (enumerated before it) does, is counted and charged as if
read (see `budget`).  `budget.scan` checks each run of one size (the
minima, every frame past five states, the samples): a batch is one flat
slice of its frames' cells and one kernel run (`fol.CompiledFo`) per side,
masked to one 0/1 verdict byte per state.  Only a counterexample gets a
`Frame`, from `iter_frames` (the reference for the enumeration order) or
the samples, and is read again, uncharged, per state.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from functools import cache
from itertools import chain, compress, islice, permutations, product
from math import factorial
from operator import itemgetter, le
from threading import Lock
from typing import Callable, Iterable, Iterator, Optional

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

# a run: its frames' size, the numbers of those it tabulates, its frame count, the
# cells of its i-th to (i + k - 1)-th tabulated frames, frame number p's `Frame`
Run = tuple[int, Iterable[int], int, Callable[[int, int], bytes], Callable[[int], Frame]]


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
    for flat in chain([first], *raised):
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
    modal = _Truth(alg, degree_claim(target), a, lambda frame, i, w: valid_at(frame, target, w, a))
    fo = _Truth(alg, alpha, threshold)
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
    left = _Truth(alg, alpha, threshold_alpha)
    right = _Truth(alg, beta, threshold_beta)
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
) -> Iterator[Run]:
    """One run per size asked for, once, of its `_orbit_minima`, then one
    of the seeded samples, each read as the scan reaches it.  A size
    whose renamings times `group` and the identity pass `MAX_GROUP` drops
    `group`; past five states, where a frame's size! - 1 renamings (719 at
    six) can cost more than tabulating it, every frame is tabulated.
    A request for frames without states raises ValueError at once."""
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
            if factorial(size) > MAX_GROUP:  # every frame: no minima kept
                every = product(range(alg.n), repeat=size * size)
                numbers, cells = range(total), lambda i, k, every=every: bytes(
                    chain.from_iterable(islice(every, k)))
            else:
                kept = group if factorial(size) * (len(group) + 1) <= MAX_GROUP else ()
                numbers, cells = _orbit_minima(alg.n, size, kept), _minima(alg.n, size, kept).read
            # `iter_frames` alone builds a counterexample's frame; the benchmark's
            # tracer hands its frames back as a list
            yield size, numbers, total, cells, lambda p, size=size: next(iter(
                iter_frames(alg, size, p)))
        if samples:
            drawn = sample_frames(alg, sample_size, samples, seed)
            yield sample_size, range(samples), samples, lambda i, k: b"".join(
                [frame.cells for frame in drawn[i:i + k]]), drawn.__getitem__

    return frames()


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


def _search(n: int, size: int, group: tuple[bytes, ...]) -> Iterator[tuple[list[int], bytes]]:
    """Per chunk of frames in `iter_frames` order, the numbers and cells of
    its orbit minima: the frames no renaming makes smaller, of those the ones no
    element map of `group`, after any renaming, makes smaller."""
    renamings = [itemgetter(*[i * size + j for i in perm for j in perm])
                 for perm in islice(permutations(range(size)), 1, None)]
    maps = [s.ljust(256, b"\0") for s in group]
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
    charging the left one first unless `right_first`; a disagreement is
    re-read per state on its `Frame`."""
    frames_checked = states_checked = 0
    order = (right, left) if right_first else (left, right)
    for size, numbers, total, cells, frame in runs:
        batch = [b""]  # the cells of the batch last built

        def verdicts(i: int, k: int) -> tuple[bytes, bytes]:
            batch[0] = cells(i, k)
            return left.tabulate(size, batch[0]), right.tabulate(size, batch[0])

        counted, found = scan(numbers, total, [side.plan(size).cells for side in order],
                              budget, verdicts)
        frames_checked += counted
        states_checked += counted * size
        if found:
            p, d, w, lv, rv = found
            at = frame(p)
            read = left.reread(at, d, w), right.reread(at, d, w)
            if read != (lv == 1, rv == 1):
                raise AssertionError(f"re-read {read} against table bytes {lv}, {rv}")
            if at.cells != batch[0][d * size * size:(d + 1) * size * size]:
                raise AssertionError(f"frame {p} of the run is not {at.rel}")
            return OracleReport(False, frames_checked, states_checked - size + w + 1,
                                Counterexample(at, w, *read, sides))
    return OracleReport(True, frames_checked, states_checked)


class _Truth:
    """One side of the scan: per frame, the states at which a condition on x
    holds to degree `threshold`, one 0/1 byte each, one kernel run of a
    batch of frames at a time; `reread(frame, d, w)` reads one again,
    uncharged.  The condition holds under every assignment of its other
    free individual symbols: the kernel tabulates and folds its universal
    closure over them.  Any other free symbol raises UnboundSymbol at once."""

    def __init__(self, alg: HeytingAlgebra, formula: Fo, threshold: int,
                 reread: Callable[[Frame, int, int], bool] | None = None):
        free = free_symbols(formula) - {_X}
        for sym in sorted((s for s in free if isinstance(s, Term)), key=str):
            formula = Forall(sym, formula)
        if unbound := {s for s in free if not isinstance(s, Term)}:
            raise UnboundSymbol(f"free symbol {min(map(str, unbound))} is unbound")
        self.alg, self.threshold = alg, threshold
        self.constants = truth_constants(formula) | {threshold}
        self.mask = bytes(alg.le(threshold, v) for v in range(alg.n)).ljust(256, b"\0")
        self.plan = cache(lambda size: _plan(alg, formula, size))  # once per frame size
        if reread is not None:
            self.reread = reread

    def tabulate(self, size: int, rels: bytes) -> bytes:
        """The verdict bytes of one kernel run on the frames whose cells `rels` holds."""
        evaluator = self.evaluator = CompiledFo(self.plan(size), rels)
        table = evaluator.table.translate(self.mask)
        if evaluator.span != size:  # a sentence: one verdict per frame, the same at every state
            table = broadcast(table, ((size, 1),))
        return table

    def reread(self, frame: Frame, d: int, w: int) -> bool:
        return self.alg.le(self.threshold, self.evaluator.value({_X: w}, d))

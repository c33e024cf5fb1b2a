"""Independent per-step verification of rewriting traces.

Each recorded step is replayed over a set of finite frames: the consumed
and produced inequalities must have the same satisfying assignments of the
symbols they share, with an existential over symbols private to one side
(a closed variable on the consumed side, fresh nominals/co-nominals on the
produced side).  The first-approximation step ties local validity of the
input inequality at a state to the system with the reserved atoms based at
that state, and is checked by its own routine.

Both checks are table operations over one axis per atom (row-major, as in
`iter_valuations`): each inequality side is evaluated once per valuation of
its own atoms, and the inequality per pair of value vectors that occurs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from math import prod
from operator import add, and_
from typing import Iterable, Optional

from .alba import RESERVED_CONOM, RESERVED_NOM, TraceStep
from .budget import Budget
from .fol import index_map
from .semantics import Frame, Valuation, atom_options, compile_eval, iter_valuations
from .syntax import CoNom, Inequality, Nom, Var, atoms


@dataclass
class StepFailure:
    step: TraceStep
    frame: Frame
    message: str

    def describe(self) -> str:
        rel = [[self.frame.algebra.element_name(v) for v in row] for row in self.frame.rel]
        return f"{self.step.describe()} | frame {rel}: {self.message}"


class _System:
    """Truth tables of a fixed inequality list over fixed atom axes."""

    def __init__(self, ineqs: Iterable[Inequality], axes: tuple):
        self.ineqs = tuple(ineqs)
        self.axes = axes
        self.own = []  # per inequality: its atoms, its lhs atoms, its rhs atoms
        for i in self.ineqs:
            lhs, rhs = atoms(i.lhs), atoms(i.rhs)
            own = tuple(a for a in axes if a in lhs | rhs)
            self.own.append((own, tuple(sorted(lhs, key=str)), tuple(sorted(rhs, key=str))))
        self.maps: dict = {}  # index maps as arrays, per axes and axis sizes

    def cells(self, sizes: dict) -> int:
        """Cells of the tables that one frame's `masks` builds."""
        own = sum(prod(sizes[a] for a in s) for sides in self.own for s in sides)
        return own + max(1, len(self.ineqs)) * prod(sizes[a] for a in self.axes)

    def masks(self, frame: Frame, sizes: dict) -> bytes:
        """Per cell, the bitmask of the states where every inequality holds
        (bit w for state w, so frames have at most 8 states)."""
        leq, cells = frame.algebra.leq, prod(sizes[a] for a in self.axes)
        table = int.from_bytes(bytes([(1 << frame.size) - 1]) * cells, "little")
        for ineq, (own, laxes, raxes) in zip(self.ineqs, self.own):
            lcodes, lvecs = _codes(ineq.lhs, laxes, frame)
            rcodes, rvecs = _codes(ineq.rhs, raxes, frame)
            pair = bytes([sum(1 << w for w, (x, y) in enumerate(zip(lv, rv)) if leq[x][y])
                          for lv in lvecs for rv in rvecs])
            left = self._gather([c * len(rvecs) for c in lcodes], own, laxes, sizes)
            positions = map(add, left, self._gather(rcodes, own, raxes, sizes))
            own_table = bytes(map(pair.__getitem__, positions))
            table &= int.from_bytes(_repeat(own_table, own, self.axes, sizes), "little")
        return table.to_bytes(cells, "little")

    def _gather(self, table: list, parent: tuple, child: tuple, sizes: dict):
        """A table over `child` read at each cell of `parent`."""
        key = (parent, child) + tuple(sizes[a] for a in parent)
        if key not in self.maps:
            index = index_map(parent, child, sizes)
            self.maps[key] = None if index is None else array("l", index)
        return table if self.maps[key] is None else map(table.__getitem__, self.maps[key])


def _codes(f, axes: tuple, frame: Frame) -> tuple[list, list]:
    """Dense code of f's value vector under each valuation of `axes` (sorted
    by name), and the vectors in code order."""
    fn, states, ids = compile_eval(f, frame), range(frame.size), {}
    codes = [ids.setdefault(tuple([fn(val, w) for w in states]), len(ids))
             for val in iter_valuations(frame, axes)]
    return codes, list(ids)


def _repeat(table: bytes, own: tuple, axes: tuple, sizes: dict) -> bytes:
    """A table over `own`, a subsequence of `axes`, repeated along the others."""
    inner = 1
    for a in reversed(axes):
        if a not in own:
            table = b"".join([table[i:i + inner] * sizes[a] for i in range(0, len(table), inner)])
        inner *= sizes[a]
    return table


def _fold(table: bytes, chunk: int, universal: bool) -> bytes:
    """Quantify out the trailing axes that span `chunk` cells."""
    chunks = (table[i:i + chunk] for i in range(0, len(table), chunk))
    return table if chunk == 1 else bytes(map(min if universal else max, chunks))


def verify_step(
    step: TraceStep, frames: Iterable[Frame], budget: Budget | None = None
) -> Optional[StepFailure]:
    """None when the step is equivalence-preserving on every frame."""
    if step.rule == "first-approximation":
        return _verify_first_approximation(step, frames, budget)

    before_atoms = set().union(*(atoms(i.lhs) | atoms(i.rhs) for i in step.before))
    after_atoms = set().union(*(atoms(i.lhs) | atoms(i.rhs) for i in step.after))
    eliminated, introduced = {Var(v) for v in step.eliminated}, set(step.introduced)
    shared = tuple(sorted((before_atoms | after_atoms) - eliminated - introduced, key=str))
    private_before = tuple(sorted(before_atoms & eliminated, key=str))
    private_after = tuple(sorted(after_atoms & introduced, key=str))
    before = _System(step.before, shared + private_before)
    after = _System(step.after, shared + private_after)

    # a closed uniform variable ranges universally (the rule keeps the
    # extremal instance); an eliminated variable ranges existentially
    # (the elimination lemma trades the variable for its bound)
    universal_before = step.rule == "close-uniform-variable"

    for frame in frames:
        sizes = {a: len(atom_options(frame, a)) for a in before.axes + private_after}
        holds = bytes(v == (1 << frame.size) - 1 for v in range(256))  # mask -> 0/1
        if budget is not None:
            budget.charge(before.cells(sizes) + after.cells(sizes)
                          + 2 * prod(sizes[a] for a in shared))
        lhs = _fold(before.masks(frame, sizes).translate(holds),
                    prod(sizes[a] for a in private_before), universal_before)
        rhs = _fold(after.masks(frame, sizes).translate(holds),
                    prod(sizes[a] for a in private_after), False)
        if lhs != rhs:
            k = next(k for k, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            val = next(islice(iter_valuations(frame, shared), k, None))
            return StepFailure(step, frame, f"consumed side {lhs[k] == 1}, produced side "
                               f"{rhs[k] == 1} under {_show(val, frame)}")
    return None


def _verify_first_approximation(
    step: TraceStep, frames: Iterable[Frame], budget: Budget | None
) -> Optional[StepFailure]:
    # consumed: core & @a <= rhs, judged locally at each state;
    # produced: the three-inequality system with i0 based at that state
    (source,) = step.before
    i0, m0 = Nom(RESERVED_NOM), CoNom(RESERVED_CONOM)
    variables = tuple(sorted(atoms(source.lhs) | atoms(source.rhs), key=str))
    local = _System((source,), variables)
    # i0 options run state by state, so with i0 first the cells where it is
    # based at one state form one chunk
    premises = _System(step.after, (i0,) + variables + (m0,))
    conclusion = _System((Inequality(i0, m0),), premises.axes)

    for frame in frames:
        n = frame.size
        sizes = {a: len(atom_options(frame, a)) for a in premises.axes}
        holds = bytes(v == (1 << n) - 1 for v in range(256))  # mask -> 0/1
        if budget is not None:
            budget.charge(sum(s.cells(sizes) for s in (local, premises, conclusion)))
        valid = reduce(and_, set(local.masks(frame, sizes)))
        held = int.from_bytes(premises.masks(frame, sizes).translate(holds), "little")
        failed = ~int.from_bytes(conclusion.masks(frame, sizes).translate(holds), "little")
        cells = prod(sizes.values())
        broken = _fold((held & failed).to_bytes(cells, "little"), cells // n, False)
        for w in range(n):
            local_w, system = valid >> w & 1 == 1, broken[w] == 0
            if local_w != system:
                return StepFailure(step, frame, f"local validity {local_w} at state {w}, "
                                   f"system validity {system}")
    return None


def verify_trace(
    steps: Iterable[TraceStep], frames: list[Frame], budget: Budget | None = None
) -> Optional[StepFailure]:
    """The failure of the first unsound step, or None."""
    return next(filter(None, (verify_step(s, frames, budget) for s in steps)), None)


def _show(val: Valuation, frame: Frame) -> str:
    name, rows = frame.algebra.element_name, sorted(val.items(), key=lambda kv: str(kv[0]))
    return "{" + ", ".join(f"{a}=({','.join(map(name, row))})" for a, row in rows) + "}"

"""Independent per-step verification of rewriting traces.

Each recorded step is replayed over a set of finite frames: the consumed
and produced inequalities must have the same satisfying assignments of the
symbols they share, with an existential over symbols private to one side
(a closed variable on the consumed side, fresh nominals/co-nominals on the
produced side).  The first-approximation step ties local validity of the
input inequality at a state to the system with the reserved atoms based at
that state, and is checked by its own routine.

Both checks are table operations over one axis per atom, in one order per
step: the shared atoms by name (so shared cells run as in
`iter_valuations`), then the consumed side's private atoms, then the
produced side's; for first-approximation i0, the source's variables, m0.
Every table (a subformula's, an inequality's, a system's) is row-major
over its own atoms in that order, so a child's axes are an in-order
subsequence of its parent's: the parent reads the child through
`fol.repeats`/`fol.broadcast`, and private atoms, trailing axes, fold out
with `fol.fold`.  Per frame, each subformula gets one table of value codes,
shared by both systems: a leaf (an atom, or a subformula without atoms) is
evaluated with `compile_eval`, and every other subformula is built from its
children's tables.  Each inequality is decided once per pair of value
vectors that occurs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice
from math import prod
from typing import Iterable, Optional

from .alba import RESERVED_CONOM, RESERVED_NOM, TraceStep
from .budget import Budget
from .fol import broadcast, combiner, fold, repeats
from .heyting import builtin_algebra
from .semantics import Frame, Valuation, atom_options, compile_eval, iter_valuations, operation
from .syntax import CoNom, Formula, Inequality, Nom, Var, atoms, children


@dataclass
class StepFailure:
    step: TraceStep
    frame: Frame
    message: str

    def describe(self) -> str:
        rel = [[self.frame.algebra.element_name(v) for v in row] for row in self.frame.rel]
        return f"{self.step.describe()} | frame {rel}: {self.message}"


class _Tables:
    """One frame's dense codes of subformula values, shared by a step's systems.

    A subformula's table holds, per valuation of its own atoms (in the
    step's axis order, row-major), the code of its value vector; the
    vectors follow in code order, one per distinct vector.  Codes are
    fixed-width cells of an `array`, as narrow as the vector count allows.
    A leaf, an atom or a subformula without atoms, is evaluated with
    `compile_eval` under each valuation of its at most one atom; above the
    leaves a connective applies its `operation` once per pair of operand
    codes that occurs, and a modality once per distinct vector of its
    operand.  `start` drops the previous frame's tables.
    """

    def __init__(self, formulas: Iterable[Formula], order: tuple):
        self.order = order
        self.axes: dict = {}  # every subformula with a table -> its atoms
        for f in formulas:
            self._plan(f)

    def _plan(self, f: Formula) -> None:
        if f not in self.axes:
            own = atoms(f)
            self.axes[f] = tuple(a for a in self.order if a in own)
            if own:
                for sub in children(f):
                    self._plan(sub)

    def cells(self, sizes: dict) -> int:
        """Cells of the subformula tables that one frame builds."""
        return sum(prod(sizes[a] for a in axes) for axes in self.axes.values())

    def start(self, frame: Frame, sizes: dict) -> None:
        self.frame, self.sizes, self.memo = frame, sizes, {}

    def __call__(self, f: Formula) -> tuple[array, list]:
        """f's codes and vectors on the current frame."""
        if f not in self.memo:
            self.memo[f] = self._evaluate(f)
        return self.memo[f]

    def _evaluate(self, f: Formula) -> tuple[array, list]:
        frame, ids, subs = self.frame, {}, children(f) if self.axes[f] else ()
        if not subs:  # an atom, or a subformula without atoms
            fn = compile_eval(f, frame)
            codes = [ids.setdefault(fn(val), len(ids))
                     for val in iter_valuations(frame, self.axes[f])]
        elif len(subs) == 1:
            op = operation(frame, f)
            codes, vecs = self(subs[0])
            recode = [ids.setdefault(op(v), len(ids)) for v in vecs]
            codes = map(recode.__getitem__, codes)
        else:
            op, (lhs, rhs) = operation(frame, f), subs
            lvecs, rvecs = self(lhs)[1], self(rhs)[1]
            keys = self.pairs(lhs, rhs, self.axes[f])
            recode = {k: ids.setdefault(op(lvecs[k // len(rvecs)], rvecs[k % len(rvecs)]), len(ids))
                      for k in dict.fromkeys(keys)}
            codes = map(recode.__getitem__, keys)
        typecode = next(t for t in "BHIQ" if len(ids) <= 256 ** array(t).itemsize)
        return array(typecode, codes), list(ids)

    def pairs(self, lhs: Formula, rhs: Formula, axes: tuple) -> bytes | list:
        """Per cell of `axes`, lhs code * number of rhs vectors + rhs code;
        `bytes`, packed as one integer as in `fol.combiner`, while keys fit a byte."""
        count = len(self(rhs)[1])
        left, right = self.gather(lhs, axes), self.gather(rhs, axes)
        if len(self(lhs)[1]) * count <= 256:  # so both codes are one byte
            packed = int.from_bytes(left, "little") * count + int.from_bytes(right, "little")
            return packed.to_bytes(len(left), "little")
        return [x * count + y for x, y in zip(left, right)]

    def gather(self, f: Formula, axes: tuple) -> array:
        """f's codes read at each cell of `axes`, which hold f's own axes in
        order: `broadcast` on the code bytes, each block `width` times as long."""
        codes = self(f)[0]
        reps = repeats(self.axes[f], axes, self.sizes)
        if not reps:
            return codes
        width = codes.itemsize
        reps = tuple((m, inner * width) for m, inner in reps)
        return array(codes.typecode, broadcast(codes.tobytes(), reps))


class _System:
    """Truth tables of a fixed inequality list over fixed atom axes."""

    def __init__(self, ineqs: Iterable[Inequality], axes: tuple):
        self.ineqs = tuple(ineqs)
        self.axes = axes
        # per inequality, its atoms in axis order
        self.own = [tuple(a for a in axes if a in atoms(i.lhs) | atoms(i.rhs))
                    for i in self.ineqs]

    def cells(self, sizes: dict) -> int:
        """Cells of the inequality and system tables that one frame's
        `masks` builds."""
        own = sum(prod(sizes[a] for a in s) for s in self.own)
        return own + max(1, len(self.ineqs)) * prod(sizes[a] for a in self.axes)

    def masks(self, tables: _Tables) -> bytes:
        """Per cell, 1 when every inequality holds at every state, else 0."""
        le, sizes = tables.frame.algebra.le, tables.sizes
        cells = prod(sizes[a] for a in self.axes)
        table = int.from_bytes(b"\1" * cells, "little")
        for ineq, own in zip(self.ineqs, self.own):
            lvecs, rvecs = tables(ineq.lhs)[1], tables(ineq.rhs)[1]
            pair = bytes([all(map(le, lv, rv)) for lv in lvecs for rv in rvecs])
            keys = tables.pairs(ineq.lhs, ineq.rhs, own)
            own_table = (keys.translate(pair.ljust(256, b"\0")) if isinstance(keys, bytes)
                         else bytes(map(pair.__getitem__, keys)))
            own_table = broadcast(own_table, repeats(own, self.axes, sizes))
            table &= int.from_bytes(own_table, "little")
        return table.to_bytes(cells, "little")


# 0/1 masks fold as bool2 elements: universally by meets, existentially by joins
_B2 = builtin_algebra("bool2")
_FOLDS = {True: (combiner(2, _B2.meet_table), _B2.meet_table, _B2.top),
          False: (combiner(2, _B2.join_table), _B2.join_table, _B2.bot)}


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
    tables = _Tables((side for i in step.before + step.after for side in (i.lhs, i.rhs)),
                     shared + private_before + private_after)

    # a closed uniform variable ranges universally (the rule keeps the
    # extremal instance); an eliminated variable ranges existentially
    # (the elimination lemma trades the variable for its bound)
    universal_before = step.rule == "close-uniform-variable"

    for frame in frames:
        sizes = {a: len(atom_options(frame, a)) for a in tables.order}
        if budget is not None:
            budget.charge(tables.cells(sizes) + before.cells(sizes) + after.cells(sizes)
                          + 2 * prod(sizes[a] for a in shared))
        tables.start(frame, sizes)
        lhs = fold(before.masks(tables), prod(sizes[a] for a in private_before),
                   *_FOLDS[universal_before])
        rhs = fold(after.masks(tables), prod(sizes[a] for a in private_after), *_FOLDS[False])
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
    # i0 options run state by state, so with i0 first the cells where it is
    # based at one state form one chunk
    premises = _System(step.after, (i0,) + variables + (m0,))
    conclusion = _System((Inequality(i0, m0),), premises.axes)
    tables = _Tables((side for i in (source,) + premises.ineqs + conclusion.ineqs
                      for side in (i.lhs, i.rhs)), premises.axes)

    for frame in frames:
        n, le = frame.size, frame.algebra.le
        sizes = {a: len(atom_options(frame, a)) for a in premises.axes}
        if budget is not None:
            budget.charge(tables.cells(sizes) + prod(sizes[a] for a in variables)
                          + premises.cells(sizes) + conclusion.cells(sizes))
        tables.start(frame, sizes)
        lvecs, rvecs = tables(source.lhs)[1], tables(source.rhs)[1]
        pairs = {(lvecs[k // len(rvecs)], rvecs[k % len(rvecs)])
                 for k in set(tables.pairs(source.lhs, source.rhs, variables))}
        held = int.from_bytes(premises.masks(tables), "little")
        failed = ~int.from_bytes(conclusion.masks(tables), "little")
        cells = prod(sizes.values())
        broken = fold((held & failed).to_bytes(cells, "little"), cells // n, *_FOLDS[False])
        for w in range(n):
            local_w = all(le(lv[w], rv[w]) for lv, rv in pairs)
            system = broken[w] == 0
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

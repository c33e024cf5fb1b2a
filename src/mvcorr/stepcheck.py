"""Independent per-step verification of rewriting traces.

Each recorded step is replayed over a set of finite frames: the consumed
and produced inequalities must have the same satisfying assignments of the
symbols they share, with an existential over symbols private to one side
(a closed variable on the consumed side, fresh nominals/co-nominals on the
produced side).  The first-approximation step ties local validity of the
input inequality at a state to the system with the reserved atoms based at
that state, and is checked by its own routine.

Both checks are table operations in the `fol` kernel's layout, over one
axis per atom, in one order per step: the shared atoms by name (so shared
cells run as in `iter_valuations`), then the consumed side's private
atoms, then the produced side's; for first-approximation i0, the source's
variables, m0.  Every table (a subformula's, an inequality's, a system's)
is row-major over its own atoms in that order, so a child's axes are an
in-order subsequence of its parent's: the parent reads the child through
`fol.repeats`/`fol.broadcast`, and private atoms, trailing axes, fold out
with `fol.fold`.  Every table spans a batch of frames of one size as its
outermost axis; those of subformulas and inequalities, built by `_Tables`
and shared by both systems, add the frame's states as the innermost axis.
Each run of same-size frames is checked by `budget.scan`, one build of
every table per batch, charged per frame as `budget` states.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain, groupby, islice
from math import prod
from typing import Callable, Iterable, Optional

from .alba import RESERVED_CONOM, RESERVED_NOM, TraceStep
from .budget import Budget, scan
from .fol import broadcast, combiner, fold, operations, repeats
from .heyting import builtin_algebra
from .semantics import Frame, Valuation, atom_options, compile_eval, iter_valuations
from .syntax import (And, Box, BoxInv, CoNom, Dia, DiaInv, Formula, Implies, Inequality, Minus,
                     Nom, Or, Var, atoms, children)


@dataclass
class StepFailure:
    step: TraceStep
    frame: Frame
    message: str

    def describe(self) -> str:
        rel = [[self.frame.algebra.element_name(v) for v in row] for row in self.frame.rel]
        return f"{self.step.describe()} | frame {rel}: {self.message}"


_W, _U = "w", "u"  # state axes: a table's own states, and a modality's successors
_LEAF, _OP, _IMAGE = range(3)


def _atoms(ineq: Inequality) -> set:
    return atoms(ineq.lhs) | atoms(ineq.rhs)


def _sides(f: Formula | Inequality) -> tuple:
    return (f.lhs, f.rhs) if isinstance(f, Inequality) else children(f)


def _reads_relation(f: Formula | Inequality) -> bool:
    return isinstance(f, (Dia, Box, DiaInv, BoxInv)) or any(map(_reads_relation, _sides(f)))


class _Tables:
    """A step's subformula and inequality tables in the `fol` kernel's layout
    on a batch of frames of one size: the frame outermost, row-major over
    their own atoms, then the frame's states, one algebra element per byte.

    A leaf (an atom, or a subformula without atoms) is evaluated with
    `compile_eval` under each valuation of its at most one atom.  A
    connective broadcasts both operands to its own axes and maps the cell
    pairs through the algebra's table with its `combiner`, made once per
    algebra (`fol.operations`); an inequality maps them through its order,
    as 0/1.  A modality broadcasts its operand to a (w, u) pair of state
    axes, combines it with the relation at (w, u), at (u, w) if inverse, by
    meet for a diamond and implication for a box, and folds u by joins or
    meets.  The axes are planned per call, and per frame size the `repeats`
    and a frame's charge (`plan`); `build` builds every table of a batch,
    but one without a modal operator, which reads no relation, only at the
    call's first frame of each size, then repeats it across each batch.
    """

    def __init__(self, ineqs: Iterable[Inequality], order: tuple):
        self.order = order
        self.nodes: dict = {}  # each table's subformula or inequality -> its atoms, operands
        for ineq in ineqs:
            self._plan(ineq)
        self.slot = {f: k for k, f in enumerate(self.nodes)}  # operands first
        self.kept = {k for k, f in enumerate(self.nodes) if not _reads_relation(f)}
        self.sized: dict = {}  # frame size -> the atoms' sizes, their charge, tasks, kept tables

    def _plan(self, f: Formula | Inequality) -> None:
        if f not in self.nodes:
            own = _atoms(f) if isinstance(f, Inequality) else atoms(f)
            subs = _sides(f) if own or isinstance(f, Inequality) else ()
            for sub in subs:
                self._plan(sub)
            self.nodes[f] = tuple(a for a in self.order if a in own), subs

    def cells(self, sizes: dict) -> int:
        """Cells of the subformula tables that one frame builds."""
        return sum(prod(sizes[a] for a in axes) for f, (axes, _) in self.nodes.items()
                   if isinstance(f, Formula))

    def plan(self, frame: Frame, charge: Callable[[dict], int]) -> int:
        """Plan the tables of frames of `frame`'s size, once: one frame's `charge`."""
        if frame.size not in self.sized:
            self.sized[frame.size] = *self._tasks(frame, charge), {}
        return self.sized[frame.size][1]

    def build(self, batch: list) -> _Tables:
        """Build every table of a batch of frames of one planned size."""
        n = self.n = batch[0].size
        self.sizes, _, tasks, fixed = self.sized[n]
        self.batch = batch
        self.tables = tables = []
        for k, task in enumerate(tasks):
            if k in self.kept and k not in fixed:  # the same on every frame of this size
                fixed[k] = _run(task, fixed, batch[:1])
            tables.append(fixed[k] * len(batch) if k in self.kept else _run(task, tables, batch))
        return self

    def _tasks(self, frame: Frame, charge: Callable[[dict], int]) -> tuple:
        """Per frame size: the atoms' sizes, their `charge` and each table's task."""
        alg, n = frame.algebra, frame.size
        sizes = {a: len(atom_options(frame, a)) for a in self.order}
        dims = {**sizes, _W: n, _U: n}
        join, meet, imp, coimp, le = (operations(alg)[name][1]
                                      for name in ("join", "meet", "imp", "coimp", "le"))
        ops = {Or: join, And: meet, Implies: imp, Minus: coimp, Inequality: le,
               Dia: (meet, (join, alg.join_table, alg.bot)),
               Box: (imp, (meet, alg.meet_table, alg.top))}
        ops[DiaInv], ops[BoxInv] = ops[Dia], ops[Box]
        tasks = []
        for f, (axes, subs) in self.nodes.items():
            if not subs:
                task = _LEAF, f, axes
            elif len(subs) == 2:
                task = _OP, ops[type(f)], *((self.slot[s], repeats(
                    self.nodes[s][0] + (_W,), axes + (_W,), dims)) for s in subs)
            else:
                task = (_IMAGE, *ops[type(f)], self.slot[subs[0]],
                        repeats((_U,), (_W, _U), dims), isinstance(f, (Dia, Box)))
            tasks.append(task)
        return sizes, charge(sizes), tasks


def _run(task: tuple, tables, frames: list) -> bytes:
    """One task's table on `frames`, reading its operands' in `tables`."""
    kind, *task = task
    if kind == _LEAF:
        f, axes = task
        return b"".join([bytes(fn(val)) for frame in frames for fn in [compile_eval(f, frame)]
                         for val in iter_valuations(frame, axes)])
    if kind == _OP:
        combine, (lhs, lreps), (rhs, rreps) = task
        return combine(broadcast(tables[lhs], lreps), broadcast(tables[rhs], rreps))
    # the operand at each (w, u), weighed by the relation there, folded over u
    weigh, fold_u, sub, wu, forward = task
    operand, n = broadcast(tables[sub], wu), frames[0].size
    per = len(operand) // (len(frames) * n * n)
    rel = b"".join([bytes(chain.from_iterable(f.rel if forward else zip(*f.rel))) * per
                    for f in frames])
    return fold(weigh(rel, operand), n, *fold_u)


class _System:
    """Truth tables of a fixed inequality list over fixed atom axes."""

    def __init__(self, ineqs: Iterable[Inequality], axes: tuple):
        self.ineqs = tuple(ineqs)
        self.axes = axes
        # per inequality, its atoms in axis order
        self.own = [tuple(a for a in axes if a in own) for own in map(_atoms, self.ineqs)]
        self.sized: dict = {}  # frame size -> cells, per inequality its slot and `repeats`

    def cells(self, sizes: dict) -> int:
        """Cells of the inequality and system tables that one frame's
        `masks` builds."""
        own = sum(prod(sizes[a] for a in s) for s in self.own)
        return own + max(1, len(self.ineqs)) * prod(sizes[a] for a in self.axes)

    def masks(self, tables: _Tables) -> bytes:
        """Per frame and cell, 1 when every inequality holds at every state, else 0."""
        sizes, n = tables.sizes, tables.n
        if n not in self.sized:
            self.sized[n] = prod(sizes[a] for a in self.axes), [
                (tables.slot[i], repeats(own, self.axes, sizes))
                for i, own in zip(self.ineqs, self.own)]
        cells, reads = self.sized[n]
        cells *= len(tables.batch)
        table = int.from_bytes(b"\1" * cells, "little")
        for k, reps in reads:
            held = fold(tables.tables[k], n, *_FOLDS[True])  # at every state
            table &= int.from_bytes(broadcast(held, reps), "little")
        return table.to_bytes(cells, "little")


# 0/1 masks fold as bool2 elements: universally by meets, existentially by joins
_B2 = builtin_algebra("bool2")
_FOLDS = {True: (combiner(2, _B2.meet_table), _B2.meet_table, _B2.top),
          False: (combiner(2, _B2.join_table), _B2.join_table, _B2.bot)}


def _first_failure(step: TraceStep, frames: Iterable[Frame], budget: Budget | None,
                   tables: _Tables, charge: Callable[[dict], int], verdicts: Callable,
                   describe: Callable) -> Optional[StepFailure]:
    """The first frame where the two `verdicts(tables)` of the batch it is in
    differ, and `describe(frame, cell, left, right)` there."""
    budget = Budget(sys.maxsize) if budget is None else budget  # no cap
    for _, run in groupby(frames, lambda frame: frame.size):
        run = list(run)
        _, found = scan(range(len(run)), len(run), [tables.plan(run[0], charge)], budget,
                        lambda i, k: verdicts(tables.build(run[i:i + k])))
        if found:
            d, _, cell, lhs, rhs = found
            return StepFailure(step, run[d], describe(run[d], cell, lhs, rhs))
    return None


def verify_step(
    step: TraceStep, frames: Iterable[Frame], budget: Budget | None = None
) -> Optional[StepFailure]:
    """None when the step is equivalence-preserving on every frame."""
    if step.rule == "first-approximation":
        return _verify_first_approximation(step, frames, budget)

    before_atoms = set().union(*map(_atoms, step.before))
    after_atoms = set().union(*map(_atoms, step.after))
    eliminated, introduced = {Var(v) for v in step.eliminated}, set(step.introduced)
    shared = tuple(sorted((before_atoms | after_atoms) - eliminated - introduced, key=str))
    private_before = tuple(sorted(before_atoms & eliminated, key=str))
    private_after = tuple(sorted(after_atoms & introduced, key=str))
    before = _System(step.before, shared + private_before)
    after = _System(step.after, shared + private_after)
    tables = _Tables(step.before + step.after, shared + private_before + private_after)

    # a closed uniform variable ranges universally (the rule keeps the
    # extremal instance); an eliminated variable ranges existentially
    # (the elimination lemma trades the variable for its bound)
    universal_before = step.rule == "close-uniform-variable"

    def charge(sizes: dict) -> int:
        return (tables.cells(sizes) + before.cells(sizes) + after.cells(sizes)
                + 2 * prod(sizes[a] for a in shared))

    def verdicts(tables: _Tables) -> tuple:
        sizes = tables.sizes
        return (fold(before.masks(tables), prod(sizes[a] for a in private_before),
                     *_FOLDS[universal_before]),
                fold(after.masks(tables), prod(sizes[a] for a in private_after), *_FOLDS[False]))

    def describe(frame: Frame, cell: int, lhs: int, rhs: int) -> str:
        valuation = next(islice(iter_valuations(frame, shared), cell, None))
        return f"consumed side {lhs == 1}, produced side {rhs == 1} under {_show(valuation, frame)}"

    return _first_failure(step, frames, budget, tables, charge, verdicts, describe)


def _verify_first_approximation(
    step: TraceStep, frames: Iterable[Frame], budget: Budget | None
) -> Optional[StepFailure]:
    # consumed: core & @a <= rhs, judged locally at each state;
    # produced: the three-inequality system with i0 based at that state
    (source,) = step.before
    i0, m0 = Nom(RESERVED_NOM), CoNom(RESERVED_CONOM)
    variables = tuple(sorted(_atoms(source), key=str))
    # i0 options run state by state, so with i0 first the cells where it is
    # based at one state form one chunk
    premises = _System(step.after, (i0,) + variables + (m0,))
    conclusion = _System((Inequality(i0, m0),), premises.axes)
    tables = _Tables((source,) + premises.ineqs + conclusion.ineqs, premises.axes)

    def charge(sizes: dict) -> int:
        return (tables.cells(sizes) + prod(sizes[a] for a in variables)
                + premises.cells(sizes) + conclusion.cells(sizes))

    def verdicts(tables: _Tables) -> tuple:
        # per frame and state w: local validity at w, and whether no cell
        # with i0 based at w holds the premises and fails the conclusion
        n, cells, count = tables.n, prod(tables.sizes.values()), len(tables.batch)
        held = int.from_bytes(premises.masks(tables), "little")
        failed = ~int.from_bytes(conclusion.masks(tables), "little")
        broken = fold((held & failed).to_bytes(count * cells, "little"), cells // n,
                      *_FOLDS[False])
        table = tables.tables[tables.slot[source]]
        span = len(table) // count
        return (bytes(0 not in table[d * span + w:(d + 1) * span:n]
                      for d in range(count) for w in range(n)), bytes(b == 0 for b in broken))

    return _first_failure(step, frames, budget, tables, charge, verdicts, lambda frame, w, lv, sv: (
        f"local validity {lv == 1} at state {w}, system validity {sv == 1}"))


def verify_trace(
    steps: Iterable[TraceStep], frames: list[Frame], budget: Budget | None = None
) -> Optional[StepFailure]:
    """The failure of the first unsound step, or None."""
    return next(filter(None, (verify_step(s, frames, budget) for s in steps)), None)


def _show(val: Valuation, frame: Frame) -> str:
    name, rows = frame.algebra.element_name, sorted(val.items(), key=lambda kv: str(kv[0]))
    return "{" + ", ".join(f"{a}=({','.join(map(name, row))})" for a, row in rows) + "}"

"""Frames, models, formula evaluation and validity over a finite algebra.

A frame carries an algebra-valued accessibility relation; a model adds an
algebra-valued valuation.  A formula's value on a frame is a vector with
one value per state, an element of the frame's complex algebra:
connectives act state by state, and box/diamond map a vector to its
`modal_image`, meets/joins over all states weighted by the relation.
Nominals must take a join-irreducible value at exactly one state (and
bottom elsewhere); co-nominals dually.

`valid_at` (local a-validity, quantifying over every valuation of the atoms
occurring in the formula) is exhaustive and budgeted; it is the ground
truth the rewriting pipelines are verified against.  It compares a with
the target's `validity_degree`, which one table of the kernel gives at
every state of a frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from operator import getitem
from typing import Callable, Iterable, Iterator, Sequence

import yaml

from .budget import Budget
from .errors import InvalidModel, UnboundAtom
from .heyting import HeytingAlgebra
from .syntax import (
    And,
    Box,
    BoxInv,
    CoNom,
    Const,
    Dia,
    DiaInv,
    Formula,
    Implies,
    Inequality,
    Minus,
    Nom,
    Or,
    Var,
    atoms,
    children,
)

Valuation = dict[Formula, tuple[int, ...]]


@dataclass(frozen=True)
class Frame:
    """Finite state set with an algebra-valued accessibility matrix."""

    algebra: HeytingAlgebra
    states: tuple[str, ...]
    rel: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.states)
        if len(self.rel) != n or any(len(row) != n for row in self.rel):
            raise InvalidModel("accessibility matrix must be total on W x W")
        for row in self.rel:
            for v in row:
                if not 0 <= v < self.algebra.n:
                    raise InvalidModel(f"relation value {v} outside the algebra")

    @property
    def size(self) -> int:
        return len(self.states)

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise InvalidModel(f"unknown state {name!r}")


@dataclass(frozen=True)
class Model:
    frame: Frame
    valuation: Valuation  # atom node -> value tuple over states

    def __post_init__(self):
        alg = self.frame.algebra
        n = self.frame.size
        for atom, row in self.valuation.items():
            if len(row) != n:
                raise InvalidModel(f"valuation row for {atom} has wrong length")
            if isinstance(atom, Nom):
                hits = [v for v in row if v != alg.bot]
                if len(hits) != 1 or hits[0] not in alg.join_irreducibles:
                    raise InvalidModel(
                        f"nominal {atom} must take one join-irreducible value"
                    )
            elif isinstance(atom, CoNom):
                hits = [v for v in row if v != alg.top]
                if len(hits) != 1 or hits[0] not in alg.meet_irreducibles:
                    raise InvalidModel(
                        f"co-nominal {atom} must take one meet-irreducible value"
                    )
            elif not isinstance(atom, Var):
                raise InvalidModel(f"valuation key {atom} is not an atom")


def compile_eval(f: Formula, frame: Frame) -> Callable[[Valuation], tuple[int, ...]]:
    """Compile a formula to a closure valuation -> its values over all states.

    Each subformula is evaluated once per call, as a vector over the states,
    by its `operation`; a modality's image is computed once per distinct
    operand vector the closure meets.  The closure raises UnboundAtom for
    missing atoms.
    """

    def compile_node(node: Formula) -> Callable[[Valuation], tuple[int, ...]]:
        if isinstance(node, Const):
            vector = (node.index,) * frame.size
            return lambda val: vector
        if isinstance(node, (Var, Nom, CoNom)):
            def lookup(val, node=node):
                try:
                    return val[node]
                except KeyError:
                    raise UnboundAtom(f"atom {node} is not in the valuation")
            return lookup
        op, subs = operation(frame, node), tuple(map(compile_node, children(node)))
        if len(subs) == 2:
            lf, rf = subs
            return lambda val: op(lf(val), rf(val))
        # across valuations an operand takes few distinct vectors
        (sf,), images = subs, {}

        def modal(val):
            vector = sf(val)
            if vector not in images:
                images[vector] = op(vector)
            return images[vector]
        return modal

    return compile_node(f)


_TABLES = {Or: "join_table", And: "meet_table", Implies: "imp_table", Minus: "coimp_table"}


def operation(frame: Frame, node: Formula) -> Callable[..., tuple[int, ...]]:
    """What a connective or a modality does to its operands' value vectors
    on this frame: the algebra's table state by state, or `modal_image`."""
    if type(node) in _TABLES:
        op_row = getattr(frame.algebra, _TABLES[type(node)]).__getitem__
        return lambda x, y: tuple(map(getitem, map(op_row, x), y))
    if not isinstance(node, (Dia, Box, DiaInv, BoxInv)):
        raise TypeError(f"not a formula: {node!r}")
    # the inverse modalities read the relation backwards
    rows = frame.rel if isinstance(node, (Dia, Box)) else tuple(zip(*frame.rel))
    diamond = isinstance(node, (Dia, DiaInv))
    return lambda vector: modal_image(frame.algebra, rows, vector, diamond)


def modal_image(alg: HeytingAlgebra, rows, vector, diamond: bool) -> tuple[int, ...]:
    """Per state w, the join over u of rows[w][u] & vector[u] (a diamond),
    or the meet over u of rows[w][u] -> vector[u] (a box)."""
    fold, weigh = (alg.join_all, alg.meet_table) if diamond else (alg.meet_all, alg.imp_table)
    return tuple([fold(map(getitem, map(weigh.__getitem__, row), vector)) for row in rows])


def eval_formula(model: Model, f: Formula, w) -> int:
    """Truth value of f at state w (by name or index)."""
    if isinstance(w, str):
        w = model.frame.state_index(w)
    return compile_eval(f, model.frame)(model.valuation)[w]


def a_true_at(model: Model, f: Formula, w, a: int) -> bool:
    """f holds at w to degree at least a under this model's valuation."""
    return model.frame.algebra.le(a, eval_formula(model, f, w))


def check_inequality(model: Model, ineq: Inequality, w, a: int) -> bool:
    """Local a-truth of lhs <= rhs: value(a & lhs) below value(rhs)."""
    alg = model.frame.algebra
    if isinstance(w, str):
        w = model.frame.state_index(w)
    lhs = eval_formula(model, ineq.lhs, w)
    rhs = eval_formula(model, ineq.rhs, w)
    return alg.le(alg.meet(a, lhs), rhs)


# -- valuation enumeration ----------------------------------------------------


def atom_options(frame: Frame, atom: Formula) -> list[tuple[int, ...]]:
    """The rows over the states an atom can take, nominals' state by state."""
    alg = frame.algebra
    n = frame.size
    if isinstance(atom, Var):
        return [tuple(row) for row in product(range(alg.n), repeat=n)]
    if isinstance(atom, Nom):
        out = []
        for w in range(n):
            for j in alg.join_irreducibles:
                row = [alg.bot] * n
                row[w] = j
                out.append(tuple(row))
        return out
    if isinstance(atom, CoNom):
        out = []
        for w in range(n):
            for m in alg.meet_irreducibles:
                row = [alg.top] * n
                row[w] = m
                out.append(tuple(row))
        return out
    raise UnboundAtom(f"not an atom: {atom}")


def iter_valuations(frame: Frame, over: Iterable[Formula]) -> Iterator[Valuation]:
    """All valuations of the given atoms, nominal/co-nominal constraints kept."""
    over = sorted(set(over), key=str)
    options = [atom_options(frame, atom) for atom in over]
    for combo in product(*options):
        yield dict(zip(over, combo))


def validity_degree(frame: Frame, target, budget: Budget | None = None) -> tuple[int, ...]:
    """Per state, the target's validity degree: one kernel table of
    `fol.degree_claim`, with x free."""
    from .fol import _X, CompiledFo, degree_claim, interp_for_frame  # fol imports us

    kernel = CompiledFo(interp_for_frame(frame), degree_claim(target), budget)
    return tuple(kernel.value({_X: w}) for w in range(frame.size))


# (target, budget, frames, their indices by id, the batch's degree kernel,
# its state symbol x, index of the frame last charged) of the last batch's
# degree table; holding the frames and the budget, matched by identity,
# keeps their ids from being reused
_last_degree: tuple = (None, None, (), {}, None, None, -1)


def valid_at(
    frame: Frame, target, w, a: int, budget: Budget | None = None,
    batch: Sequence[Frame] = (),
) -> bool:
    """Local a-validity at w under every valuation of the atoms: a below the
    value of a formula, or a & lhs below rhs for an inequality lhs <= rhs.
    By residuation, a below the `validity_degree` at w.  `compile_eval`
    over `iter_valuations` is its reference.

    `batch` is a run of frames of one size that holds `frame` (the oracle's
    current batch).  A call on a frame that the last degree table does not
    cover, for this target and budget object, builds a new one
    (`fol.CompiledFo`) for `frame` and the frames after it in `batch`, as
    many as it fits, charging `frame`'s cells first.  A call on another
    frame the table covers charges that frame's cells; further calls on the
    same frame charge nothing.  So each frame is charged at its first
    state, as if it had a table of its own.  Each call reads one cell."""
    global _last_degree
    if isinstance(w, str):
        w = frame.state_index(w)
    last_target, last_budget, frames, index, kernel, x, current = _last_degree
    k = index.get(id(frame), -1)
    if k < 0 or last_budget is not budget or last_target != target:
        from .fol import _X as x, CompiledFo, degree_claim, interp_for_frame

        start = next((j for j, g in enumerate(batch) if g is frame), len(batch))
        kernel = CompiledFo(interp_for_frame(frame), degree_claim(target), budget,
                            islice(batch, start + 1, None))
        frames = (frame, *islice(batch, start + 1, start + kernel.frames))
        index = {id(g): j for j, g in enumerate(frames)}
        k = 0
    elif k != current and budget is not None:
        budget.charge(kernel.cells)
    _last_degree = (target, budget, frames, index, kernel, x, k)
    return frame.algebra.le(a, kernel.value({x: w}, k))


# -- complex algebra ----------------------------------------------------------


@dataclass
class ComplexAlgebra:
    """Algebra of all fuzzy subsets of a frame, with the two relation operators."""

    frame: Frame
    carrier: list[tuple[int, ...]]
    index: dict[tuple[int, ...], int]
    algebra: HeytingAlgebra
    dia_op: list[int]
    box_op: list[int]

    def apply_dia(self, e: int) -> int:
        return self.dia_op[e]


def complex_algebra(frame: Frame, budget: Budget | None = None) -> ComplexAlgebra:
    """Build the full function algebra over the frame, and validate it.

    The operators are checked completely join-/meet-preserving; on a finite
    carrier binary plus empty joins already give complete preservation.
    """
    alg = frame.algebra
    n = frame.size
    if budget is not None:
        budget.charge(alg.n ** n)
    carrier = [tuple(row) for row in product(range(alg.n), repeat=n)]
    index = {row: i for i, row in enumerate(carrier)}
    names = ["f" + "".join(alg.element_name(v) for v in row) for row in carrier]
    leq = [
        [all(alg.le(x, y) for x, y in zip(r1, r2)) for r2 in carrier]
        for r1 in carrier
    ]
    pointwise = HeytingAlgebra(names, leq, name="complex")

    dia_op = [index[modal_image(alg, frame.rel, row, True)] for row in carrier]
    box_op = [index[modal_image(alg, frame.rel, row, False)] for row in carrier]

    ca = ComplexAlgebra(frame, carrier, index, pointwise, dia_op, box_op)
    _validate_complex(ca, budget)
    return ca


def _validate_complex(ca: ComplexAlgebra, budget: Budget | None) -> None:
    alg = ca.algebra
    if ca.dia_op[alg.bot] != alg.bot:
        raise InvalidModel("diamond operator does not preserve the empty join")
    if ca.box_op[alg.top] != alg.top:
        raise InvalidModel("box operator does not preserve the empty meet")
    for x in range(alg.n):
        for y in range(alg.n):
            if budget is not None:
                budget.charge()
            if ca.dia_op[alg.join(x, y)] != alg.join(ca.dia_op[x], ca.dia_op[y]):
                raise InvalidModel("diamond operator does not preserve joins")
            if ca.box_op[alg.meet(x, y)] != alg.meet(ca.box_op[x], ca.box_op[y]):
                raise InvalidModel("box operator does not preserve meets")


def complex_validates(ca: ComplexAlgebra, ineq: Inequality,
                      budget: Budget | None = None) -> bool:
    """Equational validity of lhs <= rhs in the complex algebra: both sides
    evaluated as elements of it, value vectors over the frame's states,
    under every valuation of the inequality's atoms."""
    lhs, rhs = compile_eval(ineq.lhs, ca.frame), compile_eval(ineq.rhs, ca.frame)
    for val in iter_valuations(ca.frame, atoms(ineq.lhs) | atoms(ineq.rhs)):
        if budget is not None:
            budget.charge()
        if not ca.algebra.le(ca.index[lhs(val)], ca.index[rhs(val)]):
            return False
    return True


# -- frame/model files --------------------------------------------------------


def parse_frame_text(text: str, alg: HeytingAlgebra) -> Frame:
    """Load a frame from structured text with `states` and `rel` fields."""
    doc = _load_doc(text)
    states = tuple(str(s) for s in doc.get("states", []))
    if not states:
        raise InvalidModel("frame needs a nonempty `states` list")
    rel = [[alg.bot] * len(states) for _ in states]
    idx = {s: i for i, s in enumerate(states)}
    if len(idx) != len(states):
        dup = next(s for s in states if states.count(s) > 1)
        raise InvalidModel(f"state {dup!r} is listed more than once")
    for entry in doc.get("rel", []):
        try:
            src, dst, value = entry
        except (TypeError, ValueError):
            raise InvalidModel(f"bad rel entry {entry!r}")
        if str(src) not in idx or str(dst) not in idx:
            raise InvalidModel(f"rel entry {entry!r} names unknown states")
        rel[idx[str(src)]][idx[str(dst)]] = alg.element(str(value))
    return Frame(alg, states, tuple(tuple(row) for row in rel))


def parse_model_text(text: str, alg: HeytingAlgebra) -> Model:
    """Load a model: a frame plus a `val: [[atom, state, value], ...]` field."""
    frame = parse_frame_text(text, alg)
    doc = _load_doc(text)
    rows: dict[Formula, list[int]] = {}
    defaults: dict[type, int] = {Var: alg.bot, Nom: alg.bot, CoNom: alg.top}
    for entry in doc.get("val", []):
        try:
            atom_text, state, value = entry
        except (TypeError, ValueError):
            raise InvalidModel(f"bad val entry {entry!r}")
        atom = _parse_atom(str(atom_text))
        if atom not in rows:
            rows[atom] = [defaults[type(atom)]] * frame.size
        rows[atom][frame.state_index(str(state))] = alg.element(str(value))
    return Model(frame, {k: tuple(v) for k, v in rows.items()})


def _parse_atom(text: str) -> Formula:
    if text.startswith("#"):
        return Nom(text[1:])
    if text.startswith("$"):
        return CoNom(text[1:])
    return Var(text)


def _load_doc(text: str) -> dict:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise InvalidModel(f"unparseable frame/model file: {exc}")
    if not isinstance(doc, dict):
        raise InvalidModel("frame/model file must hold a mapping")
    return doc

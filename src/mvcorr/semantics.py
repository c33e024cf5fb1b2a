"""Frames, models, formula evaluation and validity over a finite algebra.

A frame carries an algebra-valued accessibility relation; a model adds an
algebra-valued valuation.  Truth of a formula at a state is computed by the
usual recursive clauses, with box/diamond taking meets/joins over all
states weighted by the relation.  Nominals must take a join-irreducible
value at exactly one state (and bottom elsewhere); co-nominals dually.

`valid_at` (local a-validity, quantifying over every valuation of the atoms
occurring in the formula) is exhaustive and budgeted; it is the ground
truth the rewriting pipelines are verified against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Iterable, Iterator

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


def compile_eval(f: Formula, frame: Frame) -> Callable[[Valuation, int], int]:
    """Compile a formula to a closure value(valuation, state) over the frame.

    Compiling once and calling per valuation keeps exhaustive validity
    checks cheap; the closure raises UnboundAtom for missing atoms.
    """
    alg = frame.algebra
    rel = frame.rel
    n = frame.size
    states = range(n)
    meet, join, imp, coimp = alg.meet, alg.join, alg.imp, alg.coimp
    bot, topv = alg.bot, alg.top

    def compile_node(node: Formula) -> Callable[[Valuation, int], int]:
        if isinstance(node, Const):
            idx = node.index
            return lambda val, w: idx
        if isinstance(node, (Var, Nom, CoNom)):
            def lookup(val, w, node=node):
                try:
                    return val[node][w]
                except KeyError:
                    raise UnboundAtom(f"atom {node} is not in the valuation")
            return lookup
        if isinstance(node, Or):
            lf, rf = compile_node(node.lhs), compile_node(node.rhs)
            return lambda val, w: join(lf(val, w), rf(val, w))
        if isinstance(node, And):
            lf, rf = compile_node(node.lhs), compile_node(node.rhs)
            return lambda val, w: meet(lf(val, w), rf(val, w))
        if isinstance(node, Implies):
            lf, rf = compile_node(node.lhs), compile_node(node.rhs)
            return lambda val, w: imp(lf(val, w), rf(val, w))
        if isinstance(node, Minus):
            lf, rf = compile_node(node.lhs), compile_node(node.rhs)
            return lambda val, w: coimp(lf(val, w), rf(val, w))
        if isinstance(node, (Dia, Box, DiaInv, BoxInv)):
            # a diamond joins relation-weighted meets and stops at top, a box
            # meets relation-weighted implications and stops at bottom; the
            # inverse modalities read the relation backwards
            sf = compile_node(node.sub)
            diamond = isinstance(node, (Dia, DiaInv))
            fold, weigh, unit, stop = (join, meet, bot, topv) if diamond else (meet, imp, topv, bot)
            rows = rel if isinstance(node, (Dia, Box)) else tuple(zip(*rel))

            def modal(val, w):
                out, row = unit, rows[w]
                for u in states:
                    out = fold(out, weigh(row[u], sf(val, u)))
                    if out == stop:
                        break
                return out
            return modal
        raise TypeError(f"not a formula: {node!r}")

    return compile_node(f)


def eval_formula(model: Model, f: Formula, w) -> int:
    """Truth value of f at state w (by name or index)."""
    if isinstance(w, str):
        w = model.frame.state_index(w)
    return compile_eval(f, model.frame)(model.valuation, w)


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


def iter_valuations(
    frame: Frame,
    over: Iterable[Formula],
    budget: Budget | None = None,
) -> Iterator[Valuation]:
    """All valuations of the given atoms, nominal/co-nominal constraints kept."""
    over = sorted(set(over), key=str)
    options = [atom_options(frame, atom) for atom in over]
    for combo in product(*options):
        if budget is not None:
            budget.charge()
        yield dict(zip(over, combo))


def valid_at(
    frame: Frame, target, w, a: int, budget: Budget | None = None
) -> bool:
    """Local a-validity at w under every valuation of the atoms: a below the
    value of a formula, or a & lhs below rhs for an inequality lhs <= rhs.
    Evaluated by the table kernel on `fol.validity_claim` with x pinned to
    w; `compile_eval` over `iter_valuations` is its reference."""
    from .fol import CompiledFo, FoInterp, FoVar, validity_claim  # fol imports us

    if isinstance(w, str):
        w = frame.state_index(w)
    alg = frame.algebra
    interp = FoInterp(frame, {}, {FoVar("x"): w}, {})
    claim = validity_claim(target, a, alg)
    return CompiledFo(interp, claim, budget).value() == alg.top


a_valid_at = inequality_valid_at = valid_at


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

    def apply_box(self, e: int) -> int:
        return self.box_op[e]


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

    def dia_of(row):
        return tuple(
            alg.join_all(alg.meet(frame.rel[w][u], row[u]) for u in range(n))
            for w in range(n)
        )

    def box_of(row):
        return tuple(
            alg.meet_all(alg.imp(frame.rel[w][u], row[u]) for u in range(n))
            for w in range(n)
        )

    dia_op = [index[dia_of(row)] for row in carrier]
    box_op = [index[box_of(row)] for row in carrier]

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


def eval_in_complex(ca: ComplexAlgebra, f: Formula, assignment: dict[str, int]) -> int:
    """Interpret a formula as a term in the complex algebra."""
    alg = ca.algebra
    base = ca.frame.algebra
    if isinstance(f, Const):
        return ca.index[tuple([f.index] * ca.frame.size)]
    if isinstance(f, Var):
        try:
            return assignment[f.name]
        except KeyError:
            raise UnboundAtom(f.name)
    if isinstance(f, Or):
        return alg.join(eval_in_complex(ca, f.lhs, assignment),
                        eval_in_complex(ca, f.rhs, assignment))
    if isinstance(f, And):
        return alg.meet(eval_in_complex(ca, f.lhs, assignment),
                        eval_in_complex(ca, f.rhs, assignment))
    if isinstance(f, Implies):
        return alg.imp(eval_in_complex(ca, f.lhs, assignment),
                       eval_in_complex(ca, f.rhs, assignment))
    if isinstance(f, Minus):
        return alg.coimp(eval_in_complex(ca, f.lhs, assignment),
                         eval_in_complex(ca, f.rhs, assignment))
    if isinstance(f, Dia):
        return ca.apply_dia(eval_in_complex(ca, f.sub, assignment))
    if isinstance(f, Box):
        return ca.apply_box(eval_in_complex(ca, f.sub, assignment))
    raise TypeError(f"complex-algebra terms cover the base language only: {f!r}")


def complex_validates(ca: ComplexAlgebra, ineq: Inequality,
                      budget: Budget | None = None) -> bool:
    """Equational validity of lhs <= rhs in the complex algebra."""
    vars_ = sorted(
        {a.name for a in (atoms(ineq.lhs) | atoms(ineq.rhs)) if isinstance(a, Var)}
    )
    for combo in product(range(ca.algebra.n), repeat=len(vars_)):
        if budget is not None:
            budget.charge()
        assignment = dict(zip(vars_, combo))
        lhs = eval_in_complex(ca, ineq.lhs, assignment)
        rhs = eval_in_complex(ca, ineq.rhs, assignment)
        if not ca.algebra.le(lhs, rhs):
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

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
from itertools import chain, product
from operator import getitem
from typing import Callable, Iterable, Iterator

from .budget import Budget
from .errors import FormulaSyntaxError, InvalidModel, UnboundAtom
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
    Minus,
    Nom,
    Or,
    Var,
    children,
    naming_clash,
    tokenize,
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

    @property
    def cells(self) -> bytes:  # the relation row-major, one element per byte: the kernel's input
        return bytes(chain.from_iterable(self.rel))

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
        n = self.frame.size
        for atom, row in self.valuation.items():
            if len(row) != n:
                raise InvalidModel(f"valuation row for {atom} has wrong length")
            if isinstance(atom, Nom) and tuple(row) not in atom_options(self.frame, atom):
                raise InvalidModel(f"nominal {atom} must take one join-irreducible value")
            if isinstance(atom, CoNom) and tuple(row) not in atom_options(self.frame, atom):
                raise InvalidModel(f"co-nominal {atom} must take one meet-irreducible value")
            if not isinstance(atom, (Var, Nom, CoNom)):
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


# -- valuation enumeration ----------------------------------------------------


def atom_options(frame: Frame, atom: Formula) -> list[tuple[int, ...]]:
    """The rows over the states an atom can take, nominals' state by state."""
    alg = frame.algebra
    n = frame.size
    if isinstance(atom, Var):
        return list(product(range(alg.n), repeat=n))
    if isinstance(atom, Nom):
        rest, values = alg.bot, alg.join_irreducibles
    elif isinstance(atom, CoNom):
        rest, values = alg.top, alg.meet_irreducibles
    else:
        raise UnboundAtom(f"not an atom: {atom}")
    out = []
    for w in range(n):
        row = [rest] * n
        for v in values:
            row[w] = v
            out.append(tuple(row))
    return out


def iter_valuations(frame: Frame, over: Iterable[Formula]) -> Iterator[Valuation]:
    """All valuations of the given atoms, nominal/co-nominal constraints kept."""
    over = sorted(set(over), key=str)
    options = [atom_options(frame, atom) for atom in over]
    for combo in product(*options):
        yield dict(zip(over, combo))


def validity_degree(frame: Frame, target, budget: Budget | None = None) -> tuple[int, ...]:
    """Per state, the target's validity degree: one kernel table of
    `fol.degree_claim`, with x free, whose cells are charged first."""
    from .fol import _X, CompiledFo, _plan, degree_claim  # fol imports us

    plan = _plan(frame.algebra, degree_claim(target), frame.size)
    if budget is not None:
        budget.charge(plan.cells)
    kernel = CompiledFo(plan, frame.cells)
    return tuple(kernel.value({_X: w}) for w in range(frame.size))


def valid_at(frame: Frame, target, w, a: int, budget: Budget | None = None) -> bool:
    """Local a-validity at w under every valuation of the atoms: a below the
    value of a formula, or a & lhs below rhs for an inequality lhs <= rhs.
    By residuation, a below the `validity_degree` at w, so each call builds
    and charges one degree table.  `compile_eval` over `iter_valuations` is
    its reference.  The oracle calls it only at a counterexample."""
    if isinstance(w, str):
        w = frame.state_index(w)
    return frame.algebra.le(a, validity_degree(frame, target, budget)[w])


# -- frame/model files --------------------------------------------------------


def parse_frame_text(text: str, alg: HeytingAlgebra) -> Frame:
    """Load a frame from structured text with `states` and `rel` fields."""
    return _frame_from_doc(_load_doc(text), alg)


def _frame_from_doc(doc: dict, alg: HeytingAlgebra) -> Frame:
    states = tuple(str(s) for s in _listed(doc, "states"))
    if not states:
        raise InvalidModel("frame needs a nonempty `states` list")
    rel = [[alg.bot] * len(states) for _ in states]
    idx = {s: i for i, s in enumerate(states)}
    if len(idx) != len(states):
        dup = next(s for s in states if states.count(s) > 1)
        raise InvalidModel(f"state {dup!r} is listed more than once")
    seen = set()
    for entry in _listed(doc, "rel"):
        try:
            src, dst, value = entry
        except (TypeError, ValueError):
            raise InvalidModel(f"bad rel entry {entry!r}")
        if str(src) not in idx or str(dst) not in idx:
            raise InvalidModel(f"rel entry {entry!r} names unknown states")
        pair = idx[str(src)], idx[str(dst)]
        if pair in seen:
            raise InvalidModel(f"rel entry {entry!r} repeats the pair ({src}, {dst})")
        seen.add(pair)
        rel[pair[0]][pair[1]] = alg.element(str(value))
    return Frame(alg, states, tuple(tuple(row) for row in rel))


def parse_model_text(text: str, alg: HeytingAlgebra) -> Model:
    """Load a model: a frame plus a `val: [[atom, state, value], ...]` field."""
    doc = _load_doc(text)
    frame = _frame_from_doc(doc, alg)
    rows: dict[Formula, list[int]] = {}
    defaults: dict[type, int] = {Var: alg.bot, Nom: alg.bot, CoNom: alg.top}
    seen = set()
    for entry in _listed(doc, "val"):
        try:
            atom_text, state, value = entry
        except (TypeError, ValueError):
            raise InvalidModel(f"bad val entry {entry!r}")
        atom = _parse_atom(str(atom_text))
        if atom is None:
            raise InvalidModel(f"val entry {entry!r} does not name an atom")
        w = frame.state_index(str(state))
        if (atom, w) in seen:
            raise InvalidModel(f"val entry {entry!r} repeats {atom} at {state}")
        seen.add((atom, w))
        if atom not in rows:
            rows[atom] = [defaults[type(atom)]] * frame.size
        rows[atom][w] = alg.element(str(value))
    return Model(frame, {k: tuple(v) for k, v in rows.items()})


def _parse_atom(text: str) -> Formula | None:
    """The atom a formula names by exactly this text, or None: one
    identifier, nominal or co-nominal token, under the naming rule."""
    try:
        tokens = tokenize(text)
    except FormulaSyntaxError:
        return None
    token = tokens[0]
    if len(tokens) != 2 or token.kind not in ("ident", "nom", "conom") or token.text != text:
        return None
    if clash := naming_clash(text):
        raise InvalidModel(clash)
    if token.kind == "ident":
        return Var(text)
    return (Nom if token.kind == "nom" else CoNom)(text[1:])


def _listed(doc: dict, field: str) -> list:
    value = doc.get(field, [])
    if not isinstance(value, list):
        raise InvalidModel(f"`{field}` must be a list, found {value!r}")
    return value


def _load_doc(text: str) -> dict:
    import yaml  # only files need the parser
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise InvalidModel(f"unparseable frame/model file: {exc}")
    if not isinstance(doc, dict):
        raise InvalidModel("frame/model file must hold a mapping")
    return doc

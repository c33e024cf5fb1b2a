"""First- and second-order correspondence language: syntax and evaluation.

Formulas are evaluated over frames into the same algebra as modal formulas.
Equality and the comparison connective `=<` are crisp (value bottom or
top).  The quantifiers `Forall` and `Exists` take meets and joins over the
domain of the sort of the symbol they bind: an individual symbol (a `Term`)
ranges over the states, a predicate name (a `str`) over every fuzzy subset
(budgeted), and a nominal's or co-nominal's truth-value symbol (`NomTV`,
`CoNomTV`) over the join- or meet-irreducibles.  `fo_eval` is the reference
evaluator; `CompiledFo` is the table kernel every oracle uses.

`standard_translation` embeds modal formulas; the output is clean (no
variable occurs both free and bound, distinct quantifiers bind distinct
variables).  `degree_claim` extends it to the second-order validity
degree, which is how the oracles check the modal side; `validity_claim`,
the sentence of local a-validity, stays as its specification.
`simplify_display` brings a clean formula to its normal form by sound
rewrites, innermost first, among them the density rules that eliminate
nominal and co-nominal symbols.  Each rule lowers its group's measure: the
size, the `->` count (currying), the non-constant nodes (absorption), or a
binder's scope or its place right of `->` (quantifier moves).  A display
is the output printed, and the CLI verifies it as parsed back.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import lru_cache, reduce
from itertools import product
from operator import getitem
from typing import Callable, Optional

from .budget import Budget
from .errors import FormulaSyntaxError, UnboundSymbol
from .heyting import HeytingAlgebra
from .semantics import Frame, Model
from . import syntax
from .syntax import Formula as ModalFormula


class Term:
    __slots__ = ()

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class FoVar(Term):
    name: str


@dataclass(frozen=True)
class NomConst(Term):
    """Individual constant naming the state a nominal points at."""

    name: str


@dataclass(frozen=True)
class CoNomConst(Term):
    name: str


class Fo:
    """Base class for first-/second-order formula nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return print_fo(self)


@dataclass(frozen=True)
class Eq(Fo):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Rel(Fo):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Pred(Fo):
    name: str
    arg: Term


@dataclass(frozen=True)
class TruthConst(Fo):
    name: str
    index: int


@dataclass(frozen=True)
class NomTV(Fo):
    """Truth-value symbol recording a nominal's degree (a join-irreducible)."""

    name: str


@dataclass(frozen=True)
class CoNomTV(Fo):
    name: str


@dataclass(frozen=True)
class FoOr(Fo):
    lhs: Fo
    rhs: Fo


@dataclass(frozen=True)
class FoAnd(Fo):
    lhs: Fo
    rhs: Fo


@dataclass(frozen=True)
class FoImplies(Fo):
    lhs: Fo
    rhs: Fo


@dataclass(frozen=True)
class FoMinus(Fo):
    lhs: Fo
    rhs: Fo


@dataclass(frozen=True)
class Preceq(Fo):
    """Crisp comparison: top when lhs evaluates below rhs, else bottom."""

    lhs: Fo
    rhs: Fo


@dataclass(frozen=True)
class Forall(Fo):
    """The meet of `body` over the domain of `var`'s sort (see `domain_of`):
    the states for a `Term`, every fuzzy subset for a predicate name, the
    join-irreducibles for a `NomTV`, the meet-irreducibles for a `CoNomTV`."""

    var: Term | str | Fo
    body: Fo


@dataclass(frozen=True)
class Exists(Fo):
    """The join of `body` over the domain of `var`'s sort, as for `Forall`."""

    var: Term | str | Fo
    body: Fo


syntax.cache_hash(Term)
syntax.cache_hash(Fo)

BOT = TruthConst("0", 0)
TOP = TruthConst("1", 1)


def neq(lhs: Term, rhs: Term) -> Fo:
    """Crisp inequation, encoded as (lhs = rhs) -> @0."""
    return FoImplies(Eq(lhs, rhs), BOT)


def fo_children(f: Fo) -> tuple[Fo, ...]:
    if isinstance(f, (FoOr, FoAnd, FoImplies, FoMinus, Preceq)):
        return (f.lhs, f.rhs)
    if isinstance(f, (Forall, Exists)):
        return (f.body,)
    return ()


def fo_rebuild(f: Fo, subs: tuple[Fo, ...]) -> Fo:
    if isinstance(f, (FoOr, FoAnd, FoImplies, FoMinus, Preceq)):
        return type(f)(subs[0], subs[1])
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, subs[0])
    return f


def terms_of(f: Fo) -> tuple[Term, ...]:
    if isinstance(f, (Eq, Rel)):
        return (f.lhs, f.rhs)
    if isinstance(f, Pred):
        return (f.arg,)
    return ()


def free_symbols(f: Fo) -> set:
    """The symbols of every sort free in f: individual symbols (`Term`s),
    predicate names and truth-value symbols (`NomTV`, `CoNomTV`)."""
    if isinstance(f, (NomTV, CoNomTV)):
        return {f}
    if isinstance(f, (Forall, Exists)):
        return free_symbols(f.body) - {f.var}
    out = set(terms_of(f))
    if isinstance(f, Pred):
        out.add(f.name)
    for c in fo_children(f):
        out |= free_symbols(c)
    return out


def truth_constants(f: Fo) -> set[int]:
    """The elements the truth constants of f name."""
    if isinstance(f, TruthConst):
        return {f.index}
    return set().union(*map(truth_constants, fo_children(f)))


def free_individual_symbols(f: Fo) -> set[Term]:
    """Free individual variables and nominal/co-nominal constants of f."""
    return {s for s in free_symbols(f) if isinstance(s, Term)}


def free_pred_names(f: Fo) -> set[str]:
    return {s for s in free_symbols(f) if isinstance(s, str)}


def is_clean(f: Fo) -> bool:
    """No individual variable both free and bound; distinct individual
    quantifiers, distinct variables."""
    bound: list[Term] = []

    def collect(node: Fo) -> None:
        if isinstance(node, (Forall, Exists)) and isinstance(node.var, Term):
            bound.append(node.var)
        for c in fo_children(node):
            collect(c)

    collect(f)
    if len(bound) != len(set(bound)):
        return False
    return not (set(bound) & free_individual_symbols(f))


# -- evaluation ----------------------------------------------------------------


@dataclass
class FoInterp:
    """Interpretation of the non-logical symbols over a frame."""

    frame: Frame
    preds: dict[str, tuple[int, ...]]
    consts: dict[Term, int]  # NomConst/CoNomConst -> state index
    tvs: dict[Fo, int]  # NomTV/CoNomTV -> algebra element


def interp_for_frame(frame: Frame) -> FoInterp:
    return FoInterp(frame, {}, {}, {})


def interp_for_model(model: Model) -> FoInterp:
    """The corresponding first-order model of a modal model."""
    alg = model.frame.algebra
    preds: dict[str, tuple[int, ...]] = {}
    consts: dict[Term, int] = {}
    tvs: dict[Fo, int] = {}
    for atom, row in model.valuation.items():
        if isinstance(atom, syntax.Var):
            preds[atom.name] = row
        elif isinstance(atom, syntax.Nom):
            w = next(i for i, v in enumerate(row) if v != alg.bot)
            consts[NomConst(atom.name)] = w
            tvs[NomTV(atom.name)] = row[w]
        elif isinstance(atom, syntax.CoNom):
            w = next(i for i, v in enumerate(row) if v != alg.top)
            consts[CoNomConst(atom.name)] = w
            tvs[CoNomTV(atom.name)] = row[w]
    return FoInterp(model.frame, preds, consts, tvs)


def fo_eval(
    interp: FoInterp,
    f: Fo,
    env: dict | None = None,
    budget: Budget | None = None,
) -> int:
    """Truth value of f under an assignment of its free symbols.

    `env` maps individual symbols to state indices, truth-value symbols to
    algebra elements, and (shadowing interp.preds) predicate names to rows.
    """
    alg = interp.frame.algebra
    n = interp.frame.size
    env = {} if env is None else dict(env)

    def term_value(t: Term) -> int:
        if t in env:
            return env[t]
        if t in interp.consts:
            return interp.consts[t]
        raise UnboundSymbol(f"individual symbol {t} is unbound")

    def pred_row(name: str) -> tuple[int, ...]:
        if name in env:
            return env[name]
        if name in interp.preds:
            return interp.preds[name]
        raise UnboundSymbol(f"predicate {name} is unbound")

    def go(node: Fo) -> int:
        if budget is not None:
            budget.charge()
        if isinstance(node, Eq):
            return alg.top if term_value(node.lhs) == term_value(node.rhs) else alg.bot
        if isinstance(node, Rel):
            return interp.frame.rel[term_value(node.lhs)][term_value(node.rhs)]
        if isinstance(node, Pred):
            return pred_row(node.name)[term_value(node.arg)]
        if isinstance(node, TruthConst):
            return node.index
        if isinstance(node, (NomTV, CoNomTV)):
            if node in env:
                return env[node]
            if node in interp.tvs:
                return interp.tvs[node]
            raise UnboundSymbol(f"truth-value symbol {node} is unbound")
        if isinstance(node, FoOr):
            left = go(node.lhs)
            if left == alg.top:
                return left
            return alg.join(left, go(node.rhs))
        if isinstance(node, FoAnd):
            left = go(node.lhs)
            if left == alg.bot:
                return left
            return alg.meet(left, go(node.rhs))
        if isinstance(node, FoImplies):
            left = go(node.lhs)
            if left == alg.bot:
                return alg.top
            return alg.imp(left, go(node.rhs))
        if isinstance(node, FoMinus):
            return alg.coimp(go(node.lhs), go(node.rhs))
        if isinstance(node, Preceq):
            return alg.top if alg.le(go(node.lhs), go(node.rhs)) else alg.bot
        if isinstance(node, (Forall, Exists)):
            forall = isinstance(node, Forall)
            values = domain_of(alg, n, node.var)
            rows = values is _ROWS  # each predicate row costs one unit
            out = alg.top if forall else alg.bot
            saved = env.get(node.var, _MISSING)
            for v in product(range(alg.n), repeat=n) if rows else values:
                if rows and budget is not None:
                    budget.charge()
                env[node.var] = v
                value = go(node.body)
                out = alg.meet(out, value) if forall else alg.join(out, value)
                if out == (alg.bot if forall else alg.top):
                    break
            _restore(env, node.var, saved)
            return out
        raise TypeError(f"not a first-order formula: {node!r}")

    return go(f)


_MISSING = object()
_ROWS = "rows"  # the domain of a predicate: every fuzzy subset


def domain_of(alg: HeytingAlgebra, size: int, var):
    """The values a bound symbol ranges over on frames of `size` states, by
    its sort: the states for a `Term`, `_ROWS` for a predicate name, the
    join-irreducibles for a `NomTV` and the meet-irreducibles for a
    `CoNomTV`.  `_ROWS` stands for the alg.n ** size rows, unlisted."""
    if isinstance(var, Term):
        return range(size)
    if isinstance(var, str):
        return _ROWS
    return alg.join_irreducibles if isinstance(var, NomTV) else alg.meet_irreducibles


def _restore(env: dict, key, saved) -> None:
    if saved is _MISSING:
        env.pop(key, None)
    else:
        env[key] = saved


class CompiledFo:
    """A formula tabulated by the table kernel from its `_plan` on frames of
    the plan's size, from one flat buffer `rels` of their relations,
    frame-major, each frame's cells row-major (`Frame.cells`), one element
    per byte.

    Every subformula becomes a flat row-major `bytes` table, one element
    index per cell, with one axis per free symbol, axes ordered by binding
    depth so that each quantifier folds the last axis of its body.  A
    connective repeats blocks of its operands' tables out to its own axes
    (`broadcast`) and maps each pair of cells through the algebra's
    operation table (`combiner`); every free symbol gets an axis.  The
    plan depends only on the algebra, the formula and the frame size; per
    batch only the subformulas that read the relation run, with the frames
    as their outermost axis, and `value(env, frame)` reads the root table.
    Values equal fo_eval's.  The kernel tabulates every frame it is handed
    and charges nothing: its caller charges the plan's `cells` per frame
    first (see `budget`).
    """

    def __init__(self, plan: _Plan, rels: bytes):
        self.frames = len(rels) // (plan.size * plan.size)
        self.root = plan.root
        self.table = plan.run(rels, self.frames)
        self.span = len(self.table) // self.frames  # root cells per frame

    def value(self, env: dict | None = None, frame: int = 0) -> int:
        """Value on the batch's frame number `frame` under an assignment of
        the free symbols."""
        env = {} if env is None else env
        index = frame * self.span
        for sym, stride, base in self.root:
            if sym not in env:
                raise UnboundSymbol(f"free symbol {sym} is unbound")
            v = env[sym]
            if base:  # a predicate row, numbered in `product` order
                row, v = v, 0
                for digit in row:
                    v = v * base + digit
            index += v * stride
        return self.table[index]


_GATHER, _OP, _FOLD = range(3)


class _Plan:
    """The tables one formula needs on frames of one size.

    Construction only walks the formula, numbering the axes (free symbols
    count down from -1, binders up from 0 in preorder, so sorted
    axes are in binding-depth order) and listing the nodes in postorder as
    (axes, cells, step, constant).  The first `run` allocates the tables,
    `bytes` of element indices, after the caller has charged `cells`; it
    fixes each operand's `repeats`, each operation's `combiner` (from
    `operations`) and each relation leaf's positions in a frame's cells.
    The constant tables (those of subformulas that never read the relation)
    are kept; every `run` computes the others for its batch of frames,
    gathering a relation leaf by one strided slice of the batch's cells per
    position, or taking them whole where the positions are in order.
    """

    def __init__(self, alg: HeytingAlgebra, f: Fo, size: int):
        self.alg = alg
        self.size = size
        self.domains: dict[int, object] = {}
        self.sizes: dict[int, int] = {}
        self.free: dict = {}
        self.nodes: list[tuple] = []
        self.bound = 0
        self._walk(f, {})
        self.cells = sum(node[1] for node in self.nodes)
        strides = _strides(self.nodes[-1][0], self.sizes)
        self.root = tuple(  # (symbol, stride, row base for predicates)
            (sym, strides.get(a, 0), alg.n if self.domains[a] is _ROWS else 0)
            for sym, a in self.free.items()
        )
        self.rel_slot = len(self.nodes)  # the frame's relation, row-major
        self.tables: list | None = None  # built by the first run
        self.steps: list = []

    # -- shape ------------------------------------------------------------------

    def _axis(self, axis: int, domain) -> None:
        self.domains[axis] = domain
        self.sizes[axis] = self.alg.n ** self.size if domain is _ROWS else len(domain)

    def _symbol(self, sym, scope: dict) -> int:
        """The axis of a bound or free symbol."""
        if sym in scope:
            return scope[sym]
        if sym not in self.free:
            axis = self.free[sym] = -1 - len(self.free)
            # a free truth-value symbol may take any element
            self._axis(axis, range(self.alg.n) if isinstance(sym, Fo)
                       else domain_of(self.alg, self.size, sym))
        return self.free[sym]

    def _add(self, axes: tuple, step: tuple, constant: bool) -> int:
        cells = 1
        for a in axes:
            cells *= self.sizes[a]
        self.nodes.append((axes, cells, step, constant))
        return len(self.nodes) - 1

    def _leaf(self, operands: tuple, fn, reads_rel: bool = False) -> int:
        axes = tuple(sorted(set(operands)))
        return self._add(axes, ("leaf", operands, fn), not reads_rel)

    def _walk(self, f: Fo, scope: dict) -> int:
        alg = self.alg
        top, bot = alg.top, alg.bot
        if isinstance(f, TruthConst):
            return self._leaf((), lambda: f.index)
        if isinstance(f, (NomTV, CoNomTV)):
            return self._leaf((self._symbol(f, scope),), lambda v: v)
        if isinstance(f, Eq):
            operands = (self._symbol(f.lhs, scope), self._symbol(f.rhs, scope))
            return self._leaf(operands, lambda s, t: top if s == t else bot)
        if isinstance(f, Rel):
            n = self.size
            operands = (self._symbol(f.lhs, scope), self._symbol(f.rhs, scope))
            # tabulated as positions in the row-major relation of each frame
            return self._leaf(operands, lambda s, t: s * n + t, reads_rel=True)
        if isinstance(f, Pred):
            operands = (self._symbol(f.name, scope), self._symbol(f.arg, scope))
            return self._leaf(operands, lambda row, s: row[s])
        if isinstance(f, (FoOr, FoAnd, FoImplies, FoMinus, Preceq)):
            left, right = self._walk(f.lhs, scope), self._walk(f.rhs, scope)
            laxes, _, _, lconst = self.nodes[left]
            raxes, _, _, rconst = self.nodes[right]
            axes = tuple(sorted(set(laxes) | set(raxes)))
            op = {FoOr: "join", FoAnd: "meet", FoImplies: "imp", FoMinus: "coimp", Preceq: "le"}
            return self._add(axes, ("op", op[type(f)], left, right), lconst and rconst)
        if isinstance(f, (Forall, Exists)):
            forall = isinstance(f, Forall)
            axis = self.bound
            self.bound += 1
            self._axis(axis, domain_of(alg, self.size, f.var))
            body = self._walk(f.body, {**scope, f.var: axis})
            baxes, _, _, constant = self.nodes[body]
            if not self.sizes[axis]:  # empty domain: the fold's unit
                return self._leaf((), lambda: top if forall else bot)
            if not baxes or baxes[-1] != axis:  # vacuous quantifier
                return body
            op, unit = ("meet", top) if forall else ("join", bot)
            return self._add(baxes[:-1], ("fold", op, body, self.sizes[axis], unit), constant)
        raise TypeError(f"not a first-order formula: {f!r}")

    # -- tables -----------------------------------------------------------------

    def _values(self, axis: int):
        domain = self.domains[axis]
        if domain is _ROWS:
            return list(product(range(self.alg.n), repeat=self.size))
        return domain

    def _build(self) -> None:
        # slots: one per node, the relation, then constants broadcast to the
        # axes of the operation that reads them
        tables: list = [None] * (self.rel_slot + 1)
        steps: list = []
        ops = operations(self.alg)
        for i, (axes, _, step, constant) in enumerate(self.nodes):
            if step[0] == "leaf":
                _, operands, fn = step
                where = {a: k for k, a in enumerate(axes)}
                table = [
                    fn(*[combo[where[a]] for a in operands])
                    for combo in product(*(self._values(a) for a in axes))
                ]
                if constant:
                    tables[i] = bytes(table)
                    continue
                # positions in a frame's cells; None where they are its own order
                own = table == list(range(self.size * self.size))
                task = (_GATHER, self.rel_slot, None if own else table)
            elif step[0] == "op":
                _, name, left, right = step
                task = (_OP, ops[name][1], self._operand(axes, left, tables),
                        self._operand(axes, right, tables))
            else:
                _, name, body, m, unit = step
                task = (_FOLD, *ops[name], body, m, unit)
            if constant:
                tables[i] = _execute(task, tables, 1)
            else:
                steps.append((i, task))
        self.steps, self.tables = steps, tables

    def _operand(self, axes: tuple, child: int, tables: list) -> tuple:
        """(slot, `repeats`, constant) through which an operation reads a
        child; a constant child is broadcast to the operation's axes once."""
        reps = repeats(self.nodes[child][0], axes, self.sizes)
        if tables[child] is None:
            return child, reps, False
        if reps:
            tables.append(broadcast(tables[child], reps))
            child = len(tables) - 1
        return child, (), True

    def run(self, rels: bytes, frames: int) -> bytes:
        """Root table of the formula on a batch of `frames` frames whose
        cells `rels` holds, frame-major.  Every table that reads the
        relation, and the root, has the frames as its outermost axis: frame
        k owns the k-th of `frames` equal slices, which equals that frame's
        own table."""
        if self.tables is None:
            self._build()
        tables = self.tables.copy()
        tables[self.rel_slot] = rels
        for i, task in self.steps:
            tables[i] = _execute(task, tables, frames)
        root = tables[self.rel_slot - 1]
        return root * frames if self.nodes[-1][3] else root


# plans hold no frame data; the named axioms' oracle checks need 45 (15 formulas, sizes 1-3)
_plan = lru_cache(maxsize=128)(_Plan)


def _execute(task: tuple, tables: list, frames: int) -> bytes:
    """One step's table over a batch of `frames` frames.  A constant
    operand of an operation that reads the relation is repeated once per
    frame, since its table holds no frame axis."""
    kind = task[0]
    if kind == _GATHER:
        _, slot, positions = task
        rels = tables[slot]
        if positions is None:
            return rels
        out, width, step = bytearray(len(positions) * frames), len(positions), len(rels) // frames
        for j, q in enumerate(positions):
            out[j::width] = rels[q::step]
        return bytes(out)
    if kind == _OP:
        _, combine, (lslot, lreps, lconst), (rslot, rreps, rconst) = task
        lhs = tables[lslot] * frames if lconst else broadcast(tables[lslot], lreps)
        rhs = tables[rslot] * frames if rconst else broadcast(tables[rslot], rreps)
        return combine(lhs, rhs)
    _, op, combine, body, m, unit = task
    return fold(tables[body], m, combine, op, unit)


def combiner(n: int, op: list) -> Callable[[bytes, bytes], bytes]:
    """The operation with n x n table `op`, applied cell by cell to two
    tables of equal length.  With n * n <= 256 each cell pair becomes one
    packed code x * n + y, computed for all cells at once as one integer:
    every digit stays below 256, so none carries, and one translate maps
    the codes.  Larger algebras read the table cell by cell."""
    if n * n <= 256:
        codes = bytes(op[x][y] for x in range(n) for y in range(n)).ljust(256, b"\0")

        def combine(lhs: bytes, rhs: bytes) -> bytes:
            packed = int.from_bytes(lhs, "little") * n + int.from_bytes(rhs, "little")
            return packed.to_bytes(len(lhs), "little").translate(codes)

        return combine
    rows = [bytes(row) for row in op]
    return lambda lhs, rhs: bytes(map(getitem, map(rows.__getitem__, lhs), rhs))


@lru_cache(maxsize=16)
def operations(alg: HeytingAlgebra) -> dict[str, tuple[list, Callable]]:
    """The algebra's join, meet, imp, coimp and order as bottom or top (le),
    each as its table and its `combiner`, made once per algebra."""
    tables = {"join": alg.join_table, "meet": alg.meet_table, "imp": alg.imp_table,
              "coimp": alg.coimp_table, "le": [[int(le) for le in row] for row in alg.leq]}
    return {name: (op, combiner(alg.n, op)) for name, op in tables.items()}


def fold(table: bytes, m: int, combine: Callable, op: list, unit: int) -> bytes:
    """Fold every chunk of m consecutive cells with the lattice operation
    `op` (`combine` cell by cell): over the m strided slices when there are
    at least as many chunks as cells per chunk, else over the elements each
    chunk holds, each looked up once with `find`."""
    if len(table) >= m * m:
        out = table[0::m]
        for k in range(1, m):
            out = combine(out, table[k::m])
        return out
    out = bytearray()
    for i in range(0, len(table), m):
        acc = unit
        for v in range(len(op)):
            if table.find(v, i, i + m) >= 0:
                acc = op[acc][v]
        out.append(acc)
    return bytes(out)


def repeats(own: tuple, axes: tuple, sizes: dict) -> tuple:
    """How `broadcast` takes a table over `own`, a subsequence of `axes`,
    to `axes`: (m, inner) insertions, innermost first, each repeating every
    block of `inner` cells m times.  Adjacent missing axes merge into one."""
    reps: list = []
    inner = 1
    for a in reversed(axes):
        m = sizes[a]
        if a not in own and m > 1:
            if reps and reps[-1][0] * reps[-1][1] == inner:
                reps[-1] = (reps[-1][0] * m, reps[-1][1])
            else:
                reps.append((m, inner))
        inner *= m
    return tuple(reps)


def broadcast(table: bytes, reps: tuple) -> bytes:
    """A table with the `repeats` insertions applied.  A new outermost axis
    repeats the table; a new inner axis loops over the blocks, or over the
    positions in a repeated block (strided slice assignments), whichever
    is shorter."""
    for m, inner in reps:
        cells = len(table)
        if inner == cells:
            table *= m
        elif cells // inner <= m * inner:
            table = b"".join([table[i:i + inner] * m for i in range(0, cells, inner)])
        else:
            out, span = bytearray(cells * m), inner * m
            for j in range(inner):
                column = table[j::inner]
                for k in range(j, span, inner):
                    out[k::span] = column
            table = bytes(out)
    return table


def _strides(axes: tuple, sizes: dict) -> dict:
    out, stride = {}, 1
    for a in reversed(axes):
        out[a] = stride
        stride *= sizes[a]
    return out


# -- standard translation -------------------------------------------------------


class FreshVars:
    """Counter-backed fresh individual variables y1, y2, ..."""

    def __init__(self, prefix: str = "y"):
        self.prefix = prefix
        self.count = 0

    def next(self) -> FoVar:
        self.count += 1
        return FoVar(f"{self.prefix}{self.count}")


def standard_translation(
    f: ModalFormula | syntax.Inequality,
    x: Term | None = None,
    fresh: FreshVars | None = None,
) -> Fo:
    """Translate a modal formula (or inequality) into the FO language.

    The free variable defaults to `x`; every quantifier binds a fresh
    variable drawn from a shared counter, so the output is clean.
    """
    x = FoVar("x") if x is None else x
    fresh = FreshVars() if fresh is None else fresh

    if isinstance(f, syntax.Inequality):
        return Preceq(
            standard_translation(f.lhs, x, fresh),
            standard_translation(f.rhs, x, fresh),
        )

    def st(node: ModalFormula, cur: Term) -> Fo:
        if isinstance(node, syntax.Var):
            return Pred(node.name, cur)
        if isinstance(node, syntax.Const):
            return TruthConst(node.name, node.index)
        if isinstance(node, syntax.Nom):
            return FoAnd(Eq(NomConst(node.name), cur), NomTV(node.name))
        if isinstance(node, syntax.CoNom):
            return FoOr(neq(CoNomConst(node.name), cur), CoNomTV(node.name))
        if isinstance(node, syntax.Or):
            return FoOr(st(node.lhs, cur), st(node.rhs, cur))
        if isinstance(node, syntax.And):
            return FoAnd(st(node.lhs, cur), st(node.rhs, cur))
        if isinstance(node, syntax.Implies):
            return FoImplies(st(node.lhs, cur), st(node.rhs, cur))
        if isinstance(node, syntax.Minus):
            return FoMinus(st(node.lhs, cur), st(node.rhs, cur))
        if isinstance(node, syntax.Dia):
            y = fresh.next()
            return Exists(y, FoAnd(Rel(cur, y), st(node.sub, y)))
        if isinstance(node, syntax.Box):
            y = fresh.next()
            return Forall(y, FoImplies(Rel(cur, y), st(node.sub, y)))
        if isinstance(node, syntax.DiaInv):
            y = fresh.next()
            return Exists(y, FoAnd(Rel(y, cur), st(node.sub, y)))
        if isinstance(node, syntax.BoxInv):
            y = fresh.next()
            return Forall(y, FoImplies(Rel(y, cur), st(node.sub, y)))
        raise TypeError(f"not a modal formula: {node!r}")

    return st(f, x)


@lru_cache(maxsize=64)
def validity_claim(
    target: ModalFormula | syntax.Inequality, a: int, alg: HeytingAlgebra
) -> Fo:
    """Second-order translation of local a-validity, with x free:
    `A p... A c_i. A C_i... ((@a & ST(lhs)) =< ST(rhs))` for lhs <= rhs and
    `@a =< ST(f)` under the same prefix for a formula f.  By correctness of
    the translation its value at x = w is top exactly when the target is
    a-valid at w, bottom otherwise."""
    fresh = FreshVars()
    degree = TruthConst(alg.element_name(a), a)
    if isinstance(target, syntax.Inequality):
        lhs = FoAnd(degree, standard_translation(target.lhs, fresh=fresh))
        out: Fo = Preceq(lhs, standard_translation(target.rhs, fresh=fresh))
    else:
        out = Preceq(degree, standard_translation(target, fresh=fresh))
    return _over_valuations(target, out)


@lru_cache(maxsize=64)
def degree_claim(target: ModalFormula | syntax.Inequality) -> Fo:
    """The validity degree, with x free: `A p... A c_i. A C_i...
    (ST(lhs) -> ST(rhs))` for lhs <= rhs, `ST(f)` under the same prefix for
    a formula f.  As `a & l <= r` iff `a <= l -> r`, the target is a-valid
    at w exactly when a is below the degree's value at x = w."""
    fresh = FreshVars()
    if isinstance(target, syntax.Inequality):
        out: Fo = FoImplies(standard_translation(target.lhs, fresh=fresh),
                            standard_translation(target.rhs, fresh=fresh))
    else:
        out = standard_translation(target, fresh=fresh)
    return _over_valuations(target, out)


def _over_valuations(target: ModalFormula | syntax.Inequality, body: Fo) -> Fo:
    """`body` for every valuation of the target's atoms."""
    if isinstance(target, syntax.Inequality):
        used = syntax.atoms(target.lhs) | syntax.atoms(target.rhs)
    else:
        used = syntax.atoms(target)
    for atom in sorted(used, key=str, reverse=True):
        body = for_every_value(atom, body)
    return body


def for_every_value(atom: ModalFormula, body: Fo) -> Fo:
    """`body` under every value of a modal atom in the standard translation:
    a variable's predicate row, a nominal's or co-nominal's state and
    irreducible value (the rows of `semantics.atom_options`)."""
    if isinstance(atom, syntax.Var):
        return Forall(atom.name, body)
    if isinstance(atom, syntax.Nom):
        return Forall(NomConst(atom.name), Forall(NomTV(atom.name), body))
    return Forall(CoNomConst(atom.name), Forall(CoNomTV(atom.name), body))


# -- frame property library ------------------------------------------------------

_X = FoVar("x")
_Y = FoVar("y")
_Z = FoVar("z")

FRAME_PROPERTIES: dict[str, Fo] = {
    # local first-order conditions with one free variable x
    "reflexive": Rel(_X, _X),
    "symmetric": Forall(_Y, FoImplies(Rel(_X, _Y), Rel(_Y, _X))),
    "transitive": Forall(
        _Y,
        Forall(
            _Z, FoImplies(FoAnd(Rel(_X, _Y), Rel(_Y, _Z)), Rel(_X, _Z))
        ),
    ),
    "dense": Forall(
        _Y,
        FoImplies(Rel(_X, _Y), Exists(_Z, FoAnd(Rel(_X, _Z), Rel(_Z, _Y)))),
    ),
    "serial": Exists(_Y, Rel(_X, _Y)),
}


def frame_property(name: str) -> Fo:
    return FRAME_PROPERTIES[name]


# -- substitution -----------------------------------------------------------------


def subst_term(f: Fo, old: Term, new: Term) -> Fo:
    """Rename free occurrences of an individual symbol."""
    if isinstance(f, (Forall, Exists)):
        if f.var == old:
            return f
        return type(f)(f.var, subst_term(f.body, old, new))
    if isinstance(f, (Eq, Rel)):
        repl = lambda t: new if t == old else t
        return type(f)(repl(f.lhs), repl(f.rhs))
    if isinstance(f, Pred):
        return Pred(f.name, new if f.arg == old else f.arg)
    subs = fo_children(f)
    if not subs:
        return f
    return fo_rebuild(f, tuple(subst_term(c, old, new) for c in subs))


def subst_pred(f: Fo, name: str, make_body, conjoin_tv: Fo | None = None) -> Fo:
    """Replace each atom name(t) by make_body(t), optionally conjoined with
    a truth-value symbol (the decorated variant of the substitution)."""
    if isinstance(f, Pred) and f.name == name:
        body = make_body(f.arg)
        if conjoin_tv is not None:
            body = FoAnd(body, conjoin_tv)
        return body
    if isinstance(f, (Forall, Exists)) and f.var == name:
        return f
    subs = fo_children(f)
    if not subs:
        return f
    return fo_rebuild(f, tuple(subst_pred(c, name, make_body, conjoin_tv) for c in subs))


# -- printing ----------------------------------------------------------------------


def print_term(t: Term) -> str:
    if isinstance(t, FoVar):
        return t.name
    if isinstance(t, NomConst):
        return f"c_{t.name}"
    if isinstance(t, CoNomConst):
        return f"c_{t.name}"
    raise TypeError(f"not a term: {t!r}")


_P_IMP, _P_OR, _P_AND, _P_ATOM = 0, 1, 2, 3


def _fo_level(f: Fo) -> int:
    if isinstance(f, (FoImplies, FoMinus, Preceq, Forall, Exists)):
        return _P_IMP
    if isinstance(f, FoOr):
        return _P_OR
    if isinstance(f, FoAnd):
        return _P_AND
    return _P_ATOM


def print_fo(f: Fo) -> str:
    def wrap(sub: Fo, minimum: int) -> str:
        text = print_fo(sub)
        if _fo_level(sub) < minimum:
            return f"({text})"
        return text

    def qbody(sub: Fo) -> str:
        # parenthesize binary bodies; quantifier chains stay bare
        if isinstance(sub, (FoOr, FoAnd, FoImplies, FoMinus, Preceq)):
            return f"({print_fo(sub)})"
        return print_fo(sub)

    if isinstance(f, Eq):
        return f"{print_term(f.lhs)} = {print_term(f.rhs)}"
    if isinstance(f, Rel):
        return f"R({print_term(f.lhs)}, {print_term(f.rhs)})"
    if isinstance(f, Pred):
        return f"{f.name}({print_term(f.arg)})"
    if isinstance(f, TruthConst):
        return f"@{f.name}"
    if isinstance(f, NomTV):
        return f"C_{f.name}"
    if isinstance(f, CoNomTV):
        return f"C_{f.name}"
    if isinstance(f, FoImplies):
        if isinstance(f.lhs, Eq) and _is_bot(f.rhs):
            return f"{print_term(f.lhs.lhs)} != {print_term(f.lhs.rhs)}"
        return f"{wrap(f.lhs, _P_OR)} -> {wrap(f.rhs, _P_IMP)}"
    if isinstance(f, FoOr):
        return f"{wrap(f.lhs, _P_OR)} | {wrap(f.rhs, _P_AND)}"
    if isinstance(f, FoAnd):
        return f"{wrap(f.lhs, _P_AND)} & {wrap(f.rhs, _P_ATOM)}"
    if isinstance(f, FoMinus):
        return f"{wrap(f.lhs, _P_OR)} - {wrap(f.rhs, _P_OR)}"
    if isinstance(f, Preceq):
        return f"{wrap(f.lhs, _P_OR)} =< {wrap(f.rhs, _P_OR)}"
    if isinstance(f, (Forall, Exists)):
        var = f"{f.var}:pred" if isinstance(f.var, str) else str(f.var)
        return f"{'A' if isinstance(f, Forall) else 'E'} {var}. {qbody(f.body)}"
    raise TypeError(f"not a first-order formula: {f!r}")


def to_dict(f: Fo | Term) -> dict:
    """Machine-readable structured dump: each node's kind and fields, a
    truth constant by its name alone.  A quantifier over a predicate name
    dumps as kind `ForallPred`/`ExistsPred` with field `name`, one over a
    truth-value symbol as `ForallTV`/`ExistsTV` with field `sym`."""
    out = {"kind": type(f).__name__}
    for name in (fld.name for fld in fields(f) if fld.name != "index"):
        value = getattr(f, name)
        if name == "var" and not isinstance(value, Term):
            out["kind"] += "Pred" if isinstance(value, str) else "TV"
            name = "name" if isinstance(value, str) else "sym"
        out[name] = value if isinstance(value, str) else to_dict(value)
    return out


# -- display simplifier -------------------------------------------------------------


def _flat_conjuncts(f: Fo) -> list[Fo]:
    if isinstance(f, FoAnd):
        return _flat_conjuncts(f.lhs) + _flat_conjuncts(f.rhs)
    return [f]


def _conjoin(parts: list[Fo]) -> Fo:
    return reduce(FoAnd, parts) if parts else TOP


def _is_bot(f: Fo) -> bool:
    return isinstance(f, TruthConst) and f.index == 0


def _is_top(f: Fo) -> bool:
    return isinstance(f, TruthConst) and f.index == 1


def _binds(f: Fo, t: Term) -> bool:
    """Whether a quantifier in f binds t, so that substituting t in f may
    capture it."""
    return getattr(f, "var", None) == t or any(_binds(c, t) for c in fo_children(f))


def _crisp(f: Fo) -> bool:
    """Built from `=<` and `=`, so valued bottom or top only."""
    if isinstance(f, (FoAnd, FoOr, FoImplies, Forall, Exists)):
        return all(_crisp(c) for c in fo_children(f))
    return isinstance(f, (Preceq, Eq)) or _is_bot(f)


def _over_states(f: Fo, kind: type) -> bool:
    """Whether f is a `kind` quantifier over an individual symbol: the only
    binders the display rewrites move, split or instantiate."""
    return isinstance(f, kind) and isinstance(f.var, Term)


def _guard(f: Fo) -> Optional[tuple[Term, Term, Fo]]:
    """(s, t, C) when f is `(s != t) | C`."""
    if (isinstance(f, FoOr) and isinstance(f.lhs, FoImplies)
            and isinstance(f.lhs.lhs, Eq) and _is_bot(f.lhs.rhs)):
        return f.lhs.lhs.lhs, f.lhs.lhs.rhs, f.rhs
    return None


def _rewrite(f: Fo) -> Fo:
    """One rule applied at f, whose children are normal; f if none fires."""
    if isinstance(f, Eq) and f.lhs == f.rhs:
        return TOP
    if isinstance(f, FoAnd):
        if _is_top(f.lhs):
            return f.rhs
        if _is_top(f.rhs):
            return f.lhs
        if _is_bot(f.lhs) or _is_bot(f.rhs):
            return BOT
        if f.lhs == f.rhs:
            return f.lhs
    if isinstance(f, FoOr):
        if _is_bot(f.lhs):
            return f.rhs
        if _is_bot(f.rhs):
            return f.lhs
        if _is_top(f.lhs) or _is_top(f.rhs):
            return TOP
        if f.lhs == f.rhs:
            return f.lhs
    if isinstance(f, FoImplies):
        if _is_top(f.lhs):
            return f.rhs
        if _is_bot(f.lhs) or _is_top(f.rhs):
            return TOP
        if f.lhs == f.rhs:
            return TOP
        # curry nested implications and pull universal quantifiers out
        if _over_states(f.rhs, Forall) and f.rhs.var not in free_symbols(f.lhs):
            return Forall(f.rhs.var, FoImplies(f.lhs, f.rhs.body))
        if isinstance(f.rhs, FoImplies) and not isinstance(f.rhs.lhs, Eq):
            return FoImplies(FoAnd(f.lhs, f.rhs.lhs), f.rhs.rhs)
    if isinstance(f, FoMinus) and _is_bot(f.rhs):
        return f.lhs
    if isinstance(f, Preceq):
        if _is_bot(f.lhs) or _is_top(f.rhs) or f.lhs == f.rhs:
            return TOP
        # absorption: t =< psi & t is t =< psi; t =< (w -> u) is t & w =< u
        rhs = _absorb(f.rhs, _flat_conjuncts(f.lhs))
        if rhs != f.rhs:
            return Preceq(f.lhs, rhs)
        if isinstance(rhs, FoImplies) and not isinstance(rhs.lhs, Eq):
            return Preceq(FoAnd(f.lhs, rhs.lhs), rhs.rhs)
    if isinstance(f, (Forall, Exists)) and f.var not in free_symbols(f.body):
        return f.body
    if _over_states(f, Exists):
        # E v. (... & v = t & ...) collapses to the substituted matrix;
        # conjuncts that do not mention v move out
        parts = _flat_conjuncts(f.body)
        found = _one_point(parts, f.var)
        if found is not None and not _binds(f.body, found[0]):
            return subst_term(_conjoin(found[1]), f.var, found[0])
        outside = [p for p in parts if f.var not in free_symbols(p)]
        if outside:
            inside = [p for p in parts if f.var in free_symbols(p)]
            return _conjoin(outside + [Exists(f.var, _conjoin(inside))])
    if _over_states(f, Forall):
        body = f.body
        if isinstance(body, FoAnd):
            return FoAnd(Forall(f.var, body.lhs), Forall(f.var, body.rhs))
        if isinstance(body, (FoImplies, Preceq)):
            # one point: A v. ((... & v = t & ...) -> phi) is the matrix
            # at v = t, and so is A v. ((... & v = t & ...) =< phi)
            parts = _flat_conjuncts(body.lhs)
            found = _one_point(parts, f.var)
            if found is not None and not _binds(body, found[0]):
                return subst_term(type(body)(_conjoin(found[1]), body.rhs), f.var, found[0])
            # co-nominal guard: A v. (phi =< (c != v) | C) is phi =< C at v = c
            guard = _guard(body.rhs)
            if guard and guard[1] == f.var != guard[0] and not _binds(body, guard[0]):
                return subst_term(type(body)(body.lhs, guard[2]), f.var, guard[0])
        if isinstance(body, Preceq):
            # A v. (a & w =< phi) is a =< A v. (w -> phi) when a misses v
            outside = [p for p in parts if f.var not in free_symbols(p)]
            if outside:
                inside = [p for p in parts if f.var in free_symbols(p)]
                matrix = FoImplies(_conjoin(inside), body.rhs) if inside else body.rhs
                return Preceq(_conjoin(outside), Forall(f.var, matrix))
    if isinstance(f, Forall):
        return _eliminate(f)
    return f


def _absorb(f: Fo, known: list[Fo]) -> Fo:
    """f with @1 for each conjunct in `known` that it meets as a conjunct,
    through consequents and universal quantifiers: below `known`'s meet,
    f and the result are equal."""
    if f in known:
        return TOP
    if isinstance(f, FoAnd):
        return FoAnd(_absorb(f.lhs, known), _absorb(f.rhs, known))
    if isinstance(f, FoImplies):
        return FoImplies(f.lhs, _absorb(f.rhs, known))
    if _over_states(f, Forall) and not any(f.var in free_symbols(k) for k in known):
        return Forall(f.var, _absorb(f.body, known))
    return f


def _eliminate(f: Fo) -> Fo:
    """The density rules on the universal prefix that starts at f.

    Universal prefixes commute, so each rule looks through the whole
    prefix: co-nominal values go first, by meet-density, then nominal
    values, by join-density."""
    binders, matrix = [], f
    while isinstance(matrix, Forall):
        binders.append(matrix)
        matrix = matrix.body
    symbols = [b.var for b in binders]
    prem, concl = (matrix.lhs, matrix.rhs) if isinstance(matrix, FoImplies) else (TOP, matrix)
    prem = [p for p in _flat_conjuncts(prem) if not _is_top(p)]
    tries = [_meet_density(prem, concl, s, symbols) for s in symbols if isinstance(s, CoNomTV)]
    if not tries:
        tries = [_join_density(prem, concl, s) for s in symbols if isinstance(s, NomTV)]
    for found in tries:
        if found is not None:
            gone, out = found
            for b, s in reversed(list(zip(binders, symbols))):
                out = out if s in gone else fo_rebuild(b, (out,))
            return out
    return f


def _meet_density(prem: list, concl: Fo, value: Fo, symbols: list) -> Optional[tuple]:
    """Over every value C of a co-nominal: `Rest & u_1 =< C & ... -> t =< C`
    is `Rest -> t =< u_1 | ...`, as every element is the meet of the
    meet-irreducibles above it.  When the conclusion is `t =< (c != x) | C`
    for the co-nominal's constant c, c goes too: the joins are u_k[c:=x].
    Returns the symbols gone and the new matrix."""
    if not isinstance(concl, Preceq):
        return None
    gone, target, guard = (value,), concl.rhs, _guard(concl.rhs)
    c = CoNomConst(value.name)
    if guard is not None and guard[0] == c != guard[1] and c in symbols:
        gone, target = (value, c), guard[2]
    if target != value or not free_symbols(concl.lhs).isdisjoint(gone):
        return None
    rest, joins = [], []
    for p in prem:
        if isinstance(p, Preceq) and p.rhs == value and value not in free_symbols(p.lhs):
            if c in gone and _binds(p.lhs, guard[1]):
                return None
            joins.append(subst_term(p.lhs, c, guard[1]) if c in gone else p.lhs)
        elif _crisp(p) and free_symbols(p).isdisjoint(gone):
            rest.append(p)
        else:
            return None
    join = reduce(FoOr, joins) if joins else BOT
    return gone, FoImplies(_conjoin(rest), Preceq(concl.lhs, join))


def _join_density(prem: list, concl: Fo, value: Fo) -> Optional[tuple]:
    """Over every value C of a nominal: `Rest & C & w_1 =< u_1 & ... ->
    C & w =< v` is `Rest -> (w_1 -> u_1) & ... & w =< v`, as every element
    is the join of the join-irreducibles below it.  Returns the symbols
    gone and the new matrix."""

    def split(p: Fo) -> Optional[list]:
        # the w of `C & w =< u` when p has that shape
        left = _flat_conjuncts(p.lhs) if isinstance(p, Preceq) else []
        w = [q for q in left if q != value]
        if len(w) == len(left) - 1 and not any(value in free_symbols(q) for q in w + [p.rhs]):
            return w
        return None

    w = split(concl)
    if w is None:
        return None
    rest, meets = [], []
    for p in prem:
        wk = split(p)
        if wk is not None:
            meets.append(FoImplies(_conjoin(wk), p.rhs) if wk else p.rhs)
        elif _crisp(p) and value not in free_symbols(p):
            rest.append(p)
        else:
            return None
    return (value,), FoImplies(_conjoin(rest), Preceq(_conjoin(meets + w), concl.rhs))


def _one_point(parts: list[Fo], var: Term) -> Optional[tuple[Term, list[Fo]]]:
    """(t, the other parts) when one of `parts` pins `var` to a term t."""
    for i, part in enumerate(parts):
        if isinstance(part, Eq) and var in (part.lhs, part.rhs) and part.lhs != part.rhs:
            return part.rhs if part.lhs == var else part.lhs, parts[:i] + parts[i + 1:]
    return None


def simplify_display(f: Fo) -> Fo:
    """A correspondent's display: f's normal form, children first, each node
    rewritten until no rule fires there and never visited again after."""
    normal: dict[int, Fo] = {}  # by id; holding each node keeps its id its own

    def walk(f: Fo) -> Fo:
        while id(f) not in normal:
            f = fo_rebuild(f, tuple(map(walk, fo_children(f))))
            if (nxt := _rewrite(f)) is f:
                normal[id(f)] = f
            f = nxt
        return f

    return walk(f)


# -- parsing ------------------------------------------------------------------

# first-order nesting accepted, in height and in the parser's own recursion:
# above ALBA's displays (measured shapes but staircases of height 13+), below what commands handle
MAX_FO_NESTING = 180

_FO_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<dot>\.)
  | (?P<preceq>=<)
  | (?P<arrow>->)
  | (?P<neq>!=)
  | (?P<eq>=)
  | (?P<or>\|)
  | (?P<and>&)
  | (?P<minus>-)
  | (?P<const>@[A-Za-z0-9_]+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


def _term_from_name(name: str) -> Term:
    if name.startswith("c_"):
        return (CoNomConst if syntax.names_conominal(name[2:]) else NomConst)(name[2:])
    return FoVar(name)


def _tv_from_name(name: str) -> Fo:
    return (CoNomTV if syntax.names_conominal(name[2:]) else NomTV)(name[2:])


class _FoParser(syntax.Cursor):
    """Recursive-descent parser matching print_fo output.

    Naming conventions resolve lexical classes: `c_<name>` is an individual
    constant (co-nominal flavour when <name> starts with m or n), `C_<name>`
    a truth-value symbol, `@<name>` an algebra constant; `R` is the
    accessibility relation, any other applied identifier a predicate.
    """

    limit, reach, subs = MAX_FO_NESTING, MAX_FO_NESTING, staticmethod(fo_children)

    def __init__(self, tokens: list[syntax.Token], alg: Optional[HeytingAlgebra]):
        super().__init__(tokens)
        self.alg = alg

    def error(self, msg: str):
        raise FormulaSyntaxError(msg, self.peek().pos)

    def formula(self) -> Fo:
        tok = self.peek()
        if tok.kind == "ident" and tok.text in ("A", "E"):
            return self.quantified()
        lhs = self.disjunction()
        kind = self.peek().kind
        if kind == "arrow":
            self.next()
            return FoImplies(lhs, self.nested(self.formula))
        if kind == "preceq":
            self.next()
            return Preceq(lhs, self.disjunction())
        if kind == "minus":
            self.next()
            return FoMinus(lhs, self.disjunction())
        return lhs

    def quantified(self) -> Fo:
        which = self.next().text
        tok = self.next()
        if tok.kind != "ident":
            self.error("expected a quantified symbol")
        if self.peek().kind != "dot":
            self.error("expected '.' after quantified symbol")
        self.next()
        body = self.nested(self.formula)
        name = tok.text
        var = _tv_from_name(name) if name.startswith("C_") else _term_from_name(name)
        return (Forall if which == "A" else Exists)(var, body)

    def disjunction(self) -> Fo:
        out = self.conjunction()
        while self.peek().kind == "or":
            self.next()
            out = FoOr(out, self.conjunction())
        return out

    def conjunction(self) -> Fo:
        out = self.atom()
        while self.peek().kind == "and":
            self.next()
            out = FoAnd(out, self.atom())
        return out

    def atom(self) -> Fo:
        tok = self.next()
        kind, text = tok.kind, tok.text
        if kind == "lparen":
            inner = self.nested(self.formula)
            if self.peek().kind != "rparen":
                self.error("expected ')'")
            self.next()
            return inner
        if kind == "const":
            name = text[1:]
            if self.alg is not None:
                idx = self.alg.element(name)
                return TruthConst(self.alg.element_name(idx), idx)
            if name in ("0", "bot"):
                return BOT
            if name in ("1", "top"):
                return TOP
            self.error(f"unknown truth constant @{name}")
        if kind == "ident":
            if text.startswith("C_"):
                return _tv_from_name(text)
            if self.peek().kind == "lparen":
                self.next()
                first = self._term()
                if self.peek().kind == "comma":
                    self.next()
                    second = self._term()
                    if self.peek().kind != "rparen":
                        self.error("expected ')'")
                    self.next()
                    if text != "R":
                        self.error("only R takes two arguments")
                    return Rel(first, second)
                if self.peek().kind != "rparen":
                    self.error("expected ')'")
                self.next()
                return Pred(text, first)
            lhs = _term_from_name(text)
            kind2 = self.peek().kind
            if kind2 == "eq":
                self.next()
                return Eq(lhs, self._term())
            if kind2 == "neq":
                self.next()
                return neq(lhs, self._term())
            self.error("expected a relation, equation or predicate")
        self.error(f"unexpected token {text!r}" if text else "found 'end of input'")

    def _term(self) -> Term:
        tok = self.next()
        if tok.kind != "ident":
            self.error("expected a term")
        return _term_from_name(tok.text)


def parse_fo(text: str, alg: Optional[HeytingAlgebra] = None) -> Fo:
    """Parse an ASCII first-order formula (the print_fo dialect)."""
    p = _FoParser(syntax.tokenize(text, _FO_TOKEN), alg)
    out = p.formula()
    p.done(out)
    return out

"""First- and second-order correspondence language: syntax and evaluation.

Formulas are evaluated over frames into the same algebra as modal formulas.
Equality and the comparison connective `=<` are crisp (value bottom or
top); individual quantifiers take meets/joins over the state set, predicate
quantifiers enumerate all fuzzy subsets (budgeted), and truth-value
quantifiers range over the join- or meet-irreducibles.  `fo_eval` is the
reference evaluator; `CompiledFo` is the table kernel every oracle uses.

`standard_translation` embeds modal formulas; the output is clean (no
variable occurs both free and bound, distinct quantifiers bind distinct
variables).  `validity_claim` extends it to the second-order sentence of
local a-validity, which is how the oracles check the modal side.
`simplify_display` is a bounded, sound rewriter used only for
presentation; verification always runs on unsimplified formulas.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import getitem
from typing import Optional

from .budget import Budget
from .errors import UnboundSymbol
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
    var: Term
    body: Fo


@dataclass(frozen=True)
class Exists(Fo):
    var: Term
    body: Fo


@dataclass(frozen=True)
class ForallPred(Fo):
    name: str
    body: Fo


@dataclass(frozen=True)
class ExistsPred(Fo):
    name: str
    body: Fo


@dataclass(frozen=True)
class ForallTV(Fo):
    sym: Fo  # NomTV or CoNomTV
    body: Fo


@dataclass(frozen=True)
class ExistsTV(Fo):
    sym: Fo
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
    if isinstance(f, (Forall, Exists, ForallPred, ExistsPred, ForallTV, ExistsTV)):
        return (f.body,)
    return ()


def fo_rebuild(f: Fo, subs: tuple[Fo, ...]) -> Fo:
    if isinstance(f, (FoOr, FoAnd, FoImplies, FoMinus, Preceq)):
        return type(f)(subs[0], subs[1])
    if isinstance(f, (Forall, Exists)):
        return type(f)(f.var, subs[0])
    if isinstance(f, (ForallPred, ExistsPred)):
        return type(f)(f.name, subs[0])
    if isinstance(f, (ForallTV, ExistsTV)):
        return type(f)(f.sym, subs[0])
    return f


def terms_of(f: Fo) -> tuple[Term, ...]:
    if isinstance(f, (Eq, Rel)):
        return (f.lhs, f.rhs)
    if isinstance(f, Pred):
        return (f.arg,)
    return ()


def free_individual_symbols(f: Fo) -> set[Term]:
    """Free individual variables and nominal/co-nominal constants of f."""
    out: set[Term] = set()

    def walk(node: Fo, bound: frozenset[Term]) -> None:
        for t in terms_of(node):
            if t not in bound:
                out.add(t)
        if isinstance(node, (Forall, Exists)):
            walk(node.body, bound | {node.var})
        else:
            for c in fo_children(node):
                walk(c, bound)

    walk(f, frozenset())
    return out


def free_pred_names(f: Fo) -> set[str]:
    out: set[str] = set()

    def walk(node: Fo, bound: frozenset[str]) -> None:
        if isinstance(node, Pred) and node.name not in bound:
            out.add(node.name)
        if isinstance(node, (ForallPred, ExistsPred)):
            walk(node.body, bound | {node.name})
        else:
            for c in fo_children(node):
                walk(c, bound)

    walk(f, frozenset())
    return out


def has_pred_nodes(f: Fo) -> bool:
    """True when f lies outside the predicate-free frame fragment."""
    if isinstance(f, Pred):
        return True
    return any(has_pred_nodes(c) for c in fo_children(f))


def is_clean(f: Fo) -> bool:
    """No variable both free and bound; distinct quantifiers, distinct vars."""
    bound: list[Term] = []

    def collect(node: Fo) -> None:
        if isinstance(node, (Forall, Exists)):
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
        if isinstance(node, Forall):
            out = alg.top
            saved = env.get(node.var, _MISSING)
            for w in range(n):
                env[node.var] = w
                out = alg.meet(out, go(node.body))
                if out == alg.bot:
                    break
            _restore(env, node.var, saved)
            return out
        if isinstance(node, Exists):
            out = alg.bot
            saved = env.get(node.var, _MISSING)
            for w in range(n):
                env[node.var] = w
                out = alg.join(out, go(node.body))
                if out == alg.top:
                    break
            _restore(env, node.var, saved)
            return out
        if isinstance(node, (ForallPred, ExistsPred)):
            is_forall = isinstance(node, ForallPred)
            out = alg.top if is_forall else alg.bot
            saved = env.get(node.name, _MISSING)
            for row in product(range(alg.n), repeat=n):
                if budget is not None:
                    budget.charge()
                env[node.name] = row
                v = go(node.body)
                out = alg.meet(out, v) if is_forall else alg.join(out, v)
                if out == (alg.bot if is_forall else alg.top):
                    break
            _restore(env, node.name, saved)
            return out
        if isinstance(node, (ForallTV, ExistsTV)):
            is_forall = isinstance(node, ForallTV)
            domain = (
                alg.join_irreducibles
                if isinstance(node.sym, NomTV)
                else alg.meet_irreducibles
            )
            out = alg.top if is_forall else alg.bot
            saved = env.get(node.sym, _MISSING)
            for v in domain:
                env[node.sym] = v
                value = go(node.body)
                out = alg.meet(out, value) if is_forall else alg.join(out, value)
                if out == (alg.bot if is_forall else alg.top):
                    break
            _restore(env, node.sym, saved)
            return out
        raise TypeError(f"not a first-order formula: {node!r}")

    return go(f)


_MISSING = object()


def _restore(env: dict, key, saved) -> None:
    if saved is _MISSING:
        env.pop(key, None)
    else:
        env[key] = saved


class CompiledFo:
    """A formula tabulated over one interpretation by the table kernel.

    Every subformula becomes a flat row-major table with one axis per free
    symbol, axes ordered by binding depth so that each quantifier folds the
    last axis of its body; connectives broadcast their operands through
    index maps into the algebra's operation tables.  Symbols the
    interpretation fixes are pinned instead.  The plan depends only on the
    algebra, the formula, the frame size and the pinned symbols; per frame
    only the subformulas that read the relation run, and `value(env)` reads
    the root table.  Values equal fo_eval's.  The budget is charged one unit
    per table cell of the plan, before any table is built.
    """

    def __init__(self, interp: FoInterp, f: Fo, budget: Budget | None = None):
        frame = interp.frame
        pins = tuple(tuple(d.items()) for d in (interp.consts, interp.tvs, interp.preds))
        plan = _plan(frame.algebra, f, frame.size, pins)
        self.cells = plan.cells
        if budget is not None:
            budget.charge(plan.cells)
        self.root = plan.root
        self.table = plan.run(frame.rel)

    def value(self, env: dict | None = None) -> int:
        """Value under an assignment of the free symbols that are not pinned."""
        env = {} if env is None else env
        index = 0
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


_ROWS = "rows"  # the domain of a predicate axis: every fuzzy subset
_GATHER, _OP, _FOLD = range(3)


class _Plan:
    """The tables one formula needs on frames of one size.

    Construction only walks the formula, numbering the axes (unpinned free
    symbols count down from -1, binders up from 0 in preorder, so sorted
    axes are in binding-depth order) and listing the nodes in postorder as
    (axes, cells, step, constant).  The first `run` allocates the tables,
    after the caller has charged `cells`.
    """

    def __init__(self, alg: HeytingAlgebra, f: Fo, size: int, pins: tuple):
        self.alg = alg
        self.size = size
        self.pinned = {k: v for group in pins for k, v in group}
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

    def _symbol(self, sym, scope: dict) -> tuple:
        """(axis, None) for a symbol with an axis, (None, value) when pinned."""
        if sym in scope:
            return scope[sym], None
        if sym in self.pinned:
            return None, self.pinned[sym]
        if sym not in self.free:
            axis = self.free[sym] = -1 - len(self.free)
            if isinstance(sym, str):
                self._axis(axis, _ROWS)
            elif isinstance(sym, Term):
                self._axis(axis, range(self.size))
            else:  # a free truth-value symbol may take any element
                self._axis(axis, range(self.alg.n))
        return self.free[sym], None

    def _add(self, axes: tuple, step: tuple, constant: bool) -> int:
        cells = 1
        for a in axes:
            cells *= self.sizes[a]
        self.nodes.append((axes, cells, step, constant))
        return len(self.nodes) - 1

    def _leaf(self, operands: tuple, fn, reads_rel: bool = False) -> int:
        axes = tuple(sorted({a for a, _ in operands if a is not None}))
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
            if isinstance(f, Preceq):
                op = [[top if le else bot for le in row] for row in alg.leq]
            else:
                op = {FoOr: alg.join_table, FoAnd: alg.meet_table,
                      FoImplies: alg.imp_table, FoMinus: alg.coimp_table}[type(f)]
            left, right = self._walk(f.lhs, scope), self._walk(f.rhs, scope)
            laxes, _, _, lconst = self.nodes[left]
            raxes, _, _, rconst = self.nodes[right]
            axes = tuple(sorted(set(laxes) | set(raxes)))
            return self._add(axes, ("op", op, left, right), lconst and rconst)
        if isinstance(f, (Forall, Exists, ForallPred, ExistsPred, ForallTV, ExistsTV)):
            forall = isinstance(f, (Forall, ForallPred, ForallTV))
            if isinstance(f, (Forall, Exists)):
                sym, domain = f.var, range(self.size)
            elif isinstance(f, (ForallPred, ExistsPred)):
                sym, domain = f.name, _ROWS
            else:
                sym = f.sym
                domain = (alg.join_irreducibles if isinstance(sym, NomTV)
                          else alg.meet_irreducibles)
            axis = self.bound
            self.bound += 1
            self._axis(axis, domain)
            body = self._walk(f.body, {**scope, sym: axis})
            baxes, _, _, constant = self.nodes[body]
            if not self.sizes[axis]:  # empty domain: the fold's unit
                return self._leaf((), lambda: top if forall else bot)
            if not baxes or baxes[-1] != axis:  # vacuous quantifier
                return body
            op, unit = (alg.meet_table, top) if forall else (alg.join_table, bot)
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
        for i, (axes, _, step, constant) in enumerate(self.nodes):
            if step[0] == "leaf":
                _, operands, fn = step
                where = {a: k for k, a in enumerate(axes)}
                table = [
                    fn(*[v if a is None else combo[where[a]] for a, v in operands])
                    for combo in product(*(self._values(a) for a in axes))
                ]
                if constant:
                    tables[i] = table
                    continue
                task = (_GATHER, (self.rel_slot, table))  # positions in rel
            elif step[0] == "op":
                _, op, left, right = step
                task = (_OP, op, self._operand(axes, left, tables),
                        self._operand(axes, right, tables))
            else:
                task = (_FOLD,) + step[1:]
            if constant:
                tables[i] = _execute(task, tables)
            else:
                steps.append((i, task))
        self.steps, self.tables = steps, tables

    def _operand(self, axes: tuple, child: int, tables: list) -> tuple:
        """(slot, index map or None) through which an operation reads a
        child; a constant child is broadcast to the operation's axes once."""
        index = index_map(axes, self.nodes[child][0], self.sizes)
        if tables[child] is None or index is None:
            return child, index
        tables.append([tables[child][j] for j in index])
        return len(tables) - 1, None

    def run(self, rel) -> list[int]:
        """Root table of the formula on a frame with this relation matrix."""
        if self.tables is None:
            self._build()
        tables = self.tables.copy()
        tables[self.rel_slot] = [v for row in rel for v in row]
        for i, task in self.steps:
            tables[i] = _execute(task, tables)
        return tables[self.rel_slot - 1]


# plans hold no frame data; a few dozen cover the sizes of one oracle run
_plan = lru_cache(maxsize=32)(_Plan)


def _execute(task: tuple, tables: list) -> list[int]:
    kind = task[0]
    if kind == _GATHER:
        slot, index = task[1]
        return list(map(tables[slot].__getitem__, index))
    if kind == _OP:
        _, op, (lslot, lindex), (rslot, rindex) = task
        lhs = tables[lslot] if lindex is None else map(tables[lslot].__getitem__, lindex)
        rhs = tables[rslot] if rindex is None else map(tables[rslot].__getitem__, rindex)
        return list(map(getitem, map(op.__getitem__, lhs), rhs))
    _, op, body, m, unit = task
    table = tables[body]
    if m >= 8 or len(table) < m * m:  # few long chunks: fold distinct values
        out = []
        for i in range(0, len(table), m):
            acc = unit
            for v in set(table[i:i + m]):
                acc = op[acc][v]
            out.append(acc)
        return out
    out = table[0::m]
    for k in range(1, m):
        out = list(map(getitem, map(op.__getitem__, out), table[k::m]))
    return out


def _strides(axes: tuple, sizes: dict) -> dict:
    out, stride = {}, 1
    for a in reversed(axes):
        out[a] = stride
        stride *= sizes[a]
    return out


def index_map(parent: tuple, child: tuple, sizes: dict) -> list[int] | None:
    """Position in the child's table of each cell of the parent's table."""
    if parent == child:
        return None
    stride = _strides(child, sizes)
    out = [0]
    for a in parent:
        step = stride.get(a, 0)
        out = [base + k * step for base in out for k in range(sizes[a])]
    return out


def fo_a_truth(
    interp: FoInterp,
    f: Fo,
    a: int,
    fixed: dict | None = None,
    budget: Budget | None = None,
) -> bool:
    """a-truth: value at least a under every assignment extending `fixed`.

    Free individual symbols not covered by `fixed` or the interpretation
    range over all states.
    """
    alg = interp.frame.algebra
    fixed = dict(fixed) if fixed else {}
    open_syms = sorted(
        (
            t
            for t in free_individual_symbols(f)
            if t not in fixed and t not in interp.consts
        ),
        key=str,
    )
    evaluator = CompiledFo(interp, f, budget)
    for combo in product(range(interp.frame.size), repeat=len(open_syms)):
        env = dict(fixed)
        env.update(zip(open_syms, combo))
        if not alg.le(a, evaluator.value(env)):
            return False
    return True


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
        used = syntax.atoms(target.lhs) | syntax.atoms(target.rhs)
        lhs = FoAnd(degree, standard_translation(target.lhs, fresh=fresh))
        out: Fo = Preceq(lhs, standard_translation(target.rhs, fresh=fresh))
    else:
        used = syntax.atoms(target)
        out = Preceq(degree, standard_translation(target, fresh=fresh))
    for atom in sorted(used, key=str, reverse=True):
        if isinstance(atom, syntax.Var):
            out = ForallPred(atom.name, out)
        elif isinstance(atom, syntax.Nom):
            out = Forall(NomConst(atom.name), ForallTV(NomTV(atom.name), out))
        else:
            out = Forall(CoNomConst(atom.name), ForallTV(CoNomTV(atom.name), out))
    return out


def st_faithfulness_check(model: Model, f, budget: Budget | None = None) -> bool:
    """Dual-path check: the modal value at every state equals the value of
    the translation in the corresponding first-order model."""
    from .semantics import eval_formula

    interp = interp_for_model(model)
    translated = standard_translation(f)
    x = FoVar("x")
    return all(
        eval_formula(model, f, w) == fo_eval(interp, translated, {x: w}, budget)
        for w in range(model.frame.size)
    )


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
    if isinstance(f, (ForallPred, ExistsPred)) and f.name == name:
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
    if isinstance(f, (FoImplies, FoMinus, Preceq, Forall, Exists,
                      ForallPred, ExistsPred, ForallTV, ExistsTV)):
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
    if isinstance(f, Forall):
        return f"A {print_term(f.var)}. {qbody(f.body)}"
    if isinstance(f, Exists):
        return f"E {print_term(f.var)}. {qbody(f.body)}"
    if isinstance(f, ForallPred):
        return f"A {f.name}:pred. {qbody(f.body)}"
    if isinstance(f, ExistsPred):
        return f"E {f.name}:pred. {qbody(f.body)}"
    if isinstance(f, ForallTV):
        return f"A {print_fo(f.sym)}. {qbody(f.body)}"
    if isinstance(f, ExistsTV):
        return f"E {print_fo(f.sym)}. {qbody(f.body)}"
    raise TypeError(f"not a first-order formula: {f!r}")


def to_dict(f: Fo | Term) -> dict:
    """Machine-readable structured dump."""
    if isinstance(f, (FoVar, NomConst, CoNomConst)):
        return {"kind": type(f).__name__, "name": f.name}
    if isinstance(f, (Eq, Rel)):
        return {
            "kind": type(f).__name__,
            "lhs": to_dict(f.lhs),
            "rhs": to_dict(f.rhs),
        }
    if isinstance(f, Pred):
        return {"kind": "Pred", "name": f.name, "arg": to_dict(f.arg)}
    if isinstance(f, TruthConst):
        return {"kind": "TruthConst", "name": f.name}
    if isinstance(f, (NomTV, CoNomTV)):
        return {"kind": type(f).__name__, "name": f.name}
    if isinstance(f, (FoOr, FoAnd, FoImplies, FoMinus, Preceq)):
        return {
            "kind": type(f).__name__,
            "lhs": to_dict(f.lhs),
            "rhs": to_dict(f.rhs),
        }
    if isinstance(f, (Forall, Exists)):
        return {
            "kind": type(f).__name__,
            "var": to_dict(f.var),
            "body": to_dict(f.body),
        }
    if isinstance(f, (ForallPred, ExistsPred)):
        return {"kind": type(f).__name__, "name": f.name, "body": to_dict(f.body)}
    if isinstance(f, (ForallTV, ExistsTV)):
        return {"kind": type(f).__name__, "sym": to_dict(f.sym), "body": to_dict(f.body)}
    raise TypeError(f"not dumpable: {f!r}")


# -- display simplifier -------------------------------------------------------------


def _flat_conjuncts(f: Fo) -> list[Fo]:
    if isinstance(f, FoAnd):
        return _flat_conjuncts(f.lhs) + _flat_conjuncts(f.rhs)
    return [f]


def _conjoin(parts: list[Fo]) -> Fo:
    if not parts:
        return TOP
    out = parts[0]
    for p in parts[1:]:
        out = FoAnd(out, p)
    return out


def _is_bot(f: Fo) -> bool:
    return isinstance(f, TruthConst) and f.index == 0


def _is_top(f: Fo) -> bool:
    return isinstance(f, TruthConst) and f.index == 1


def _occurs(term: Term, f: Fo) -> bool:
    return term in free_individual_symbols(f)


def _simplify_once(f: Fo) -> Fo:
    subs = fo_children(f)
    if subs:
        f = fo_rebuild(f, tuple(_simplify_once(c) for c in subs))

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
        if isinstance(f.rhs, Forall) and not _occurs(f.rhs.var, f.lhs):
            return Forall(f.rhs.var, FoImplies(f.lhs, f.rhs.body))
        if isinstance(f.rhs, FoImplies) and not isinstance(f.rhs.lhs, Eq):
            return FoImplies(FoAnd(f.lhs, f.rhs.lhs), f.rhs.rhs)
    if isinstance(f, FoMinus) and _is_bot(f.rhs):
        return f.lhs
    if isinstance(f, Preceq):
        if _is_bot(f.lhs) or _is_top(f.rhs) or f.lhs == f.rhs:
            return TOP
    if isinstance(f, Exists):
        # E v. (... & v = t & ...)  collapses to the substituted matrix
        parts = _flat_conjuncts(f.body)
        for i, part in enumerate(parts):
            target = _eq_solution(part, f.var)
            if target is not None:
                rest = parts[:i] + parts[i + 1:]
                return _conjoin([subst_term(p, f.var, target) for p in rest])
        if not _occurs(f.var, f.body):
            return f.body
    if isinstance(f, Forall):
        if isinstance(f.body, FoImplies):
            parts = _flat_conjuncts(f.body.lhs)
            for i, part in enumerate(parts):
                target = _eq_solution(part, f.var)
                if target is not None:
                    rest = parts[:i] + parts[i + 1:]
                    prem = [subst_term(p, f.var, target) for p in rest]
                    concl = subst_term(f.body.rhs, f.var, target)
                    if prem:
                        return FoImplies(_conjoin(prem), concl)
                    return concl
        if not _occurs(f.var, f.body):
            return f.body
    return f


def _eq_solution(part: Fo, var: Term) -> Optional[Term]:
    """If part pins `var` to another term, return that term."""
    if isinstance(part, Eq):
        if part.lhs == var and part.rhs != var:
            return part.rhs
        if part.rhs == var and part.lhs != var:
            return part.lhs
    return None


def simplify_display(f: Fo, max_rounds: int = 40) -> Fo:
    """Sound bounded rewriting toward textbook shapes; display only."""
    for _ in range(max_rounds):
        nxt = _simplify_once(f)
        if nxt == f:
            return f
        f = nxt
    return f


# -- parsing ------------------------------------------------------------------

import re as _re

_FO_TOKEN = _re.compile(
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
    _re.VERBOSE,
)


def _fo_tokenize(text: str):
    from .errors import FormulaSyntaxError

    out, pos = [], 0
    while pos < len(text):
        m = _FO_TOKEN.match(text, pos)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out


def _term_from_name(name: str) -> Term:
    if name.startswith("c_"):
        base = name[2:]
        if base[:1] in ("m", "n"):
            return CoNomConst(base)
        return NomConst(base)
    return FoVar(name)


def _tv_from_name(name: str) -> Fo:
    base = name[2:]
    if base[:1] in ("m", "n"):
        return CoNomTV(base)
    return NomTV(base)


class _FoParser:
    """Recursive-descent parser matching print_fo output.

    Naming conventions resolve lexical classes: `c_<name>` is an individual
    constant (co-nominal flavour when <name> starts with m or n), `C_<name>`
    a truth-value symbol, `@<name>` an algebra constant; `R` is the
    accessibility relation, any other applied identifier a predicate.
    """

    def __init__(self, tokens, alg: Optional[HeytingAlgebra]):
        self.toks = tokens
        self.alg = alg
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def error(self, msg: str):
        from .errors import FormulaSyntaxError

        raise FormulaSyntaxError(msg, self.peek()[2])

    def formula(self) -> Fo:
        kind, text, _ = self.peek()
        if kind == "ident" and text in ("A", "E"):
            return self.quantified()
        lhs = self.disjunction()
        kind, _, _ = self.peek()
        if kind == "arrow":
            self.next()
            return FoImplies(lhs, self.formula())
        if kind == "preceq":
            self.next()
            return Preceq(lhs, self.disjunction())
        if kind == "minus":
            self.next()
            return FoMinus(lhs, self.disjunction())
        return lhs

    def quantified(self) -> Fo:
        _, which, _ = self.next()
        kind, name, _ = self.next()
        if kind != "ident":
            self.error("expected a quantified symbol")
        if self.peek()[0] != "dot":
            self.error("expected '.' after quantified symbol")
        self.next()
        body = self.formula()
        if name.startswith("C_"):
            sym = _tv_from_name(name)
            return ForallTV(sym, body) if which == "A" else ExistsTV(sym, body)
        return (
            Forall(_term_from_name(name), body)
            if which == "A"
            else Exists(_term_from_name(name), body)
        )

    def disjunction(self) -> Fo:
        out = self.conjunction()
        while self.peek()[0] == "or":
            self.next()
            out = FoOr(out, self.conjunction())
        return out

    def conjunction(self) -> Fo:
        out = self.atom()
        while self.peek()[0] == "and":
            self.next()
            out = FoAnd(out, self.atom())
        return out

    def atom(self) -> Fo:
        kind, text, pos = self.next()
        if kind == "lparen":
            inner = self.formula()
            if self.peek()[0] != "rparen":
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
            if self.peek()[0] == "lparen":
                self.next()
                first = self._term()
                if self.peek()[0] == "comma":
                    self.next()
                    second = self._term()
                    if self.peek()[0] != "rparen":
                        self.error("expected ')'")
                    self.next()
                    if text != "R":
                        self.error("only R takes two arguments")
                    return Rel(first, second)
                if self.peek()[0] != "rparen":
                    self.error("expected ')'")
                self.next()
                return Pred(text, first)
            lhs = _term_from_name(text)
            kind2, _, _ = self.peek()
            if kind2 == "eq":
                self.next()
                return Eq(lhs, self._term())
            if kind2 == "neq":
                self.next()
                return neq(lhs, self._term())
            self.error("expected a relation, equation or predicate")
        self.error(f"unexpected token {text!r}")

    def _term(self) -> Term:
        kind, text, _ = self.next()
        if kind != "ident":
            self.error("expected a term")
        return _term_from_name(text)

    def done(self):
        if self.peek()[0] != "eof":
            self.error(f"trailing input {self.peek()[1]!r}")


def parse_fo(text: str, alg: Optional[HeytingAlgebra] = None) -> Fo:
    """Parse an ASCII first-order formula (the print_fo dialect)."""
    p = _FoParser(_fo_tokenize(text), alg)
    out = p.formula()
    p.done()
    return out

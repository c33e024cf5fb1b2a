"""Rewriting engine computing parametrized first-order frame correspondents.

Given an inequality `lhs <= rhs` (or a formula, read as `top <= f`, with a
top-level implication read as its inequality) and an algebra element `a`,
the engine works on `lhs & @a <= rhs`:

1. preprocessing distributes joins on the left / meets on the right along
   each side's skeleton (`trees.skeleton`, never below an inner node),
   splits, and closes variables occurring with uniform polarity;
2. each resulting inequality is approximated into a system
   `{i0 <= core, i0 <= @a, rhs <= m0}` with reserved atoms i0 / m0, which
   no input may contain; the pinned `i0 <= @a` is carried through untouched;
3. splitting, variable-eliminating substitution (both Ackermann
   directions), approximation (fresh nominals j<k> and co-nominals n<k>,
   numbered past the input's) and residuation steps are applied until no
   propositional variable remains.

The rule strategy is a deterministic priority (cleanup, splitting,
elimination, approximation, residuation), falling back to depth-first
backtracking over untried rule applications when the preferred path gets
stuck; every applied step is recorded in a trace for independent
verification.  On success the variable-free systems are translated into a
quasi-inequality and, through the standard translation, into the local
first-order correspondent (the reserved `c_i0` becomes the free variable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Iterator, Optional

from .errors import StepCapExceeded
from .fol import (
    _conjoin,
    Fo,
    FoImplies,
    Forall,
    FoVar,
    NomConst,
    NomTV,
    FreshVars,
    for_every_value,
    print_fo,
    simplify_display,
    standard_translation,
    subst_term,
)
from .heyting import HeytingAlgebra
from .syntax import (
    ABSENT,
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
    NEGATIVE,
    Nom,
    Or,
    POSITIVE,
    QuasiInequality,
    Var,
    atoms,
    bottom,
    children,
    is_pure,
    polarity,
    prop_vars,
    rebuild,
    signed_children,
    substitute,
    top,
)
from .trees import skeleton, splits

RESERVED_NOM = "i0"
RESERVED_CONOM = "m0"

System = tuple[Inequality, ...]


@dataclass(frozen=True)
class TraceStep:
    phase: str  # preprocess | first-approx | reduce
    rule: str
    branch: int  # -1 during preprocessing
    before: System  # the inequalities the rule consumed
    after: System  # the inequalities it produced
    eliminated: tuple[str, ...] = ()  # closed propositional variables
    introduced: tuple[Formula, ...] = ()  # fresh nominal/co-nominal atoms

    def describe(self) -> str:
        b = "; ".join(str(i) for i in self.before) or "(nothing)"
        a = "; ".join(str(i) for i in self.after) or "(nothing)"
        return f"[{self.phase}] {self.rule}: {b}  ==>  {a}"


@dataclass
class AlbaBranch:
    index: int
    initial: Inequality  # the preprocessed member, shape core & @a <= rhs
    success: bool
    system: System  # reduced system on success, stuck system otherwise
    steps: list[TraceStep]


@dataclass
class AlbaResult:
    status: str  # success | failure | step-cap
    algebra: HeytingAlgebra
    value: int
    source: Inequality  # lhs <= rhs before the @a conjunct is added
    pre_steps: list[TraceStep]
    branches: list[AlbaBranch]
    quasi: list[QuasiInequality] = field(default_factory=list)
    correspondent: Optional[Fo] = None
    correspondent_global: Optional[Fo] = None

    @property
    def succeeded(self) -> bool:
        return self.status == "success"

    @property
    def display(self) -> str:
        """The correspondent as `simplify_display` normalises it, printed;
        empty when the run did not succeed."""
        if not self.succeeded:
            return ""
        return print_fo(simplify_display(self.correspondent))

    def all_steps(self) -> list[TraceStep]:
        out = list(self.pre_steps)
        for branch in self.branches:
            out.extend(branch.steps)
        return out


# -- input shaping -----------------------------------------------------------


def input_inequality(target: Formula | Inequality, alg: HeytingAlgebra) -> Inequality:
    """Formulas become `top <= f`; a top-level implication becomes its
    inequality (both readings have the same parametrized truth)."""
    if isinstance(target, Inequality):
        return target
    if isinstance(target, Implies):
        return Inequality(target.lhs, target.rhs)
    return Inequality(top(alg), target)


# -- phase 1: preprocessing ----------------------------------------------------


_NAMES = {Dia: "dia", Box: "box", And: "and", Or: "or", Implies: "imp"}


def _with_child(f: Formula, i: int, g: Formula) -> Formula:
    subs = list(children(f))
    subs[i] = g
    return rebuild(f, tuple(subs))


def _distribute(f: Formula, sign: int) -> Optional[tuple[str, Formula]]:
    """The first distribution in f at `sign`, in preorder through skeleton
    nodes only: at a skeleton node that does not split, a splitting child
    moves above it, a join on the positive side and a meet on the negative
    one.  A node tries its right operand first, an implication its antecedent."""
    if not skeleton(f, sign):
        return None
    kids = signed_children(f, sign)
    if not splits(f, sign):
        for i in (0, 1) if isinstance(f, Implies) else reversed(range(len(kids))):
            c, s = kids[i]
            if splits(c, s):
                rule = f"distribute-{_NAMES[type(f)]}-{_NAMES[type(c)]}"
                return rule, (Or if sign > 0 else And)(_with_child(f, i, c.lhs),
                                                       _with_child(f, i, c.rhs))
    for i, (c, s) in enumerate(kids):
        found = _distribute(c, s)
        if found:
            return found[0], _with_child(f, i, found[1])
    return None


def _splits(ineq: Inequality) -> list[tuple[str, System]]:
    """The splitting steps that apply: a meet on the right, a join on the left."""
    out = []
    if splits(ineq.rhs, -1):
        parts = (Inequality(ineq.lhs, ineq.rhs.lhs), Inequality(ineq.lhs, ineq.rhs.rhs))
        out.append(("split-meet", parts))
    if splits(ineq.lhs, 1):
        parts = (Inequality(ineq.lhs.lhs, ineq.rhs), Inequality(ineq.lhs.rhs, ineq.rhs))
        out.append(("split-join", parts))
    return out


def preprocess(
    start: Inequality, alg: HeytingAlgebra, trace: list[TraceStep]
) -> list[Inequality]:
    """Exhaustive distribution, splitting and uniform-variable closure."""
    work = [start]
    done: list[Inequality] = []
    while work:
        ineq = work.pop(0)
        # distribution to fixpoint, left side first
        while True:
            found = _distribute(ineq.lhs, 1)
            if found:
                new = Inequality(found[1], ineq.rhs)
            else:
                found = _distribute(ineq.rhs, -1)
                if not found:
                    break
                new = Inequality(ineq.lhs, found[1])
            trace.append(TraceStep("preprocess", found[0], -1, (ineq,), (new,)))
            ineq = new
        # splitting, joins first
        splits = _splits(ineq)
        if splits:
            rule, parts = splits[-1]
            trace.append(TraceStep("preprocess", rule, -1, (ineq,), parts))
            work = list(parts) + work
            continue
        # uniform-polarity closure, once per settled inequality
        closed = _close_uniform_variables(ineq, alg, trace)
        if closed is not ineq:
            work.insert(0, closed)
            continue
        done.append(ineq)
    return done


def _close_uniform_variables(
    ineq: Inequality, alg: HeytingAlgebra, trace: list[TraceStep]
) -> Inequality:
    for var in sorted(prop_vars(ineq.lhs) | prop_vars(ineq.rhs)):
        sign = polarity(Implies(ineq.lhs, ineq.rhs), var)
        if sign == POSITIVE:
            value = bottom(alg)
        elif sign == NEGATIVE:
            value = top(alg)
        else:
            continue
        new = Inequality(substitute(ineq.lhs, var, value), substitute(ineq.rhs, var, value))
        trace.append(TraceStep("preprocess", "close-uniform-variable", -1, (ineq,), (new,),
                               eliminated=(var,)))
        return new
    return ineq


# -- phase 1b: first approximation ----------------------------------------------


def first_approximation(
    member: Inequality, a: int, alg: HeytingAlgebra, branch: int,
    trace: list[TraceStep],
) -> System:
    """`core & @a <= rhs` becomes `{i0 <= core, i0 <= @a, rhs <= m0}`."""
    a_const = Const(alg.element_name(a), a)
    assert isinstance(member.lhs, And) and member.lhs.rhs == a_const, (
        "preprocessing must keep the @a conjunct outermost"
    )
    core = member.lhs.lhs
    system = (
        Inequality(Nom(RESERVED_NOM), core),
        Inequality(Nom(RESERVED_NOM), a_const),
        Inequality(member.rhs, CoNom(RESERVED_CONOM)),
    )
    trace.append(TraceStep("first-approx", "first-approximation", branch, (member,), system,
                           introduced=(Nom(RESERVED_NOM), CoNom(RESERVED_CONOM))))
    return system


# -- phase 2: reduction ----------------------------------------------------------

# A rule application: its trace step and the system it leads to.
Move = tuple[TraceStep, System]


def _trivially_true(ineq: Inequality) -> bool:
    return (ineq.lhs == ineq.rhs or (isinstance(ineq.rhs, Const) and ineq.rhs.index == 1)
            or (isinstance(ineq.lhs, Const) and ineq.lhs.index == 0))


def _cleanup(system: System, pinned: Inequality, branch: int) -> Optional[Move]:
    """The first discard of a duplicate or trivially true inequality, if any;
    cleanup is confluent, so it is applied eagerly, one discard at a time."""
    seen: set[Inequality] = set()
    for i, ineq in enumerate(system):
        if ineq != pinned and (ineq in seen or _trivially_true(ineq)):
            step = (TraceStep("reduce", "discard-duplicate", branch, (ineq, ineq), (ineq,))
                    if ineq in seen  # consumes both copies, produces one
                    else TraceStep("reduce", "discard-true", branch, (ineq,), ()))
            return step, system[:i] + system[i + 1:]
        seen.add(ineq)
    return None


def _rewrites(system: System, pinned: Inequality, branch: int, options) -> Iterator[Move]:
    """The rewrites `options(ineq)` lists, as (rule, products, introduced
    atoms), for each inequality but the pinned one, in system order; the
    products take the consumed inequality's place."""
    for i, ineq in enumerate(system):
        if ineq != pinned:
            for rule, after, introduced in options(ineq):
                step = TraceStep("reduce", rule, branch, (ineq,), after, introduced=introduced)
                yield step, system[:i] + after + system[i + 1:]


def _moves(system: System, pinned: Inequality, jn: tuple[int, int], branch: int,
           alg: HeytingAlgebra) -> Iterator[Move]:
    """Applicable rule applications in strategy priority order."""
    # 0: cleanup
    cleanup = _cleanup(system, pinned, branch)
    if cleanup is not None:
        yield cleanup
        return

    # 1: splitting
    yield from _rewrites(system, pinned, branch,
                         lambda ineq: [(rule, parts, ()) for rule, parts in _splits(ineq)])

    # 2: variable elimination
    yield from _ackermann_moves(system, branch, alg)

    # 3: approximation, with fresh atoms numbered past jn
    j, n = Nom(f"j{jn[0] + 1}"), CoNom(f"n{jn[1] + 1}")
    yield from _rewrites(system, pinned, branch, lambda ineq: _approximations(ineq, j, n))

    # 4: residuation toward displayed variables
    yield from _rewrites(system, pinned, branch, _residuations)


def _ackermann_moves(system: System, branch: int, alg: HeytingAlgebra) -> Iterator[Move]:
    """Eliminate a variable p by substitution: `right` replaces p by the join
    of its lower bounds `b <= p`, `left` by the meet of its upper bounds
    `p <= b`, where every other inequality has p of the matching polarity."""
    for var in sorted(_system_vars(system)):
        v = Var(var)
        mentioning = [ineq for ineq in system
                      if var in prop_vars(ineq.lhs) | prop_vars(ineq.rhs)]
        for direction, op, empty in (("right", Or, bottom(alg)), ("left", And, top(alg))):
            right = direction == "right"
            bounds = [ineq for ineq in mentioning
                      if (ineq.rhs if right else ineq.lhs) == v
                      and var not in prop_vars(ineq.lhs if right else ineq.rhs)]
            others = [ineq for ineq in mentioning if ineq not in bounds]
            want_lhs, want_rhs = (POSITIVE, NEGATIVE) if right else (NEGATIVE, POSITIVE)
            if any(polarity(ineq.lhs, var) not in (want_lhs, ABSENT)
                   or polarity(ineq.rhs, var) not in (want_rhs, ABSENT) for ineq in others):
                continue
            parts = [b.lhs if right else b.rhs for b in bounds]
            replacement = reduce(op, parts) if parts else empty
            after = tuple(Inequality(substitute(ineq.lhs, var, replacement),
                                     substitute(ineq.rhs, var, replacement))
                          for ineq in others)
            substituted = dict(zip(others, after))
            step = TraceStep("reduce", f"ackermann-{direction}", branch,
                             tuple(bounds + others), after, eliminated=(var,))
            yield step, tuple(substituted.get(ineq, ineq) for ineq in system
                              if ineq not in bounds)


def _approximations(ineq: Inequality, j: Nom, n: CoNom) -> list:
    """The approximation rewrites of ineq; each introduces the fresh j or n."""
    lhs, rhs = ineq.lhs, ineq.rhs
    options = []
    if isinstance(lhs, Nom) and isinstance(rhs, Dia) and not is_pure(rhs.sub):
        options.append(("approx-dia", (Inequality(j, rhs.sub), Inequality(lhs, Dia(j))), (j,)))
    if isinstance(rhs, CoNom) and isinstance(lhs, Box) and not is_pure(lhs.sub):
        options.append(("approx-box", (Inequality(lhs.sub, n), Inequality(Box(n), rhs)), (n,)))
    if isinstance(rhs, CoNom) and isinstance(lhs, Implies):
        if not is_pure(lhs.lhs):
            options.append(("approx-imp-left", (Inequality(j, lhs.lhs),
                                                Inequality(Implies(j, lhs.rhs), rhs)), (j,)))
        if not is_pure(lhs.rhs):
            options.append(("approx-imp-right", (Inequality(lhs.rhs, n),
                                                 Inequality(Implies(lhs.lhs, n), rhs)), (n,)))
    return options


def _residuations(ineq: Inequality) -> list:
    """The residuation rewrites of ineq, toward a displayed variable."""
    lhs, rhs = ineq.lhs, ineq.rhs
    options = []
    # box on the right: adjoint moves the inverse diamond left
    if isinstance(rhs, Box) and not is_pure(rhs.sub):
        options.append(("residuate-box", Inequality(DiaInv(lhs), rhs.sub)))
    # diamond on the left: adjoint moves the inverse box right
    if isinstance(lhs, Dia) and not is_pure(lhs.sub):
        options.append(("residuate-dia", Inequality(lhs.sub, BoxInv(rhs))))
    # implication on the right: uncurry
    if isinstance(rhs, Implies) and not is_pure(rhs):
        options.append(("residuate-imp", Inequality(And(lhs, rhs.lhs), rhs.rhs)))
    # conjunction on the left: keep a conjunct that is not variable-free,
    # move the other across as an implication
    if isinstance(lhs, And):
        if not is_pure(lhs.lhs):
            options.append(("residuate-and", Inequality(lhs.lhs, Implies(lhs.rhs, rhs))))
        if not is_pure(lhs.rhs):
            options.append(("residuate-and", Inequality(lhs.rhs, Implies(lhs.lhs, rhs))))
    # disjunction on the right: move a disjunct across as a difference
    if isinstance(rhs, Or):
        if not is_pure(rhs.rhs):
            options.append(("co-residuate-or", Inequality(Minus(lhs, rhs.lhs), rhs.rhs)))
        if not is_pure(rhs.lhs):
            options.append(("co-residuate-or", Inequality(Minus(lhs, rhs.rhs), rhs.lhs)))
    return [(rule, (new,), ()) for rule, new in options]


def _numbered(found: Iterable[Formula], jn: tuple[int, int]) -> tuple[int, int]:
    """The highest k of the nominals j<k> and of the co-nominals n<k> among
    the atoms found and the numbers jn: fresh atoms are numbered past them."""
    j, n = jn
    for atom in found:
        k = int(atom.name[1:]) if atom.name[1:].isdigit() else 0
        if isinstance(atom, Nom) and atom.name[0] == "j":
            j = max(j, k)
        elif isinstance(atom, CoNom) and atom.name[0] == "n":
            n = max(n, k)
    return j, n


def _system_vars(system: System) -> set[str]:
    out: set[str] = set()
    for ineq in system:
        out |= prop_vars(ineq.lhs) | prop_vars(ineq.rhs)
    return out


def reduce_system(
    system: System,
    pinned: Inequality,
    branch: int,
    alg: HeytingAlgebra,
    step_cap: int = 10_000,
) -> tuple[bool, System, list[TraceStep]]:
    """Depth-first search over rule applications; the preferred strategy is
    the first path explored.  Once no variable is left only discards are
    followed, without search and outside the cap.  A failed search returns
    the first system it got stuck at and the steps that led there.  Raises
    StepCapExceeded when the cap is hit."""
    visited: set[tuple] = set()
    stuck: list[tuple[System, list[TraceStep]]] = []
    trail: list[TraceStep] = []  # the steps from `system` to the one being searched
    steps_taken = 0

    def dfs(current: System, jn: tuple[int, int]) -> Optional[list[Move]]:
        nonlocal steps_taken
        if not _system_vars(current):
            move = _cleanup(current, pinned, branch)
            return [] if move is None else [move] + dfs(move[1], jn)
        # multiset key: a duplicate-discarding move must change the key
        key = tuple(sorted(str(i) for i in current))
        if key in visited:
            return None
        visited.add(key)
        had_move = False
        for step, successor in _moves(current, pinned, jn, branch, alg):
            steps_taken += 1
            if steps_taken > step_cap:
                raise StepCapExceeded(f"reduction exceeded the {step_cap}-step cap")
            had_move = True
            trail.append(step)
            tail = dfs(successor, _numbered(step.introduced, jn))
            trail.pop()
            if tail is not None:
                return [(step, successor)] + tail
        if not had_move:
            stuck.append((current, list(trail)))
        return None

    path = dfs(system, _numbered(
        (atom for ineq in system for atom in atoms(ineq.lhs) | atoms(ineq.rhs)), (0, 0)))
    if path is None:
        return (False, *stuck[0]) if stuck else (False, system, [])
    return True, path[-1][1] if path else system, [step for step, _ in path]


# -- phase 3: translation and output -----------------------------------------------


def branch_quasi(system: System) -> QuasiInequality:
    conclusion = Inequality(Nom(RESERVED_NOM), CoNom(RESERVED_CONOM))
    return QuasiInequality(tuple(system), conclusion)


def branch_correspondent(system: System) -> Fo:
    """First-order form of `system => i0 <= m0` with `c_i0` freed to x."""
    fresh = FreshVars()
    u, v = FoVar("x1"), FoVar("x2")
    premise_parts = [standard_translation(ineq, u, fresh) for ineq in system]
    premise = Forall(u, _conjoin(premise_parts))
    conclusion = Forall(
        v,
        standard_translation(
            Inequality(Nom(RESERVED_NOM), CoNom(RESERVED_CONOM)), v, fresh
        ),
    )
    out: Fo = FoImplies(premise, conclusion)
    # the system's nominals, then its co-nominals, each in order of appearance
    seen = dict.fromkeys(atom for ineq in system
                         for atom in sorted(atoms(ineq.lhs) | atoms(ineq.rhs), key=str))
    for reserved in (Nom(RESERVED_NOM), CoNom(RESERVED_CONOM)):
        seen.pop(reserved, None)
    noms = [atom for atom in seen if isinstance(atom, Nom)]
    for atom in reversed(noms + [atom for atom in seen if isinstance(atom, CoNom)]):
        out = for_every_value(atom, out)
    out = Forall(NomTV(RESERVED_NOM), for_every_value(CoNom(RESERVED_CONOM), out))
    return subst_term(out, NomConst(RESERVED_NOM), FoVar("x"))


# -- driver --------------------------------------------------------------------------


def run_alba(
    target: Formula | Inequality,
    a: int,
    alg: HeytingAlgebra,
    step_cap: int = 10_000,
) -> AlbaResult:
    if step_cap < 0:
        raise ValueError(f"step cap must not be negative, got {step_cap}")
    source = input_inequality(target, alg)
    if {Nom(RESERVED_NOM), CoNom(RESERVED_CONOM)} & (atoms(source.lhs) | atoms(source.rhs)):
        raise ValueError(f"#{RESERVED_NOM} and ${RESERVED_CONOM} are reserved for the "
                         "rewriting engine's own atoms")
    a_const = Const(alg.element_name(a), a)
    start = Inequality(And(source.lhs, a_const), source.rhs)

    pre_steps: list[TraceStep] = []
    pre = preprocess(start, alg, pre_steps)

    pinned = Inequality(Nom(RESERVED_NOM), a_const)
    branches: list[AlbaBranch] = []
    status = "success"
    for idx, member in enumerate(pre):
        steps: list[TraceStep] = []
        system = first_approximation(member, a, alg, idx, steps)
        try:
            ok, final, reduce_steps = reduce_system(system, pinned, idx, alg, step_cap)
        except StepCapExceeded:
            branches.append(AlbaBranch(idx, member, False, system, steps))
            status = "step-cap"
            continue
        steps.extend(reduce_steps)
        branches.append(AlbaBranch(idx, member, ok, final, steps))
        if not ok:
            status = "failure"

    result = AlbaResult(status=status, algebra=alg, value=a, source=source,
                        pre_steps=pre_steps, branches=branches)
    if status != "success":
        return result

    result.quasi = [branch_quasi(b.system) for b in branches]
    parts = [branch_correspondent(b.system) for b in branches]
    result.correspondent = _conjoin(parts)
    result.correspondent_global = Forall(FoVar("x"), result.correspondent)
    return result

"""Correspondents for classical Sahlqvist formulas, independent of the
truth-value parameter.

The classical shape is read and translated in one recursion: an
implication whose antecedent is built from bottom/top, boxed atoms,
negative and variable-free parts with meet, join and diamond, and whose
consequent is positive, composed under box, meet and variable-disjoint join
(Sahlqvist 1975; Blackburn, de Rijke and Venema, Modal Logic, 3.6).
Anything else raises NotClassicalSahlqvist.

Each implication is translated as a definite implication: the
existentials are prenexed out of the antecedent to reach the shape

    forall x1..xm ( REL  &  BOX-AT  ->  POS ),

the minimal instantiation sigma(P(y)) is read off as the disjunction of
the relational reach R^r(x_i, y) of the boxed atoms mentioning P,
substituted into the consequent, and  forall x1..xm (REL -> sigma(POS))
is emitted.  Negative and variable-free antecedent parts are curried into
the consequent first, which keeps every antecedent predicate occurrence
inside BOX-AT and the consequent monotone.  Box, meet and variable-disjoint
join recompose the emitted conditions with the matching first-order
context.

The function never reads an algebra or a truth value, so its output is
literally identical across truth-value spaces and parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Optional

from .budget import Budget
from .errors import NotClassicalSahlqvist
from .fol import (
    BOT,
    Eq,
    Exists,
    Fo,
    FoAnd,
    FoImplies,
    FoOr,
    Forall,
    FoVar,
    FreshVars,
    NomTV,
    Rel,
    Term,
    TruthConst,
    _conjoin,
    fo_eval,
    free_individual_symbols,
    free_pred_names,
    interp_for_frame,
    subst_pred,
    standard_translation,
)
from .semantics import Frame
from .syntax import (
    NEGATIVE,
    POSITIVE,
    And,
    Box,
    Const,
    Dia,
    Formula,
    Implies,
    Or,
    Var,
    children,
    in_base_language,
    polarity,
    prop_vars,
)


def boxed_atom(f: Formula) -> Optional[tuple[str, int]]:
    """(p, d) when f is the variable p under d boxes."""
    depth = 0
    while isinstance(f, Box):
        depth += 1
        f = f.sub
    return (f.name, depth) if isinstance(f, Var) else None


def _only_classical_constants(f: Formula) -> bool:
    if isinstance(f, Const):
        return f.index in (0, 1)
    return all(_only_classical_constants(c) for c in children(f))


def is_negative_formula(f: Formula) -> bool:
    """Every propositional variable of f occurs negatively, and there is one."""
    vs = prop_vars(f)
    return all(polarity(f, v) == NEGATIVE for v in vs) if vs else False


def is_sahl_antecedent(f: Formula) -> bool:
    """Built from bottom/top, boxed atoms, negative and variable-free parts
    with and/or/dia."""
    if isinstance(f, Const):
        return f.index in (0, 1)
    if boxed_atom(f) is not None:
        return True
    if isinstance(f, (And, Or)):
        return is_sahl_antecedent(f.lhs) and is_sahl_antecedent(f.rhs)
    if isinstance(f, Dia):
        return is_sahl_antecedent(f.sub)
    return is_negative_formula(f) or not prop_vars(f)


@dataclass
class DefiniteImplication:
    """Skeleton of one translated definite implication."""

    bound: list[FoVar]  # x1..xm, in introduction order
    rel: list[Fo]  # R(x_i, x_j) atoms and constant conjuncts
    boxed: list[tuple[str, Term, int]]  # (predicate, base variable, depth)
    negatives: list[Fo]  # translations of negative and variable-free parts


def _lift_disjunctions(f: Formula) -> list[Formula]:
    """Antecedent as a join of definite antecedents; negative parts and
    boxed atoms are atomic here."""
    # a disjunction that is itself a negative formula stays whole
    if isinstance(f, Or) and not is_negative_formula(f):
        return _lift_disjunctions(f.lhs) + _lift_disjunctions(f.rhs)
    if isinstance(f, And):
        return [
            And(a, b)
            for a in _lift_disjunctions(f.lhs)
            for b in _lift_disjunctions(f.rhs)
        ]
    if isinstance(f, Dia):
        return [Dia(a) for a in _lift_disjunctions(f.sub)]
    return [f]


def _walk_definite(
    f: Formula,
    cur: Term,
    out: DefiniteImplication,
    ivars: FreshVars,
    st_fresh: FreshVars,
) -> None:
    boxed = boxed_atom(f)
    if boxed is not None:
        name, depth = boxed
        out.boxed.append((name, cur, depth))
        return
    if isinstance(f, Const):
        out.rel.append(TruthConst(f.name, f.index))
        return
    if isinstance(f, And):
        _walk_definite(f.lhs, cur, out, ivars, st_fresh)
        _walk_definite(f.rhs, cur, out, ivars, st_fresh)
        return
    if isinstance(f, Dia):
        nxt = ivars.next()
        out.bound.append(nxt)
        out.rel.append(Rel(cur, nxt))
        _walk_definite(f.sub, nxt, out, ivars, st_fresh)
        return
    # is_sahl_antecedent admitted the rest as negative or variable-free parts
    out.negatives.append(standard_translation(f, cur, st_fresh))


def _reach(base: Term, depth: int, target: Term, fresh: FreshVars) -> Fo:
    """R^depth from base to target, expanded as an existential chain."""
    if depth == 0:
        return Eq(base, target)
    cur = base
    binders: list[FoVar] = []
    conj: list[Fo] = []
    for _ in range(depth):
        nxt = fresh.next()
        binders.append(nxt)
        conj.append(Rel(cur, nxt))
        cur = nxt
    conj.append(Eq(cur, target))
    body = _conjoin(conj)
    for b in reversed(binders):
        body = Exists(b, body)
    return body


def _emit_implication(
    antecedent: Formula, consequent: Formula, cur: Term, ivars: FreshVars,
    st_fresh: FreshVars,
) -> Fo:
    results: list[Fo] = []
    for delta in _lift_disjunctions(antecedent):
        info = DefiniteImplication([], [], [], [])
        _walk_definite(delta, cur, info, ivars, st_fresh)
        pos = standard_translation(consequent, cur, st_fresh)
        if info.negatives:
            pos = FoImplies(_conjoin(info.negatives), pos)

        def make_sigma(pred: str) -> Callable[[Term], Fo]:
            units = [(base, depth) for name, base, depth in info.boxed if name == pred]

            def body(t: Term) -> Fo:
                if not units:
                    return BOT
                return reduce(FoOr, [_reach(base, depth, t, st_fresh) for base, depth in units])

            return body

        for pred in sorted(free_pred_names(pos)):
            pos = subst_pred(pos, pred, make_sigma(pred))

        if info.rel:
            body: Fo = FoImplies(_conjoin(info.rel), pos)
        else:
            body = pos
        for v in reversed(info.bound):
            body = Forall(v, body)
        results.append(body)
    return _conjoin(results)


def _emit(f: Formula, cur: Term, ivars: FreshVars, st_fresh: FreshVars) -> Fo:
    """f's correspondent at cur, read through box, meet and
    variable-disjoint join down to Sahlqvist implications."""
    if (isinstance(f, Implies) and is_sahl_antecedent(f.lhs)
            and all(polarity(f.rhs, v) == POSITIVE for v in prop_vars(f.rhs))):
        return _emit_implication(f.lhs, f.rhs, cur, ivars, st_fresh)
    if isinstance(f, Box):
        y = st_fresh.next()
        return Forall(y, FoImplies(Rel(cur, y), _emit(f.sub, y, ivars, st_fresh)))
    if isinstance(f, And):
        return FoAnd(_emit(f.lhs, cur, ivars, st_fresh), _emit(f.rhs, cur, ivars, st_fresh))
    if isinstance(f, Or) and not prop_vars(f.lhs) & prop_vars(f.rhs):
        return FoOr(_emit(f.lhs, cur, ivars, st_fresh), _emit(f.rhs, cur, ivars, st_fresh))
    raise NotClassicalSahlqvist(str(f))


def svb_correspondent(f: Formula) -> Fo:
    """Raw local correspondent of a classical Sahlqvist formula.

    Raises NotClassicalSahlqvist, naming f, when f is not of the classical
    shape.  The computation is purely syntactic: no algebra and no truth
    value enter.
    """
    if in_base_language(f) and _only_classical_constants(f):
        try:
            return _emit(f, FoVar("x"), FreshVars(prefix="x"), FreshVars(prefix="y"))
        except NotClassicalSahlqvist:
            pass
    raise NotClassicalSahlqvist(str(f))


# -- decorated-substitution check ---------------------------------------------------


def check_c_elimination(
    frame: Frame,
    phi: Fo,
    pred: str,
    delta: Callable[[Term], Fo],
    rng: random.Random,
    trials: int = 20,
    other_preds: Iterable[str] = (),
    budget: Budget | None = None,
) -> Optional[str]:
    """Compare the decorated and plain substitutions conjoined with the
    decoration, over all join-irreducible decorations and sampled
    assignments.  Returns None on agreement, else a witness description.
    """
    alg = frame.algebra
    c = NomTV("c")
    plain = FoAnd(subst_pred(phi, pred, delta), c)
    decorated = FoAnd(subst_pred(phi, pred, delta, conjoin_tv=c), c)
    interp = interp_for_frame(frame)
    free = sorted(free_individual_symbols(plain), key=str)
    for _ in range(trials):
        env: dict = {
            name: tuple(rng.randrange(alg.n) for _ in range(frame.size))
            for name in other_preds
        }
        for t in free:
            env[t] = rng.randrange(frame.size)
        for j in alg.join_irreducibles:
            env[c] = j
            lhs = fo_eval(interp, decorated, env, budget)
            rhs = fo_eval(interp, plain, env, budget)
            if lhs != rhs:
                return (
                    f"decorated {alg.element_name(lhs)} != plain "
                    f"{alg.element_name(rhs)} at decoration "
                    f"{alg.element_name(j)} under {env}"
                )
    return None

"""Seeded random generators for formulas, frames and models.

Everything takes an explicit random.Random so that runs are reproducible
from a recorded seed.
"""

from __future__ import annotations

import random
from typing import Sequence

from .heyting import HeytingAlgebra
from .semantics import Frame, Model, Valuation, atom_options
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

BASE_BINARY = [Or, And, Implies]
BASE_UNARY = [Box, Dia]
EXT_BINARY = BASE_BINARY + [Minus]
EXT_UNARY = BASE_UNARY + [BoxInv, DiaInv]


def random_formula(
    rng: random.Random,
    alg: HeytingAlgebra,
    variables: Sequence[str] = ("p", "q"),
    depth: int = 3,
    extended: bool = False,
    constants: bool = True,
) -> Formula:
    """Random modal formula of bounded depth."""
    leaves: list[Formula] = [Var(v) for v in variables]
    if constants:
        leaves += [Const(alg.element_name(i), i) for i in range(alg.n)]
    if extended:
        leaves += [Nom("i1"), CoNom("m1")]
    binary = EXT_BINARY if extended else BASE_BINARY
    unary = EXT_UNARY if extended else BASE_UNARY

    def gen(d: int) -> Formula:
        if d <= 0 or rng.random() < 0.25:
            return rng.choice(leaves)
        if rng.random() < 0.45:
            return rng.choice(unary)(gen(d - 1))
        op = rng.choice(binary)
        return op(gen(d - 1), gen(d - 1))

    return gen(depth)


def random_inequality(
    rng: random.Random,
    alg: HeytingAlgebra,
    variables: Sequence[str] = ("p", "q"),
    depth: int = 2,
) -> Inequality:
    return Inequality(
        random_formula(rng, alg, variables, depth),
        random_formula(rng, alg, variables, depth),
    )


def random_frame(rng: random.Random, alg: HeytingAlgebra, size: int) -> Frame:
    states = tuple(f"w{i}" for i in range(size))
    rel = tuple(
        tuple(rng.randrange(alg.n) for _ in range(size)) for _ in range(size)
    )
    return Frame(alg, states, rel)


def random_valuation(rng: random.Random, frame: Frame, over) -> Valuation:
    """Each atom's row drawn uniformly from its `atom_options`."""
    return {atom: rng.choice(atom_options(frame, atom)) for atom in over}


def random_model(rng: random.Random, frame: Frame, f: Formula) -> Model:
    """Random model interpreting exactly the atoms of f."""
    return Model(frame, random_valuation(rng, frame, sorted(atoms(f), key=str)))


def random_fo(
    rng: random.Random,
    alg: HeytingAlgebra,
    preds: Sequence[str] = ("p", "q"),
    variables: Sequence[str] = ("x", "y"),
    depth: int = 3,
):
    """Random first-order formula with free predicate symbols (no predicate
    quantifiers, no comparison connective): the fragment the decorated
    substitution acts on."""
    from .fol import (
        Eq,
        Exists,
        FoAnd,
        FoImplies,
        FoOr,
        Forall,
        FoVar,
        Pred,
        Rel,
        TruthConst,
    )

    terms = [FoVar(v) for v in variables]

    def atom():
        roll = rng.random()
        if roll < 0.35 and preds:
            return Pred(rng.choice(preds), rng.choice(terms))
        if roll < 0.6:
            return Rel(rng.choice(terms), rng.choice(terms))
        if roll < 0.75:
            return Eq(rng.choice(terms), rng.choice(terms))
        i = rng.randrange(alg.n)
        return TruthConst(alg.element_name(i), i)

    def gen(d: int):
        if d <= 0 or rng.random() < 0.3:
            return atom()
        roll = rng.random()
        if roll < 0.55:
            op = rng.choice([FoAnd, FoOr, FoImplies])
            return op(gen(d - 1), gen(d - 1))
        q = rng.choice([Forall, Exists])
        return q(rng.choice(terms), gen(d - 1))

    return gen(depth)

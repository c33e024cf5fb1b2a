"""Shared fixtures: algebras, frame pools, the regression corpus, and one
input per ALBA rule."""

import random
from itertools import combinations

import pytest

from mvcorr.heyting import builtin_algebra, load_algebra
from mvcorr.oracle import iter_frames
from mvcorr.randomgen import random_inequality
from mvcorr.syntax import parse_inequality
from mvcorr.trees import is_inductive


@pytest.fixture(scope="session")
def P():
    return builtin_algebra("paper-P")


@pytest.fixture(scope="session")
def B2():
    return builtin_algebra("bool2")


@pytest.fixture(scope="session")
def bool2_frames_upto2(B2):
    return list(iter_frames(B2, 1)) + list(iter_frames(B2, 2))


@pytest.fixture(scope="session")
def p_frames_size1(P):
    return list(iter_frames(P, 1))


def boolean_algebra(atoms):
    """The subsets of `atoms` under inclusion, the empty one named 0."""
    subsets = [frozenset(c) for r in range(len(atoms) + 1) for c in combinations(atoms, r)]
    name = {s: "".join(sorted(s)) or "0" for s in subsets}
    return load_algebra({"elements": list(name.values()),
                         "leq": [[name[s], name[t]] for s in subsets for t in subsets if s <= t]})


def paper_inequalities(alg):
    """The worked inequalities: the named axioms plus both tree examples."""
    texts = [
        "p <= <>p",
        "<><>p <= <>p",
        "p <= []<>p",
        "<>p <= <><>p",
        "[]p <= <>p",
        "[]p <= [][]p",
        "[]p <= p",
        "(p -> @0) -> []q <= <>[]q \\/ []p",
        "@1 <= [](@alpha /\\ p -> q) /\\ []p -> <>[]q",
    ]
    return [parse_inequality(t, alg) for t in texts]


def generated_inductive(alg, seed=2024, want=12, variables=("p", "q", "r")):
    """Seeded random inequalities filtered through the shape test."""
    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < want:
        ineq = random_inequality(rng, alg, variables, depth=2)
        key = str(ineq)
        if key in seen:
            continue
        seen.add(key)
        if is_inductive(ineq) is not None:
            out.append(ineq)
    return out


# one input per rule name ALBA records, each firing its rule at gamma
RULE_INPUTS = {
    "distribute-dia-or": "<>(p \\/ q) <= <>p \\/ <>q",
    "distribute-and-or": "<>(@0 \\/ q) <= p",
    "distribute-box-and": "p <= [](q /\\ <>p)",
    "distribute-or-and": "<>p <= q \\/ ([]p /\\ q)",
    "distribute-imp-or": "p <= (q \\/ r) -> <>p",
    "distribute-imp-and": "[]p <= q -> (p /\\ <>q)",
    "split-meet": "[]p /\\ []p <= p",
    "split-join": "p <= []p \\/ q",
    "close-uniform-variable": "q <= p",
    "first-approximation": "q <= q",
    "discard-duplicate": "<>p /\\ <>p <= <>p",
    "discard-true": "q <= p",
    "ackermann-right": "q <= q",
    "ackermann-left": "[]p -> p",
    "approx-dia": "<><>p -> <>p",
    "approx-box": "[]p -> [][]p",
    "approx-imp-left": "[]<>@1 <= q -> []q",
    "approx-imp-right": "p -> q <= []p -> []q",
    "residuate-box": "[]p -> <>p",
    "residuate-dia": "[](@gamma /\\ @1) -> @beta \\/ q \\/ (@beta -> q) <= @alpha /\\ []p \\/ <>q",
    "residuate-imp": "p -> q <= []p -> []q",
    "residuate-and": "(@0 \\/ q -> @beta -> @beta) -> @1 /\\ q \\/ (@gamma \\/ @1) <= "
                     "((@alpha -> @alpha) -> @beta -> @1) \\/ <>q /\\ (@1 /\\ @1)",
    "co-residuate-or": "[](@gamma /\\ @1) -> @beta \\/ q \\/ (@beta -> q) <= "
                       "@alpha /\\ []p \\/ <>q",
}


@pytest.fixture(scope="session")
def inductive_corpus(P):
    return paper_inequalities(P) + generated_inductive(P)

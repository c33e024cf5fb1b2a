"""Shared fixtures: algebras, frame pools, and the regression corpus."""

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


@pytest.fixture(scope="session")
def inductive_corpus(P):
    return paper_inequalities(P) + generated_inductive(P)

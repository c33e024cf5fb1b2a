"""Signed trees: worked-example goldens and recognition invariants."""

import random
import sys

import pytest

from mvcorr import trees
from mvcorr.errors import NotClassicalSahlqvist
from mvcorr.fol import FoImplies, FoOr
from mvcorr.heyting import builtin_algebra
from mvcorr.randomgen import random_formula, random_inequality
from mvcorr.svb import svb_correspondent
from mvcorr.syntax import (
    And,
    Box,
    Const,
    Dia,
    Or,
    Var,
    parse_formula,
    parse_inequality,
)
from mvcorr.trees import (
    EXCELLENT,
    GOOD,
    NOT_GOOD,
    ONE,
    PARTIAL,
    branch_quality,
    branch_table,
    branches,
    build_signed_tree,
    formula_inequality,
    is_inductive,
    is_sahlqvist,
)

P = builtin_algebra("paper-P")
TOP = Const("1", P.top)


def leaf_signs(tree):
    return [(str(b.leaf.formula), b.leaf.sign) for b in branches(tree)]


def test_signed_tree_sign_propagation():
    # +((p -> @0) -> []q): leaves +p, -0, +q
    f = parse_formula("(p -> @0) -> []q", P)
    tree = build_signed_tree(f, 1)
    assert leaf_signs(tree) == [("p", 1), ("@0", -1), ("q", 1)]
    # -(<>[]q \/ []p): leaves -q, -p
    g = parse_formula("<>[]q \\/ []p", P)
    assert leaf_signs(build_signed_tree(g, -1)) == [("q", -1), ("p", -1)]


def test_signed_tree_checks_the_language_once(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return in_base_language(f)

    in_base_language = trees.in_base_language
    monkeypatch.setattr(trees, "in_base_language", counting)
    f = Var("p")
    for _ in range(400):
        f = Box(f)
    # the recursive walks take two frames per level
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2_000)
    try:
        tree = build_signed_tree(f, 1)
        assert calls == [f]
        assert leaf_signs(tree) == [("p", 1)]
    finally:
        sys.setrecursionlimit(limit)


def test_signed_tree_inductive_example():
    f = parse_formula("[](@alpha /\\ p -> q) /\\ []p -> <>[]q", P)
    tree = build_signed_tree(f, -1)
    assert leaf_signs(tree) == [
        ("@alpha", -1),
        ("p", -1),
        ("q", 1),
        ("p", 1),
        ("q", -1),
    ]


EX_A = parse_inequality("(p -> @0) -> []q <= <>[]q \\/ []p", P)
EX_B = parse_inequality("[](p \\/ q) <= <>(p /\\ q)", P)
EX_C = parse_formula("[](@alpha /\\ p -> q) /\\ []p -> <>[]q", P)


def test_branch_quality_first_worked_example():
    # branches numbered 1..5 left-to-right across both trees
    expected = [NOT_GOOD, NOT_GOOD, EXCELLENT, NOT_GOOD, EXCELLENT]
    rows = branch_table(EX_A)
    assert [q for _, _, q in rows] == expected


def test_branch_quality_second_worked_example():
    rows = branch_table(EX_B)
    assert [q for _, _, q in rows] == [GOOD] * 4


def test_branch_quality_third_worked_example():
    rows = branch_table(formula_inequality(EX_C, TOP))
    # constant leaf of the wrapping top <= ... inequality comes first
    assert rows[0][1] == "+@1"
    assert [q for _, _, q in rows[1:]] == [GOOD, GOOD, GOOD, EXCELLENT, NOT_GOOD]


def test_sahlqvist_first_example_witness():
    eps = is_sahlqvist(EX_A)
    assert eps is not None
    assert eps.marks == {"p": PARTIAL, "q": ONE}


def test_sahlqvist_rejects_second_example():
    assert is_sahlqvist(EX_B) is None
    assert is_inductive(EX_B) is None


def test_inductive_third_example_witness():
    verdict = is_inductive(formula_inequality(EX_C, TOP))
    assert verdict is not None
    omega, eps = verdict
    assert eps.marks == {"p": ONE, "q": ONE}
    assert ("p", "q") in omega.precedences
    assert is_sahlqvist(formula_inequality(EX_C, TOP)) is None


def test_polarity_agrees_with_leaf_signs():
    # a variable is positive in f exactly when every leaf for it in the
    # positive tree carries +
    import random as _random
    from mvcorr.syntax import POSITIVE, NEGATIVE, ABSENT, polarity

    rng = _random.Random(31)
    for _ in range(300):
        f = random_formula(rng, P, ("p", "q"), depth=3)
        tree = build_signed_tree(f, 1)
        signs = [
            b.leaf.sign for b in branches(tree)
            if isinstance(b.leaf.formula, Var) and b.leaf.formula.name == "p"
        ]
        sign = polarity(f, "p")
        if not signs:
            assert sign == ABSENT
        elif all(s > 0 for s in signs):
            assert sign == POSITIVE
        elif all(s < 0 for s in signs):
            assert sign == NEGATIVE
        else:
            assert sign == "mixed"


def test_trivial_inequality_any_order_type():
    eps = is_sahlqvist(parse_inequality("p <= p", P))
    assert eps is not None and eps.marks == {"p": ONE}


def test_sahlqvist_implies_inductive_on_random_inequalities():
    rng = random.Random(5)
    hits = 0
    for _ in range(400):
        ineq = random_inequality(rng, P, ("p", "q"), depth=2)
        eps = is_sahlqvist(ineq)
        if eps is not None:
            hits += 1
            assert is_inductive(ineq) is not None, str(ineq)
    assert hits > 10


def test_duality_preserves_branch_quality():
    # swapping the root sign together with and/or and box/dia fixes quality
    def dual(f):
        if isinstance(f, And):
            return Or(dual(f.lhs), dual(f.rhs))
        if isinstance(f, Or):
            return And(dual(f.lhs), dual(f.rhs))
        if isinstance(f, Box):
            return Dia(dual(f.sub))
        if isinstance(f, Dia):
            return Box(dual(f.sub))
        return f

    rng = random.Random(9)
    for _ in range(300):
        f = random_formula(rng, P, ("p", "q"), depth=3, constants=False)
        if not all(
            isinstance(n, (And, Or, Box, Dia, Var))
            for n in _walk(f)
        ):
            continue
        for sign in (1, -1):
            qs = [branch_quality(b) for b in branches(build_signed_tree(f, sign))]
            dqs = [
                branch_quality(b)
                for b in branches(build_signed_tree(dual(f), -sign))
            ]
            assert qs == dqs


def _walk(f):
    yield f
    from mvcorr.syntax import children

    for c in children(f):
        yield from _walk(c)


# -- classical shape: svb_correspondent accepts or refuses -----------------------


def test_classical_accepts_basic_axioms():
    for text in ("p -> <>p", "[]p -> [][]p", "p -> []<>p", "[]p -> <>p",
                 "<>p -> <><>p", "[]p -> p"):
        svb_correspondent(parse_formula(text, P))


def test_classical_boxed_negation_rejected():
    f = parse_formula("[]~p -> [][]~p", P)
    with pytest.raises(NotClassicalSahlqvist):
        svb_correspondent(f)


def test_classical_variable_disjoint_disjunction():
    good = parse_formula("(p -> <>p) \\/ (q -> <><>q)", P)
    assert isinstance(svb_correspondent(good), FoOr)
    shared = parse_formula("(p -> <>p) \\/ (p -> <><>p)", P)
    with pytest.raises(NotClassicalSahlqvist):
        svb_correspondent(shared)


def test_classical_negative_part_in_antecedent():
    f = parse_formula("p /\\ ~q -> <>p", P)
    # the negative part ~q is curried into the consequent
    assert isinstance(svb_correspondent(f), FoImplies)


def test_classical_implies_sahlqvist_for_all_one():
    corpus = [
        "p -> <>p",
        "[]p -> [][]p",
        "p -> []<>p",
        "[]p -> <>p",
        "<>p -> <><>p",
        "[](p -> <>p)",
        "(p -> <>p) \\/ (q -> <><>q)",
    ]
    for text in corpus:
        f = parse_formula(text, P)
        svb_correspondent(f)
        eps = is_sahlqvist(formula_inequality(f, TOP))
        assert eps is not None, text
        assert all(m == ONE for m in eps.marks.values()), text


def test_non_classical_constant_rejected():
    f = parse_formula("@gamma /\\ p -> <>p", P)
    with pytest.raises(NotClassicalSahlqvist):
        svb_correspondent(f)

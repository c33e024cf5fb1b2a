"""Parser/printer round-trips and polarity computation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcorr.errors import FormulaSyntaxError, UnknownConstant
from mvcorr.fol import Eq, FoAnd, FoVar, Rel
from mvcorr.heyting import builtin_algebra
from mvcorr.syntax import (
    ABSENT,
    MAX_NESTING,
    MIXED,
    NEGATIVE,
    POSITIVE,
    And,
    Box,
    BoxInv,
    CoNom,
    Const,
    Dia,
    DiaInv,
    Implies,
    Inequality,
    Minus,
    Nom,
    Or,
    QuasiInequality,
    Var,
    atoms,
    children,
    in_base_language,
    parse_formula,
    parse_inequality,
    parse_input,
    polarity,
    print_formula,
    prop_vars,
    substitute,
)

P = builtin_algebra("paper-P")
B2 = builtin_algebra("bool2")


def test_parse_simple_var():
    assert parse_formula("p", P) == Var("p")


def test_negation_sugar_expands():
    f = parse_formula("~p \\/ <>p", P)
    assert f == Or(Implies(Var("p"), Const("0", P.bot)), Dia(Var("p")))


def test_inductive_example_parses():
    f = parse_formula("[](@alpha /\\ p -> q) /\\ []p -> <>[]q", P)
    expected = Implies(
        And(
            Box(Implies(And(Const("alpha", P.element("alpha")), Var("p")), Var("q"))),
            Box(Var("p")),
        ),
        Dia(Box(Var("q"))),
    )
    assert f == expected


def test_precedence_and_associativity():
    assert parse_formula("p /\\ q \\/ r", P) == Or(And(Var("p"), Var("q")), Var("r"))
    assert parse_formula("p -> q -> r", P) == Implies(
        Var("p"), Implies(Var("q"), Var("r"))
    )
    assert parse_formula("p - q", P) == Minus(Var("p"), Var("q"))
    assert parse_formula("[]<>p", P) == Box(Dia(Var("p")))


def test_extended_atoms():
    f = parse_formula("#i1 /\\ $m1 /\\ [i]p /\\ <i>q", P)
    assert Nom("i1") in atoms(f) and CoNom("m1") in atoms(f)
    assert not in_base_language(f)
    assert in_base_language(parse_formula("p -> []q", P))


def test_inequality_and_quasi():
    ineq = parse_inequality("p <= <>p", P)
    assert ineq == Inequality(Var("p"), Dia(Var("p")))
    # quasi-inequalities are printed, not parsed
    q = QuasiInequality((ineq, parse_inequality("<>p <= q", P)), parse_inequality("p <= q", P))
    assert str(q) == "p <= <>p & <>p <= q => p <= q"
    with pytest.raises(FormulaSyntaxError):
        parse_input(str(q), P)
    assert isinstance(parse_input("p <= <>p", P), Inequality)


def _height(f):
    return 1 + max(map(_height, children(f)), default=-1)


@pytest.mark.parametrize("text", [
    "[]" * (MAX_NESTING - 1) + "(p -> p)",  # boxes over an implication
    "p -> " * MAX_NESTING + "p",  # right-nested implications
    "p" + " /\\ p" * MAX_NESTING,  # a left-nested chain
    "~" * MAX_NESTING + "p",
    # parentheses add no level, but the parser's own recursion stops at twice the limit
    "(" * 2 * MAX_NESTING + "p" + ")" * 2 * MAX_NESTING,
])
def test_nesting_past_the_limit_is_a_syntax_error(text):
    assert _height(parse_formula(text, P)) == (0 if text[0] == "(" else MAX_NESTING)
    assert _height(parse_inequality(f"{text} <= p", P).lhs) == _height(
        parse_inequality(f"p <= {text}", P).rhs)
    deeper = f"({text})" if text[0] == "(" else f"[]({text})"
    for wrong in (deeper, f"{deeper} <= p", f"p <= {deeper}"):
        with pytest.raises(FormulaSyntaxError, match=f"nested deeper than {MAX_NESTING} levels"):
            parse_input(wrong, P)


def test_very_deep_input_is_refused_before_the_recursion_limit():
    for text in ("(" * 10_000 + "p" + ")" * 10_000, "[]" * 10_000 + "p",
                 "p -> " * 10_000 + "p", "p" + " \\/ p" * 10_000):
        with pytest.raises(FormulaSyntaxError, match="nested deeper"):
            parse_formula(text, P)


def test_syntax_errors_carry_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("p -> ", P)
    assert err.value.position == 5
    with pytest.raises(FormulaSyntaxError):
        parse_formula("p q", P)
    with pytest.raises(UnknownConstant):
        parse_formula("@delta", P)


def test_print_examples():
    assert print_formula(Or(Var("p"), Var("q"))) == "p \\/ q"
    assert print_formula(Dia(Box(Var("q")))) == "<>[]q"
    assert print_formula(Implies(Or(Var("p"), Var("q")), Var("r"))) == "p \\/ q -> r"


# -- random ASTs ---------------------------------------------------------------

consts = [Const(P.element_name(i), i) for i in range(P.n)]

formulas = st.recursive(
    st.one_of(
        st.sampled_from([Var("p"), Var("q"), Var("r")]),
        st.sampled_from([Nom("i1"), Nom("i2"), CoNom("m1")]),
        st.sampled_from(consts),
    ),
    lambda sub: st.one_of(
        st.builds(Or, sub, sub),
        st.builds(And, sub, sub),
        st.builds(Implies, sub, sub),
        st.builds(Minus, sub, sub),
        st.builds(Box, sub),
        st.builds(Dia, sub),
        st.builds(BoxInv, sub),
        st.builds(DiaInv, sub),
    ),
    max_leaves=25,
)


@settings(max_examples=1000, deadline=None)
@given(formulas)
def test_parse_print_roundtrip(f):
    assert parse_formula(print_formula(f), P) == f


@settings(max_examples=200, deadline=None)
@given(formulas)
def test_equal_formulas_hash_equal_after_caching(f):
    # nodes keep their hash after the first call, in a slot (a node has no
    # instance dict); an equal formula built separately must still hash and
    # compare equal, before and after
    copy = parse_formula(print_formula(f), P)
    first = hash(f)
    assert hash(copy) == first == hash(f) == f._hash
    assert not hasattr(f, "__dict__") and not hasattr(Inequality(f, f), "__dict__")
    assert copy == f and {f: 1}[copy] == 1
    assert Inequality(copy, f) == Inequality(f, copy)
    assert hash(Box(f)) == hash(Box(copy)) and Box(f) != Dia(f)


@pytest.mark.parametrize("leaf,wrap", [
    (Var("p"), Dia),
    (Rel(FoVar("x"), FoVar("x")), lambda f: FoAnd(f, Eq(FoVar("x"), FoVar("y")))),
], ids=["Dia", "FoAnd"])
def test_thousand_level_chains_hash_without_deep_recursion(leaf, wrap):
    # the first hash of a deep chain fills in its levels bottom-up; a copy
    # hashed level by level as it is built, each call one level deep, agrees
    deep = copy = leaf
    for _ in range(1000):
        deep, copy = wrap(deep), wrap(copy)
        hash(copy)
    assert hash(deep) == hash(copy) == hash(deep)


@given(formulas)
def test_substituting_for_absent_variable_is_identity(f):
    if polarity(f, "zz") == ABSENT:
        assert substitute(f, "zz", Const("0", P.bot)) == f
        assert substitute(f, "zz", Const("1", P.top)) == f


# -- polarity ------------------------------------------------------------------


def test_polarity_examples():
    assert polarity(parse_formula("p -> q", P), "p") == NEGATIVE
    assert polarity(parse_formula("(p -> @0) -> []q", P), "q") == POSITIVE
    assert polarity(parse_formula("(p -> @0) -> []q", P), "p") == POSITIVE
    assert polarity(parse_formula("p /\\ (p -> q)", P), "p") == MIXED
    assert polarity(parse_formula("[]q", P), "p") == ABSENT
    assert polarity(parse_formula("p - q", P), "q") == NEGATIVE
    assert polarity(parse_formula("p - q", P), "p") == POSITIVE


def test_prop_vars():
    assert prop_vars(parse_formula("p /\\ #i1 -> @gamma \\/ q", P)) == {"p", "q"}

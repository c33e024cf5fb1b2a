"""Model checking, validity enumeration, and the complex-algebra bridge."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcorr.budget import Budget
from mvcorr.errors import BudgetExceeded, InvalidModel, UnboundAtom
from mvcorr.heyting import builtin_algebra
from mvcorr.semantics import (
    Frame,
    Model,
    a_true_at,
    check_inequality,
    complex_algebra,
    complex_validates,
    compile_eval,
    eval_formula,
    iter_valuations,
    parse_frame_text,
    parse_model_text,
    valid_at,
)
from mvcorr.syntax import (
    And,
    Box,
    CoNom,
    Const,
    Dia,
    Implies,
    Inequality,
    Nom,
    Or,
    Var,
    parse_formula,
    parse_inequality,
    polarity,
    POSITIVE,
    NEGATIVE,
)

P = builtin_algebra("paper-P")
B2 = builtin_algebra("bool2")


def pel(name):
    return P.element(name)


def frame1(alg, loop):
    return Frame(alg, ("w",), ((loop,),))


def test_constants_evaluate_to_themselves():
    f = frame1(P, pel("gamma"))
    m = Model(f, {})
    for i in range(P.n):
        assert eval_formula(m, Const(P.element_name(i), i), "w") == i


def test_single_state_diamond():
    f = frame1(P, pel("gamma"))
    m = Model(f, {Var("p"): (P.top,)})
    assert eval_formula(m, Dia(Var("p")), "w") == pel("gamma")


def test_constant_p_valuation_bounds_disjunction():
    # V(p) = alpha everywhere forces value(~p | <>p) <= gamma
    phi = parse_formula("~p \\/ <>p", P)
    for loop in range(P.n):
        f = frame1(P, loop)
        m = Model(f, {Var("p"): (pel("alpha"),)})
        assert P.le(eval_formula(m, phi, "w"), pel("gamma"))


def test_box_clause_uses_implication():
    f = frame1(P, pel("gamma"))
    m = Model(f, {Var("p"): (pel("alpha"),)})
    assert eval_formula(m, Box(Var("p")), "w") == P.imp(pel("gamma"), pel("alpha"))


def test_inverse_modalities_use_transposed_relation():
    alg = P
    f = Frame(alg, ("w", "v"), ((alg.bot, pel("gamma")), (alg.bot, alg.bot)))
    m = Model(f, {Var("p"): (alg.top, alg.top)})
    assert eval_formula(m, parse_formula("<i>p", P), "v") == pel("gamma")
    assert eval_formula(m, parse_formula("<>p", P), "w") == pel("gamma")
    assert eval_formula(m, parse_formula("<>p", P), "v") == alg.bot


def test_unbound_atom():
    m = Model(frame1(P, P.top), {})
    with pytest.raises(UnboundAtom):
        eval_formula(m, Var("p"), "w")


def test_nominal_constraints_enforced():
    f = frame1(P, P.top)
    with pytest.raises(InvalidModel):
        Model(f, {Nom("i1"): (pel("gamma"),)})  # gamma is not join-irreducible
    with pytest.raises(InvalidModel):
        Model(f, {CoNom("m1"): (P.top,)})  # never takes a meet-irreducible value
    Model(f, {Nom("i1"): (pel("alpha"),), CoNom("m1"): (pel("gamma"),)})


def test_zero_truth_is_trivial():
    phi = parse_formula("~p \\/ <>p", P)
    for loop in range(P.n):
        assert valid_at(frame1(P, loop), phi, "w", P.bot)


def test_gamma_validity_iff_gamma_reflexive_single_state():
    phi = parse_formula("~p \\/ <>p", P)
    g = pel("gamma")
    for loop in range(P.n):
        f = frame1(P, loop)
        assert valid_at(f, phi, "w", g) == P.le(g, loop)


def test_witness_valuation_breaks_gamma_validity():
    # loop value alpha: p := 1 at w gives value < gamma
    f = frame1(P, pel("alpha"))
    m = Model(f, {Var("p"): (P.top,)})
    phi = parse_formula("~p \\/ <>p", P)
    assert not a_true_at(m, phi, "w", pel("gamma"))


def test_one_validity_of_classical_tautology_fails():
    # no frame 1-validates ~p | <>p
    phi = parse_formula("~p \\/ <>p", P)
    for loop in range(P.n):
        assert not valid_at(frame1(P, loop), phi, "w", P.top)


def test_a_true_antitone_in_a():
    phi = parse_formula("~p \\/ <>p", P)
    m = Model(frame1(P, pel("gamma")), {Var("p"): (pel("beta"),)})
    for a in range(P.n):
        for b in range(P.n):
            if P.le(b, a) and a_true_at(m, phi, "w", a):
                assert a_true_at(m, phi, "w", b)


def test_check_inequality_examples():
    f = frame1(P, P.bot)
    m = Model(f, {Var("p"): (pel("gamma"),), Var("q"): (pel("alpha"),)})
    ineq = Inequality(Var("p"), Var("q"))
    # beta & gamma = beta, not below alpha
    assert not check_inequality(m, ineq, "w", pel("beta"))
    # with a = 1 this is plain inequality truth
    assert check_inequality(m, Inequality(Var("q"), Var("p")), "w", P.top)
    # truth of lhs <= rhs coincides with truth of lhs -> rhs at value 1
    for vp, vq in product(range(P.n), repeat=2):
        m2 = Model(f, {Var("p"): (vp,), Var("q"): (vq,)})
        lhs_imp = eval_formula(m2, Implies(Var("p"), Var("q")), "w")
        assert check_inequality(m2, ineq, "w", P.top) == (lhs_imp == P.top)


def test_budget_exceeded_is_reported():
    f = Frame(P, ("u", "v"), ((P.top, P.top), (P.top, P.top)))
    # a valid formula over three atoms forces the full 25^3 enumeration
    phi = parse_formula("p /\\ q /\\ r -> p", P)
    with pytest.raises(BudgetExceeded):
        valid_at(f, phi, "u", P.top, Budget(50))


def test_monotonicity_of_positive_formulas():
    frames = [frame1(P, pel("gamma")), Frame(P, ("u", "v"),
              ((pel("alpha"), P.top), (P.bot, pel("beta"))))]
    formulas = [
        parse_formula(s, P)
        for s in ["<>p", "[]p", "p /\\ @gamma", "q -> p", "<>[]p", "p - q"]
    ]
    for f in frames:
        for phi in formulas:
            sign = polarity(phi, "p")
            assert sign in (POSITIVE, NEGATIVE)
            fn = compile_eval(phi, f)
            fixed = {Var("q"): tuple([pel("alpha")] * f.size)}
            rows = list(product(range(P.n), repeat=f.size))
            for r1 in rows:
                for r2 in rows:
                    if not all(P.le(x, y) for x, y in zip(r1, r2)):
                        continue
                    v1 = {**fixed, Var("p"): r1}
                    v2 = {**fixed, Var("p"): r2}
                    for w in range(f.size):
                        lo, hi = fn(v1)[w], fn(v2)[w]
                        if sign == POSITIVE:
                            assert P.le(lo, hi)
                        else:
                            assert P.le(hi, lo)


def test_disjunction_lemma_small_instances():
    # variable-disjoint disjunction: a-validity splits through a1 | a2 >= a
    phi, psi = Var("p"), Dia(Var("q"))
    disj = Or(phi, psi)
    frames = [frame1(P, pel("gamma")), frame1(P, P.bot),
              Frame(P, ("u", "v"), ((pel("beta"), pel("alpha")),
                                    (P.bot, P.top)))]
    for f in frames:
        fn_phi = compile_eval(phi, f)
        fn_psi = compile_eval(psi, f)
        for w in range(f.size):
            a1 = P.meet_all(
                fn_phi(v)[w] for v in iter_valuations(f, [Var("p")])
            )
            a2 = P.meet_all(
                fn_psi(v)[w] for v in iter_valuations(f, [Var("q")])
            )
            for a in range(P.n):
                direct = valid_at(f, disj, w, a)
                split = P.le(a, P.join(a1, a2))
                assert direct == split


# -- complex algebra -----------------------------------------------------------


def test_complex_algebra_bool2_single_state():
    f = frame1(B2, B2.top)
    ca = complex_algebra(f)
    assert ca.algebra.n == 2
    for e, row in enumerate(ca.carrier):
        expected = (B2.meet(B2.top, row[0]),)
        assert ca.carrier[ca.apply_dia(e)] == expected


def test_complex_algebra_p_operator_preservation():
    ca = complex_algebra(frame1(P, pel("gamma")))
    assert ca.algebra.n == 5
    # join preservation over all 25 pairs is asserted inside the builder;
    # spot-check one pair here
    x = ca.index[(pel("alpha"),)]
    y = ca.index[(pel("beta"),)]
    assert ca.apply_dia(ca.algebra.join(x, y)) == ca.algebra.join(
        ca.apply_dia(x), ca.apply_dia(y)
    )


def test_frame_validity_matches_complex_algebra():
    ineqs = [
        parse_inequality("p <= <>p", P),
        parse_inequality("[]p <= p", P),
        parse_inequality("<>(p \\/ q) <= <>p \\/ <>q", P),
        parse_inequality("[]p /\\ []q <= [](p /\\ q)", P),
        parse_inequality("@gamma <= <>@1", P),
    ]
    frames = [frame1(P, pel("gamma")), frame1(P, P.bot), frame1(P, P.top)]
    for f in frames:
        ca = complex_algebra(f)
        for ineq in ineqs:
            direct = all(
                valid_at(f, ineq, w, P.top) for w in range(f.size)
            )
            assert direct == complex_validates(ca, ineq), str(ineq)


# -- file formats ---------------------------------------------------------------


FRAME_DOC = """
states: [w, v]
rel:
  - [w, v, gamma]
  - [v, v, alpha]
"""


def test_duplicate_state_names_rejected():
    with pytest.raises(InvalidModel, match="'a' is listed more than once"):
        parse_frame_text("states: [a, a]\nrel:\n  - [a, a, '1']\n", P)
    with pytest.raises(InvalidModel):
        parse_model_text("states: [a, b, a]\nval:\n  - [p, a, '1']\n", P)


def test_parse_frame_and_model_text():
    f = parse_frame_text(FRAME_DOC, P)
    assert f.states == ("w", "v")
    assert f.rel[0][1] == pel("gamma")
    assert f.rel[0][0] == P.bot
    m = parse_model_text(FRAME_DOC + "val:\n  - [p, w, beta]\n  - ['#i1', v, alpha]\n", P)
    assert m.valuation[Var("p")] == (pel("beta"), P.bot)
    assert m.valuation[Nom("i1")] == (P.bot, pel("alpha"))

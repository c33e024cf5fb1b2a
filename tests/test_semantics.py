"""Model checking, validity enumeration, the modal operators' laws, and
frame and model files."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcorr.budget import Budget
from mvcorr.errors import BudgetExceeded, InvalidModel, UnboundAtom
from mvcorr.heyting import builtin_algebra
from mvcorr.randomgen import random_frame
from mvcorr.semantics import (
    Frame,
    Model,
    compile_eval,
    eval_formula,
    iter_valuations,
    operation,
    parse_frame_text,
    parse_model_text,
    valid_at,
)
from mvcorr.syntax import (
    And,
    Box,
    BoxInv,
    CoNom,
    Const,
    Dia,
    DiaInv,
    Nom,
    Or,
    Var,
    parse_formula,
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


def test_nominal_rows_have_one_irreducible_cell():
    # each cell an irreducible of the right kind, but one cell too many
    f = Frame(P, ("w", "v"), ((P.top, P.top), (P.top, P.top)))
    with pytest.raises(InvalidModel, match="must take one join-irreducible value"):
        Model(f, {Nom("i1"): (pel("alpha"), pel("beta"))})
    with pytest.raises(InvalidModel, match="must take one meet-irreducible value"):
        Model(f, {CoNom("m1"): (pel("alpha"), pel("gamma"))})
    Model(f, {Nom("i1"): (P.bot, pel("beta")), CoNom("m1"): (pel("alpha"), P.top)})


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
    assert not P.le(pel("gamma"), eval_formula(m, phi, "w"))


def test_one_validity_of_classical_tautology_fails():
    # no frame 1-validates ~p | <>p
    phi = parse_formula("~p \\/ <>p", P)
    for loop in range(P.n):
        assert not valid_at(frame1(P, loop), phi, "w", P.top)


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


# -- modal operators -------------------------------------------------------------


@pytest.mark.parametrize("alg", [P, B2], ids=["paper-P", "bool2"])
@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10**6), size=st.integers(1, 3))
def test_modal_operators_are_normal_and_adjoint(alg, seed, size):
    """On every pair of value vectors: the diamonds preserve bottom and
    binary joins, the boxes top and binary meets, and <i> -| [] and
    <> -| [i] hold pointwise.  ALBA's residuation rules rest on these."""
    frame = random_frame(random.Random(seed), alg, size)
    vectors = list(product(range(alg.n), repeat=size))
    image = {kind: {u: operation(frame, kind(Var("p")))(u) for u in vectors}
             for kind in (Dia, DiaInv, Box, BoxInv)}
    join = operation(frame, Or(Var("p"), Var("q")))
    meet = operation(frame, And(Var("p"), Var("q")))

    def le(u, v):
        return all(map(alg.le, u, v))

    bot, top = (alg.bot,) * size, (alg.top,) * size
    assert image[Dia][bot] == image[DiaInv][bot] == bot
    assert image[Box][top] == image[BoxInv][top] == top
    for u in vectors:
        for v in vectors:
            for dia in (image[Dia], image[DiaInv]):
                assert dia[join(u, v)] == join(dia[u], dia[v])
            for box in (image[Box], image[BoxInv]):
                assert box[meet(u, v)] == meet(box[u], box[v])
            assert le(image[DiaInv][u], v) == le(u, image[Box][v])
            assert le(image[Dia][u], v) == le(u, image[BoxInv][v])


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


def test_repeated_rel_and_val_entries_rejected():
    with pytest.raises(InvalidModel, match="repeats the pair"):
        parse_frame_text(FRAME_DOC + "  - [w, v, beta]\n", P)
    with pytest.raises(InvalidModel, match="repeats p at w"):
        parse_model_text(FRAME_DOC + "val:\n  - [p, w, beta]\n  - [p, w, alpha]\n", P)
    # the same atom at two states, and two atoms at one state, are fine
    m = parse_model_text(FRAME_DOC + "val:\n  - [p, w, beta]\n  - [p, v, alpha]\n"
                         "  - [q, w, beta]\n", P)
    assert m.valuation[Var("p")] == (pel("beta"), pel("alpha"))


@pytest.mark.parametrize("atom", ["'<>p'", "'p '", "'#'"])
def test_model_atoms_must_be_atoms(atom):
    # no formula names these, so they would be read and never used
    with pytest.raises(InvalidModel, match="does not name an atom"):
        parse_model_text(FRAME_DOC + f"val:\n  - [{atom}, w, beta]\n", P)


@pytest.mark.parametrize("field,text", [
    ("states", "states: 5\n"),
    ("rel", "states: [w]\nrel: 5\n"),
    ("val", "states: [w]\nval: 7\n"),
])
def test_non_list_fields_rejected(field, text):
    with pytest.raises(InvalidModel, match=f"`{field}` must be a list"):
        parse_model_text(text, P)


def test_parse_frame_and_model_text():
    f = parse_frame_text(FRAME_DOC, P)
    assert f.states == ("w", "v")
    assert f.rel[0][1] == pel("gamma")
    assert f.rel[0][0] == P.bot
    m = parse_model_text(FRAME_DOC + "val:\n  - [p, w, beta]\n  - ['#i1', v, alpha]\n", P)
    assert m.valuation[Var("p")] == (pel("beta"), P.bot)
    assert m.valuation[Nom("i1")] == (P.bot, pel("alpha"))

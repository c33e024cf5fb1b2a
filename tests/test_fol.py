"""First-order layer: evaluation, standard translation, printer, simplifier."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcorr.budget import Budget
from mvcorr.errors import BudgetExceeded, UnboundSymbol
from mvcorr.fol import (
    BOT,
    TOP,
    CoNomConst,
    CoNomTV,
    Eq,
    Exists,
    ExistsPred,
    Fo,
    FoAnd,
    FoImplies,
    FoOr,
    Forall,
    ForallPred,
    ForallTV,
    FoVar,
    NomConst,
    NomTV,
    Pred,
    Preceq,
    Rel,
    TruthConst,
    fo_a_truth,
    fo_eval,
    frame_property,
    free_individual_symbols,
    interp_for_frame,
    interp_for_model,
    is_clean,
    neq,
    parse_fo,
    print_fo,
    simplify_display,
    standard_translation,
    subst_pred,
    validity_claim,
)
from mvcorr.heyting import builtin_algebra
from mvcorr.randomgen import random_formula, random_frame, random_model
from mvcorr.semantics import Frame, Model, eval_formula
from mvcorr.syntax import Box, Dia, Var, parse_formula, parse_inequality

P = builtin_algebra("paper-P")
X, Y = FoVar("x"), FoVar("y")


def test_equal_fo_formulas_hash_equal_after_caching():
    # nodes keep their hash after the first call, so equal claims built
    # separately must still agree as cache keys
    for text in ("p <= []<>p", "<><>p <= <>p", "#i <= <>$m"):
        first = validity_claim.__wrapped__(parse_inequality(text, P), P.top, P)
        second = validity_claim.__wrapped__(parse_inequality(text, P), P.top, P)
        assert first is not second
        assert hash(first) == hash(second) == hash(first)
        assert first == second and {first: 1}[second] == 1
        assert standard_translation(parse_formula("[]p", P)) != standard_translation(
            parse_formula("<>p", P))
    assert hash(FoVar("x")) == hash(X) and {NomConst("i"): 1}[NomConst("i")] == 1


def pel(name):
    return P.element(name)


def frame1(loop):
    return Frame(P, ("w",), ((loop,),))


# -- evaluation -----------------------------------------------------------------


def test_equality_is_crisp():
    f = Frame(P, ("u", "v"), ((P.bot, P.bot), (P.bot, P.bot)))
    interp = interp_for_frame(f)
    assert fo_eval(interp, Eq(X, X), {X: 0}) == P.top
    assert fo_eval(interp, Eq(X, Y), {X: 0, Y: 1}) == P.bot
    assert fo_eval(interp, neq(X, Y), {X: 0, Y: 1}) == P.top


def test_single_state_exists_join():
    f = frame1(pel("gamma"))
    interp = interp_for_frame(f)
    interp.preds["p"] = (P.top,)
    alpha = Exists(Y, FoAnd(Rel(X, Y), Pred("p", Y)))
    assert fo_eval(interp, alpha, {X: 0}) == pel("gamma")


def test_preceq_always_crisp():
    f = frame1(pel("alpha"))
    interp = interp_for_frame(f)
    for a in range(P.n):
        for b in range(P.n):
            v = fo_eval(
                interp,
                Preceq(TruthConst(P.element_name(a), a), TruthConst(P.element_name(b), b)),
            )
            assert v in (P.bot, P.top)
            assert (v == P.top) == P.le(a, b)


def test_unbound_symbol():
    interp = interp_for_frame(frame1(P.top))
    with pytest.raises(UnboundSymbol):
        fo_eval(interp, Pred("p", X), {X: 0})
    with pytest.raises(UnboundSymbol):
        fo_eval(interp, Rel(X, Y), {X: 0})


def test_predicate_quantifier_enumerates_fuzzy_sets():
    # E p. (p(x) =< @alpha & @alpha =< p(x)) is true: some row hits alpha
    f = frame1(P.top)
    interp = interp_for_frame(f)
    alpha = ExistsPred(
        "p",
        FoAnd(
            Preceq(Pred("p", X), TruthConst("alpha", pel("alpha"))),
            Preceq(TruthConst("alpha", pel("alpha")), Pred("p", X)),
        ),
    )
    assert fo_eval(interp, alpha, {X: 0}) == P.top
    # A p. p(x) =< @1 is trivially true
    assert fo_eval(interp, ForallPred("p", Preceq(Pred("p", X), TOP)), {X: 0}) == P.top


def test_tv_quantifiers_range_over_irreducibles():
    f = frame1(P.top)
    interp = interp_for_frame(f)
    # meet of all join-irreducibles is bottom (alpha & beta = 0)
    assert fo_eval(interp, ForallTV(NomTV("i1"), NomTV("i1"))) == P.bot
    # meet of all meet-irreducibles is alpha & beta = 0 as well
    assert fo_eval(interp, ForallTV(CoNomTV("m1"), CoNomTV("m1"))) == P.bot


def test_pred_quantifier_budget():
    f = Frame(P, ("u", "v", "z"), tuple(tuple(P.bot for _ in range(3)) for _ in range(3)))
    interp = interp_for_frame(f)
    alpha = ForallPred("p", Preceq(Pred("p", X), TOP))
    with pytest.raises(BudgetExceeded):
        fo_eval(interp, alpha, {X: 0}, Budget(40))


# -- standard translation ---------------------------------------------------------


def test_st_clause_goldens():
    assert standard_translation(Var("p")) == Pred("p", X)
    assert standard_translation(Box(Var("p"))) == Forall(
        FoVar("y1"), FoImplies(Rel(X, FoVar("y1")), Pred("p", FoVar("y1")))
    )
    assert standard_translation(Dia(Var("p"))) == Exists(
        FoVar("y1"), FoAnd(Rel(X, FoVar("y1")), Pred("p", FoVar("y1")))
    )
    st_nom = standard_translation(parse_formula("#i1", P))
    assert st_nom == FoAnd(Eq(NomConst("i1"), X), NomTV("i1"))
    st_conom = standard_translation(parse_formula("$m1", P))
    assert st_conom == FoOr(neq(CoNomConst("m1"), X), CoNomTV("m1"))
    st_ineq = standard_translation(parse_inequality("p <= <>p", P))
    assert isinstance(st_ineq, Preceq)


def test_st_inverse_modalities_transpose_relation():
    st = standard_translation(parse_formula("<i>p", P))
    assert st == Exists(FoVar("y1"), FoAnd(Rel(FoVar("y1"), X), Pred("p", FoVar("y1"))))
    st = standard_translation(parse_formula("[i]p", P))
    assert st == Forall(
        FoVar("y1"), FoImplies(Rel(FoVar("y1"), X), Pred("p", FoVar("y1")))
    )


def test_st_output_is_clean():
    rng = random.Random(7)
    for _ in range(200):
        f = random_formula(rng, P, ("p", "q", "r"), depth=4, extended=True)
        assert is_clean(standard_translation(f))


def test_st_faithful_on_constants_and_nominals():
    f = frame1(pel("gamma"))
    m = Model(
        f,
        {
            Var("p"): (pel("beta"),),
            parse_formula("#i1", P): (pel("alpha"),),
            parse_formula("$m1", P): (pel("gamma"),),
        },
    )
    interp = interp_for_model(m)
    for text in ("@alpha", "#i1", "$m1", "p"):
        phi = parse_formula(text, P)
        assert eval_formula(m, phi, 0) == fo_eval(interp, standard_translation(phi), {X: 0})


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_st_faithfulness_random(seed):
    rng = random.Random(seed)
    size = rng.choice([1, 2, 3])
    frame = random_frame(rng, P, size)
    phi = random_formula(rng, P, ("p", "q"), depth=rng.choice([1, 2, 3]), extended=True)
    model = random_model(rng, frame, phi)
    w = rng.randrange(size)
    interp = interp_for_model(model)
    assert eval_formula(model, phi, w) == fo_eval(
        interp, standard_translation(phi), {X: w}
    )


def test_st_faithfulness_check_whole_model():
    from mvcorr.fol import st_faithfulness_check

    rng = random.Random(42)
    for _ in range(40):
        frame = random_frame(rng, P, rng.choice([1, 2, 3]))
        phi = random_formula(rng, P, ("p", "q"), depth=2, extended=True)
        assert st_faithfulness_check(random_model(rng, frame, phi), phi)


def test_boxed_atom_translation_matches_reach_form():
    # the translation of an n-fold box equals the n-step reach condition
    from mvcorr.svb import _reach
    from mvcorr.fol import FreshVars, CompiledFo

    rng = random.Random(6)
    for n in (0, 1, 2, 3):
        boxed = Var("p")
        for _ in range(n):
            boxed = Box(boxed)
        st = standard_translation(boxed)
        y = FoVar("w")
        reach_form = Forall(
            y, FoImplies(_reach(X, n, y, FreshVars(prefix="z")), Pred("p", y))
        )
        for _ in range(25):
            frame = random_frame(rng, P, rng.choice([1, 2, 3]))
            interp = interp_for_frame(frame)
            interp.preds["p"] = tuple(
                rng.randrange(P.n) for _ in range(frame.size)
            )
            env = {X: rng.randrange(frame.size)}
            assert fo_eval(interp, st, env) == fo_eval(interp, reach_form, env), n


def test_heyting_quantifier_equivalences_on_models():
    # the prenexing equivalences used by the correspondence pipelines
    rng = random.Random(3)
    for _ in range(60):
        frame = random_frame(rng, P, rng.choice([1, 2, 3]))
        interp = interp_for_frame(frame)
        interp.preds["p"] = tuple(rng.randrange(P.n) for _ in range(frame.size))
        interp.preds["q"] = tuple(rng.randrange(P.n) for _ in range(frame.size))
        beta = Pred("q", X)
        alpha = lambda v: FoAnd(Rel(X, v), Pred("p", v))
        env = {X: rng.randrange(frame.size)}
        lhs = fo_eval(interp, FoAnd(Exists(Y, alpha(Y)), beta), env)
        rhs = fo_eval(interp, Exists(Y, FoAnd(alpha(Y), beta)), env)
        assert lhs == rhs
        lhs = fo_eval(interp, FoImplies(Exists(Y, alpha(Y)), beta), env)
        rhs = fo_eval(interp, Forall(Y, FoImplies(alpha(Y), beta)), env)
        assert lhs == rhs
        g = Pred("p", X)
        a1, b1 = Pred("p", X), Pred("q", X)
        lhs = fo_eval(interp, FoImplies(FoOr(a1, b1), g), env)
        rhs = fo_eval(interp, FoAnd(FoImplies(a1, g), FoImplies(b1, g)), env)
        assert lhs == rhs
        lhs = fo_eval(interp, Forall(Y, FoAnd(alpha(Y), FoOr(alpha(Y), beta))), env)
        # universal quantifiers distribute over conjunction
        z = FoVar("z")
        rhs = fo_eval(
            interp,
            FoAnd(
                Forall(Y, alpha(Y)),
                Forall(z, FoOr(FoAnd(Rel(X, z), Pred("p", z)), beta)),
            ),
            env,
        )
        assert lhs == rhs


# -- frame property library --------------------------------------------------------


def test_frame_properties_evaluate():
    f = Frame(P, ("u", "v"), ((pel("gamma"), pel("alpha")), (P.bot, P.top)))
    interp = interp_for_frame(f)
    assert fo_eval(interp, frame_property("reflexive"), {X: 0}) == pel("gamma")
    assert fo_a_truth(interp, frame_property("serial"), pel("alpha"), {X: 0})
    # symmetric at u: meets of R(u,y) -> R(y,u)
    expected = P.meet(
        P.imp(pel("gamma"), pel("gamma")), P.imp(pel("alpha"), P.bot)
    )
    assert fo_eval(interp, frame_property("symmetric"), {X: 0}) == expected


# -- printing, parsing, simplification ----------------------------------------------


def test_print_examples():
    assert print_fo(Forall(Y, FoImplies(Rel(X, Y), Pred("p", Y)))) == (
        "A y. (R(x, y) -> p(y))"
    )
    assert print_fo(Preceq(BOT, NomTV("i0"))) == "@0 =< C_i0"
    assert print_fo(neq(CoNomConst("m0"), X)) == "c_m0 != x"


def test_parse_fo_roundtrip_on_outputs():
    samples = [
        frame_property("reflexive"),
        frame_property("transitive"),
        frame_property("dense"),
        Forall(Y, FoImplies(Rel(X, Y), Exists(FoVar("z"), Rel(Y, FoVar("z"))))),
        Preceq(TruthConst("gamma", pel("gamma")), Rel(X, X)),
        ForallTV(NomTV("i0"), Preceq(NomTV("i0"), TOP)),
        FoOr(neq(CoNomConst("m0"), X), CoNomTV("m0")),
    ]
    for f in samples:
        assert parse_fo(print_fo(f), P) == f, print_fo(f)


def test_parse_fo_constant_formula():
    assert parse_fo("@0", P) == BOT
    assert parse_fo("R(x, x)", P) == Rel(X, X)


def test_simplifier_goldens():
    # E y. (R(x,y) & x = y)  ->  R(x,x)
    raw = Exists(Y, FoAnd(Rel(X, Y), Eq(X, Y)))
    assert simplify_display(raw) == Rel(X, X)
    # A y. (R(x,y) -> A z. (R(y,z) -> E u.(R(x,u) & u = z))) -> transitivity
    z, u = FoVar("z"), FoVar("u")
    raw = Forall(
        Y,
        FoImplies(
            Rel(X, Y),
            Forall(z, FoImplies(Rel(Y, z), Exists(u, FoAnd(Rel(X, u), Eq(u, z))))),
        ),
    )
    simplified = simplify_display(raw)
    expected = Forall(
        Y,
        Forall(z, FoImplies(FoAnd(Rel(X, Y), Rel(Y, z)), Rel(X, z))),
    )
    assert simplified == expected


def test_simplifier_is_sound_on_random_frames():
    rng = random.Random(11)
    z = FoVar("z")
    shapes = [
        Exists(Y, FoAnd(Rel(X, Y), Eq(X, Y))),
        Forall(Y, FoImplies(FoAnd(Eq(Y, X), Rel(X, Y)), Rel(Y, X))),
        FoImplies(TOP, Forall(Y, FoOr(Rel(X, Y), BOT))),
        Forall(Y, FoImplies(Rel(X, Y), Forall(z, FoImplies(Rel(Y, z), Rel(X, z))))),
    ]
    for shape in shapes:
        simp = simplify_display(shape)
        for _ in range(30):
            frame = random_frame(rng, P, rng.choice([1, 2, 3]))
            interp = interp_for_frame(frame)
            env = {X: rng.randrange(frame.size)}
            assert fo_eval(interp, shape, env) == fo_eval(interp, simp, env)


def test_subst_pred_replaces_atoms():
    body = Forall(Y, FoImplies(Rel(X, Y), Pred("p", Y)))
    out = subst_pred(body, "p", lambda t: Eq(X, t))
    assert out == Forall(Y, FoImplies(Rel(X, Y), Eq(X, Y)))
    decorated = subst_pred(body, "p", lambda t: Eq(X, t), conjoin_tv=NomTV("i1"))
    assert decorated == Forall(
        Y, FoImplies(Rel(X, Y), FoAnd(Eq(X, Y), NomTV("i1")))
    )


def test_shared_counter_translations_jointly_clean():
    # translating several formulas through one counter keeps all bound
    # variables distinct across the lot
    from mvcorr.fol import FreshVars, Forall, FoAnd

    fresh = FreshVars()
    parts = [
        standard_translation(parse_formula(t, P), X, fresh)
        for t in ("[]p", "<>q", "[](p -> <>q)")
    ]
    joint = parts[0]
    for p in parts[1:]:
        joint = FoAnd(joint, p)
    assert is_clean(joint)

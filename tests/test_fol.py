"""First-order layer: evaluation, standard translation, printer, simplifier."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcorr.budget import Budget
from mvcorr.errors import BudgetExceeded, FormulaSyntaxError, UnboundSymbol
from mvcorr.fol import (
    BOT,
    MAX_FO_NESTING,
    TOP,
    CoNomConst,
    CoNomTV,
    Eq,
    Exists,
    FoAnd,
    FoImplies,
    FoMinus,
    FoOr,
    Forall,
    FoVar,
    NomConst,
    NomTV,
    Pred,
    Preceq,
    Rel,
    TruthConst,
    fo_children,
    fo_eval,
    frame_property,
    free_individual_symbols,
    free_pred_names,
    interp_for_frame,
    interp_for_model,
    is_clean,
    neq,
    parse_fo,
    print_fo,
    simplify_display,
    standard_translation,
    subst_pred,
    subst_term,
    validity_claim,
)
from mvcorr.alba import run_alba
from mvcorr.heyting import builtin_algebra, parse_algebra_text
from mvcorr.randomgen import (random_fo, random_formula, random_frame, random_model,
                              random_valuation)
from mvcorr.semantics import Frame, Model, compile_eval, eval_formula
from mvcorr.syntax import Box, Dia, Var, parse_formula, parse_inequality, parse_input

P = builtin_algebra("paper-P")
B2 = builtin_algebra("bool2")
CHAIN3 = parse_algebra_text("elements: [0, h, 1]\nleq: [[0, h], [h, 1]]\n", name="chain3")
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
    alpha = Exists(
        "p",
        FoAnd(
            Preceq(Pred("p", X), TruthConst("alpha", pel("alpha"))),
            Preceq(TruthConst("alpha", pel("alpha")), Pred("p", X)),
        ),
    )
    assert fo_eval(interp, alpha, {X: 0}) == P.top
    # A p. p(x) =< @1 is trivially true
    assert fo_eval(interp, Forall("p", Preceq(Pred("p", X), TOP)), {X: 0}) == P.top


def test_tv_quantifiers_range_over_irreducibles():
    f = frame1(P.top)
    interp = interp_for_frame(f)
    # meet of all join-irreducibles is bottom (alpha & beta = 0)
    assert fo_eval(interp, Forall(NomTV("i1"), NomTV("i1"))) == P.bot
    # meet of all meet-irreducibles is alpha & beta = 0 as well
    assert fo_eval(interp, Forall(CoNomTV("m1"), CoNomTV("m1"))) == P.bot


def test_pred_quantifier_budget():
    f = Frame(P, ("u", "v", "z"), tuple(tuple(P.bot for _ in range(3)) for _ in range(3)))
    interp = interp_for_frame(f)
    alpha = Forall("p", Preceq(Pred("p", X), TOP))
    with pytest.raises(BudgetExceeded):
        fo_eval(interp, alpha, {X: 0}, Budget(40))
    # neither binder stops early here: each of the 5^3 rows costs one unit
    # besides the three nodes of its body
    for quantified in (alpha, Exists("p", FoMinus(Pred("p", X), TOP))):
        budget = Budget(10**6)
        fo_eval(interp, quantified, {X: 0}, budget)
        assert budget.used == 1 + 125 * (1 + 3)


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
    size = rng.choice([1, 2, 3, 4])
    frame = random_frame(rng, P, size)
    phi = random_formula(rng, P, ("p", "q"), depth=rng.choice([1, 2, 3]), extended=True)
    model = random_model(rng, frame, phi)
    w = rng.randrange(size)
    interp = interp_for_model(model)
    translated = standard_translation(phi)
    assert eval_formula(model, phi, w) == fo_eval(interp, translated, {X: w})
    # the whole state vector, one first-order evaluation per state
    assert compile_eval(phi, frame)(model.valuation) == tuple(
        fo_eval(interp, translated, {X: u}) for u in range(size)
    )


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
    assert P.le(pel("alpha"), fo_eval(interp, frame_property("serial"), {X: 0}))
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


_TERMS = st.sampled_from([X, FoVar("y1"), NomConst("i0"), NomConst("j1"),
                          CoNomConst("m0"), CoNomConst("n1")])
_TVS = st.sampled_from([NomTV("i0"), NomTV("j1"), CoNomTV("m0"), CoNomTV("n1")])
_DISPLAY_ATOMS = st.one_of(
    st.builds(Rel, _TERMS, _TERMS),
    st.builds(Eq, _TERMS, _TERMS),
    st.builds(neq, _TERMS, _TERMS),
    _TVS,
    st.sampled_from([TruthConst(P.element_name(a), a) for a in range(P.n)]),
)


def _display_nodes(sub):
    binary = st.sampled_from([FoAnd, FoOr, FoImplies, FoMinus, Preceq])
    return st.one_of(
        st.builds(lambda op, lhs, rhs: op(lhs, rhs), binary, sub, sub),
        st.builds(lambda q, v, body: q(v, body), st.sampled_from([Forall, Exists]), _TERMS, sub),
        st.builds(lambda q, c, body: q(c, body), st.sampled_from([Forall, Exists]), _TVS, sub),
    )


@settings(deadline=None, max_examples=300)
@given(st.recursive(_DISPLAY_ATOMS, _display_nodes, max_leaves=16))
def test_parse_fo_roundtrip_on_outputs(f):
    # a display is one print_fo string that parse_fo reads back: `=<`,
    # `-`, `!=`, truth-value symbols and their quantifiers, constants
    assert parse_fo(print_fo(f), P) == f, print_fo(f)


@pytest.mark.parametrize("text", ["", "A", "A x. ", "R(x,", "x =", "R(x, x) -> ", "q(x) | "])
def test_parse_fo_reports_a_truncated_formula_at_its_end(text):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_fo(text)
    assert err.value.position == len(text)


@pytest.mark.parametrize("text", ["A x. ", "R(x,x) -> "])
def test_parse_fo_names_the_end_of_input(text):
    with pytest.raises(FormulaSyntaxError) as err:
        parse_fo(text)
    assert str(err.value) == f"syntax error at position {len(text)}: found 'end of input'"


def _fo_height(f):
    level, height = [f], -1
    while level:
        level, height = [sub for node in level for sub in fo_children(node)], height + 1
    return height


@pytest.mark.parametrize("shape", [
    lambda k: "A y. " * k + "R(x, x)",  # quantifiers
    lambda k: "R(x, x) -> " * k + "R(x, x)",  # right-nested implications
    lambda k: "R(x, x)" + " & R(x, x)" * k,  # a left-nested chain: the height check
    lambda k: "A y. R(x, y) -> " * (k // 2) + "R(x, x)",  # both, alternating
])
def test_first_order_nesting_past_the_limit_is_a_syntax_error(shape):
    # parentheses past the limit are refused as well, tested in a subprocess
    # (tests/test_cli.py), where the stack starts as shallow as the CLI's
    limit = MAX_FO_NESTING
    assert _fo_height(parse_fo(shape(limit), P)) == limit
    with pytest.raises(FormulaSyntaxError, match=f"nested deeper than {limit} levels"):
        parse_fo(shape(limit + 2), P)


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
    gamma = TruthConst("gamma", pel("gamma"))
    # free symbols, assigned states and irreducibles below; the bound
    # co-nominal m0 and nominal i0 meet the density rules
    cj, cn, vj, vn = NomConst("j1"), CoNomConst("n1"), NomTV("j1"), CoNomTV("n1")
    cm, vm, vi = CoNomConst("m0"), CoNomTV("m0"), NomTV("i0")
    shapes = [
        Exists(Y, FoAnd(Rel(X, Y), Eq(X, Y))),
        Forall(Y, FoImplies(FoAnd(Eq(Y, X), Rel(X, Y)), Rel(Y, X))),
        FoImplies(TOP, Forall(Y, FoOr(Rel(X, Y), BOT))),
        Forall(Y, FoImplies(Rel(X, Y), Forall(z, FoImplies(Rel(Y, z), Rel(X, z))))),
        # one point under =<
        Forall(Y, Preceq(FoAnd(Rel(X, Y), FoAnd(Eq(Y, X), vj)), Rel(Y, Y))),
        # co-nominal guards, under =< and under ->
        Forall(Y, Preceq(FoAnd(Rel(X, Y), vj), FoOr(neq(cn, Y), vn))),
        Forall(Y, FoImplies(Rel(X, Y), FoOr(neq(cn, Y), vn))),
        # quantifier shifts: A over &, E past what misses its variable,
        # and A past the conjuncts of a =< left side that miss it
        Forall(Y, FoAnd(Rel(X, Y), FoImplies(Rel(Y, X), vn))),
        Exists(Y, FoAnd(vj, FoAnd(Rel(X, Y), Rel(Y, cj)))),
        Forall(Y, Preceq(FoAnd(vj, Rel(X, Y)), Rel(Y, X))),
        # absorption
        Preceq(vj, FoAnd(Rel(X, X), vj)),
        Preceq(vj, Forall(Y, FoImplies(Rel(X, Y), FoAnd(Rel(Y, X), vj)))),
        Preceq(vj, FoImplies(Rel(X, cn), vn)),
        # meet-density: a co-nominal pair, then a co-nominal value alone
        Forall(cm, Forall(vm, FoImplies(
            FoAnd(Preceq(vj, gamma), Preceq(FoAnd(Rel(cm, X), vj), vm)),
            Preceq(vj, FoOr(neq(cm, X), vm))))),
        Forall(cm, Forall(vm, Preceq(vj, FoOr(neq(cm, X), vm)))),
        Forall(cm, Forall(vm, FoImplies(
            FoAnd(Preceq(Rel(X, cm), vm), Preceq(vj, gamma)),
            Preceq(FoAnd(vj, Rel(cm, X)), vm)))),
        # join-density, with and without a w beside the nominal value
        Forall(vi, FoImplies(
            FoAnd(Preceq(vi, gamma), Preceq(FoAnd(Rel(X, cj), vi), vn)),
            Preceq(vi, Rel(X, X)))),
        Forall(vi, Preceq(FoAnd(vi, Rel(X, cj)), Exists(Y, FoAnd(Rel(X, Y), Rel(Y, cj))))),
        # a vacuous truth-value quantifier
        Forall(vi, Rel(X, X)),
    ]
    for shape in shapes:
        simp = simplify_display(shape)
        assert simp != shape, print_fo(shape)
        for _ in range(30):
            frame = random_frame(rng, P, rng.choice([1, 2, 3]))
            interp = interp_for_frame(frame)
            env = {X: rng.randrange(frame.size), cj: rng.randrange(frame.size),
                   cn: rng.randrange(frame.size), vj: rng.choice(P.join_irreducibles),
                   vn: rng.choice(P.meet_irreducibles)}
            assert fo_eval(interp, shape, env) == fo_eval(interp, simp, env), print_fo(shape)


def test_simplifier_does_not_capture_a_substituted_variable():
    # y = x would put x for y under E x., which binds another x
    shape = Forall(Y, FoImplies(Eq(Y, X), Exists(X, FoAnd(Rel(Y, X), Rel(X, X)))))
    assert simplify_display(shape) == shape


def test_simplifier_is_idempotent_on_correspondents(inductive_corpus):
    # the named axioms, `p <= @0` and the classical corpus at every value,
    # the inductive corpus and the height-9 staircase at gamma, whose
    # normal form lies past 40 whole-tree rounds of rewriting
    texts = ["p -> <>p", "<><>p -> <>p", "p -> []<>p", "<>p -> <><>p", "[]p -> <>p",
             "p <= @0", "[]p -> p", "[]p -> [][]p", "[](p -> <>p)",
             "(p -> <>p) \\/ (q -> <><>q)"]
    staircase = " -> ".join("<>" * k + "p" for k in range(8, -1, -1))
    runs = [run_alba(parse_input(t, P), a, P) for t in texts for a in range(P.n)]
    runs += [run_alba(ineq, pel("gamma"), P) for ineq in inductive_corpus]
    runs.append(run_alba(parse_input(staircase, P), pel("gamma"), P))
    assert len(runs) == 72
    for res in runs:
        once = simplify_display(res.correspondent)
        assert simplify_display(once) == once, print_fo(once)


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 10**6))
def test_simplifier_is_idempotent_and_sound_on_random_formulas(seed):
    # random first-order formulas, some compared by `=<` under a
    # quantifier, on paper-P, bool2 and the three-element chain
    rng = random.Random(seed)
    alg = rng.choice([P, B2, CHAIN3])
    variables = ("x", "y", "z")
    f = random_fo(rng, alg, variables=variables, depth=rng.choice([2, 3, 4]))
    if rng.random() < 0.4:
        f = Preceq(f, random_fo(rng, alg, variables=variables, depth=3))
        if rng.random() < 0.5:
            f = rng.choice([Forall, Exists])(FoVar(rng.choice(variables)), f)
    simp = simplify_display(f)
    assert simplify_display(simp) == simp, print_fo(f)
    for _ in range(5):
        frame = random_frame(rng, alg, rng.choice([1, 2, 3]))
        interp = interp_for_model(Model(frame, random_valuation(rng, frame, [Var("p"), Var("q")])))
        env = {FoVar(v): rng.randrange(frame.size) for v in variables}
        assert fo_eval(interp, f, env) == fo_eval(interp, simp, env), print_fo(f)


def test_subst_pred_replaces_atoms():
    body = Forall(Y, FoImplies(Rel(X, Y), Pred("p", Y)))
    out = subst_pred(body, "p", lambda t: Eq(X, t))
    assert out == Forall(Y, FoImplies(Rel(X, Y), Eq(X, Y)))
    decorated = subst_pred(body, "p", lambda t: Eq(X, t), conjoin_tv=NomTV("i1"))
    assert decorated == Forall(
        Y, FoImplies(Rel(X, Y), FoAnd(Eq(X, Y), NomTV("i1")))
    )


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 10**6))
def test_free_symbols_are_what_a_substitution_changes(seed):
    rng = random.Random(seed)
    terms = (X, Y, FoVar("z"))
    f = random_fo(rng, P, preds=("p", "q"), variables=("x", "y", "z"),
                  depth=rng.choice([1, 2, 3]))
    for _ in range(rng.randrange(4)):
        f = rng.choice([Forall, Exists])(rng.choice([*terms, "p", "q"]), f)
    for t in terms:
        assert (t in free_individual_symbols(f)) == (subst_term(f, t, FoVar("fresh")) != f)
    for name in ("p", "q"):
        assert (name in free_pred_names(f)) == (subst_pred(f, name, lambda _: TOP) != f)


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

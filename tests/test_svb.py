"""Classical-shape correspondents: goldens, parameter independence,
decorated-substitution law, agreement with the rewriting engine."""

import random

import pytest

from mvcorr.errors import NotClassicalSahlqvist
from mvcorr.fol import (
    Eq,
    FoVar,
    Rel,
    free_pred_names,
    is_clean,
    print_fo,
    simplify_display,
)
from mvcorr.heyting import builtin_algebra
from mvcorr.oracle import correspondence_oracle
from mvcorr.randomgen import random_fo, random_frame
from mvcorr.alba import run_alba
from mvcorr.svb import check_c_elimination, svb_correspondent
from mvcorr.syntax import parse_formula

P = builtin_algebra("paper-P")
B2 = builtin_algebra("bool2")
X = FoVar("x")

CORPUS = [
    "p -> <>p",          # reflexivity
    "[]p -> p",          # reflexivity, boxed-atom antecedent
    "[]p -> [][]p",      # transitivity
    "p -> []<>p",        # symmetry
    "[]p -> <>p",        # seriality
    "<>p -> <><>p",      # density
    "[](p -> <>p)",      # boxed composition
    "(p -> <>p) \\/ (q -> <><>q)",  # variable-disjoint disjunction
]

DISPLAY_GOLDENS = {
    "p -> <>p": "R(x, x)",
    "[]p -> p": "R(x, x)",
    "[]p -> [][]p": "A y1. A y2. (R(x, y1) & R(y1, y2) -> R(x, y2))",
    "p -> []<>p": "A y1. (R(x, y1) -> R(y1, x))",
    "[]p -> <>p": "E y1. R(x, y1)",
    "<>p -> <><>p": "A x1. (R(x, x1) -> E y1. (R(x, y1) & R(y1, x1)))",
    "[](p -> <>p)": "A y1. (R(x, y1) -> R(y1, y1))",
}


def test_raw_reflexivity_form():
    raw = svb_correspondent(parse_formula("p -> <>p", P))
    assert raw == __import__("mvcorr.fol", fromlist=["Exists", "FoAnd"]).Exists(
        FoVar("y1"),
        __import__("mvcorr.fol", fromlist=["FoAnd"]).FoAnd(
            Rel(X, FoVar("y1")), Eq(X, FoVar("y1"))
        ),
    )


@pytest.mark.parametrize("text", sorted(DISPLAY_GOLDENS))
def test_display_goldens(text):
    raw = svb_correspondent(parse_formula(text, P))
    assert print_fo(simplify_display(raw)) == DISPLAY_GOLDENS[text]


def test_outputs_contain_no_predicates_and_are_clean():
    for text in CORPUS:
        raw = svb_correspondent(parse_formula(text, P))
        assert not free_pred_names(raw), text
        assert is_clean(raw), text


def test_output_identical_across_algebras():
    for text in CORPUS:
        over_p = svb_correspondent(parse_formula(text, P))
        over_b = svb_correspondent(parse_formula(text, B2))
        assert over_p == over_b
        assert print_fo(over_p) == print_fo(over_b)


def test_rejects_non_classical():
    with pytest.raises(NotClassicalSahlqvist):
        svb_correspondent(parse_formula("[]~p -> [][]~p", P))
    with pytest.raises(NotClassicalSahlqvist):
        svb_correspondent(parse_formula("[](p \\/ q) -> <>(p /\\ q)", P))


def test_negative_antecedent_part_is_curried():
    raw = svb_correspondent(parse_formula("p /\\ ~q -> <>p", P))
    assert not free_pred_names(raw)
    assert print_fo(simplify_display(raw)) == "R(x, x)"


def test_variable_free_boxed_antecedent_part_is_curried():
    raw = svb_correspondent(parse_formula("[]@0 -> p", P))
    assert print_fo(raw) == "(A y1. (R(x, y1) -> @0)) -> @0"


@pytest.mark.parametrize("text", ["[]@0 -> p", "[]@0 /\\ []p -> p"])
def test_variable_free_antecedent_part_passes_the_oracle(text):
    for alg in (B2, P):
        f = parse_formula(text, alg)
        alpha = svb_correspondent(f)
        for a in range(1, alg.n):
            rep = correspondence_oracle(alg, f, a, alpha, sizes=[1, 2])
            assert rep.passed, (alg.name, alg.element_name(a), rep.describe())


def test_every_corpus_formula_is_a_correspondent_for_every_a():
    for text in CORPUS:
        f = parse_formula(text, P)
        alpha = svb_correspondent(f)
        for a in range(P.n):
            rep = correspondence_oracle(P, f, a, alpha, sizes=[1])
            assert rep.passed, (text, P.element_name(a), rep.describe())


def test_antecedent_disjunction_distributes():
    f = parse_formula("p \\/ q -> <>p \\/ <>q", P)
    alpha = svb_correspondent(f)
    for a in (P.bot, P.element("beta"), P.top):
        rep = correspondence_oracle(P, f, a, alpha, sizes=[1])
        assert rep.passed, rep.describe()


def test_agreement_with_rewriting_engine_sizes12():
    # both pipelines track modal validity on every frame up to two states,
    # hence agree with each other
    for text in ["p -> <>p", "p -> []<>p"]:
        f = parse_formula(text, P)
        alpha = svb_correspondent(f)
        for a in (P.element("alpha"), P.top):
            res = run_alba(f, a, P)
            assert res.succeeded
            modal_vs_svb = correspondence_oracle(P, f, a, alpha, sizes=[1, 2])
            modal_vs_alba = correspondence_oracle(
                P, f, a, res.correspondent, sizes=[1, 2], fo_threshold=P.top
            )
            assert modal_vs_svb.passed and modal_vs_alba.passed


# -- decorated substitutions ----------------------------------------------------------


def test_c_elimination_on_atomic_and_predicate_free():
    rng = random.Random(0)
    frame = random_frame(rng, P, 2)
    from mvcorr.fol import Pred

    msg = check_c_elimination(
        frame, Pred("p", X), "p", lambda t: Rel(X, t), rng, trials=10
    )
    assert msg is None
    msg = check_c_elimination(
        frame, Rel(X, X), "p", lambda t: Rel(X, t), rng, trials=5
    )
    assert msg is None


def test_c_elimination_random_suite():
    rng = random.Random(99)
    for trial in range(60):
        frame = random_frame(rng, P, 2)
        phi = random_fo(rng, P, preds=("p", "q"), variables=("x", "y"), depth=3)
        delta_body = random_fo(rng, P, preds=(), variables=("x", "u"), depth=2)
        from mvcorr.fol import subst_term

        msg = check_c_elimination(
            frame,
            phi,
            "p",
            lambda t: subst_term(delta_body, FoVar("u"), t),
            rng,
            trials=4,
            other_preds=("q",),
        )
        assert msg is None, f"trial {trial}: {msg}"

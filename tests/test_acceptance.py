"""Acceptance suite: one test per criterion, each printed as a pass/fail
line with its runtime against the stated limit.  All comparisons are exact
(lattice elements and booleans); runtimes are wall-clock upper bounds.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
import time
from collections import Counter
from contextlib import contextmanager
from itertools import product

import pytest

from mvcorr.alba import run_alba
from mvcorr.budget import Budget
from mvcorr.fol import (
    FoVar,
    Preceq,
    Rel,
    TruthConst,
    fo_eval,
    frame_property,
    interp_for_model,
    print_fo,
    standard_translation,
    subst_term,
)
from mvcorr.heyting import builtin_algebra
from mvcorr.oracle import correspondence_oracle, iter_frames, sample_frames
from mvcorr.randomgen import random_fo, random_formula, random_frame, random_model
from mvcorr.semantics import eval_formula, valid_at
from mvcorr.stepcheck import verify_step
from mvcorr.svb import check_c_elimination, svb_correspondent
from mvcorr.syntax import Const, Inequality, Nom, children, parse_formula, parse_inequality
from mvcorr.trees import branch_table, formula_inequality, is_inductive, is_sahlqvist

P = builtin_algebra("paper-P")
B2 = builtin_algebra("bool2")
X = FoVar("x")

pytestmark = pytest.mark.acceptance


@contextmanager
def criterion(number: int, title: str, limit_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        elapsed = time.monotonic() - start
        print(f"criterion {number} ({title}): FAIL after {elapsed:.1f}s")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s budget: {elapsed:.1f}s"
    )
    print(f"criterion {number} ({title}): PASS ({elapsed:.1f}s < {limit_seconds:.0f}s)")


# -- shared fixtures ------------------------------------------------------------------

NAMED_AXIOMS = {
    "p -> <>p": "reflexive",
    "<><>p -> <>p": "transitive",
    "p -> []<>p": "symmetric",
    "<>p -> <><>p": "dense",
    "[]p -> <>p": "serial",
}


@pytest.fixture(scope="module")
def p_frames_upto2():
    return list(iter_frames(P, 1)) + list(iter_frames(P, 2))


@pytest.fixture(scope="module")
def reflexivity_runs():
    return {a: run_alba(parse_formula("p -> <>p", P), a, P) for a in range(P.n)}


@pytest.fixture(scope="module")
def named_axiom_runs():
    return {
        (text, a): run_alba(parse_formula(text, P), a, P)
        for text in NAMED_AXIOMS
        for a in range(P.n)
    }


@pytest.fixture(scope="module")
def corpus_runs(inductive_corpus):
    return [(ineq, run_alba(ineq, P.element("gamma"), P)) for ineq in inductive_corpus]


# -- criteria -------------------------------------------------------------------------


def test_criterion_1_algebra_regression():
    with criterion(1, "five-element algebra regression", 1.0):
        alg = builtin_algebra("paper-P")
        imp_golden = {
            ("0", "0"): "1", ("0", "alpha"): "1", ("0", "beta"): "1",
            ("0", "gamma"): "1", ("0", "1"): "1",
            ("alpha", "0"): "beta", ("alpha", "alpha"): "1",
            ("alpha", "beta"): "beta", ("alpha", "gamma"): "1",
            ("alpha", "1"): "1",
            ("beta", "0"): "alpha", ("beta", "alpha"): "alpha",
            ("beta", "beta"): "1", ("beta", "gamma"): "1", ("beta", "1"): "1",
            ("gamma", "0"): "0", ("gamma", "alpha"): "alpha",
            ("gamma", "beta"): "beta", ("gamma", "gamma"): "1",
            ("gamma", "1"): "1",
            ("1", "0"): "0", ("1", "alpha"): "alpha", ("1", "beta"): "beta",
            ("1", "gamma"): "gamma", ("1", "1"): "1",
        }
        assert len(imp_golden) == 25
        for (a, b), want in imp_golden.items():
            got = alg.element_name(alg.imp(alg.element(a), alg.element(b)))
            assert got == want, f"{a} -> {b}"
        neg_golden = {"0": "1", "alpha": "beta", "beta": "alpha",
                      "gamma": "0", "1": "0"}
        for a, want in neg_golden.items():
            assert alg.element_name(alg.neg(alg.element(a))) == want
        el = alg.element
        assert set(alg.join_irreducibles) == {el("alpha"), el("beta"), el("1")}
        assert set(alg.meet_irreducibles) == {el("alpha"), el("beta"), el("gamma")}
        assert alg.kappa == {el("alpha"): el("beta"), el("beta"): el("alpha"),
                             el("1"): el("gamma")}
        assert alg.lam == {el("beta"): el("alpha"), el("alpha"): el("beta"),
                           el("gamma"): el("1")}
        for a, b, c in product(range(alg.n), repeat=3):
            assert alg.le(alg.meet(a, b), c) == alg.le(a, alg.imp(b, c))
            assert alg.le(a, alg.join(b, c)) == alg.le(alg.coimp(a, b), c)


def test_criterion_2_translation_faithfulness():
    with criterion(2, "standard-translation faithfulness, 500 triples", 30.0):
        rng = random.Random(20240)
        for i in range(500):
            size = rng.choice([1, 2, 3])
            frame = random_frame(rng, P, size)
            phi = random_formula(
                rng, P, ("p", "q"), depth=rng.choice([1, 2, 3]), extended=True
            )
            model = random_model(rng, frame, phi)
            w = rng.randrange(size)
            direct = eval_formula(model, phi, w)
            translated = fo_eval(
                interp_for_model(model), standard_translation(phi), {X: w}
            )
            assert direct == translated, f"triple {i}: {phi}"


def test_criterion_3_disjunction_example(p_frames_upto2):
    with criterion(3, "worked disjunction example, all frames to size 2", 300.0):
        phi = parse_formula("~p \\/ <>p", P)
        gamma, alpha, beta = P.element("gamma"), P.element("alpha"), P.element("beta")
        assert len(p_frames_upto2) == 630
        assert sum(1 for f in p_frames_upto2 if f.size == 2) == 625
        for frame in p_frames_upto2:
            for w in range(frame.size):
                # (a) never 1-valid, matching the bottom correspondent
                assert not valid_at(frame, phi, w, P.top)
                # (b) a-valid exactly on a-reflexive states, a < 1
                for a in (gamma, alpha, beta):
                    assert valid_at(frame, phi, w, a) == P.le(
                        a, frame.rel[w][w]
                    ), (frame.rel, w, P.element_name(a))


def test_criterion_4_worked_reduction(reflexivity_runs):
    with criterion(4, "worked reduction and its correspondent", 60.0):
        for a, res in reflexivity_runs.items():
            assert res.succeeded
            assert len(res.branches) == 1
            want = (
                Inequality(Nom("i0"), Const(P.element_name(a), a)),
                parse_inequality("<>#i0 <= $m0", P),
            )
            assert Counter(res.branches[0].system) == Counter(want)
            reflexive = Preceq(TruthConst(P.element_name(a), a), Rel(X, X))
            rep = correspondence_oracle(
                P, res.source, a, res.correspondent, sizes=[1, 2],
                fo_threshold=P.top,
            )
            assert rep.passed, (P.element_name(a), rep.describe())
            rep = correspondence_oracle(
                P, res.source, a, reflexive, sizes=[1, 2], fo_threshold=P.top
            )
            assert rep.passed, (P.element_name(a), rep.describe())


def test_criterion_5_named_frame_properties(named_axiom_runs):
    with criterion(5, "named-property suite, sizes to 2 plus sampled 3", 600.0):
        for (text, a), res in sorted(named_axiom_runs.items()):
            assert res.succeeded, (text, P.element_name(a))
            rep = correspondence_oracle(
                P, res.source, a, res.correspondent,
                sizes=[1, 2], samples=200, sample_size=3, seed=511,
                fo_threshold=P.top, budget=Budget(10**9),
            )
            assert rep.passed, (text, P.element_name(a), rep.describe())
            rep = correspondence_oracle(
                P, res.source, a, frame_property(NAMED_AXIOMS[text]),
                sizes=[1, 2], samples=200, sample_size=3, seed=511,
                budget=Budget(10**9),
            )
            assert rep.passed, (text, P.element_name(a), rep.describe())


def test_criterion_6_classification_goldens():
    with criterion(6, "classification of the three worked examples", 1.0):
        ex_a = parse_inequality("(p -> @0) -> []q <= <>[]q \\/ []p", P)
        eps = is_sahlqvist(ex_a)
        assert eps is not None and eps.marks == {"p": "d", "q": "1"}
        assert [q for _, _, q in branch_table(ex_a)] == [
            "not-good", "not-good", "excellent", "not-good", "excellent",
        ]

        ex_b = parse_inequality("[](p \\/ q) <= <>(p /\\ q)", P)
        assert is_sahlqvist(ex_b) is None
        assert is_inductive(ex_b) is None
        assert [q for _, _, q in branch_table(ex_b)] == ["good"] * 4

        ex_c = formula_inequality(
            parse_formula("[](@alpha /\\ p -> q) /\\ []p -> <>[]q", P),
            Const("1", P.top),
        )
        assert is_sahlqvist(ex_c) is None
        verdict = is_inductive(ex_c)
        assert verdict is not None
        omega, eps = verdict
        assert eps.marks == {"p": "1", "q": "1"}
        assert ("p", "q") in omega.precedences
        assert [q for _, _, q in branch_table(ex_c)[1:]] == [
            "good", "good", "good", "excellent", "not-good",
        ]


def test_criterion_7_corpus_success(inductive_corpus):
    with criterion(7, "reduction succeeds on the regression corpus", 300.0):
        assert len(inductive_corpus) >= 20
        for ineq in inductive_corpus:
            assert is_inductive(ineq) is not None
            res = run_alba(ineq, P.element("gamma"), P)
            assert res.succeeded, str(ineq)


def test_criterion_8_syntactic_identity():
    with criterion(8, "classical corpus, output independent of the space", 1.0):
        corpus = [
            "[]p -> p",                     # T
            "[]p -> [][]p",                 # 4
            "p -> []<>p",                   # B
            "[]p -> <>p",                   # D
            "<>p -> <><>p",                 # density
            "[](p -> <>p)",
            "(p -> <>p) \\/ (q -> <><>q)",  # variable-disjoint disjunction
        ]
        for text in corpus:
            outputs = set()
            for alg in (B2, P):
                f = parse_formula(text, alg)
                outputs.add(print_fo(svb_correspondent(f)))
            # the classical output over bool2 with a = 1 is the same call:
            # the function takes no algebra and no parameter; byte-identity
            # across parses over both algebras is the observable contract
            assert len(outputs) == 1, text


def test_criterion_9_decorated_substitution():
    with criterion(9, "decorated-substitution law, 200 random formulas", 60.0):
        from mvcorr.fol import free_pred_names

        rng = random.Random(909)
        substituted = 0
        for trial in range(200):
            frame = random_frame(rng, P, 2)
            phi = random_fo(rng, P, preds=("p", "q"), variables=("x", "y"), depth=3)
            if "p" in free_pred_names(phi):
                substituted += 1
            delta_body = random_fo(rng, P, preds=(), variables=("x", "u"), depth=2)
            msg = check_c_elimination(
                frame,
                phi,
                "p",
                lambda t: subst_term(delta_body, FoVar("u"), t),
                rng,
                trials=3,
                other_preds=("q",),
            )
            assert msg is None, f"trial {trial}: {msg}"
        # the law is only interesting when the substitution actually fires
        assert substituted >= 50, substituted


def _all_constants_boolean(step) -> bool:
    def formula_ok(f) -> bool:
        if isinstance(f, Const) and f.index > 1:
            return False
        return all(formula_ok(c) for c in children(f))

    return all(
        formula_ok(i.lhs) and formula_ok(i.rhs)
        for i in step.before + step.after
    )


def test_criterion_10_per_step_soundness(
    reflexivity_runs, named_axiom_runs, corpus_runs, bool2_frames_upto2
):
    with criterion(10, "per-step trace soundness", 900.0):
        seen = set()
        steps = []
        sources = [res for res in reflexivity_runs.values()]
        sources += [res for res in named_axiom_runs.values()]
        sources += [res for _, res in corpus_runs]
        for res in sources:
            for step in res.all_steps():
                key = (
                    step.rule,
                    tuple(str(i) for i in step.before),
                    tuple(str(i) for i in step.after),
                    step.eliminated,
                    tuple(str(a) for a in step.introduced),
                )
                if key in seen:
                    continue
                seen.add(key)
                steps.append(step)
        assert len(steps) >= 30
        p_pool = sample_frames(P, 2, 100, seed=1010)
        for step in steps:
            failure = verify_step(step, p_pool)
            assert failure is None, failure.describe()
            if _all_constants_boolean(step):
                failure = verify_step(step, bool2_frames_upto2)
                assert failure is None, failure.describe()

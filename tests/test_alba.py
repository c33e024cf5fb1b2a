"""Rewriting engine: worked reduction, rule strategy, traces, soundness."""

from collections import Counter

import pytest

from conftest import RULE_INPUTS
import mvcorr.alba as alba
from mvcorr.alba import (
    branch_correspondent,
    branch_quasi,
    first_approximation,
    preprocess,
    reduce_system,
    run_alba,
)
from mvcorr.budget import Budget
from mvcorr.errors import StepCapExceeded
from mvcorr.fol import (FoVar, Forall, _conjoin, frame_property, parse_fo, print_fo,
                        simplify_display, to_dict)
from mvcorr.heyting import builtin_algebra
from mvcorr.oracle import correspondence_oracle, sample_frames
from mvcorr.stepcheck import verify_trace
from mvcorr.syntax import (
    And,
    Const,
    Inequality,
    Nom,
    CoNom,
    parse_formula,
    parse_inequality,
    parse_input,
)
from mvcorr.trees import is_inductive

P = builtin_algebra("paper-P")
B2 = builtin_algebra("bool2")
GAMMA = P.element("gamma")
X = FoVar("x")


def sys_strings(system):
    return sorted(str(i) for i in system)


def expected_system(texts, alg=P):
    return tuple(parse_inequality(t, alg) for t in texts)


# -- preprocessing ----------------------------------------------------------------


def test_preprocess_identity_when_nothing_applies():
    start = parse_inequality("p /\\ @gamma <= <>p", P)
    steps = []
    assert preprocess(start, P, steps) == [start]
    assert steps == []


def test_preprocess_distributes_and_splits():
    start = parse_inequality("<>(p \\/ q) /\\ @gamma <= r", P)
    steps = []
    out = preprocess(start, P, steps)
    # joins bubble up and split first; the members then close their
    # uniform variables (p, q negative; r positive in the inequality)
    rules = [s.rule for s in steps]
    assert rules[:3] == ["distribute-dia-or", "distribute-and-or", "split-join"]
    assert out == [parse_inequality("<>@1 /\\ @gamma <= @0", P)] * 2
    # every preprocessing step preserves frame validity
    from mvcorr.oracle import sample_frames
    from mvcorr.stepcheck import verify_trace

    failure = verify_trace(steps, sample_frames(P, 2, 8, seed=3))
    assert failure is None, failure.describe()


def test_preprocess_closes_uniform_variable():
    # consequent-only variable is positive in the inequality: closed at 0
    start = parse_inequality("@1 /\\ @gamma <= <>p", P)
    steps = []
    out = preprocess(start, P, steps)
    assert out == [parse_inequality("@1 /\\ @gamma <= <>@0", P)]
    assert steps[-1].rule == "close-uniform-variable"
    assert steps[-1].eliminated == ("p",)


def test_preprocess_right_side_distribution():
    start = parse_inequality("p /\\ @1 <= (q \\/ r) -> s", P)
    steps = []
    preprocess(start, P, steps)
    rules = [s.rule for s in steps]
    assert rules[0] == "distribute-imp-or"
    assert rules[1] == "split-meet"


def test_preprocess_does_not_distribute_below_the_skeleton():
    # the join sits under +[], an inner node: distributing it there would
    # copy p into both disjuncts
    start = parse_inequality("[]([]p /\\ (p \\/ @gamma)) /\\ @gamma <= <>[]p", P)
    steps = []
    preprocess(start, P, steps)
    assert not any(s.rule.startswith("distribute-") for s in steps)


def test_preprocess_distributes_in_a_right_hand_antecedent():
    # the antecedent of -> on the right is positive, and +<> is a skeleton node
    start = parse_inequality("p /\\ @gamma <= <>(q \\/ r) -> s", P)
    steps = []
    preprocess(start, P, steps)
    rules = [s.rule for s in steps]
    assert rules[:3] == ["distribute-dia-or", "distribute-imp-or", "split-meet"]


# -- first approximation -------------------------------------------------------------


def test_first_approximation_shape():
    member = parse_inequality("p /\\ @gamma <= <>p", P)
    steps = []
    system = first_approximation(member, GAMMA, P, 0, steps)
    assert system == expected_system(["#i0 <= p", "#i0 <= @gamma", "<>p <= $m0"])
    assert steps[0].introduced == (Nom("i0"), CoNom("m0"))


# -- worked reduction -----------------------------------------------------------------


def test_reflexivity_reduction_exact_system():
    for a in range(P.n):
        res = run_alba(parse_formula("p -> <>p", P), a, P)
        assert res.succeeded
        assert len(res.branches) == 1
        want = (
            Inequality(Nom("i0"), Const(P.element_name(a), a)),
            parse_inequality("<>#i0 <= $m0", P),
        )
        assert Counter(res.branches[0].system) == Counter(want)


def test_reflexivity_rule_sequence():
    res = run_alba(parse_formula("p -> <>p", P), GAMMA, P)
    rules = [s.rule for s in res.branches[0].steps]
    assert rules == ["first-approximation", "ackermann-right"]


def test_reflexivity_display_form():
    res = run_alba(parse_formula("p -> <>p", P), GAMMA, P)
    assert res.display == "@gamma =< R(x, x)"


def test_box_under_ackermann_example():
    # {i0 <= a, box p <= m0, i0 <= p} closes p into box i0 <= m0
    pinned = Inequality(Nom("i0"), Const("gamma", GAMMA))
    system = expected_system(["#i0 <= @gamma", "[]p <= $m0", "#i0 <= p"])
    ok, final, steps = reduce_system(system, pinned, 0, P)
    assert ok
    assert Counter(final) == Counter(expected_system(["#i0 <= @gamma", "[]#i0 <= $m0"]))
    assert [s.rule for s in steps] == ["ackermann-right"]


def test_stuck_system_detected():
    pinned = Inequality(Nom("i0"), Const("gamma", GAMMA))
    # p occurs on both sides in non-eliminable positions
    system = (
        pinned,
        parse_inequality("<>p <= p", P),
    )
    ok, final, steps = reduce_system(system, pinned, 0, P)
    assert not ok
    from mvcorr.syntax import prop_vars

    assert any(prop_vars(i.lhs) | prop_vars(i.rhs) for i in final)


def test_step_cap_is_distinct():
    pinned = Inequality(Nom("i0"), Const("gamma", GAMMA))
    system = (
        pinned,
        parse_inequality("<>(p /\\ q) <= [](p \\/ q)", P),
    )
    with pytest.raises(StepCapExceeded):
        reduce_system(system, pinned, 0, P, step_cap=3)


def test_step_cap_zero_stops_after_first_approximation():
    res = run_alba(parse_formula("<><>p -> <>p", P), GAMMA, P, step_cap=0)
    assert res.status == "step-cap"
    assert len(res.branches) == 1
    (branch,) = res.branches
    assert not branch.success
    assert [s.rule for s in branch.steps] == ["first-approximation"]
    assert res.correspondent is None and res.correspondent_global is None


@pytest.mark.parametrize("text, copy", [
    ("<>p /\\ <>p <= <>p", "#i0 <= <>p"),
    ("[]p /\\ []p <= p", "#i0 <= []p"),
])
def test_discard_duplicate_consumes_both_copies(text, copy):
    res = run_alba(parse_inequality(text, P), GAMMA, P)
    assert res.status == "success"
    steps = res.all_steps()
    (dup,) = [s for s in steps if s.rule == "discard-duplicate"]
    assert dup.describe() == f"[reduce] discard-duplicate: {copy}; {copy}  ==>  {copy}"
    failure = verify_trace(steps, sample_frames(P, 2, 8, seed=3))
    assert failure is None, failure.describe()


def test_pinned_inequality_untouched_everywhere():
    for text, a in [("p -> <>p", GAMMA), ("<><>p -> <>p", P.top),
                    ("(p -> @0) -> []q <= <>[]q \\/ []p", P.element("beta"))]:
        target = (
            parse_inequality(text, P) if "<=" in text else parse_formula(text, P)
        )
        res = run_alba(target, a, P)
        assert res.succeeded
        pinned = Inequality(Nom("i0"), Const(P.element_name(a), a))
        for branch in res.branches:
            assert pinned in branch.system
            for step in branch.steps:
                assert pinned not in step.before


def test_failure_on_non_inductive_matches_shape_test():
    bad = parse_inequality("[](p \\/ q) <= <>(p /\\ q)", P)
    assert is_inductive(bad) is None
    res = run_alba(bad, GAMMA, P)
    assert res.status == "failure"
    assert res.correspondent is None


def test_formula_with_valid_consequent_succeeds():
    res = run_alba(parse_inequality("@1 <= p -> p", P), GAMMA, P)
    assert res.succeeded


def test_trivial_branch_quasi_inequality():
    res = run_alba(parse_inequality("@1 <= @1", P), GAMMA, P)
    assert res.succeeded
    (quasi,) = res.quasi
    assert str(quasi.conclusion) == "#i0 <= $m0"
    # the guard stays; the trivially true i0 <= @1 premise is discarded,
    # while @1 <= $m0 is falsifiable and must remain
    assert [str(p) for p in quasi.premises] == ["#i0 <= @gamma", "@1 <= $m0"]


def test_global_correspondent_is_closure():
    res = run_alba(parse_formula("p -> <>p", P), GAMMA, P)
    assert print_fo(res.correspondent_global).startswith("A x. ")


# -- correspondence of outputs ---------------------------------------------------------


NAMED_AXIOMS = {
    "p -> <>p": "reflexive",
    "<><>p -> <>p": "transitive",
    "p -> []<>p": "symmetric",
    "<>p -> <><>p": "dense",
    "[]p -> <>p": "serial",
}


@pytest.mark.parametrize("text,prop", sorted(NAMED_AXIOMS.items()))
def test_output_matches_named_property_size1(text, prop):
    f = parse_formula(text, P)
    for a in (P.bot, P.element("alpha"), GAMMA, P.top):
        res = run_alba(f, a, P)
        assert res.succeeded
        rep = correspondence_oracle(
            P, res.source, a, res.correspondent, sizes=[1], fo_threshold=P.top
        )
        assert rep.passed, rep.describe()
        rep = correspondence_oracle(
            P, res.source, a, frame_property(prop), sizes=[1]
        )
        assert rep.passed, rep.describe()


# the classical corpus of criterion 8, beyond the named axioms
CLASSICAL = ["[]p -> p", "[]p -> [][]p", "[](p -> <>p)", "(p -> <>p) \\/ (q -> <><>q)"]


@pytest.mark.parametrize("text", sorted(NAMED_AXIOMS) + ["p <= @0"] + CLASSICAL)
def test_display_is_oracle_equivalent(text):
    # the printed display, parsed back, is checked like the correspondent;
    # `p <= @0` reduces to the pinned inequality alone, whose display is
    # `@a =< @0` (`@1` at a = 0)
    for a in range(P.n):
        res = run_alba(parse_input(text, P), a, P)
        assert res.succeeded
        assert parse_fo(res.display, P) == simplify_display(res.correspondent)
        rep = correspondence_oracle(
            P, res.source, a, parse_fo(res.display, P), sizes=[1, 2],
            fo_threshold=P.top,
        )
        assert rep.passed, (P.element_name(a), res.display, rep.describe())


def test_display_of_boxed_reflexivity():
    res = run_alba(parse_formula("[]p -> p", P), GAMMA, P)
    assert res.display == "@gamma =< R(x, x)"


def test_display_is_the_normalised_correspondent():
    res = run_alba(parse_formula("<>p -> <><>p", P), GAMMA, P)
    assert res.display == print_fo(simplify_display(res.correspondent))
    assert run_alba(parse_inequality("[](p \\/ q) <= <>(p /\\ q)", P), GAMMA, P).display == ""


def test_outputs_are_built_on_first_read(monkeypatch):
    # a run that only reports its status and trace never translates a branch
    built = []
    monkeypatch.setattr(alba, "branch_correspondent",
                        lambda system: built.append(system) or branch_correspondent(system))
    res = run_alba(parse_formula("<><>p -> <>p", P), GAMMA, P)
    assert res.succeeded and res.all_steps() and built == []
    assert res.correspondent is res.correspondent
    assert built == [b.system for b in res.branches]


@pytest.mark.parametrize("text", ["p -> <>p", "<><>p -> <>p", "p -> []<>p", "<>p -> <><>p",
                                  "[]p -> <>p"])
def test_outputs_are_the_conjunction_of_the_branches(text):
    # every value: the printed, JSON and display outputs of the run are
    # those of the branches' correspondents conjoined in order
    for a in range(P.n):
        res = run_alba(parse_formula(text, P), a, P)
        alpha = _conjoin([branch_correspondent(b.system) for b in res.branches])
        assert print_fo(res.correspondent) == print_fo(alpha)
        assert to_dict(res.correspondent) == to_dict(alpha)
        assert res.display == print_fo(simplify_display(alpha))
        assert res.correspondent_global == Forall(X, alpha)
        assert res.quasi == [branch_quasi(b.system) for b in res.branches]


def test_transitivity_axiom_output_oracle_equivalent():
    res = run_alba(parse_formula("[]p -> [][]p", P), GAMMA, P)
    assert res.succeeded
    rep = correspondence_oracle(
        P, res.source, GAMMA, res.correspondent, sizes=[1], fo_threshold=P.top
    )
    assert rep.passed
    rep = correspondence_oracle(
        P, res.source, GAMMA, frame_property("transitive"), sizes=[1]
    )
    assert rep.passed


def test_bool2_top_matches_classical_correspondents():
    # over the two-element algebra with a = 1 the outputs define the
    # classical frame classes
    for text, prop in sorted(NAMED_AXIOMS.items()):
        f = parse_formula(text, B2)
        res = run_alba(f, B2.top, B2)
        assert res.succeeded
        rep = correspondence_oracle(
            B2, res.source, B2.top, res.correspondent, sizes=[1, 2],
            fo_threshold=B2.top,
        )
        assert rep.passed, (text, rep.describe())
        rep = correspondence_oracle(
            B2, res.source, B2.top, frame_property(prop), sizes=[1, 2]
        )
        assert rep.passed, (text, rep.describe())


# -- per-step soundness -------------------------------------------------------------


def test_steps_sound_on_sampled_frames(bool2_frames_upto2):
    frames = sample_frames(P, 2, 12, seed=5)
    for text in sorted(NAMED_AXIOMS):
        res = run_alba(parse_formula(text, P), GAMMA, P)
        failure = verify_trace(res.all_steps(), frames)
        assert failure is None, failure.describe()
        res2 = run_alba(parse_formula(text, B2), B2.top, B2)
        failure = verify_trace(res2.all_steps(), bool2_frames_upto2)
        assert failure is None, failure.describe()


# inductive inputs on which reduction once failed at every non-zero value,
# because preprocessing distributed below the skeleton; the last three are
# Sahlqvist
INDUCTIVE_REGRESSIONS = [
    "[]<><>@0 <= <>((p -> q) \\/ @beta /\\ p)",
    "[](q /\\ @0 /\\ (@0 \\/ q)) <= <>([]q \\/ q)",
    "[](@0 -> @alpha) -> (p -> @gamma) /\\ (p \\/ @1) <= <>(@alpha /\\ @1 /\\ @0)",
    "[][]@gamma -> (q \\/ q) /\\ (@gamma \\/ p) <= <>(@gamma /\\ @beta \\/ @1 /\\ p)",
    "[]((q \\/ @0) /\\ (q -> @beta)) <= @alpha",
    "<>@gamma /\\ @0 -> (p -> @0) /\\ (@beta \\/ p) <= <>((@beta -> @0) -> <>p)",
    "[]((@0 \\/ @alpha) /\\ (q \\/ @alpha)) <= <>(<>@gamma -> <>q)",
    "[]([]p /\\ (p \\/ @gamma)) <= <>[]p",
    "[]<>q <= <>(@0 \\/ q \\/ @0 /\\ p)",
    "[]<>[]p <= <>(<>p \\/ @alpha /\\ @beta)",
    "(@1 -> @beta) /\\ @beta \\/ []<>r <= <>(@gamma /\\ @0 \\/ <>r)",
]


@pytest.mark.parametrize("text", INDUCTIVE_REGRESSIONS)
def test_inductive_inputs_reduce_at_every_value(text):
    # the inductive contract: success at every non-zero value, every step
    # sound, and the correspondent and its display, parsed back, correct
    ineq = parse_inequality(text, P)
    assert is_inductive(ineq) is not None
    frames = sample_frames(P, 2, 8, seed=3)
    for a in range(1, P.n):
        res = run_alba(ineq, a, P)
        assert res.succeeded, (P.element_name(a), res.status)
        failure = verify_trace(res.all_steps(), frames)
        assert failure is None, failure.describe()
        for alpha in (res.correspondent, parse_fo(res.display, P)):
            report = correspondence_oracle(P, res.source, a, alpha, sizes=[1, 2],
                                           budget=Budget(10**9), fo_threshold=P.top)
            assert report.passed, (P.element_name(a), print_fo(alpha), report.describe())


def test_preprocessing_keeps_the_inductive_shape(inductive_corpus):
    # distribution along the skeleton only: a preprocessing step that
    # consumes an inductive inequality produces only inductive ones
    inputs = [parse_inequality(t, P) for t in INDUCTIVE_REGRESSIONS] + inductive_corpus
    inputs += [parse_input(t, P) for t in RULE_INPUTS.values()]
    for target in inputs:
        for step in run_alba(target, GAMMA, P).pre_steps:
            (consumed,) = step.before
            if is_inductive(consumed) is not None:
                assert all(is_inductive(made) is not None for made in step.after), \
                    step.describe()


def test_corpus_reduces(inductive_corpus):
    for ineq in inductive_corpus:
        res = run_alba(ineq, GAMMA, P)
        assert res.succeeded, str(ineq)


def test_corpus_correspondents_pass_the_oracle(inductive_corpus):
    # the raw correspondent and the printed display, parsed back, on every
    # frame to size 2; the largest correspondents need more than the
    # default budget
    assert len(inductive_corpus) == 21
    for ineq in inductive_corpus:
        res = run_alba(ineq, GAMMA, P)
        for alpha in (res.correspondent, parse_fo(res.display, P)):
            report = correspondence_oracle(P, res.source, GAMMA, alpha, sizes=[1, 2],
                                           budget=Budget(10**9), fo_threshold=P.top)
            assert report.passed, (str(ineq), print_fo(alpha), report.describe())


def test_ackermann_rules_sound_in_isolation():
    # both elimination directions, applied to random systems in scope,
    # preserve the satisfying assignments (the elimination lemmas)
    import random as _random

    from mvcorr.alba import _ackermann_moves
    from mvcorr.randomgen import random_formula
    from mvcorr.oracle import sample_frames
    from mvcorr.stepcheck import verify_step

    rng = _random.Random(77)
    pinned = Inequality(Nom("i0"), Const("gamma", GAMMA))
    frames = sample_frames(P, 2, 8, seed=13)
    verified = 0
    attempts = 0
    while verified < 12 and attempts < 400:
        attempts += 1
        system = [pinned]
        for _ in range(rng.randrange(1, 4)):
            lhs = random_formula(rng, P, ("p", "q"), depth=2, extended=True)
            rhs = random_formula(rng, P, ("p", "q"), depth=2, extended=True)
            system.append(Inequality(lhs, rhs))
        for step, _ in _ackermann_moves(tuple(system), 0, P):
            failure = verify_step(step, frames)
            assert failure is None, failure.describe()
            verified += 1
    assert verified >= 12


# -- trace replay ----------------------------------------------------------------------


def replay(start, steps):
    """The multiset of inequalities left by applying the steps in order to
    `start`: each step removes what it consumed, which must be there, and
    adds what it produced."""
    held = Counter(start)
    for step in steps:
        for ineq in step.before:
            assert held[ineq] > 0, step.describe()
            held[ineq] -= 1
        held.update(step.after)
    return +held


def test_trace_replays_to_its_result(inductive_corpus):
    runs = [run_alba(parse_input(text, P), a, P)
            for text in sorted(NAMED_AXIOMS) + CLASSICAL for a in range(P.n)]
    runs += [run_alba(ineq, GAMMA, P) for ineq in inductive_corpus]
    # each discards a duplicate, which consumes both copies
    runs += [run_alba(parse_inequality(text, P), GAMMA, P)
             for text in ("<>p /\\ <>p <= <>p", "[]p /\\ []p <= p")]
    runs.append(run_alba(parse_formula("<><>p -> <>p", P), GAMMA, P, step_cap=0))
    # failed searches: a stuck branch's steps lead to the system it got stuck at
    failed = [run_alba(parse_inequality(text, P), a, P)
              for text in ("[](p \\/ q) <= <>(p /\\ q)", "[]<>p <= <>[]p") for a in range(P.n)]
    assert all(res.status == "failure" for res in failed)
    for res in runs + failed:
        a_const = Const(P.element_name(res.value), res.value)
        start = Inequality(And(res.source.lhs, a_const), res.source.rhs)
        assert replay([start], res.pre_steps) == Counter(b.initial for b in res.branches)
        for b in res.branches:
            assert b.success or res.status in ("step-cap", "failure")
            assert replay([b.initial], b.steps) == Counter(b.system), str(res.source)
    stuck = failed[P.top].branches[0]
    assert [step.rule for step in stuck.steps][-1] == "ackermann-left"
    assert "; ".join(map(str, stuck.system)) == "<i>#i0 - (q -> [i]$m0) <= q; #i0 <= @1"

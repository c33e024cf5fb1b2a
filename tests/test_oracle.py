"""Correspondence oracle on the worked disjunction example."""

import random
import sys
import threading
import time
import tracemalloc
from collections import Counter
from functools import cache, partial, reduce
from itertools import accumulate, chain, islice, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvcorr.budget as budgets
import mvcorr.fol as fol
import mvcorr.oracle as oracle
from conftest import boolean_algebra
from mvcorr.alba import run_alba
from mvcorr.budget import BATCH_CELLS, Budget
from mvcorr.errors import BudgetExceeded, MvcorrError, UnboundSymbol
from mvcorr.fol import (
    BOT, CompiledFo, FoAnd, FoOr, Forall, FoVar, NomTV, Pred, Rel, degree_claim,
    frame_property, free_individual_symbols, parse_fo,
)
from mvcorr.heyting import builtin_algebra, parse_algebra_text
from mvcorr.oracle import correspondence_oracle, fo_agree, iter_frames, sample_frames
from mvcorr.randomgen import random_fo, random_formula
from mvcorr.semantics import Frame, valid_at, validity_degree
from mvcorr.syntax import parse_formula, parse_inequality

P = builtin_algebra("paper-P")
X = FoVar("x")


def test_frame_enumeration_counts():
    assert len(list(iter_frames(P, 1))) == 5
    assert len(list(iter_frames(P, 2))) == 625


def test_one_correspondent_of_classical_tautology_is_bottom():
    phi = parse_formula("~p \\/ <>p", P)
    report = correspondence_oracle(P, phi, P.top, BOT, sizes=[1, 2])
    assert report.passed, report.describe()


def test_bound_predicate_quantifiers_are_accepted():
    # the degree claim binds P; only free predicate symbols are refused
    t = parse_formula("<><>p -> <>p", P)
    for a in range(P.n):
        budget = Budget()
        report = correspondence_oracle(P, t, a, degree_claim(t), sizes=[1, 2], budget=budget)
        assert report.describe() == "PASS (630 frames, 1255 state checks)"
        assert budget.used == 767_990
    with pytest.raises(MvcorrError, match="free predicate symbols"):
        correspondence_oracle(P, t, P.top, Pred("P", X), sizes=[1])


def test_gamma_correspondent_is_reflexivity():
    phi = parse_formula("~p \\/ <>p", P)
    report = correspondence_oracle(
        P, phi, P.element("gamma"), Rel(X, X), sizes=[1, 2]
    )
    assert report.passed, report.describe()


def test_reflexivity_fails_as_one_correspondent():
    # with a = 1 the pair has a counterexample: any reflexive frame
    phi = parse_formula("~p \\/ <>p", P)
    report = correspondence_oracle(P, phi, P.top, Rel(X, X), sizes=[1])
    assert not report.passed
    cex = report.counterexample
    assert cex is not None
    assert P.le(P.top, cex.frame.rel[cex.state][cex.state])


def test_t_axiom_reflexivity_all_values():
    ineq = parse_inequality("p <= <>p", P)
    for a in range(P.n):
        report = correspondence_oracle(P, ineq, a, Rel(X, X), sizes=[1])
        assert report.passed, (P.element_name(a), report.describe())


def test_oracle_rejects_predicate_correspondents():
    with pytest.raises(MvcorrError):
        correspondence_oracle(
            P, parse_formula("p", P), P.top, Pred("p", X), sizes=[1]
        )


def test_fo_agree_distinguishes():
    report = fo_agree(
        P,
        frame_property("reflexive"),
        parse_fo("@1 =< R(x, x)", P),
        sizes=[1],
        threshold_alpha=P.element("gamma"),
        threshold_beta=P.top,
    )
    assert not report.passed
    # both sides are first-order conditions: the report names them by place
    assert report.describe() == (
        "FAIL at state w0 of frame [['gamma']]: left side True, right side False")
    report = correspondence_oracle(P, parse_inequality("p <= <>p", P), P.top,
                                   frame_property("symmetric"), sizes=[1])
    assert report.describe() == (
        "FAIL at state w0 of frame [['0']]: modal side False, first-order side True")


def test_sampled_frames_deterministic():
    r1 = correspondence_oracle(
        P, parse_inequality("p <= <>p", P), P.element("alpha"), Rel(X, X),
        sizes=[1], samples=20, sample_size=2, seed=42,
    )
    r2 = correspondence_oracle(
        P, parse_inequality("p <= <>p", P), P.element("alpha"), Rel(X, X),
        sizes=[1], samples=20, sample_size=2, seed=42,
    )
    assert r1.passed and r2.passed
    assert r1.frames_checked == r2.frames_checked


@pytest.mark.parametrize(
    "request_kw",
    [
        {"sizes": [1, 0]},
        {"sizes": [-1]},
        {"sizes": [1], "samples": -3},
        {"sizes": [1], "samples": 2, "sample_size": 0},
    ],
)
def test_vacuous_frame_requests_are_refused(monkeypatch, request_kw):
    import mvcorr.oracle as oracle

    built = []
    monkeypatch.setattr(oracle, "iter_frames", lambda *a: built.append(a) or iter(()))
    monkeypatch.setattr(oracle, "sample_frames", lambda *a: built.append(a) or [])
    phi = parse_formula("p -> <>p", P)
    with pytest.raises(ValueError):
        correspondence_oracle(P, phi, P.top, Rel(X, X), **request_kw)
    kw = dict(request_kw, threshold_alpha=P.top, threshold_beta=P.top)
    with pytest.raises(ValueError):
        fo_agree(P, Rel(X, X), Rel(X, X), **kw)
    assert built == []


def test_an_unbound_symbol_is_refused_before_any_frame():
    # a free predicate or truth-value symbol gets no fold, whatever the frames
    for beta in (Pred("p", X), FoAnd(Rel(X, X), NomTV("i"))):
        budget = Budget()
        with pytest.raises(UnboundSymbol, match="is unbound"):
            fo_agree(P, Rel(X, X), beta, sizes=[], threshold_alpha=P.top,
                     threshold_beta=P.top, budget=budget)
        assert budget.used == 0


# -- the degree table: one per frame, never shared between calls ---------------------


def test_identical_oracle_calls_charge_alike():
    # one sampled frame: the second call's frame equals the first's, and
    # with the same budget object it must still be computed again
    phi = parse_formula("p -> []<>p", P)
    budget = Budget()
    charged = []
    for _ in range(2):
        before = budget.used
        report = correspondence_oracle(P, phi, P.element("gamma"), Rel(X, X), sizes=[],
                                       samples=1, sample_size=2, seed=3, budget=budget)
        assert report.frames_checked == 1
        charged.append(budget.used - before)
    assert charged[0] == charged[1] > 0


def test_refused_degree_table_is_not_kept():
    phi = parse_formula("p -> []<>p", P)
    frame = next(iter_frames(P, 2))
    cells = fol._plan(P, degree_claim(phi), 2).cells
    small = Budget(cells - 1)
    for w in (0, 1):
        with pytest.raises(BudgetExceeded):
            valid_at(frame, phi, w, P.top, small)
    # each call builds and charges its own table: nothing is kept between calls
    budget = Budget(2 * cells)
    valid_at(frame, phi, 0, P.top, budget)
    valid_at(frame, phi, 1, P.top, budget)
    assert budget.used == 2 * cells
    with pytest.raises(BudgetExceeded):
        valid_at(frame, phi, 1, P.top, budget)


def test_the_named_axioms_plans_stay_cached():
    # each axiom's degree claim, its property and its ALBA correspondent at
    # sizes 1-2 and three: 45 plans, all kept from one round to the next
    gamma = P.element("gamma")
    runs = [run_alba(parse_formula(t, P), gamma, P) for t in PROPERTIES]

    def check_all():
        for run, prop in zip(runs, PROPERTIES.values()):
            for alpha, threshold in ((frame_property(prop), None), (run.correspondent, P.top)):
                report = correspondence_oracle(P, run.source, gamma, alpha, sizes=[1, 2],
                                               samples=4, sample_size=3, seed=1,
                                               fo_threshold=threshold)
                assert report.passed, report.describe()

    check_all()
    misses = fol._plan.cache_info().misses
    check_all()
    assert fol._plan.cache_info().misses == misses


def test_one_plan_lookup_per_side_and_size(monkeypatch):
    # sizes 1-2 and three-state samples: each side looks its plan up once per size
    lookups = []
    monkeypatch.setattr(oracle, "_plan", lambda *args: lookups.append(args) or fol._plan(*args))
    text = "p -> []<>p"
    report = correspondence_oracle(P, parse_formula(text, P), GAMMA, GAMMA_CORRESPONDENTS[text],
                                   sizes=[1, 2], samples=4, sample_size=3, seed=1,
                                   fo_threshold=P.top)
    assert report.passed
    assert sorted(size for _, _, size in lookups) == [1, 1, 2, 2, 3, 3]
    assert len({f for _, f, _ in lookups}) == 2


@pytest.mark.parametrize("text,value", [("p -> <>p", "gamma"), ("~p \\/ <>p", "1")])
def test_valid_at_reads_only_the_counterexample(monkeypatch, text, value):
    # verdicts come from whole tables: a PASS never calls valid_at, and a
    # FAIL re-reads its counterexample's state once, charging nothing
    calls = []

    def recording(*args):
        before = budget.used
        out = valid_at(*args)
        calls.append((args, budget.used - before))
        return out

    monkeypatch.setattr(oracle, "valid_at", recording)
    budget = Budget()
    report = correspondence_oracle(P, parse_formula(text, P), P.element(value), Rel(X, X),
                                   sizes=[1, 2], budget=budget)
    assert report.passed == (value == "gamma")
    if report.passed:
        assert calls == []
    else:
        ce = report.counterexample
        [((frame, _, w, _), charged)] = calls
        assert (frame, w, charged) == (ce.frame, ce.state, 0)


def test_only_a_counterexample_builds_a_frame(monkeypatch):
    # frames are enumerated as relation bytes: a PASS never calls
    # iter_frames, and a FAIL reports the frame that iter_frames (or the
    # seeded samples) gives at the reported place in enumeration order
    calls = []
    monkeypatch.setattr(oracle, "iter_frames", lambda *a: calls.append(a) or iter_frames(*a))
    phi = parse_formula("p -> []<>p", P)
    report = correspondence_oracle(P, phi, GAMMA, GAMMA_CORRESPONDENTS["p -> []<>p"],
                                   sizes=[1, 2], fo_threshold=P.top)
    assert report.passed and calls == []
    report = correspondence_oracle(P, phi, GAMMA, parse_fo("A y. R(x, y) =< R(y, x)", P),
                                   sizes=[1, 2])
    k = report.frames_checked - 5 - 1  # minimum 44 of size 2, in its second batch
    assert (calls, k) == ([(P, 2, 45)], 45)
    assert report.counterexample.frame == list(iter_frames(P, 2))[k]
    beta = parse_fo("A y. A z. (x = y | y = z | x = z | (R(y, z) =< @gamma))", P)
    report = fo_agree(P, parse_fo("x = x", P), beta, sizes=[1, 2], threshold_alpha=P.top,
                      threshold_beta=P.top, samples=6, sample_size=3, seed=1)
    k = report.frames_checked - 630 - 1
    assert (len(calls), k) == (1, 2)
    assert report.counterexample.frame == sample_frames(P, 3, 6, 1)[k]


def test_repeated_sizes_are_checked_once():
    phi = parse_formula("p -> <>p", P)
    once = correspondence_oracle(P, phi, P.element("gamma"), Rel(X, X), sizes=[1])
    twice = correspondence_oracle(P, phi, P.element("gamma"), Rel(X, X), sizes=[1, 1])
    assert report_tuple(twice) == report_tuple(once) == (True, 5, 5)
    kw = dict(threshold_alpha=P.top, threshold_beta=P.top)
    assert (report_tuple(fo_agree(P, Rel(X, X), Rel(X, X), sizes=[2, 1, 2], **kw))
            == report_tuple(fo_agree(P, Rel(X, X), Rel(X, X), sizes=[2, 1], **kw)))


# -- batches against a per-frame reference loop ---------------------------------------


def reference_scan(frames, left, right):
    """The oracle's verdict with tables of one frame each, every frame charged
    as the scan reaches it (first-order side) and at its first state (modal
    side)."""
    checked = states = 0
    for frame in frames:
        checked += 1
        left_at, right_at = left(frame), right(frame)
        for w in range(frame.size):
            states += 1
            lv, rv = left_at(w), right_at(w)
            if lv != rv:
                return False, checked, states, frame.rel, w, lv, rv
    return True, checked, states


def reference_fo(alpha, threshold, budget):
    """Each frame charges the cells of the candidate's universal closure over
    its open symbols, as the oracle tabulates it, and reads the candidate
    itself under every assignment of them."""
    open_syms = sorted(free_individual_symbols(alpha) - {X}, key=str)
    closed = reduce(lambda f, v: Forall(v, f), open_syms, alpha)

    def per_frame(frame):
        budget.charge(fol._plan(frame.algebra, closed, frame.size).cells)
        kernel = CompiledFo(fol._plan(frame.algebra, alpha, frame.size), frame.cells)
        return lambda w: all(
            frame.algebra.le(threshold, kernel.value({X: w, **dict(zip(open_syms, combo))}))
            for combo in product(range(frame.size), repeat=len(open_syms))
        )

    return per_frame


def reference_modal(target, a, budget):
    def per_frame(frame):
        degree = []

        def at(w):
            if not degree:
                degree.extend(validity_degree(frame, target, budget))
            return frame.algebra.le(a, degree[w])

        return at

    return per_frame


def report_tuple(report):
    if report.passed:
        return True, report.frames_checked, report.states_checked
    ce = report.counterexample
    return (False, report.frames_checked, report.states_checked, ce.frame.rel, ce.state,
            ce.modal_verdict, ce.fo_verdict)


def correspondent(text):
    return run_alba(parse_formula(text, P), P.element("gamma"), P).correspondent


GAMMA = P.element("gamma")
B3 = parse_algebra_text("elements: [0, h, 1]\nleq: [[0, h], [h, 1]]\n", name="chain3")
B2 = builtin_algebra("bool2")
# sizes 1 and 2, then `samples` three-state frames: a modal target at value
# `a` against a first-order candidate at top, or two candidates
SCANS = {
    "PASS modal": dict(target="p -> []<>p", a=GAMMA, alpha=correspondent("p -> []<>p"),
                       samples=3, seed=8),
    "FAIL modal": dict(target="<>p -> <><>p", a=P.bot, alpha=correspondent("<>p -> <><>p"),
                       samples=0, seed=0),
    "PASS fo_agree": dict(alpha=frame_property("transitive"), threshold=P.top,
                          beta=parse_fo("A y. A z. (R(x,y) & R(y,z)) =< R(x,z)", P),
                          samples=0, seed=0),
    # holds on frames of at most two states, not on the first sampled one
    "FAIL fo_agree": dict(alpha=parse_fo("x = x", P), threshold=P.top, samples=2, seed=4,
                          beta=parse_fo("A y. A z. (x = y | y = z | x = z | "
                                        "(R(y, z) =< R(z, y)))", P)),
}


def batched(case, budget):
    kw = dict(sizes=[1, 2], samples=case["samples"], sample_size=3, seed=case["seed"],
              budget=budget)
    if "target" in case:
        return report_tuple(correspondence_oracle(
            P, parse_formula(case["target"], P), case["a"], case["alpha"],
            fo_threshold=P.top, **kw))
    return report_tuple(fo_agree(P, case["alpha"], case["beta"], threshold_alpha=case["threshold"],
                                 threshold_beta=P.top, **kw))


def reference(case, budget):
    frames = list(iter_frames(P, 1)) + list(iter_frames(P, 2))
    frames += sample_frames(P, 3, case["samples"], case["seed"])
    if "target" in case:
        left = reference_modal(parse_formula(case["target"], P), case["a"], budget)
        right = reference_fo(case["alpha"], P.top, budget)
    else:
        left = reference_fo(case["alpha"], case["threshold"], budget)
        right = reference_fo(case["beta"], P.top, budget)
    return reference_scan(frames, left, right)


def outcome(scan, case, cap):
    budget = Budget(cap)
    try:
        return scan(case, budget), budget.used
    except BudgetExceeded:
        return "refused", budget.used


def recorded(case):
    """The per-frame loop's report and its charges, uncapped."""
    charges, probe = [], Budget(10**12)
    real_charge = probe.charge
    probe.charge = lambda amount=1: charges.append(amount) or real_charge(amount)
    return reference(case, probe), charges


def capped(want, charges, cap):
    """The per-frame loop's outcome under `cap`: it refuses at the first
    charge that takes it past the cap, having charged the same before."""
    used = next((used for used in accumulate(charges) if used > cap), None)
    return (want, sum(charges)) if used is None else ("refused", used)


# the small ceiling splits each side's tables inside the batches of 16, 32, 64, ...
CEILINGS = [BATCH_CELLS, 2000]


@pytest.mark.parametrize("ceiling", CEILINGS)
@pytest.mark.parametrize("label", sorted(SCANS))
def test_batches_charge_and_report_as_the_per_frame_loop(monkeypatch, ceiling, label):
    # caps from one frame's cells - 1 to a full pass, most inside a batch
    monkeypatch.setattr(budgets, "BATCH_CELLS", ceiling)
    case = SCANS[label]
    want, charges = recorded(case)
    assert want[0] == label.startswith("PASS")
    used = sum(charges)
    assert outcome(batched, case, 10**12) == (want, used)
    rng = random.Random(label)
    caps = {charges[0] - 1, charges[0], used - 1, used}
    caps |= {rng.randrange(charges[0], used) for _ in range(8)}
    for cap in sorted(caps):
        assert outcome(batched, case, cap) == outcome(reference, case, cap), cap


@pytest.mark.parametrize("ceiling", CEILINGS)
@settings(deadline=None, max_examples=12)
@given(st.integers(0, 10**6))
def test_random_candidates_charge_and_report_as_the_per_frame_loop(ceiling, seed):
    # a random candidate met with or joined to a named axiom's correspondent,
    # or against itself or another candidate, with caps drawn inside the
    # scan's batches
    rng = random.Random(seed)
    variables = rng.choice([("x",), ("x", "y"), ("y",)])
    alpha = random_fo(rng, P, preds=(), variables=variables, depth=rng.choice([1, 2, 3]))
    case = dict(samples=rng.randrange(3), seed=rng.randrange(100))
    if rng.random() < 0.5:
        text = rng.choice(sorted(GAMMA_CORRESPONDENTS))
        corr = GAMMA_CORRESPONDENTS[text]
        case.update(target=text, a=GAMMA,
                    alpha=rng.choice([corr, FoAnd(corr, alpha), FoOr(alpha, corr)]))
    else:
        case.update(alpha=alpha, threshold=rng.randrange(P.n), beta=rng.choice([
            alpha, FoOr(alpha, BOT), random_fo(rng, P, preds=(), variables=variables, depth=2)]))
    want, charges = recorded(case)
    used = sum(charges)
    caps = {charges[0] - 1, used - 1, *(rng.randrange(charges[0], used + 1) for _ in range(6))}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(budgets, "BATCH_CELLS", ceiling)
        assert outcome(batched, case, 10**12) == (want, used)
        for cap in sorted(caps):
            assert outcome(batched, case, cap) == capped(want, charges, cap), cap


def test_an_open_symbol_costs_what_its_closure_costs():
    # the oracle folds y universally: R(x, y) is read as A y. R(x, y)
    y = FoVar("y")
    target = parse_formula("p -> <>p", P)
    for a in (P.bot, GAMMA):  # a pass over all 630 frames, a failure
        reports = []
        for candidate in (Rel(X, y), Forall(y, Rel(X, y))):
            budget = Budget(10**9)
            reports.append((report_tuple(correspondence_oracle(
                P, target, a, candidate, sizes=[1, 2], budget=budget)), budget.used))
        assert reports[0] == reports[1]
        assert reports[0][0][0] == (a == P.bot)


GAMMA_CORRESPONDENTS = {text: correspondent(text) for text in
                        ("p -> <>p", "p -> []<>p", "<>p -> <><>p", "[]p -> <>p")}


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_table_scan_matches_the_per_state_reference(seed):
    # free y and z are open symbols, folded universally; a candidate over
    # y and z alone is a sentence, the same at every state
    rng = random.Random(seed)
    variables = rng.choice([("x",), ("x", "y"), ("x", "y", "z"), ("y",), ("y", "z")])
    alpha = random_fo(rng, P, preds=(), variables=variables, depth=rng.choice([1, 2, 3]))
    samples, sample_seed = rng.randrange(3), rng.randrange(100)
    frames = list(iter_frames(P, 1)) + list(iter_frames(P, 2))
    frames += sample_frames(P, 3, samples, sample_seed)
    kw = dict(sizes=[1, 2], samples=samples, sample_size=3, seed=sample_seed)
    a, threshold = rng.randrange(P.n), rng.randrange(P.n)
    if rng.random() < 0.5:
        target, candidate = random_formula(rng, P, ("p",), depth=2), alpha
        if rng.random() < 0.5:
            # a correspondent met with a formula true everywhere passes
            text = rng.choice(sorted(GAMMA_CORRESPONDENTS))
            target, a, threshold = parse_formula(text, P), GAMMA, P.top
            pad, corr = parse_fo("y = y", P), GAMMA_CORRESPONDENTS[text]
            candidate = rng.choice([FoAnd(corr, pad), FoAnd(pad, corr)])  # x's axis inner or outer

        def tables(_, budget):
            return report_tuple(correspondence_oracle(
                P, target, a, candidate, fo_threshold=threshold, budget=budget, **kw))

        def states(_, budget):
            return reference_scan(frames, reference_modal(target, a, budget),
                                  reference_fo(candidate, threshold, budget))
    else:
        # closed under A over its open symbols, alpha holds where it holds
        opened = sorted(free_individual_symbols(alpha) - {X}, key=str)
        closed = reduce(lambda f, v: Forall(v, f), opened, alpha)
        beta = rng.choice([alpha, closed, FoOr(alpha, BOT),
                           random_fo(rng, P, preds=(), variables=variables, depth=2)])
        b = threshold if rng.random() < 0.7 else rng.randrange(P.n)

        def tables(_, budget):
            return report_tuple(fo_agree(P, alpha, beta, threshold_alpha=threshold,
                                         threshold_beta=b, budget=budget, **kw))

        def states(_, budget):
            return reference_scan(frames, reference_fo(alpha, threshold, budget),
                                  reference_fo(beta, b, budget))

    want, used = outcome(states, None, 10**12)
    assert outcome(tables, None, 10**12) == (want, used)
    cap = rng.randrange(used + 1)
    assert outcome(tables, None, cap) == outcome(states, None, cap)


@pytest.mark.parametrize("name", ["bool2", "paper-P"])
def test_frames_come_in_the_nested_generator_order(name):
    alg = builtin_algebra(name)

    def nested(size):
        states = tuple(f"w{i}" for i in range(size))
        for flat in product(range(alg.n), repeat=size * size):
            rel = tuple(tuple(flat[i * size + j] for j in range(size)) for i in range(size))
            yield Frame(alg, states, rel)

    for size in (1, 2):
        assert list(iter_frames(alg, size)) == list(nested(size))


# -- orbit minima: isomorphic frames are counted, not tabulated ------------------------


def is_orbit_minimum(frame, group):
    """No renaming of the states, followed by the identity or an element map
    of `group`, gives a lexicographically smaller matrix."""
    cells = list(chain.from_iterable(frame.rel))
    return all(cells <= [s[frame.rel[i][j]] for i in perm for j in perm]
               for perm in permutations(range(frame.size))
               for s in (range(frame.algebra.n), *group))


def kernel_runs(monkeypatch):
    """Per side (by formula), the frames of each of its kernel runs,
    recorded around `oracle.CompiledFo` as the benchmark's tracer wraps it."""
    runs, owner = {}, {}

    def planned(alg, formula, size):
        plan = fol._plan(alg, formula, size)
        owner[plan] = formula
        return plan

    def recording(plan, rels):
        kernel = CompiledFo(plan, rels)
        runs.setdefault(owner[plan], []).append(kernel.frames)
        return kernel

    monkeypatch.setattr(oracle, "_plan", planned)
    monkeypatch.setattr(oracle, "CompiledFo", recording)
    return runs


def covered(runs):
    """Per side, the frames its kernel runs covered, in order."""
    return sorted(map(sum, runs.values()))


ALPHA, SWAP = P.element("alpha"), P.automorphisms[1]
B4, B8 = boolean_algebra("ab"), boolean_algebra("abc")


def test_only_orbit_minima_are_tabulated(monkeypatch):
    # at gamma the alpha/beta swap joins the renamings: 4 + 189 + 4 frames per
    # side, of 634 counted; at alpha only the renamings, 5 + 325 + 4
    runs = kernel_runs(monkeypatch)
    phi = parse_formula("<><>p -> <>p", P)
    for a, want in ((GAMMA, 4 + 189 + 4), (ALPHA, 5 + 325 + 4)):
        runs.clear()
        report = correspondence_oracle(P, phi, a, run_alba(phi, a, P).correspondent, sizes=[1, 2],
                                       samples=4, sample_size=3, seed=1, fo_threshold=P.top)
        assert report_tuple(report) == (True, 634, 1267)
        assert covered(runs) == [want] * 2
    runs.clear()
    report = correspondence_oracle(P, phi, GAMMA, parse_fo("A y. R(x, y) =< R(y, x)", P),
                                   sizes=[1, 2])
    assert not report.passed and is_orbit_minimum(report.counterexample.frame, [SWAP])
    assert report.counterexample.frame.size == 2 and max(covered(runs)) < 4 + 189


def doubling(count, room):
    """Batches of 16, 32, 64, ... frames, each at most `room`, over `count` frames."""
    batches, take = [], 16
    while count:
        batches.append(min(take, room, count))
        count, take = count - batches[-1], 2 * take
    return batches


def test_batches_double_up_to_the_ceiling_and_the_budget_s_room(monkeypatch):
    # transitivity at gamma tabulates 4, 189 and 4 frames per size; each
    # batch is one kernel run per side, under the wider side's ceiling
    runs = kernel_runs(monkeypatch)
    phi = parse_formula("<><>p -> <>p", P)
    alpha = frame_property("transitive")
    kw = dict(sizes=[1, 2], samples=4, sample_size=3, seed=1)
    per = {size: [fol._plan(P, f, size).cells for f in (alpha, degree_claim(phi))]
           for size in (1, 2, 3)}
    for ceiling in (BATCH_CELLS, 10 * max(per[2]) + 1, 1):
        monkeypatch.setattr(budgets, "BATCH_CELLS", ceiling)
        runs.clear()
        assert correspondence_oracle(P, phi, GAMMA, alpha, **kw).passed
        want = [k for size, count in ((1, 4), (2, 189), (3, 4))
                for k in doubling(count, max(ceiling // max(per[size]), 1))]
        assert list(runs.values()) == [want] * 2
        assert ceiling < BATCH_CELLS or want == [4, 16, 32, 64, 77, 4]
    # a cap that leaves the first two-state batch room for 7 frames: the
    # scan refuses inside it, as the per-frame loop does
    monkeypatch.setattr(budgets, "BATCH_CELLS", BATCH_CELLS)
    runs.clear()
    cap = 5 * sum(per[1]) + 7 * sum(per[2])
    with pytest.raises(BudgetExceeded):
        correspondence_oracle(P, phi, GAMMA, alpha, budget=Budget(cap), **kw)
    assert list(runs.values()) == [[4, 7]] * 2


def test_the_group_fixes_truth_constants_and_reads_threshold_images(monkeypatch):
    # the swap is kept unless it moves a truth constant of either side; each
    # minimum is read at the thresholds, then at their image under the swap
    # where that differs
    groups, pairs = [], []
    monkeypatch.setattr(oracle, "_orbit_minima",
                        lambda n, size, group: groups.append(group) or iter([0]))
    frames = oracle._frames

    def recording(*args):
        for run in frames(*args):
            pairs.append(run.pairs)
            yield run

    monkeypatch.setattr(oracle, "_frames", recording)
    beta = P.element("beta")
    t = parse_formula("p -> <>p", P)
    reflexive = frame_property("reflexive")
    for a, alpha, threshold, kept, read in [
        (GAMMA, reflexive, None, True, [(GAMMA, GAMMA)]),
        (P.top, reflexive, None, True, [(P.top, P.top)]),
        (P.bot, reflexive, GAMMA, True, [(P.bot, GAMMA)]),
        (ALPHA, reflexive, None, True, [(ALPHA, ALPHA), (beta, beta)]),
        (GAMMA, reflexive, ALPHA, True, [(GAMMA, ALPHA), (GAMMA, beta)]),
        (beta, reflexive, P.top, True, [(beta, P.top), (ALPHA, P.top)]),
        (GAMMA, parse_fo("R(x, x) | @gamma", P), None, True, [(GAMMA, GAMMA)]),
        (GAMMA, parse_fo("R(x, x) | @alpha", P), None, False, [(GAMMA, GAMMA)]),
        (ALPHA, parse_fo("R(x, x) | @alpha", P), None, False, [(ALPHA, ALPHA)]),
    ]:
        groups.clear()
        pairs.clear()
        correspondence_oracle(P, t, a, alpha, sizes=[1], fo_threshold=threshold)
        assert groups == [(SWAP,) if kept else ()], (a, str(alpha), threshold)
        assert pairs == [tuple(read)], (a, str(alpha), threshold)
    groups.clear()
    correspondence_oracle(P, parse_formula("p /\\ @beta -> <>p", P), ALPHA, reflexive, sizes=[1])
    assert groups == [()]
    for thresholds, read in (((GAMMA, P.top), [(GAMMA, P.top)]),
                             ((GAMMA, ALPHA), [(GAMMA, ALPHA), (GAMMA, beta)])):
        groups.clear()
        pairs.clear()
        fo_agree(P, reflexive, parse_fo("R(x, x) & @1", P), [1], *thresholds, samples=1)
        assert groups == [(SWAP,)]
        assert pairs == [tuple(read), (thresholds,)]  # the samples at the thresholds only


def test_the_group_is_dropped_past_120_images(monkeypatch):
    # paper-P's swap up to four states (4! * 2 = 48 images), not at five
    # (240); the six automorphisms of the eight-element Boolean algebra up to
    # three states (36), not at four (144)
    calls = []
    monkeypatch.setattr(oracle, "_orbit_minima",
                        lambda n, size, group: calls.append((size, len(group))) or iter([0]))
    list(oracle._frames(P, [1, 2, 3, 4, 5], 0, 3, 0, (SWAP,), (P.top, P.top)))
    assert calls == [(1, 1), (2, 1), (3, 1), (4, 1), (5, 0)]
    calls.clear()
    list(oracle._frames(B8, [3, 4], 0, 3, 0, B8.automorphisms[1:], (B8.top, B8.top)))
    assert calls == [(3, 5), (4, 0)]


def threshold_fixing(alg, *sides):
    """The group before it kept the maps that move a threshold: only those
    that fix both thresholds as well, so every minimum is read at the
    thresholds alone."""
    return tuple(s for s in alg.automorphisms[1:]
                 if all(s[v] == v for side in sides for v in side.constants | {side.threshold}))


def kernel_frames(check, budget, group=None):
    """`check(budget)`'s report or refusal text, the units used and the
    frames handed to `oracle.CompiledFo`, under `group`'s rule if given."""
    frames = []

    def recording(plan, rels):
        kernel = CompiledFo(plan, rels)
        frames.append(kernel.frames)
        return kernel

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "CompiledFo", recording)
        if group is not None:
            patch.setattr(oracle, "_symmetries", group)
        try:
            got = report_tuple(check(budget))
        except BudgetExceeded as exc:
            got = str(exc)
    return got, budget.used, sum(frames)


@cache
def alba_correspondent(alg, text, a):
    return run_alba(parse_formula(text, alg), a, alg)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6))
def test_threshold_images_report_and_charge_as_the_threshold_fixing_group(seed):
    # a named axiom's ALBA correspondent at a checked at b (FAIL mostly where
    # a != b), its named property at b (PASS), the two against each other in
    # fo_agree, or another axiom's property (FAIL mostly, with no truth
    # constant, so every image of b is read), at sizes 1-2 plus samples,
    # uncapped and under a cap
    rng = random.Random(seed)
    alg = rng.choice([P, B4, B8])
    text, other = rng.sample(sorted(PROPERTIES), 2)
    a, b, c = rng.randrange(alg.n), rng.randrange(alg.n), rng.randrange(alg.n)
    run, prop = alba_correspondent(alg, text, a), frame_property(PROPERTIES[text])
    kw = dict(sizes=[1, 2], samples=rng.randrange(3), sample_size=3, seed=rng.randrange(100))
    check = rng.choice([
        lambda budget: correspondence_oracle(alg, run.source, b, run.correspondent,
                                             fo_threshold=alg.top, budget=budget, **kw),
        lambda budget: correspondence_oracle(alg, run.source, b, prop, budget=budget, **kw),
        lambda budget: fo_agree(alg, run.correspondent, prop, threshold_alpha=alg.top,
                                threshold_beta=b, budget=budget, **kw),
        lambda budget: correspondence_oracle(alg, run.source, b, frame_property(PROPERTIES[other]),
                                             budget=budget, **kw),
        lambda budget: fo_agree(alg, prop, frame_property(PROPERTIES[other]), threshold_alpha=b,
                                threshold_beta=c, budget=budget, **kw),
    ])
    want, used, frames = kernel_frames(check, Budget(10**12), threshold_fixing)
    got = kernel_frames(check, Budget(10**12))
    assert got[:2] == (want, used) and got[2] <= frames
    cap = rng.randrange(used + 1)
    assert kernel_frames(check, Budget(cap))[:2] == kernel_frames(
        check, Budget(cap), threshold_fixing)[:2], cap


def record_implied(monkeypatch, implied):
    """Append the cells and the implied place of each disagreement at a
    moved threshold pair to `implied`."""
    group = oracle._group

    def recording(*args):
        kept, pairs, place = group(*args)
        return kept, pairs, lambda cells, k: implied.append((cells, place(cells, k))) or \
            implied[-1][1]

    monkeypatch.setattr(oracle, "_group", recording)


def test_a_disagreement_at_a_moved_threshold_implies_a_later_counterexample(monkeypatch):
    # symmetry's correspondent at gamma checked at alpha: two-state minimum 10
    # first disagrees at (beta, 1), the image of (alpha, 1) under the swap,
    # which implies frame 15, the least of its swapped frame's orbit (no
    # renaming needed); no earlier minimum disagrees at (alpha, 1)
    implied = []
    record_implied(monkeypatch, implied)
    run = alba_correspondent(P, "p -> []<>p", GAMMA)
    check = partial(correspondence_oracle, P, run.source, ALPHA, run.correspondent, sizes=[1, 2],
                    fo_threshold=P.top)
    got = kernel_frames(lambda budget: check(budget=budget), Budget(10**12))
    want = kernel_frames(lambda budget: check(budget=budget), Budget(10**12), threshold_fixing)
    assert got[:2] == want[:2] and got[2] < want[2]
    assert implied[0] == (list(iter_frames(P, 2))[10].cells,
                          (15, (0, 1), list(iter_frames(P, 2))[15].cells))
    ce = check().counterexample
    assert ce.frame == list(iter_frames(P, 2))[15] and not is_orbit_minimum(ce.frame, [SWAP])
    assert report_tuple(check())[:3] == (False, 5 + 16, 5 + 2 * 15 + 2)


# x's loop is alpha or beta and y's the other, with R(x, y) = 1 and R(y, x) = 0
DIAGONAL = "(R({0}, {0}) =< @gamma) & ((R({0}, {0}) =< @0) -> @0) & ((@gamma =< R({0}, {0})) -> @0)"
CROSSED = (f"E y. (x != y & (@1 =< R(x, y)) & (R(y, x) =< @0) & {DIAGONAL.format('x')} & "
           f"{DIAGONAL.format('y')} & ((R(x, x) =< R(y, y)) -> @0))")


def test_an_implied_counterexample_is_read_through_its_renaming(monkeypatch):
    # at alpha, "crossed x implies ~R(x, x)" fails where x's loop is alpha:
    # minimum 258, [[alpha, 0], [1, beta]], disagrees only at beta, at w1;
    # its swap [[beta, 0], [1, alpha]] renamed is frame 278, whose w0 is w1
    implied = []
    record_implied(monkeypatch, implied)
    left = parse_fo(f"({CROSSED}) -> (R(x, x) -> @0)", P)

    def check(budget):
        return fo_agree(P, left, parse_fo("x = x", P), sizes=[1, 2], threshold_alpha=ALPHA,
                        threshold_beta=P.top, budget=budget)

    got = kernel_frames(check, Budget(10**12))
    assert [place for _, place in implied] == [(278, (1, 0), bytes([ALPHA, P.top, P.bot, 3]))]
    assert got[0] == (False, 5 + 279, 5 + 2 * 278 + 1, ((ALPHA, P.top), (P.bot, P.element("beta"))),
                      0, False, True)
    want = kernel_frames(check, Budget(10**12), threshold_fixing)
    assert got[:2] == want[:2] and got[2] < want[2]


@pytest.mark.parametrize("alg", [P, B8], ids=["paper-P", "B8"])
def test_an_implied_frame_holds_at_the_thresholds_where_its_minimum_holds_at_the_pair(alg):
    # every cell of the implied frame is at least a threshold exactly where
    # the minimum's cell it comes from is at least the pair's threshold
    group, size = alg.automorphisms[1:], 2
    numbers = list(oracle._orbit_minima(alg.n, size, group))
    cells = oracle._minima(alg.n, size, group).read(0, len(numbers))
    for thresholds in product(range(alg.n), repeat=2):
        kept, pairs, implied = oracle._group(alg, size, group, thresholds)
        assert pairs[0] == thresholds and len(set(pairs)) == len(pairs)
        for i in range(len(numbers)):
            frame = cells[i * size * size:(i + 1) * size * size]
            for k in range(1, len(pairs)):
                _, perm, image = implied(frame, k)
                for t, pair in zip(thresholds, pairs[k]):
                    assert [alg.le(t, v) for v in image] == [
                        alg.le(pair, frame[perm[a] * size + perm[b]])
                        for a in range(size) for b in range(size)], (thresholds, i, k)


def test_the_least_place_over_every_disagreeing_pair_is_reported():
    # a one-state minimum [a] of the eight-element Boolean algebra read at
    # thresholds a, b and c disagrees with "x = x" at b and c; whichever
    # pair implies the earlier place names the counterexample
    a, b, c = (B8.element(name) for name in "abc")
    for places in ((7, 5), (5, 7)):
        frames = {places[0]: c, places[1]: b}  # any one-state frames stand in

        def implied(cells, k):
            return places[k - 1], (0,), bytes([frames[places[k - 1]]])

        run = oracle.Run(1, [0], 8, lambda i, k: bytes([a]),
                         lambda p: Frame(B8, ("w0",), ((frames[p],),)),
                         ((a, B8.top), (b, B8.top), (c, B8.top)), implied)
        left, right = oracle._Truth(B8, Rel(X, X), a), oracle._Truth(B8, parse_fo("x = x", B8),
                                                                    B8.top)
        report = oracle._first_disagreement([run], left, right, Budget(), ("left", "right"))
        assert report.frames_checked == 6 and report.counterexample.frame.rel == ((frames[5],),)


@pytest.mark.parametrize("alg", [P, B8], ids=["paper-P", "B8"])
def test_an_implied_place_is_the_least_of_the_image_s_orbit(alg):
    # every two-state minimum moved by each automorphism, its orbit taken
    # under the renamings and the automorphisms that fix a threshold t
    group, size = alg.automorphisms[1:], 2
    numbers = list(oracle._orbit_minima(alg.n, size, group))
    cells = oracle._minima(alg.n, size, group).read(0, len(numbers))
    every = list(product(range(alg.n), repeat=size * size))
    maps = list(map(oracle._padded, alg.automorphisms))
    for t in range(alg.n):
        fixing = tuple(h for h in group if h[t] == t)
        for i in range(len(numbers)):
            frame = cells[i * size * size:(i + 1) * size * size]
            for k, s in enumerate(alg.automorphisms):
                place, perm, least = oracle._implied(
                    alg.n, size, maps, list(map(oracle._padded, fixing)), frame, k)
                assert least == bytes(every[place])
                images = {tuple(h[s[frame[p[a] * size + p[b]]]] for a in range(size)
                                for b in range(size))
                          for h in (alg.automorphisms[0], *fixing)
                          for p in permutations(range(size))}
                assert every[place] == min(images), (t, i, k)
                assert any(every[place] == tuple(h[s[frame[perm[a] * size + perm[b]]]]
                                                 for a in range(size) for b in range(size))
                           for h in (alg.automorphisms[0], *fixing)), (t, i, k)


def least_of_orbits(alg, size):
    """The frame numbers of the least frame of each orbit under renaming the
    states and every automorphism, by walking each orbit once."""
    cells = size * size
    images = [[(perm[i // size] * size + perm[i % size]) for i in range(cells)]
              for perm in permutations(range(size))]
    seen, least = set(), []
    for number, flat in enumerate(product(range(alg.n), repeat=cells)):
        if number in seen:
            continue
        least.append(number)
        for s in alg.automorphisms:
            for where in images:
                moved = [0] * cells
                for i, v in enumerate(flat):
                    moved[where[i]] = s[v]
                seen.add(reduce(lambda acc, v: acc * alg.n + v, moved, 0))
    return least


@pytest.mark.parametrize("alg,sizes", [(B2, (1, 2)), (B3, (1, 2)), (P, (1, 2)), (B4, (1, 2, 3))],
                         ids=["bool2", "chain3", "paper-P", "B4"])
def test_orbit_minima_are_the_least_of_each_orbit(alg, sizes):
    group = alg.automorphisms[1:]
    for size in sizes:
        assert list(oracle._orbit_minima(alg.n, size, group)) == least_of_orbits(alg, size)


def test_three_state_minima_of_paper_p():
    # 165 676 of 1 953 125 frames, against 327 125 under the renamings alone
    # (the minima are shared with every other scan of this process)
    assert sum(1 for _ in oracle._orbit_minima(P.n, 3, (SWAP,))) == 165_676


@pytest.mark.parametrize("alg,group", [(B2, ()), (B3, ()), (P, ()), (P, (SWAP,))],
                         ids=["bool2", "chain3", "paper-P", "paper-P-swap"])
def test_the_store_keeps_each_minimum_s_cells(alg, group):
    # sizes 1-3: every minimum's cells are its frame's matrix, from
    # `iter_frames` for the first 20 000 frames and past them from the
    # `product` order it enumerates in
    for size in (1, 2, 3):
        numbers = list(oracle._orbit_minima(alg.n, size, group))
        wanted, width = set(numbers), size * size
        every = chain((frame.cells for frame in islice(iter_frames(alg, size), 20_000)),
                      map(bytes, islice(product(range(alg.n), repeat=width), 20_000, None)))
        want = b"".join(cells for number, cells in enumerate(every) if number in wanted)
        assert oracle._minima(alg.n, size, group).read(0, len(numbers)) == want


def test_every_batch_holds_its_frames_cells():
    # the minima of sizes 1-2, the first 48 frames of six states (no minima
    # kept) and the samples: each batch the scan builds is one flat buffer of
    # its frames' cells
    seen = Counter()
    runs = chain(oracle._frames(P, [1, 2], 5, 3, 9, (SWAP,), (P.top, P.top)),
                 islice(oracle._frames(P, [6], 0, 3, 0, (SWAP,), (P.top, P.top)), 1))
    for size, numbers, total, cells, frame, *_ in runs:
        if size == 6:
            numbers, total = range(48), 48
        numbers, width = list(numbers), size * size

        def verdicts(i, k):
            seen[size] += 1
            batch = cells(i, k)
            assert len(batch) == width * k
            for d in range(k):
                assert frame(numbers[i + d]).cells == batch[d * width:(d + 1) * width]
            return bytes(k), bytes(k)

        assert budgets.scan(numbers, total, [1], Budget(10**9), verdicts) == (total, None)
    assert seen == {1: 1, 2: 4, 3: 1, 6: 2}


@pytest.mark.parametrize("alg", [B2, B3], ids=["bool2", "chain3"])
def test_a_frame_starts_the_enumeration_at_its_number(alg):
    # from every frame of sizes 1-3, the rest of the order (at sizes 1-2) or
    # that frame (at three states)
    for size in (1, 2, 3):
        every = list(iter_frames(alg, size))
        for p, frame in enumerate(every):
            if size < 3:
                assert list(iter_frames(alg, size, p)) == every[p:], (size, p)
            else:
                assert next(iter_frames(alg, size, p)) == frame, p


def test_a_counterexample_s_frame_costs_one_frame(monkeypatch):
    # the frame getter builds paper-P's last three-state frame, and no other
    built = []
    monkeypatch.setattr(oracle, "Frame", lambda *args: built.append(args) or Frame(*args))
    frame = next(oracle._frames(P, [3], 0, 3, 0, (SWAP,), (P.top, P.top))).frame
    last = frame(P.n ** 9 - 1)
    assert len(built) == 1 and last.rel == ((P.n - 1,) * 3,) * 3


def test_minima_are_searched_once_and_only_as_far_as_read(monkeypatch):
    monkeypatch.setattr(oracle, "_MINIMA", {})
    first = list(islice(oracle._orbit_minima(P.n, 4, (SWAP,)), 5))
    kept = oracle._MINIMA[P.n, 4, (SWAP,)]
    assert 5 <= len(kept.numbers) < 64  # the first chunk of 64 frames
    searched = []
    monkeypatch.setattr(oracle, "_least", lambda *args: searched.append(args) or [])
    assert list(islice(oracle._orbit_minima(P.n, 4, (SWAP,)), 5)) == first
    assert searched == []


def test_minima_kept_for_sizes_one_and_two_take_little_memory(monkeypatch):
    # what the benchmark's scans keep: sizes 1-2 with and without the swap
    monkeypatch.setattr(oracle, "_MINIMA", {})
    tracemalloc.start()
    try:
        for size, group in product((1, 2), ((), (SWAP,))):
            assert sum(1 for _ in oracle._orbit_minima(P.n, size, group)) > 0
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 500_000


def test_threads_reading_one_search_get_every_minimum(monkeypatch):
    # eight threads start one search at once, twenty times over, each
    # reading the minima's numbers and cells batch by batch as a scan does
    want = least_of_orbits(P, 2)
    every = list(product(range(P.n), repeat=4))
    want = want, b"".join(bytes(every[p]) for p in want)
    got = [None] * 8

    def read(k):
        _, numbers, total, cells, *_ = next(oracle._frames(P, [2], 0, 3, 0, (SWAP,),
                                                         (P.top, P.top)))
        places, batches = [], []

        def verdicts(i, n):
            batches.append(cells(i, n))
            return bytes(n), bytes(n)

        budgets.scan((places.append(p) or p for p in numbers), total, [1], Budget(10**9),
                     verdicts)
        got[k] = places, b"".join(batches)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            monkeypatch.setattr(oracle, "_MINIMA", {})
            got = [None] * 8
            threads = [threading.Thread(target=read, args=(k,)) for k in range(len(got))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert got == [want] * len(got)
    finally:
        sys.setswitchinterval(interval)


PROPERTIES = {"p -> <>p": "reflexive", "<><>p -> <>p": "transitive",
              "p -> []<>p": "symmetric", "<>p -> <><>p": "dense", "[]p -> <>p": "serial"}


@pytest.mark.parametrize("alg,value,minima", [(B2, "1", 104), (B3, "h", 3411)],
                         ids=["bool2", "chain3"])
def test_named_axioms_hold_on_every_three_state_frame(monkeypatch, alg, value, minima):
    # both candidates of each named axiom at sizes 1-3, every frame counted
    runs = kernel_runs(monkeypatch)
    a, n = alg.element(value), alg.n
    for text, prop in PROPERTIES.items():
        res = run_alba(parse_formula(text, alg), a, alg)
        assert res.succeeded, text
        for alpha, threshold in ((res.correspondent, alg.top), (frame_property(prop), a)):
            runs.clear()
            report = correspondence_oracle(alg, res.source, a, alpha, sizes=[1, 2, 3],
                                           fo_threshold=threshold, budget=Budget(10**9))
            assert report_tuple(report) == (True, n + n**4 + n**9,
                                            n + 2 * n**4 + 3 * n**9), (text, prop)
            assert covered(runs) == [n + (n**4 + n**2) // 2 + minima] * 2


# fails only on a frame with three states, every pair of them related both ways
# and some state irreflexive: the first is frame 238 of 512
THREE_STATE_FAIL = parse_fo("R(x, x) | ((A y. A z. (y = z | R(y, z))) & "
                            "(E u. E v. E t. (u != v & v != t & u != t)))", B2)


def test_three_state_fail_charges_and_reports_as_the_per_frame_loop():
    target = parse_formula("p -> <>p", B2)
    sizes = [1, 2, 3]

    def batched(_, budget):
        return report_tuple(correspondence_oracle(B2, target, B2.top, THREE_STATE_FAIL,
                                                  sizes=sizes, budget=budget))

    def reference(_, budget):
        frames = chain.from_iterable(iter_frames(B2, size) for size in sizes)
        return reference_scan(frames, reference_modal(target, B2.top, budget),
                              reference_fo(THREE_STATE_FAIL, B2.top, budget))

    want, used = outcome(reference, None, 10**12)
    assert want[:2] == (False, 2 + 16 + 238 + 1) and want[4] == 0
    assert outcome(batched, None, 10**12) == (want, used)
    rng = random.Random(3)
    for cap in sorted({0, used - 1, used, *(rng.randrange(used) for _ in range(12))}):
        assert outcome(batched, None, cap) == outcome(reference, None, cap), cap


@pytest.mark.parametrize("size", [5, 6, 8])
def test_a_small_cap_refuses_large_frames_at_once(size):
    # the renaming search runs only as far as the scan reads, and past five
    # states not at all, so a cap refuses where the per-frame loop does
    target, alpha = parse_formula("<><>p -> <>p", P), correspondent("<><>p -> <>p")

    def batched(_, budget):
        return report_tuple(correspondence_oracle(P, target, GAMMA, alpha, sizes=[size],
                                                  fo_threshold=P.top, budget=budget))

    def reference(_, budget):
        return reference_scan(iter_frames(P, size), reference_modal(target, GAMMA, budget),
                              reference_fo(alpha, P.top, budget))

    start = time.perf_counter()
    got = outcome(batched, None, 10**6)
    assert time.perf_counter() - start < 1
    assert got == outcome(reference, None, 10**6) and got[0] == "refused"

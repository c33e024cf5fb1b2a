"""Correspondence oracle on the worked disjunction example."""

import random
import sys
import threading
import time
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import chain, islice, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvcorr.fol as fol
import mvcorr.oracle as oracle
from conftest import boolean_algebra
from mvcorr.alba import run_alba
from mvcorr.budget import Budget
from mvcorr.errors import BudgetExceeded, MvcorrError
from mvcorr.fol import (
    BOT, CompiledFo, FoAnd, FoOr, Forall, FoVar, Pred, Rel, degree_claim, frame_property,
    free_individual_symbols, interp_for_frame, parse_fo,
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
    cells = CompiledFo(interp_for_frame(frame), degree_claim(phi)).cells
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
    assert (calls, k) == ([(P, 2)], 45)
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
        budget.charge(CompiledFo(interp_for_frame(frame), closed).cells)
        kernel = CompiledFo(interp_for_frame(frame), alpha)
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


@pytest.mark.parametrize("frames_per_batch,cells_per_batch", [
    (oracle.BATCH_FRAMES, fol.BATCH_CELLS),
    (40, 2000),  # batches of 16, 32, 40, 40, ... frames, tables split inside them
])
@pytest.mark.parametrize("label", sorted(SCANS))
def test_batches_charge_and_report_as_the_per_frame_loop(
    monkeypatch, frames_per_batch, cells_per_batch, label
):
    # caps from one frame's cells - 1 to a full pass, most inside a batch
    monkeypatch.setattr(oracle, "BATCH_FRAMES", frames_per_batch)
    monkeypatch.setattr(fol, "BATCH_CELLS", cells_per_batch)
    case, charges = SCANS[label], []
    probe = Budget(10**12)
    real_charge = probe.charge
    probe.charge = lambda amount=1: charges.append(amount) or real_charge(amount)
    want = reference(case, probe)
    assert want[0] == label.startswith("PASS")
    assert outcome(batched, case, 10**12) == (want, probe.used)
    rng = random.Random(label)
    caps = {charges[0] - 1, charges[0], probe.used - 1, probe.used}
    caps |= {rng.randrange(charges[0], probe.used) for _ in range(8)}
    for cap in sorted(caps):
        assert outcome(batched, case, cap) == outcome(reference, case, cap), cap


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


def tabulated(monkeypatch):
    """Per side (by formula), the frames its kernel runs cover, recorded
    around `oracle.CompiledFo` as the benchmark's tracer wraps it."""
    runs = Counter()

    def recording(interp, formula, *args, **kwargs):
        kernel = CompiledFo(interp, formula, *args, **kwargs)
        runs[formula] += kernel.frames
        return kernel

    monkeypatch.setattr(oracle, "CompiledFo", recording)
    return runs


ALPHA, SWAP = P.element("alpha"), P.automorphisms[1]
B4, B8 = boolean_algebra("ab"), boolean_algebra("abc")


def test_only_orbit_minima_are_tabulated(monkeypatch):
    # at gamma the alpha/beta swap joins the renamings: 4 + 189 + 4 frames per
    # side, of 634 counted; at alpha only the renamings, 5 + 325 + 4
    runs = tabulated(monkeypatch)
    phi = parse_formula("<><>p -> <>p", P)
    for a, want in ((GAMMA, 4 + 189 + 4), (ALPHA, 5 + 325 + 4)):
        runs.clear()
        report = correspondence_oracle(P, phi, a, run_alba(phi, a, P).correspondent, sizes=[1, 2],
                                       samples=4, sample_size=3, seed=1, fo_threshold=P.top)
        assert report_tuple(report) == (True, 634, 1267)
        assert sorted(runs.values()) == [want] * 2
    runs.clear()
    report = correspondence_oracle(P, phi, GAMMA, parse_fo("A y. R(x, y) =< R(y, x)", P),
                                   sizes=[1, 2])
    assert not report.passed and is_orbit_minimum(report.counterexample.frame, [SWAP])
    assert report.counterexample.frame.size == 2 and max(runs.values()) < 4 + 189


def test_the_group_fixes_thresholds_and_truth_constants(monkeypatch):
    # the swap is kept only while a, both thresholds and every constant are
    # fixed by it; the orbit minima of each size are read with that group
    groups = []
    monkeypatch.setattr(oracle, "_orbit_minima",
                        lambda n, size, group: groups.append(group) or iter([0]))
    t = parse_formula("p -> <>p", P)
    reflexive = frame_property("reflexive")
    for a, alpha, threshold, kept in [
        (GAMMA, reflexive, None, True), (P.top, reflexive, None, True),
        (P.bot, reflexive, GAMMA, True), (ALPHA, reflexive, None, False),
        (GAMMA, reflexive, ALPHA, False),
        (GAMMA, parse_fo("R(x, x) | @gamma", P), None, True),
        (GAMMA, parse_fo("R(x, x) | @alpha", P), None, False),
    ]:
        groups.clear()
        correspondence_oracle(P, t, a, alpha, sizes=[1], fo_threshold=threshold)
        assert groups == [(SWAP,) if kept else ()], (a, str(alpha), threshold)
    groups.clear()
    correspondence_oracle(P, parse_formula("p /\\ @beta -> <>p", P), GAMMA, reflexive, sizes=[1])
    assert groups == [()]
    for thresholds, kept in (((GAMMA, P.top), True), ((GAMMA, ALPHA), False)):
        groups.clear()
        fo_agree(P, reflexive, parse_fo("R(x, x) & @1", P), [1], *thresholds)
        assert groups == [(SWAP,) if kept else ()]


def test_the_group_is_dropped_past_120_images(monkeypatch):
    # paper-P's swap up to four states (4! * 2 = 48 images), not at five
    # (240); the six automorphisms of the eight-element Boolean algebra up to
    # three states (36), not at four (144)
    calls = []
    monkeypatch.setattr(oracle, "_orbit_minima",
                        lambda n, size, group: calls.append((size, len(group))) or iter([0]))
    list(oracle._frames(P, [1, 2, 3, 4, 5], 0, 3, 0, (SWAP,)))
    assert calls == [(1, 1), (2, 1), (3, 1), (4, 1), (5, 0)]
    calls.clear()
    list(oracle._frames(B8, [3, 4], 0, 3, 0, B8.automorphisms[1:]))
    assert calls == [(3, 5), (4, 0)]


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
    # eight threads start one search at once, twenty times over
    want = least_of_orbits(P, 2)
    got = [None] * 8

    def read(k):
        got[k] = list(oracle._orbit_minima(P.n, 2, (SWAP,)))

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
    runs = tabulated(monkeypatch)
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
            assert sorted(runs.values()) == [n + (n**4 + n**2) // 2 + minima] * 2


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

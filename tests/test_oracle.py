"""Correspondence oracle on the worked disjunction example."""

import random
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvcorr.fol as fol
import mvcorr.oracle as oracle
from mvcorr.alba import run_alba
from mvcorr.budget import Budget
from mvcorr.errors import BudgetExceeded, MvcorrError
from mvcorr.fol import (
    BOT, CompiledFo, FoAnd, FoOr, Forall, FoVar, Pred, Rel, degree_claim, frame_property,
    free_individual_symbols, interp_for_frame, parse_fo,
)
from mvcorr.heyting import builtin_algebra
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
    k = report.frames_checked - 5 - 1  # inside the third batch of size 2
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
    open_syms = sorted((t for t in free_individual_symbols(alpha) if t != X), key=str)

    def per_frame(frame):
        kernel = CompiledFo(interp_for_frame(frame), alpha, budget)
        return lambda w: all(
            P.le(threshold, kernel.value({X: w, **dict(zip(open_syms, combo))}))
            for combo in product(range(frame.size), repeat=len(open_syms))
        )

    return per_frame


def reference_modal(target, a, budget):
    def per_frame(frame):
        degree = []

        def at(w):
            if not degree:
                degree.extend(validity_degree(frame, target, budget))
            return P.le(a, degree[w])

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

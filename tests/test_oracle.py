"""Correspondence oracle on the worked disjunction example."""

import pytest

import mvcorr.oracle as oracle
from mvcorr.budget import Budget
from mvcorr.errors import BudgetExceeded, MvcorrError
from mvcorr.fol import (
    BOT, CompiledFo, FoVar, Pred, Rel, degree_claim, frame_property, interp_for_frame,
    parse_fo,
)
from mvcorr.heyting import builtin_algebra
from mvcorr.oracle import correspondence_oracle, fo_agree, iter_frames
from mvcorr.semantics import valid_at
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


def test_only_the_first_state_of_a_frame_charges(monkeypatch):
    charges = []

    def charging(frame, target, w, a, budget):
        before = budget.used
        out = valid_at(frame, target, w, a, budget)
        charges.append((w, budget.used - before))
        return out

    monkeypatch.setattr(oracle, "valid_at", charging)
    phi = parse_formula("p -> <>p", P)
    report = correspondence_oracle(P, phi, P.element("gamma"), Rel(X, X), sizes=[2])
    assert report.passed and len(charges) == report.states_checked == 1250
    assert all((cells > 0) == (w == 0) for w, cells in charges)


def test_refused_degree_table_is_not_kept():
    phi = parse_formula("p -> []<>p", P)
    frame = next(iter_frames(P, 2))
    cells = CompiledFo(interp_for_frame(frame), degree_claim(phi)).cells
    small = Budget(cells - 1)
    for w in (0, 1):
        with pytest.raises(BudgetExceeded):
            valid_at(frame, phi, w, P.top, small)
    budget = Budget(cells)
    valid_at(frame, phi, 0, P.top, budget)
    valid_at(frame, phi, 1, P.top, budget)
    assert budget.used == cells
    # another budget on the same frame object does not reuse the table
    other = Budget()
    valid_at(frame, phi, 1, P.top, other)
    assert other.used == cells


@pytest.mark.parametrize("text,value", [("p -> <>p", "gamma"), ("~p \\/ <>p", "1")])
def test_one_modal_call_per_state_checked(monkeypatch, text, value):
    # the benchmark's per-state seam: correspondence_oracle resolves
    # valid_at through the oracle module once per state it checks
    calls = []
    monkeypatch.setattr(oracle, "valid_at", lambda *args: calls.append(args) or valid_at(*args))
    report = correspondence_oracle(P, parse_formula(text, P), P.element(value), Rel(X, X),
                                   sizes=[1, 2])
    assert report.passed == (value == "gamma")
    assert len(calls) == report.states_checked

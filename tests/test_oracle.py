"""Correspondence oracle on the worked disjunction example."""

import pytest

from mvcorr.errors import MvcorrError
from mvcorr.fol import BOT, FoVar, Pred, Rel, frame_property, parse_fo
from mvcorr.heyting import builtin_algebra
from mvcorr.oracle import correspondence_oracle, fo_agree, iter_frames
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

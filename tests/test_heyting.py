"""Algebra core: table golden values, residuation laws, irreducibles.

Derived expectations are computed by independent brute-force oracles
(subset enumeration over the carrier) and also frozen as literals.
"""

from itertools import chain, combinations, permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mvcorr.errors import (
    InvalidAlgebra, NoBounds, NotALattice, NotDistributive, UnknownConstant,
)
from conftest import boolean_algebra
from mvcorr.heyting import BUILTIN_SPECS, builtin_algebra, load_algebra, parse_algebra_text

P = builtin_algebra("paper-P")
B2 = builtin_algebra("bool2")


def el(alg, name):
    return alg.element(name)


def nm(alg, idx):
    return alg.element_name(idx)


# -- independent oracles -----------------------------------------------------


def oracle_coimp(alg, a, b):
    """Enumerate all c with a <= b | c and take their meet."""
    cs = [c for c in range(alg.n) if alg.le(a, alg.join(b, c))]
    return alg.meet_all(cs)


def powerset(xs):
    return chain.from_iterable(combinations(xs, r) for r in range(len(xs) + 1))


def oracle_join_irreducibles(alg):
    """c is join-irreducible iff every subset joining to c contains c."""
    out = []
    for c in range(alg.n):
        if c == alg.bot:
            continue
        if all(c in s for s in powerset(range(alg.n)) if alg.join_all(s) == c):
            out.append(c)
    return tuple(out)


def oracle_meet_irreducibles(alg):
    out = []
    for c in range(alg.n):
        if c == alg.top:
            continue
        if all(c in s for s in powerset(range(alg.n)) if alg.meet_all(s) == c):
            out.append(c)
    return tuple(out)


# -- loading and goldens -----------------------------------------------------


def test_bool2_is_boolean():
    assert B2.n == 2
    zero, one = el(B2, "0"), el(B2, "1")
    assert B2.imp(one, zero) == zero
    assert B2.imp(zero, zero) == one
    assert B2.join_irreducibles == (one,)
    assert B2.meet_irreducibles == (zero,)
    assert B2.kappa[one] == zero
    assert B2.lam[zero] == one


def test_p_implication_table_matches_golden():
    # full 5x5 table, rows a, columns b, entries a -> b
    golden = {
        "0": {"0": "1", "alpha": "1", "beta": "1", "gamma": "1", "1": "1"},
        "alpha": {"0": "beta", "alpha": "1", "beta": "beta", "gamma": "1", "1": "1"},
        "beta": {"0": "alpha", "alpha": "alpha", "beta": "1", "gamma": "1", "1": "1"},
        "gamma": {"0": "0", "alpha": "alpha", "beta": "beta", "gamma": "1", "1": "1"},
        "1": {"0": "0", "alpha": "alpha", "beta": "beta", "gamma": "gamma", "1": "1"},
    }
    for a in golden:
        for b in golden[a]:
            assert nm(P, P.imp(el(P, a), el(P, b))) == golden[a][b], (a, b)


def test_p_negation_table_matches_golden():
    golden = {"0": "1", "alpha": "beta", "beta": "alpha", "gamma": "0", "1": "0"}
    for a, na in golden.items():
        assert nm(P, P.neg(el(P, a))) == na


def test_p_co_implication_derived_values():
    a, b, g, one = el(P, "alpha"), el(P, "beta"), el(P, "gamma"), el(P, "1")
    for x in range(P.n):
        assert P.coimp(x, P.bot) == x
        assert P.coimp(x, x) == P.bot
    assert P.coimp(g, a) == oracle_coimp(P, g, a) == b
    assert P.coimp(one, g) == oracle_coimp(P, one, g) == one
    for x, y in product(range(P.n), repeat=2):
        assert P.coimp(x, y) == oracle_coimp(P, x, y)


def test_p_irreducibles_against_bruteforce():
    a, b, g, one = el(P, "alpha"), el(P, "beta"), el(P, "gamma"), el(P, "1")
    assert set(P.join_irreducibles) == set(oracle_join_irreducibles(P)) == {a, b, one}
    assert set(P.meet_irreducibles) == set(oracle_meet_irreducibles(P)) == {a, b, g}
    assert P.kappa == {a: b, b: a, one: g}
    # lam is kappa's inverse; in particular lam(alpha) = beta, not alpha
    assert P.lam == {b: a, a: b, g: one}


def test_kappa_lam_are_inverse_order_isomorphisms():
    for alg in (P, B2):
        for j in alg.join_irreducibles:
            assert alg.lam[alg.kappa[j]] == j
        for m in alg.meet_irreducibles:
            assert alg.kappa[alg.lam[m]] == m
        for j1, j2 in product(alg.join_irreducibles, repeat=2):
            assert alg.le(j1, j2) == alg.le(alg.kappa[j1], alg.kappa[j2])


def test_kappa_lam_characterizations():
    for alg in (P, B2):
        for j in alg.join_irreducibles:
            for u in range(alg.n):
                assert (not alg.le(j, u)) == alg.le(u, alg.kappa[j])
        for m in alg.meet_irreducibles:
            for u in range(alg.n):
                assert (not alg.le(u, m)) == alg.le(alg.lam[m], u)


# -- algebraic laws, exhaustive ----------------------------------------------


@pytest.mark.parametrize("alg", [P, B2], ids=["paper-P", "bool2"])
def test_residuation_both_ways(alg):
    for a, b, c in product(range(alg.n), repeat=3):
        assert alg.le(alg.meet(a, b), c) == alg.le(a, alg.imp(b, c))
        assert alg.le(a, alg.join(b, c)) == alg.le(alg.coimp(a, b), c)


@pytest.mark.parametrize("alg", [P, B2], ids=["paper-P", "bool2"])
def test_implication_turns_joins_into_meets(alg):
    for b in range(alg.n):
        for s in powerset(range(alg.n)):
            assert alg.imp(alg.join_all(s), b) == alg.meet_all(alg.imp(x, b) for x in s)
            assert alg.imp(b, alg.meet_all(s)) == alg.meet_all(alg.imp(b, x) for x in s)


@pytest.mark.parametrize("alg", [P, B2], ids=["paper-P", "bool2"])
def test_identities_used_by_substitution_arguments(alg):
    for a, b, c in product(range(alg.n), repeat=3):
        lhs = alg.meet(alg.imp(a, b), c)
        rhs = alg.meet(alg.imp(alg.meet(a, c), alg.meet(b, c)), c)
        assert lhs == rhs
        assert alg.imp(alg.meet(a, c), b) == alg.imp(alg.meet(a, c), alg.meet(b, c))
        assert alg.le(c, alg.imp(b, c))
        assert alg.imp(a, alg.join(a, b)) == alg.top


@given(st.integers(0, P.n - 1), st.integers(0, P.n - 1))
def test_join_meet_are_bounds(a, b):
    j, m = P.join(a, b), P.meet(a, b)
    assert P.le(a, j) and P.le(b, j)
    assert P.le(m, a) and P.le(m, b)
    assert all(P.le(j, u) for u in range(P.n) if P.le(a, u) and P.le(b, u))


def test_every_element_is_join_of_irreducibles_below():
    for alg in (P, B2):
        for u in range(alg.n):
            assert alg.join_all(j for j in alg.join_irreducibles if alg.le(j, u)) == u
            assert alg.meet_all(m for m in alg.meet_irreducibles if alg.le(u, m)) == u


# -- error paths ---------------------------------------------------------------


def test_not_a_lattice_reports_pair():
    # two maximal elements over bottom: join of the two tops is undefined,
    # but before that the order has no global top
    with pytest.raises(NoBounds):
        load_algebra({"elements": ["0", "a", "b"], "leq": [["0", "a"], ["0", "b"]]})


def test_missing_lub_detected():
    # diamond with two tops: a,b below both c,d; no lub(a,b)
    with pytest.raises((NotALattice, NoBounds)):
        load_algebra(
            {
                "elements": ["0", "a", "b", "c", "d", "1"],
                "leq": [
                    ["0", "a"], ["0", "b"],
                    ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"],
                    ["c", "1"], ["d", "1"],
                ],
            }
        )


def test_non_distributive_diamond_rejected():
    # M3, the diamond: three incomparable atoms
    with pytest.raises(NotDistributive) as excinfo:
        load_algebra(
            {
                "elements": ["0", "x", "y", "z", "1"],
                "leq": [
                    ["0", "x"], ["0", "y"], ["0", "z"],
                    ["x", "1"], ["y", "1"], ["z", "1"],
                ],
            }
        )
    assert len(excinfo.value.witness) == 3


def test_more_elements_than_a_byte_holds_rejected():
    names = [str(i) for i in range(257)]
    with pytest.raises(InvalidAlgebra, match="at most 256"):
        load_algebra({"elements": names, "leq": [[a, b] for a, b in zip(names, names[1:])]})


@pytest.mark.parametrize("names", [[], ["z"]], ids=["empty", "one"])
def test_fewer_than_two_elements_rejected(names):
    # index 1 is top, and bottom and top must be distinct
    with pytest.raises(InvalidAlgebra, match="fewer than two elements"):
        load_algebra({"elements": names})


def test_unknown_constant():
    with pytest.raises(UnknownConstant):
        P.element("delta")


def test_aliases_and_normalization():
    assert P.element("bot") == P.bot == 0
    assert P.element("top") == P.top == 1
    assert B2.element("top") == B2.top


def test_an_algebra_listed_top_first_is_renumbered():
    # paper-P's elements listed backwards: top first, bottom last
    names = ["1", "gamma", "beta", "alpha", "0"]
    flipped = load_algebra({"elements": names, "leq": BUILTIN_SPECS["paper-P"]["leq"]})
    assert (flipped.bot, flipped.top) == (0, 1)
    assert flipped.names == ("0", "1", "gamma", "beta", "alpha")
    rename = [el(P, nm(flipped, i)) for i in range(flipped.n)]
    for a, b in product(range(P.n), repeat=2):
        assert flipped.le(a, b) == P.le(rename[a], rename[b])
        for op in ("join", "meet", "imp", "coimp"):
            assert rename[getattr(flipped, op)(a, b)] == getattr(P, op)(rename[a], rename[b])
    assert sorted(rename[j] for j in flipped.join_irreducibles) == sorted(P.join_irreducibles)
    assert sorted(rename[m] for m in flipped.meet_irreducibles) == sorted(P.meet_irreducibles)
    assert {rename[j]: rename[k] for j, k in flipped.kappa.items()} == P.kappa


def test_parse_algebra_text_roundtrip():
    text = "elements: [0, a, 1]\nleq: [[0, a], [a, 1]]\n"
    alg = parse_algebra_text(text, name="chain3")
    assert alg.n == 3
    assert nm(alg, alg.imp(alg.element("a"), alg.element("0"))) == "0"


def test_fingerprint_stable():
    assert P.fingerprint() == builtin_algebra("paper-P").fingerprint()
    assert P.fingerprint() != B2.fingerprint()


# -- automorphisms ----------------------------------------------------------------


CHAIN4 = parse_algebra_text("elements: [0, a, b, 1]\nleq: [[0, a], [a, b], [b, 1]]\n")
B4, B8 = boolean_algebra("ab"), boolean_algebra("abc")


def order_automorphisms(alg):
    """Every permutation of the elements that preserves and reflects the order."""
    return [perm for perm in permutations(range(alg.n))
            if all(alg.le(a, b) == alg.le(perm[a], perm[b])
                   for a, b in product(range(alg.n), repeat=2))]


@pytest.mark.parametrize("alg,count", [(B2, 1), (CHAIN4, 1), (P, 2), (B4, 2), (B8, 6)],
                         ids=["bool2", "chain4", "paper-P", "B4", "B8"])
def test_automorphisms_are_the_order_automorphisms(alg, count):
    found = [tuple(s) for s in alg.automorphisms]
    assert found == order_automorphisms(alg) and len(found) == count
    assert found[0] == tuple(range(alg.n))
    for s in found[1:]:
        for table in (alg.join_table, alg.meet_table, alg.imp_table, alg.coimp_table):
            assert all(s[table[a][b]] == table[s[a]][s[b]]
                       for a, b in product(range(alg.n), repeat=2))


def test_paper_p_automorphism_swaps_alpha_and_beta():
    swap = P.automorphisms[1]
    assert {nm(P, v): nm(P, swap[v]) for v in range(P.n)} == {
        "0": "0", "alpha": "beta", "beta": "alpha", "gamma": "gamma", "1": "1"}

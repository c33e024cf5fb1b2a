"""The table-based step checker against the per-valuation loop it replaced.

`reference_verify_step` below enumerates every valuation of the shared
atoms with `iter_valuations`, extends it over the private atoms and
re-evaluates every inequality at every state.  `stepcheck.verify_step`
must give the same verdict and the same `StepFailure.describe()` text:
the same frame, the same first valuation, the same message.
"""

import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generated_inductive, paper_inequalities
from mvcorr import stepcheck
from mvcorr.alba import RESERVED_CONOM, RESERVED_NOM, TraceStep, run_alba
from mvcorr.budget import Budget
from mvcorr.errors import BudgetExceeded
from mvcorr.heyting import builtin_algebra
from mvcorr.oracle import iter_frames
from mvcorr.randomgen import random_formula, random_frame
from mvcorr.semantics import atom_options, compile_eval, iter_valuations
from mvcorr.stepcheck import StepFailure, _show, _Tables, verify_step
from mvcorr.syntax import CoNom, Inequality, Nom, Var, atoms, parse_formula, parse_inequality

P = builtin_algebra("paper-P")
B2 = builtin_algebra("bool2")
NAMED_AXIOMS = ("p -> <>p", "<><>p -> <>p", "p -> []<>p", "<>p -> <><>p", "[]p -> <>p")
REFERENCE_CAP = 20_000  # valuations per system the reference may enumerate


# -- the per-valuation reference ----------------------------------------------


def _compiled(frame, ineqs):
    return [(compile_eval(i.lhs, frame), compile_eval(i.rhs, frame)) for i in ineqs]


def _holds(pairs, frame, val):
    le = frame.algebra.le
    return all(le(lf(val)[w], rf(val)[w]) for lf, rf in pairs for w in range(frame.size))


def _extension(pairs, frame, base, private, universal=False):
    if not private:
        return _holds(pairs, frame, base)
    for ext in iter_valuations(frame, private):
        if _holds(pairs, frame, {**base, **ext}) != universal:
            return not universal
    return universal


def _atoms_of(system):
    return set().union(*(atoms(i.lhs) | atoms(i.rhs) for i in system))


def reference_verify_step(step, frames):
    if step.rule == "first-approximation":
        return _reference_first_approximation(step, frames)
    before_atoms, after_atoms = _atoms_of(step.before), _atoms_of(step.after)
    eliminated = {Var(v) for v in step.eliminated}
    introduced = set(step.introduced)
    shared = (before_atoms | after_atoms) - eliminated - introduced
    private_before = sorted(before_atoms & eliminated, key=str)
    private_after = sorted(after_atoms & introduced, key=str)
    universal = step.rule == "close-uniform-variable"
    for frame in frames:
        before, after = _compiled(frame, step.before), _compiled(frame, step.after)
        for val in iter_valuations(frame, shared):
            lhs = _extension(before, frame, val, private_before, universal)
            rhs = _extension(after, frame, val, private_after)
            if lhs != rhs:
                return StepFailure(
                    step, frame,
                    f"consumed side {lhs}, produced side {rhs} under {_show(val, frame)}",
                )
    return None


def _reference_first_approximation(step, frames):
    (source,) = step.before
    conclusion = Inequality(Nom(RESERVED_NOM), CoNom(RESERVED_CONOM))
    for frame in frames:
        alg, n = frame.algebra, frame.size
        lhs_fn, rhs_fn = compile_eval(source.lhs, frame), compile_eval(source.rhs, frame)
        premises, concl = _compiled(frame, step.after), _compiled(frame, [conclusion])
        variables = sorted(atoms(source.lhs) | atoms(source.rhs), key=str)
        for w in range(n):
            local = all(
                alg.le(lhs_fn(val)[w], rhs_fn(val)[w])
                for val in iter_valuations(frame, variables)
            )
            system = True
            for val in iter_valuations(frame, variables + [CoNom(RESERVED_CONOM)]):
                for j in alg.join_irreducibles:
                    row = [alg.bot] * n
                    row[w] = j
                    candidate = {**val, Nom(RESERVED_NOM): tuple(row)}
                    if _holds(premises, frame, candidate) and not _holds(concl, frame, candidate):
                        system = False
                        break
                if not system:
                    break
            if local != system:
                return StepFailure(
                    step, frame, f"local validity {local} at state {w}, system validity {system}"
                )
    return None


def assert_same_failure(step, frames):
    got, want = verify_step(step, frames), reference_verify_step(step, frames)
    assert (got and got.describe()) == (want and want.describe()), step.describe()
    return got


def reference_cells(step, size):
    """Valuations of all the step's atoms on a frame of this size."""
    frame = random_frame(random.Random(0), P, size)
    out = 1
    for atom in _atoms_of(step.before + step.after):
        out *= len(atom_options(frame, atom))
    return out


# -- step corpora ------------------------------------------------------------------


def _unique_steps(runs):
    seen, out = set(), []
    for res in runs:
        for step in res.all_steps():
            key = (step.rule, step.before, step.after, step.eliminated, step.introduced)
            if key not in seen:
                seen.add(key)
                out.append(step)
    return out


P_STEPS = _unique_steps(
    [run_alba(parse_formula(t, P), a, P) for t in NAMED_AXIOMS for a in range(P.n)]
    + [run_alba(i, P.element("gamma"), P) for i in paper_inequalities(P) + generated_inductive(P)]
)
B2_STEPS = _unique_steps([run_alba(parse_formula(t, B2), B2.top, B2) for t in NAMED_AXIOMS])
B2_FRAMES = list(iter_frames(B2, 1)) + list(iter_frames(B2, 2))


def _mutants(steps):
    """Each step with one produced (else consumed) inequality dropped: most
    are unsound, and all keep the step's private atoms where they occur."""
    out = []
    for step in steps:
        for side in ("after", "before"):
            system = getattr(step, side)
            if len(system) > 1:
                for k in range(len(system)):
                    out.append(replace(step, **{side: system[:k] + system[k + 1:]}))
                break
    return out


P_MUTANTS = _mutants(P_STEPS)


def _step(rule, before, after, eliminated=(), introduced=()):
    return TraceStep(
        "reduce", rule, 0,
        tuple(parse_inequality(t, P) for t in before),
        tuple(parse_inequality(t, P) for t in after),
        eliminated=eliminated,
        introduced=tuple(introduced),
    )


UNSOUND = [
    _step("split-join", ["p \\/ q <= r"], ["p <= r"]),
    _step("residuate-box", ["<>p <= q"], ["p <= []q"]),
    _step("distribute-and-or", ["p /\\ q <= r"], ["p <= r"]),
    # private atoms on the consumed side, universal and existential
    _step("close-uniform-variable", ["p /\\ @gamma <= q"], ["@0 /\\ @gamma <= q"],
          eliminated=("p",)),
    _step("ackermann-left", ["p <= $n1", "#i0 <= <>p"], ["#i0 <= [] $n1"], eliminated=("p",)),
    # private atoms on the produced side
    _step("approx-imp-left", ["<>p -> q <= $m0"], ["#j1 <= q", "<>p <= $n1", "#j1 -> $n1 <= $m0"],
          introduced=[Nom("j1"), CoNom("n1")]),
]


# -- tests ----------------------------------------------------------------------------


def test_corpora_cover_every_rule_and_private_atoms():
    rules = {s.rule for s in P_STEPS}
    assert {"first-approximation", "ackermann-left", "ackermann-right",
            "approx-imp-left", "close-uniform-variable"} <= rules
    assert any(s.eliminated for s in P_STEPS) and any(s.introduced for s in P_STEPS)
    assert len(P_MUTANTS) > 50


@pytest.mark.parametrize("step", UNSOUND, ids=lambda s: s.rule)
def test_unsound_steps_fail_like_the_reference(step):
    frames = [random_frame(random.Random(seed), P, 2) for seed in range(4)]
    failure = assert_same_failure(step, frames)
    assert failure is not None


def test_every_trace_step_matches_reference():
    frames = [random_frame(random.Random(11), P, 1), random_frame(random.Random(12), P, 2)]
    for step in P_STEPS:
        assert_same_failure(step, frames)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_trace_steps_match_reference_on_random_frames(seed, size):
    rng = random.Random(seed)
    step = rng.choice([s for s in P_STEPS if reference_cells(s, size) <= REFERENCE_CAP])
    assert_same_failure(step, [random_frame(rng, P, size) for _ in range(2)])


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10**6), st.integers(1, 2))
def test_mutated_steps_match_reference_on_random_frames(seed, size):
    rng = random.Random(seed)
    rule = rng.choice(sorted({s.rule for s in P_MUTANTS}))
    step = rng.choice([s for s in P_MUTANTS if s.rule == rule])
    assert_same_failure(step, [random_frame(rng, P, size) for _ in range(3)])


def test_mutants_fail_somewhere():
    rng = random.Random(5)
    frames = [random_frame(rng, P, 2) for _ in range(2)]
    failures = [verify_step(s, frames) for s in P_MUTANTS[::4]]
    assert sum(f is not None for f in failures) >= len(failures) // 4


def test_bool2_steps_and_mutants_match_reference():
    for step in B2_STEPS + _mutants(B2_STEPS):
        assert_same_failure(step, B2_FRAMES)


def test_frames_beyond_eight_states_match_reference():
    frame = random_frame(random.Random(9), B2, 9)
    steps = run_alba(parse_formula("p -> <>p", B2), B2.top, B2).all_steps()
    assert {s.rule for s in steps} == {"first-approximation", "ackermann-right"}
    for step in steps:
        assert assert_same_failure(step, [frame]) is None


# -- bottom-up tables -------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(1, 3), st.booleans())
def test_bottom_up_codes_match_compile_eval(seed, size, reverse):
    # extended formulas: nominal i1, co-nominal m1, inverse modalities, minus
    rng = random.Random(seed)
    variables = ("p", "q") if size < 3 else ("p",)
    f = random_formula(rng, P, variables, depth=4, extended=True)
    while len(atoms(f)) < 2:
        f = random_formula(rng, P, variables, depth=4, extended=True)
    frame = random_frame(rng, P, size)
    # the axes by name, or reversed
    order = tuple(sorted(atoms(f), key=str, reverse=reverse))
    tables = _Tables([f], order)
    tables.start(frame, {a: len(atom_options(frame, a)) for a in order})
    codes, vectors = tables(f)
    fn = compile_eval(f, frame)
    # row-major over the axis order
    valuations = [dict(zip(order, combo))
                  for combo in product(*(atom_options(frame, a) for a in order))]
    assert [vectors[c] for c in codes] == [fn(val) for val in valuations]
    assert len(set(vectors)) == len(vectors)


def test_shared_subformulas_compile_once_per_frame(monkeypatch):
    compiled = Counter()

    def counting(f, frame):
        compiled[f] += 1
        return compile_eval(f, frame)

    monkeypatch.setattr(stepcheck, "compile_eval", counting)
    step = _step("split-join", ["<>p \\/ []q <= []r"], ["<>p <= []r", "[]q <= []r"])
    frames = [random_frame(random.Random(seed), P, 2) for seed in range(3)]
    assert verify_step(step, frames) is None
    # <>p, []q and []r occur in both systems, []r in all three inequalities
    want = {parse_formula(t, P): len(frames) for t in ("<>p", "[]q", "[]r")}
    assert compiled == want
    # nothing is kept from one call to the next
    verify_step(step, frames)
    assert compiled == {f: 2 * n for f, n in want.items()}
    # first-approximation: the conclusion #i0 <= $m0 shares its sides with
    # the premises
    compiled.clear()
    steps = run_alba(parse_formula("p -> <>p", P), P.top, P).all_steps()
    step = next(s for s in steps if s.rule == "first-approximation")
    assert verify_step(step, frames) is None
    assert {parse_formula("#i0", P), parse_formula("$m0", P)} <= set(compiled)
    assert set(compiled.values()) == {len(frames)}


# -- budget --------------------------------------------------------------------------


BIG = next(s for s in P_STEPS if s.rule == "split-join"
           and sum(isinstance(a, Var) for a in _atoms_of(s.before)) == 3)


def test_cap_below_the_cells_is_refused_before_tables_are_built():
    frame = random_frame(random.Random(1), P, 2)
    budget = Budget(10**9)
    assert verify_step(BIG, [frame], budget) is None
    cells = budget.used
    assert cells >= 2 * 25**3  # both systems span all three variables
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            verify_step(BIG, [frame], Budget(cells - 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert verify_step(BIG, [frame], Budget(cells)) is None


def test_three_state_check_stays_bounded():
    frame = random_frame(random.Random(2), P, 3)
    # three variables on three states: 125**3 cells per table, refused
    # by a cap of a million before any is built
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            verify_step(BIG, [frame], Budget(10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # two variables and the pinned nominal on three states fit, in bounded memory
    step = next(s for s in P_STEPS if s.rule == "approx-dia"
                and len(_atoms_of(s.before + s.after)) == 3)
    budget = Budget(10**6)
    tracemalloc.start()
    try:
        failure = verify_step(step, [frame], budget)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert failure is None
    assert 0 < budget.used <= 10**6
    assert peak < 2_000_000


def test_cells_charged_per_frame():
    frames = [random_frame(random.Random(s), P, 2) for s in range(3)]
    one, three = Budget(10**9), Budget(10**9)
    verify_step(BIG, frames[:1], one)
    verify_step(BIG, frames, three)
    assert three.used == 3 * one.used

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
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RULE_INPUTS, generated_inductive, paper_inequalities
from mvcorr import stepcheck
from mvcorr.alba import RESERVED_CONOM, RESERVED_NOM, TraceStep, run_alba
from mvcorr.budget import Budget
from mvcorr.errors import BudgetExceeded
from mvcorr.fol import BATCH_CELLS
from mvcorr.heyting import builtin_algebra, load_algebra
from mvcorr.oracle import correspondence_oracle, iter_frames, sample_frames
from mvcorr.randomgen import random_formula, random_frame
from mvcorr.semantics import Frame, atom_options, compile_eval, iter_valuations
from mvcorr.stepcheck import StepFailure, _show, _Tables, verify_step
from mvcorr.syntax import (
    CoNom, Inequality, Nom, Var, atoms, parse_formula, parse_inequality, parse_input,
)

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


def _gamma_run(text):
    return run_alba(parse_input(text, P), P.element("gamma"), P)


def test_rule_table_names_every_rule():
    recorded = {s.rule for t in RULE_INPUTS.values() for s in _gamma_run(t).all_steps()}
    assert recorded == set(RULE_INPUTS)
    assert len(RULE_INPUTS) == 23


@pytest.mark.parametrize("rule", sorted(RULE_INPUTS))
def test_every_rule_is_verified_per_step(rule):
    res = _gamma_run(RULE_INPUTS[rule])
    steps = res.all_steps()
    assert rule in {s.rule for s in steps}
    frames = sample_frames(P, 2, 8, seed=3)
    for step in steps:
        failure = verify_step(step, frames)
        assert failure is None, failure.describe()
    report = correspondence_oracle(P, res.source, res.value, res.correspondent,
                                   sizes=[1, 2], fo_threshold=P.top)
    assert report.passed, report.describe()


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
    while not atoms(f):
        f = random_formula(rng, P, variables, depth=4, extended=True)
    frame = random_frame(rng, P, size)
    # the axes by name, or reversed
    order = tuple(sorted(atoms(f), key=str, reverse=reverse))
    tables = _Tables([Inequality(f, f)], order)
    tables.build(frame, None, lambda sizes: 0)
    table = tables.tables[tables.slot[f]]
    fn = compile_eval(f, frame)
    # row-major over the axis order, then one element per state
    valuations = [dict(zip(order, combo))
                  for combo in product(*(atom_options(frame, a) for a in order))]
    assert len(table) == len(valuations) * size
    assert [tuple(table[k:k + size]) for k in range(0, len(table), size)] == [
        fn(val) for val in valuations]


def _count_builds(monkeypatch):
    """Counters of `compile_eval` calls and of the operations run per
    table, by the table's subformula or inequality."""
    compiled, built = Counter(), Counter()

    def counting(f, frame):
        compiled[f] += 1
        return compile_eval(f, frame)

    def counted(f, op):
        def run(*args):
            built[f] += 1
            return op(*args)
        return run

    def tasks(self, frame, charge):
        sizes, units, plan = planned(self, frame, charge)
        return sizes, units, [task if task[0] == stepcheck._LEAF
                              else (task[0], counted(f, task[1]), *task[2:])
                              for f, task in zip(self.nodes, plan)]

    planned = _Tables._tasks
    monkeypatch.setattr(stepcheck, "compile_eval", counting)
    monkeypatch.setattr(_Tables, "_tasks", tasks)
    return compiled, built


def _parsed(counts):
    return {parse_formula(t, P) if "<=" not in t else parse_inequality(t, P): k
            for t, k in counts.items()}


def _charge(step, frame):
    budget = Budget(10**9)
    verify_step(step, [frame], budget)
    return budget.used


def test_relation_free_tables_are_built_once_per_size(monkeypatch):
    # a table that reads no relation (an atom, a modality-free leaf, a
    # connective or inequality over such tables) is built at the call's
    # first frame of each size; one that reads the relation is built once
    # per batch, whichever inequalities share it
    compiled, built = _count_builds(monkeypatch)
    parsed = _parsed
    step = _step("split-join", ["<>p \\/ []q <= []r"], ["<>p <= []r", "[]q <= []r"])
    frames = [random_frame(random.Random(seed), P, 2) for seed in range(3)]
    frames += [random_frame(random.Random(seed), P, 1) for seed in range(2)]
    assert verify_step(step, frames) is None
    assert compiled == parsed({"p": 2, "q": 2, "r": 2})  # once per size
    # <>p, []q and []r occur in both systems, []r in all three inequalities;
    # a two-state frame's charge is above BATCH_CELLS, so each is its own
    # batch, and the two one-state frames are one
    assert built == parsed({t: 4 for t in ("<>p", "[]q", "[]r", "<>p \\/ []q",
                                           "<>p \\/ []q <= []r", "<>p <= []r", "[]q <= []r")})
    # nothing is kept from one call to the next
    verify_step(step, frames)
    assert compiled == parsed({"p": 4, "q": 4, "r": 4})
    # first-approximation: the conclusion #i0 <= $m0 shares its sides with
    # the premises; only <>p and the inequalities over it read the relation
    compiled.clear()
    built.clear()
    steps = run_alba(parse_formula("p -> <>p", P), P.top, P).all_steps()
    step = next(s for s in steps if s.rule == "first-approximation")
    assert verify_step(step, frames) is None
    assert compiled == parsed({"p": 2, "@1": 2, "#i0": 2, "$m0": 2})
    assert built == parsed({"p /\\ @1": 2, "<>p": 2, "p /\\ @1 <= <>p": 2, "#i0 <= p": 2,
                            "#i0 <= @1": 2, "<>p <= $m0": 2, "#i0 <= $m0": 2})


def test_a_small_step_builds_each_table_once_on_the_pool(monkeypatch):
    step = _step("split-join", ["<>p \\/ []p <= []p"], ["<>p <= []p", "[]p <= []p"])
    pool = sample_frames(P, 2, 8, seed=1010)
    assert 8 * _charge(step, pool[0]) <= BATCH_CELLS
    compiled, built = _count_builds(monkeypatch)
    budget = Budget(10**9)
    assert verify_step(step, pool, budget) is None
    assert compiled == _parsed({"p": 1})
    assert built == _parsed({t: 1 for t in ("<>p", "[]p", "<>p \\/ []p", "<>p \\/ []p <= []p",
                                            "<>p <= []p", "[]p <= []p")})
    assert budget.used == 8 * _charge(step, pool[0])


def test_batches_take_as_many_frames_as_fit_under_the_ceiling(monkeypatch):
    # a charge above half the ceiling leaves one frame per batch; one
    # above a third, two
    frames = [random_frame(random.Random(seed), P, 2) for seed in range(5)]
    charges = {s: _charge(s, frames[0]) for s in P_STEPS}
    for share in (2, 3):
        step = next(s for s, c in charges.items()
                    if BATCH_CELLS // share < c <= BATCH_CELLS // (share - 1)
                    and s.rule != "first-approximation")
        _, built = _count_builds(monkeypatch)
        budget = Budget(10**9)
        assert verify_step(step, frames, budget) is None
        assert budget.used == 5 * charges[step]
        tables = [f for f in built if stepcheck._reads_relation(f)]
        assert tables and {built[f] for f in tables} == {-(-5 // (share - 1))}
        monkeypatch.undo()


@cache
def _verdicts_on_a_pool():
    """Mutants whose one-frame charge lets five frames of either size share
    a batch, each with the frames of a fixed pool it holds on and fails on,
    by size."""
    pool = {size: [random_frame(random.Random(100 + k), P, size) for k in range(6)]
            for size in (1, 2)}
    out = []
    for step in P_MUTANTS:
        if (reference_cells(step, 2) <= REFERENCE_CAP
                and 5 * _charge(step, pool[2][0]) <= BATCH_CELLS):
            holds = {z: [f for f in frames if verify_step(step, [f]) is None]
                     for z, frames in pool.items()}
            fails = {z: [f for f in frames if f not in holds[z]] for z, frames in pool.items()}
            out.append((step, holds, fails))
    return out


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(1, 2),
       st.lists(st.integers(1, 4), min_size=1, max_size=4), st.data())
def test_a_failure_inside_a_batch_matches_one_frame_at_a_time(seed, first, lengths, data):
    # runs of alternating sizes, each one batch; the first failing frame
    # follows at least one frame of its run on which the mutant holds
    rng = random.Random(seed)
    sizes = [(first, 3 - first)[r % 2] for r in range(len(lengths))]
    r = data.draw(st.integers(0, len(lengths) - 1))
    step, holds, fails = rng.choice([(s, h, f) for s, h, f in _verdicts_on_a_pool()
                                     if f[sizes[r]] and all(h[z] for z in sizes[:r + 1])])
    runs = [[rng.choice(holds[z]) for _ in range(k)] for z, k in zip(sizes[:r + 1], lengths)]
    runs += [[random_frame(rng, P, z) for _ in range(k)] for z, k in zip(sizes, lengths)][r + 1:]
    at = sum(map(len, runs[:r])) + rng.randint(1, lengths[r])
    frames = [f for run in runs for f in run]
    frames.insert(at, rng.choice(fails[sizes[r]]))
    want = reference_verify_step(step, frames)
    assert want is not None and want.frame == frames[at]
    budget = Budget(10**9)
    got = verify_step(step, frames, budget)
    assert got.describe() == want.describe()
    assert budget.used == sum(_charge(step, f) for f in frames[:at + 1])


def test_atom_free_modal_leaves_are_built_per_frame():
    # []@0 and <>@1 have no atoms but read the relation: with no successors
    # the step holds, with every successor at 1 it fails for p above 0
    step = _step("split-join", ["p /\\ <>@1 <= []@0"], ["p <= @1"])
    empty = Frame(P, ("w0", "w1"), ((0, 0), (0, 0)))
    full = Frame(P, ("w0", "w1"), ((P.top,) * 2,) * 2)
    for frames in ([empty, full], [full, empty], [empty, empty, full]):
        failure = assert_same_failure(step, frames)
        assert failure is not None and failure.frame == full


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.lists(st.integers(1, 2), min_size=2, max_size=5))
def test_frames_of_mixed_sizes_in_any_order_match_reference(seed, sizes):
    rng = random.Random(seed)
    steps = [s for s in P_STEPS + P_MUTANTS if reference_cells(s, 2) <= REFERENCE_CAP]
    assert_same_failure(rng.choice(steps), [random_frame(rng, P, k) for k in sizes])


def test_chain_past_the_packed_range_matches_reference():
    # 17 * 17 > 256: every combiner reads the algebra's table cell by cell
    chain = load_algebra({"elements": [str(i) for i in range(17)],
                          "leq": [[str(i), str(i + 1)] for i in range(16)]})
    steps = _unique_steps([run_alba(parse_formula(t, chain), a, chain)
                           for t in NAMED_AXIOMS for a in (1, 8)])
    assert {"first-approximation", "ackermann-right"} <= {s.rule for s in steps}
    rng = random.Random(17)
    frames = [random_frame(rng, chain, 1) for _ in range(3)]
    mutants = _mutants(steps)
    assert mutants
    for step in steps:
        assert assert_same_failure(step, frames) is None
    assert any(assert_same_failure(step, frames) is not None for step in mutants)


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


def test_split_join_charge_matches_the_documented_rule():
    # <>p \/ []q <= []r  ~>  <>p <= []r, []q <= []r on one two-state frame of
    # paper-P: each of p, q, r takes 5**2 = 25 rows, all three are shared
    step = _step("split-join", ["<>p \\/ []q <= []r"], ["<>p <= []r", "[]q <= []r"])
    budget = Budget(10**9)
    assert verify_step(step, [random_frame(random.Random(0), P, 2)], budget) is None
    # subformula tables: p, q, r, <>p, []q, []r over one atom, the join over two
    subformulas = 6 * 25 + 25**2
    # consumed: its inequality over p, q, r, and the system over p, q, r
    consumed = 25**3 + 25**3
    # produced: two inequalities over two atoms each, two system tables
    produced = 2 * 25**2 + 2 * 25**3
    # both sides' tables over the shared atoms
    compared = 2 * 25**3
    assert budget.used == subformulas + consumed + produced + compared


def test_first_approximation_charge(monkeypatch):
    step = _gamma_run("<><>p -> <>p").branches[0].steps[0]
    assert step.rule == "first-approximation"
    frames = sample_frames(P, 2, 8, seed=3)
    budget = Budget(10**9)
    assert verify_step(step, frames, budget) is None
    assert budget.used == 32_640 == 8 * 4_080
    # a cap below one frame's cells is refused before any table is built
    monkeypatch.setattr(stepcheck, "compile_eval", None)
    budget = Budget(100)
    with pytest.raises(BudgetExceeded):
        verify_step(step, frames, budget)
    assert budget.used == 4_080


def test_cells_charged_per_frame():
    frames = [random_frame(random.Random(s), P, 2) for s in range(3)]
    one, three = Budget(10**9), Budget(10**9)
    verify_step(BIG, frames[:1], one)
    verify_step(BIG, frames, three)
    assert three.used == 3 * one.used


CAP_STEPS = [s for s in P_STEPS + P_MUTANTS + UNSOUND if reference_cells(s, 2) <= REFERENCE_CAP]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.floats(0, 1.2))
def test_a_random_cap_refuses_at_the_frame_that_passes_it(seed, fraction):
    rng = random.Random(seed)
    step = rng.choice(CAP_STEPS)
    frames = [random_frame(rng, P, rng.choice([1, 2])) for _ in range(4)]
    # per frame: its charge and its own verdict, unlimited
    charges, failures = [], []
    for frame in frames:
        budget = Budget(10**9)
        failures.append(verify_step(step, [frame], budget))
        charges.append(budget.used)
    cap = int(fraction * sum(charges))
    unlimited = Budget(10**9)
    want = verify_step(step, frames, unlimited)
    budget, running = Budget(cap), 0
    for charge, failure in zip(charges, failures):
        running += charge
        if running > cap:  # refused at this frame, before it is checked
            with pytest.raises(BudgetExceeded):
                verify_step(step, frames, budget)
            assert budget.used == running
            return
        if failure is not None:
            break
    got = verify_step(step, frames, budget)
    assert (got and got.describe()) == (want and want.describe())
    assert budget.used == running == unlimited.used

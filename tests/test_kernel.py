"""The table kernel against the reference evaluators it replaced.

`fol.CompiledFo` is checked against `fol.fo_eval`, and `semantics.valid_at`
(the kernel on the second-order translation) against brute force over
`compile_eval` and `iter_valuations`; the validity degree against the same
brute force, and `valid_at` against the kernel on `fol.validity_claim`
with x pinned; the oracle's first counterexample is checked against a
reference loop built from the same two references.  A batch's table is
checked frame by frame against each frame's own table.  The kernel's table
primitives (`repeats`/`broadcast`, `combiner`, `fold`) are checked against
index maps, the algebra's tables and a reference fold.
"""

import random
import tracemalloc
from functools import reduce
from itertools import product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcorr.alba import run_alba
from mvcorr.budget import Budget
from mvcorr.errors import BudgetExceeded
from mvcorr import fol
from mvcorr.fol import (
    BOT,
    CompiledFo,
    Eq,
    Exists,
    FoAnd,
    FoImplies,
    FoInterp,
    ForallPred,
    FoMinus,
    FoVar,
    Pred,
    Preceq,
    Rel,
    broadcast,
    combiner,
    fo_eval,
    fold,
    free_individual_symbols,
    free_pred_names,
    interp_for_frame,
    repeats,
    validity_claim,
)
from mvcorr.heyting import builtin_algebra, load_algebra
from mvcorr.oracle import correspondence_oracle, iter_frames
from mvcorr.randomgen import random_formula, random_fo, random_frame
from mvcorr.semantics import Frame, compile_eval, iter_valuations, valid_at, validity_degree
from mvcorr.syntax import Implies, Inequality, atoms, parse_formula

P = builtin_algebra("paper-P")
X = FoVar("x")
Y = FoVar("y")
NAMED_AXIOMS = ("p -> <>p", "<><>p -> <>p", "p -> []<>p", "<>p -> <><>p", "[]p -> <>p")
CORRESPONDENTS = {
    (text, a): run_alba(parse_formula(text, P), a, P).correspondent
    for text in NAMED_AXIOMS
    for a in range(P.n)
}


def assert_kernel_matches_fo_eval(frame, f):
    """Every assignment of f's free symbols: states, and all predicate rows."""
    interp = interp_for_frame(frame)
    kernel = CompiledFo(interp, f)
    terms = sorted(free_individual_symbols(f), key=str)
    preds = sorted(free_pred_names(f))
    rows = list(product(range(frame.algebra.n), repeat=frame.size))
    for states in product(range(frame.size), repeat=len(terms)):
        for assigned in product(rows, repeat=len(preds)):
            env = {**dict(zip(terms, states)), **dict(zip(preds, assigned))}
            assert kernel.value(env) == fo_eval(interp, f, env), (f, env)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6))
def test_kernel_matches_fo_eval_on_random_formulas(seed):
    # shadowed variable names (x and y are rebound) and free predicates
    rng = random.Random(seed)
    size = rng.choice([1, 2, 3])
    preds = ("p", "q") if size < 3 else ("p",)
    f = random_fo(rng, P, preds=preds, depth=rng.choice([2, 3, 4]))
    assert_kernel_matches_fo_eval(random_frame(rng, P, size), f)


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_kernel_matches_fo_eval_past_the_packed_range(seed):
    # 17 * 17 > 256: every operation reads the algebra's table cell by cell
    chain = load_algebra({"elements": [str(i) for i in range(17)],
                          "leq": [[str(i), str(i + 1)] for i in range(16)]})
    rng = random.Random(seed)
    size = rng.choice([1, 2])
    g, h = (random_fo(rng, chain, preds=("p",), depth=rng.choice([1, 2, 3])) for _ in "gh")
    f = rng.choice([g, FoMinus(g, h), Preceq(g, h), ForallPred("p", g)])
    assert_kernel_matches_fo_eval(random_frame(rng, chain, size), f)


@pytest.mark.parametrize("key", sorted(CORRESPONDENTS), ids=str)
@settings(deadline=None, max_examples=4)
@given(st.integers(0, 10**6))
def test_kernel_matches_fo_eval_on_correspondents(key, seed):
    # truth-value quantifiers, =< and nominal constants
    rng = random.Random(seed)
    frame = random_frame(rng, P, rng.choice([1, 2, 3]))
    assert_kernel_matches_fo_eval(frame, CORRESPONDENTS[key])


# -- batches: frames as the outermost axis ------------------------------------------


def assert_batch_matches_single_frames(frames, f):
    """Each frame's slice of the batched root table equals its own table."""
    batch = CompiledFo(interp_for_frame(frames[0]), f, following=frames[1:])
    assert batch.frames == min(len(frames), max(1, fol.BATCH_CELLS // batch.cells))
    span = len(batch.table) // batch.frames
    assert span * batch.frames == len(batch.table)
    for k, frame in enumerate(frames[:batch.frames]):
        single = CompiledFo(interp_for_frame(frame), f)
        assert (single.frames, single.cells) == (1, batch.cells)
        assert batch.table[k * span:(k + 1) * span] == single.table, (f, k)
        env = {sym: 0 for sym, _, base in single.root if not base}
        if len(env) == len(single.root):
            assert batch.value(env, k) == single.value(env)


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10**6))
def test_batch_matches_single_frames(seed):
    # 1-8 frames of one size from 1 to 3, random formulas or correspondents
    rng = random.Random(seed)
    size = rng.choice([1, 2, 3])
    frames = [random_frame(rng, P, size) for _ in range(rng.randint(1, 8))]
    if rng.random() < 0.5:
        f = CORRESPONDENTS[rng.choice(sorted(CORRESPONDENTS))]
    else:
        preds = ("p", "q") if size < 3 else ("p",)
        f = random_fo(rng, P, preds=preds, depth=rng.choice([2, 3, 4]))
    assert_batch_matches_single_frames(frames, f)


@pytest.mark.parametrize("size", [2, 5, 17])
@pytest.mark.parametrize("f", [
    BOT,  # a constant root
    FoAnd(Eq(X, Y), Rel(X, Y)),  # a constant operand on a relation's own axes
    FoImplies(Rel(Y, X), Exists(Y, FoAnd(Rel(X, Y), Eq(X, Y)))),
], ids=str)
def test_batch_matches_single_frames_on_edge_cases(size, f):
    # 17 * 17 > 256: relation positions no longer fit a byte and are
    # gathered one by one instead of by translate
    rng = random.Random(size)
    assert_batch_matches_single_frames([random_frame(rng, P, size) for _ in range(3)], f)


def test_batch_stops_at_the_cell_ceiling(monkeypatch):
    f = CORRESPONDENTS[("<><>p -> <>p", P.element("gamma"))]
    rng = random.Random(5)
    frames = [random_frame(rng, P, 2) for _ in range(8)]
    cells = CompiledFo(interp_for_frame(frames[0]), f).cells
    for ceiling, covered in [(3 * cells + 1, 3), (cells - 1, 1), (10**9, 8)]:
        monkeypatch.setattr(fol, "BATCH_CELLS", ceiling)
        assert CompiledFo(interp_for_frame(frames[0]), f, following=frames[1:]).frames == covered
        assert_batch_matches_single_frames(frames, f)


def test_batch_covers_what_the_budget_can_pay_for():
    f = CORRESPONDENTS[("p -> <>p", P.element("gamma"))]
    rng = random.Random(6)
    frames = [random_frame(rng, P, 2) for _ in range(8)]
    cells = CompiledFo(interp_for_frame(frames[0]), f).cells
    for cap, covered in [(cells, 1), (3 * cells - 1, 2), (3 * cells, 3), (100 * cells, 8)]:
        budget = Budget(cap)
        kernel = CompiledFo(interp_for_frame(frames[0]), f, budget, frames[1:])
        assert (kernel.frames, budget.used) == (covered, cells)


def brute_valid_at(frame, target, w, a):
    """Local a-validity by enumerating every valuation (the reference)."""
    if isinstance(target, Inequality):
        lhs, rhs = compile_eval(target.lhs, frame), compile_eval(target.rhs, frame)
        used = atoms(target.lhs) | atoms(target.rhs)
        return all(
            P.le(P.meet(a, lhs(val)[w]), rhs(val)[w])
            for val in iter_valuations(frame, used)
        )
    fn = compile_eval(target, frame)
    return all(P.le(a, fn(val)[w]) for val in iter_valuations(frame, atoms(target)))


@settings(deadline=None, max_examples=80)
@given(st.integers(0, 10**6))
def test_valid_at_matches_brute_force(seed):
    # nominals, co-nominals, co-implication, inverse modalities, constants
    rng = random.Random(seed)
    size = rng.choice([1, 2])
    frame = random_frame(rng, P, size)
    depth = rng.choice([1, 2, 3])
    target = random_formula(rng, P, ("p", "q"), depth, extended=True)
    if rng.random() < 0.5:
        target = Inequality(target, random_formula(rng, P, ("p", "q"), depth, extended=True))
    for a in range(P.n):
        for w in range(size):
            assert valid_at(frame, target, w, a) == brute_valid_at(frame, target, w, a)


def random_target(rng, size):
    """A formula or inequality with i1, m1, inverse modalities and `-`."""
    variables = ("p", "q") if size < 3 else ("p",)
    depth = rng.choice([1, 2, 3])
    target = random_formula(rng, P, variables, depth, extended=True)
    if rng.random() < 0.5:
        target = Inequality(target, random_formula(rng, P, variables, depth, extended=True))
    return target


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_validity_degree_is_the_meet_over_valuations(seed, size):
    rng = random.Random(seed)
    frame = random_frame(rng, P, size)
    target = random_target(rng, size)
    f = Implies(target.lhs, target.rhs) if isinstance(target, Inequality) else target
    fn = compile_eval(f, frame)
    values = [fn(val) for val in iter_valuations(frame, atoms(f))]
    want = tuple(P.meet_all(v[w] for v in values) for w in range(size))
    assert validity_degree(frame, target) == want


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_valid_at_matches_the_pinned_validity_claim(seed, size):
    rng = random.Random(seed)
    frame = random_frame(rng, P, size)
    target = random_target(rng, size)
    for a in range(P.n):
        claim = validity_claim(target, a, P)
        for w in range(size):
            pinned = CompiledFo(FoInterp(frame, {}, {X: w}, {}), claim).value()
            assert valid_at(frame, target, w, a) == (pinned == P.top)


def reference_first_counterexample(target, a, alpha, sizes):
    """(frame number, state) of the first disagreement, by the references."""
    count = 0
    for size in sizes:
        for frame in iter_frames(P, size):
            count += 1
            interp = interp_for_frame(frame)
            for w in range(size):
                fo = P.le(P.top, fo_eval(interp, alpha, {X: w}))
                if brute_valid_at(frame, target, w, a) != fo:
                    return count, w
    return None


@pytest.mark.parametrize(
    "text,at,checked_at",
    [
        ("p -> <>p", "gamma", "1"),
        ("p -> <>p", "1", "alpha"),
        ("[]p -> <>p", "alpha", "beta"),
        ("p -> []<>p", "beta", "gamma"),
        ("<>p -> <><>p", "gamma", "0"),
    ],
)
def test_first_counterexample_matches_reference_loop(text, at, checked_at):
    # the correspondent computed at one value, checked at another
    a, b = P.element(at), P.element(checked_at)
    res = run_alba(parse_formula(text, P), a, P)
    report = correspondence_oracle(
        P, res.source, b, res.correspondent, sizes=[1, 2], fo_threshold=P.top
    )
    assert not report.passed
    ce = report.counterexample
    want = reference_first_counterexample(res.source, b, res.correspondent, [1, 2])
    assert (report.frames_checked, ce.state) == want


# -- budget: one unit per table cell, charged before any table is built ----------


def test_budget_charges_plan_cells_up_front():
    frame = random_frame(random.Random(4), P, 2)
    alpha = CORRESPONDENTS[("<><>p -> <>p", P.element("gamma"))]
    cells = CompiledFo(interp_for_frame(frame), alpha).cells
    with pytest.raises(BudgetExceeded):
        CompiledFo(interp_for_frame(frame), alpha, Budget(cells - 1))
    budget = Budget(cells)
    CompiledFo(interp_for_frame(frame), alpha, budget)
    assert budget.used == cells


def test_budget_refusal_allocates_nothing():
    # two predicate quantifiers over 7 states: 5^14 cells at the matrix
    size = 7
    frame = Frame(P, tuple(f"w{i}" for i in range(size)),
                  tuple((P.bot,) * size for _ in range(size)))
    f = ForallPred("p", ForallPred("q", Preceq(Pred("p", X), Pred("q", X))))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded):
            CompiledFo(interp_for_frame(frame), f, Budget(10**7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


# -- table primitives ---------------------------------------------------------------


@st.composite
def axes_and_table(draw):
    """Axes with sizes 1-125 (at most 20 000 cells), a subsequence of them,
    and a table over the subsequence."""
    sizes, cells = {}, 1
    for a in range(draw(st.integers(1, 5))):
        sizes[a] = draw(st.integers(1, min(125, 20_000 // cells)))
        cells *= sizes[a]
    axes = tuple(sizes)
    own = tuple(a for a in axes if draw(st.booleans()))
    table = draw(st.binary(min_size=prod(sizes[a] for a in own),
                           max_size=prod(sizes[a] for a in own)))
    return axes, own, sizes, table


def index_map(parent: tuple, child: tuple, sizes: dict) -> list[int]:
    """Position in the child's table of each cell of the parent's table."""
    strides, stride = {}, 1
    for a in reversed(child):
        strides[a] = stride
        stride *= sizes[a]
    out = [0]
    for a in parent:
        out = [base + k * strides.get(a, 0) for base in out for k in range(sizes[a])]
    return out


@settings(deadline=None, max_examples=300)
@given(axes_and_table())
def test_broadcast_matches_index_map(case):
    axes, own, sizes, table = case
    want = bytes(table[i] for i in index_map(axes, own, sizes))
    assert broadcast(table, repeats(own, axes, sizes)) == want


ALGEBRAS = {"bool2": builtin_algebra("bool2"), "paper-P": P}


def operation_tables(alg):
    leq = [[alg.top if le else alg.bot for le in row] for row in alg.leq]
    return {"join": alg.join_table, "meet": alg.meet_table, "imp": alg.imp_table,
            "coimp": alg.coimp_table, "=<": leq}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(deadline=None, max_examples=40)
@given(st.data())
def test_packed_combine_matches_the_algebra_tables(name, data):
    alg = ALGEBRAS[name]
    cells = data.draw(st.integers(1, 600))
    element = st.integers(0, alg.n - 1)
    lhs = bytes(data.draw(st.lists(element, min_size=cells, max_size=cells)))
    rhs = bytes(data.draw(st.lists(element, min_size=cells, max_size=cells)))
    for op in operation_tables(alg).values():
        assert combiner(alg.n, op)(lhs, rhs) == bytes(op[x][y] for x, y in zip(lhs, rhs))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
@settings(deadline=None, max_examples=100)
@given(st.data(), st.integers(1, 12), st.integers(1, 12), st.booleans())
def test_fold_matches_a_reference_fold(name, data, m, count, forall):
    # count >= m takes the strided branch, count < m the distinct-value one
    alg = ALGEBRAS[name]
    op, unit = (alg.meet_table, alg.top) if forall else (alg.join_table, alg.bot)
    # cells from a drawn subset of the elements, so that folds often stay
    # clear of bottom (meets) and top (joins)
    elements = data.draw(st.lists(st.integers(0, alg.n - 1), min_size=1, unique=True))
    table = bytes(data.draw(st.lists(st.sampled_from(elements),
                                     min_size=m * count, max_size=m * count)))
    want = bytes(reduce(lambda acc, v: op[acc][v], table[i:i + m], unit)
                 for i in range(0, len(table), m))
    assert fold(table, m, combiner(alg.n, op), op, unit) == want

"""The table kernel against the reference evaluators it replaced.

`fol.CompiledFo` is checked against `fol.fo_eval`, and `semantics.valid_at`
(the kernel on the second-order translation) against brute force over
`compile_eval` and `iter_valuations`; the validity degree against the same
brute force, and `valid_at` against the kernel on `fol.validity_claim`
at each state; the oracle's first counterexample is checked against a
reference loop built from the same two references.  A batch's table is
checked frame by frame against each frame's own table, and values against
those on the frame with its states renamed, which the oracle's orbit
minima rely on.  The kernel's table
primitives (`repeats`/`broadcast`, `combiner`, `fold`) are checked against
index maps, the algebra's tables and a reference fold.
"""

import random
import tracemalloc
from functools import reduce
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvcorr.alba import run_alba
from mvcorr.budget import Budget, scan
from mvcorr.errors import BudgetExceeded, UnboundSymbol
from mvcorr import budget as budgets, fol, oracle
from mvcorr.fol import (
    BOT,
    CoNomTV,
    CompiledFo,
    Eq,
    Exists,
    FoAnd,
    FoImplies,
    Forall,
    FoMinus,
    FoOr,
    FoVar,
    NomTV,
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
    interp_for_model,
    repeats,
    validity_claim,
)
from mvcorr.heyting import builtin_algebra, load_algebra
from mvcorr.oracle import correspondence_oracle, fo_agree, iter_frames
from mvcorr.randomgen import random_formula, random_fo, random_frame
from mvcorr.semantics import Frame, Model, compile_eval, iter_valuations, valid_at, validity_degree
from mvcorr.syntax import Implies, Inequality, Var, atoms, parse_formula, parse_inequality

P = builtin_algebra("paper-P")
X = FoVar("x")
Y = FoVar("y")
NAMED_AXIOMS = ("p -> <>p", "<><>p -> <>p", "p -> []<>p", "<>p -> <><>p", "[]p -> <>p")
CORRESPONDENTS = {
    (text, a): run_alba(parse_formula(text, P), a, P).correspondent
    for text in NAMED_AXIOMS
    for a in range(P.n)
}


def single_frame(frame, f):
    """The kernel on one frame's cells."""
    return CompiledFo(fol._plan(frame.algebra, f, frame.size), frame.cells)


def assert_kernel_matches_fo_eval(frame, f):
    """Every assignment of f's free symbols: states, and all predicate rows."""
    interp = interp_for_frame(frame)
    kernel = single_frame(frame, f)
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


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6))
def test_kernel_matches_fo_eval_on_every_binder_sort(seed):
    # a predicate name, a nominal's and a co-nominal's truth value, each
    # bound by A or E, in random order, over a body that mentions it
    rng = random.Random(seed)
    f = bind_every_sort(rng, random_fo(rng, P, preds=("p", "q"), depth=rng.choice([1, 2, 3])))
    assert_kernel_matches_fo_eval(random_frame(rng, P, rng.choice([1, 2])), f)


def bind_every_sort(rng, f):
    """f under A or E over the predicate p, a nominal's and a co-nominal's
    truth value, in random order, each over a body that mentions it."""
    for var in rng.sample(["p", NomTV("i1"), CoNomTV("m1")], 3):
        operands = [f, Pred(var, X) if isinstance(var, str) else var]
        rng.shuffle(operands)
        op = rng.choice([FoAnd, FoOr, FoImplies, FoMinus, Preceq])
        f = rng.choice([Forall, Exists])(var, op(*operands))
    return f


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10**6))
def test_kernel_matches_fo_eval_past_the_packed_range(seed):
    # 17 * 17 > 256: every operation reads the algebra's table cell by cell
    chain = load_algebra({"elements": [str(i) for i in range(17)],
                          "leq": [[str(i), str(i + 1)] for i in range(16)]})
    rng = random.Random(seed)
    size = rng.choice([1, 2])
    g, h = (random_fo(rng, chain, preds=("p",), depth=rng.choice([1, 2, 3])) for _ in "gh")
    f = rng.choice([g, FoMinus(g, h), Preceq(g, h), Forall("p", g)])
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


def flat(frames):
    """The frames' relations as the kernel reads them: one buffer, frame-major."""
    return b"".join(frame.cells for frame in frames)


def assert_batch_matches_single_frames(frames, f):
    """A batch over the frames' flat cells covers every frame it is handed
    and has, frame by frame, the table of each frame's own kernel."""
    batch = CompiledFo(fol._plan(P, f, frames[0].size), flat(frames))
    assert batch.frames == len(frames)
    span = len(batch.table) // batch.frames
    assert span * batch.frames == len(batch.table)
    singles = [single_frame(frame, f) for frame in frames]
    assert batch.table == b"".join(single.table for single in singles), f
    for k, single in enumerate(singles):
        assert (single.frames, single.span) == (1, span)
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
    # 17 * 17 > 256: relation positions no longer fit a byte, which the
    # strided gathers do not need
    rng = random.Random(size)
    assert_batch_matches_single_frames([random_frame(rng, P, size) for _ in range(3)], f)


@pytest.mark.parametrize("size,count", [(1, 6), (2, 6), (3, 6), (17, 2)])
@pytest.mark.parametrize("leaf", [Rel(X, Y), Rel(Y, X), Rel(X, X)], ids=str)
def test_batched_relation_leaves_match_fo_eval(size, count, leaf):
    # R(x, y) reads the buffer as it is, R(y, x) and R(x, x) by strided
    # gathers; 17 states put positions past one byte
    rng = random.Random(size)
    frames = [random_frame(rng, P, size) for _ in range(count)]
    batch = CompiledFo(fol._plan(P, leaf, size), flat(frames))
    assert batch.frames == count
    for k, frame in enumerate(frames):
        interp = interp_for_frame(frame)
        for x, y in product(range(size), repeat=2):
            env = {X: x, Y: y}
            assert batch.value(env, k) == fo_eval(interp, leaf, env), (k, env)


def scanned(frames, f, builds, budget):
    """The frames of each kernel run `budget.scan` makes over the frames,
    each checked against the frames' own tables, up to a refusal."""
    runs = []

    def verdicts(i, k):
        assert_batch_matches_single_frames(frames[i:i + k], f)
        runs.append(k)
        return bytes(k), bytes(k)

    try:
        assert scan(range(len(frames)), len(frames), builds, budget, verdicts) == (
            len(frames), None)
    except BudgetExceeded:
        pass
    return runs


def test_batch_stops_at_the_cell_ceiling(monkeypatch):
    # the widest build sets the ceiling, whichever side it is
    f = CORRESPONDENTS[("<><>p -> <>p", P.element("gamma"))]
    rng = random.Random(5)
    frames = [random_frame(rng, P, 2) for _ in range(8)]
    cells = fol._plan(P, f, 2).cells
    for ceiling, runs in [(3 * cells + 1, [3, 3, 2]), (cells - 1, [1] * 8), (10**9, [8])]:
        monkeypatch.setattr(budgets, "BATCH_CELLS", ceiling)
        for builds in ([cells], [cells, 1], [1, cells]):
            assert scanned(frames, f, builds, Budget(10**9)) == runs


def test_batch_covers_what_the_budget_can_pay_for():
    # the first frame is charged, the batch is cut to what is left, and the
    # scan refuses at the frame the per-frame loop refuses at
    f = CORRESPONDENTS[("p -> <>p", P.element("gamma"))]
    rng = random.Random(6)
    frames = [random_frame(rng, P, 2) for _ in range(8)]
    cells = fol._plan(P, f, 2).cells
    for cap, runs in [(cells, [1]), (3 * cells - 1, [2]), (3 * cells, [3]),
                      (5 * cells, [5]), (100 * cells, [8])]:
        budget = Budget(cap)
        assert scanned(frames, f, [cells], budget) == runs
        assert budget.used == min(cap // cells + 1, 8) * cells


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


def test_frame_validity_examples_match_brute_force():
    ineqs = [
        parse_inequality("p <= <>p", P),
        parse_inequality("[]p <= p", P),
        parse_inequality("<>(p \\/ q) <= <>p \\/ <>q", P),
        parse_inequality("[]p /\\ []q <= [](p /\\ q)", P),
        parse_inequality("@gamma <= <>@1", P),
    ]
    for loop in (P.element("gamma"), P.bot, P.top):
        frame = Frame(P, ("w",), ((loop,),))
        for ineq in ineqs:
            assert valid_at(frame, ineq, 0, P.top) == brute_valid_at(frame, ineq, 0, P.top), str(ineq)


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
            claimed = single_frame(frame, claim).value({X: w})
            assert valid_at(frame, target, w, a) == (claimed == P.top)


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


def renamed(frame, perm):
    """The frame with each state w renamed perm[w]."""
    rel = [[0] * frame.size for _ in range(frame.size)]
    for i, j in product(range(frame.size), repeat=2):
        rel[perm[i]][perm[j]] = frame.rel[i][j]
    return Frame(frame.algebra, frame.states, tuple(map(tuple, rel)))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(2, 3))
def test_values_are_invariant_under_renaming_the_states(seed, size):
    # what the oracle's orbit minima rest on: a candidate with binders of
    # every sort, or a target's degree claim, has at the renamed states of
    # the renamed frame the values it has at the states of the frame
    rng = random.Random(seed)
    frame = random_frame(rng, P, size)
    if rng.random() < 0.5:
        f = fol.degree_claim(random_target(rng, size))
    else:
        f = bind_every_sort(rng, random_fo(rng, P, preds=("p",), depth=rng.choice([1, 2, 3])))
    terms = sorted(free_individual_symbols(f), key=str)
    before = single_frame(frame, f)
    for perm in permutations(range(size)):
        after = single_frame(renamed(frame, perm), f)
        for states in product(range(size), repeat=len(terms)):
            moved = [perm[w] for w in states]
            assert after.value(dict(zip(terms, moved))) == before.value(dict(zip(terms, states)))


GAMMA, ALPHA = P.element("gamma"), P.element("alpha")
SWAP = P.automorphisms[1]  # alpha and beta exchanged


def swapped(frame):
    """The frame with alpha and beta exchanged in every cell."""
    return Frame(P, frame.states, tuple(tuple(SWAP[v] for v in row) for row in frame.rel))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_values_commute_with_the_swap_that_fixes_the_constants(seed, size):
    # what the oracle's larger orbit group rests on: a candidate with binders
    # of every sort, or a target's degree claim, whose truth constants the
    # alpha/beta swap fixes, takes on the swapped frame the swapped values
    rng = random.Random(seed)
    frame = random_frame(rng, P, size)
    while True:
        if rng.random() < 0.5:
            f = fol.degree_claim(random_target(rng, size))
        else:
            f = bind_every_sort(rng, random_fo(rng, P, preds=("p",),
                                               depth=rng.choice([1, 2, 3])))
        if all(SWAP[c] == c for c in fol.truth_constants(f)):
            break
    terms = sorted(free_individual_symbols(f), key=str)
    before = single_frame(frame, f)
    after = single_frame(swapped(frame), f)
    for states in product(range(size), repeat=len(terms)):
        env = dict(zip(terms, states))
        assert after.value(env) == SWAP[before.value(env)]


def test_a_constant_the_swap_moves_leaves_it_out_of_the_group():
    # the control: @alpha keeps its value on the swapped frame instead of
    # taking the swapped one, so the oracle's group drops the swap once
    # @alpha occurs; a threshold the swap moves keeps it, read at its image
    frame = Frame(P, ("w",), ((ALPHA,),))
    with_alpha = FoOr(Rel(X, X), fol.TruthConst("alpha", ALPHA))
    assert single_frame(swapped(frame), with_alpha).value({X: 0}) == P.join(
        SWAP[ALPHA], ALPHA) != SWAP[single_frame(frame, with_alpha).value({X: 0})]
    for t in range(P.n):
        assert (P.le(t, single_frame(swapped(frame), Rel(X, X)).value({X: 0}))
                == P.le(SWAP.index(t), single_frame(frame, Rel(X, X)).value({X: 0})))

    def group(*sides):
        return oracle._symmetries(P, *(oracle._Truth(P, f, t) for f, t in sides))

    assert group((Rel(X, X), GAMMA), (fol.degree_claim(parse_formula("p -> <>p", P)), P.top)) \
        == (SWAP,)
    assert group((with_alpha, GAMMA)) == ()
    assert group((Rel(X, X), ALPHA)) == (SWAP,)
    assert group((Rel(X, X), GAMMA), (Rel(X, X), ALPHA)) == (SWAP,)
    assert group((Rel(X, X), GAMMA), (fol.degree_claim(parse_formula("p /\\ @beta -> <>p", P)),
                                      GAMMA)) == ()


# -- budget: one unit per table cell, charged before any table is built ----------


def test_kernel_reads_only_the_frame_of_its_interpretation():
    # the model fixes p, but the kernel leaves it free
    frame = Frame(P, ("w", "v"), ((P.top, P.bot), (P.bot, P.top)))
    interp = interp_for_model(Model(frame, {Var("p"): (P.top, P.bot)}))
    f = Forall(Y, FoImplies(Rel(X, Y), Pred("p", Y)))
    kernel = single_frame(interp.frame, f)
    with pytest.raises(UnboundSymbol):
        kernel.value({X: 0})
    assert kernel.value({X: 0, "p": interp.preds["p"]}) == fo_eval(interp, f, {X: 0}) == P.top


def test_budget_charges_plan_cells_up_front(monkeypatch):
    # the kernel charges nothing: `validity_degree` charges its plan's cells,
    # and the oracle a frame's two sides, before either builds a table
    frame = random_frame(random.Random(4), P, 2)
    target = parse_formula("<><>p -> <>p", P)
    alpha = CORRESPONDENTS[("<><>p -> <>p", P.element("gamma"))]
    cells = fol._plan(P, fol.degree_claim(target), 2).cells
    built = []
    monkeypatch.setattr(fol, "CompiledFo", lambda *args: built.append(args) or CompiledFo(*args))
    monkeypatch.setattr(oracle, "CompiledFo", fol.CompiledFo)
    with pytest.raises(BudgetExceeded):
        validity_degree(frame, target, Budget(cells - 1))
    assert built == []
    budget = Budget(cells)
    validity_degree(frame, target, budget)
    assert budget.used == cells and len(built) == 1
    first = fol._plan(P, alpha, 1).cells + fol._plan(P, fol.degree_claim(target), 1).cells
    budget = Budget(first - 1)
    with pytest.raises(BudgetExceeded):
        correspondence_oracle(P, target, P.element("gamma"), alpha, sizes=[1],
                              fo_threshold=P.top, budget=budget)
    assert (len(built), budget.used) == (1, first)


def test_budget_refusal_allocates_nothing():
    # two predicate quantifiers over 7 states: 5^14 cells at the matrix
    size = 7
    frame = Frame(P, tuple(f"w{i}" for i in range(size)),
                  tuple((P.bot,) * size for _ in range(size)))
    f = Forall("p", Forall("q", Preceq(Pred("p", X), Pred("q", X))))
    # and a degree claim over two predicates at the same size
    target = parse_formula("p /\\ q -> <>p", P)
    for refused in (lambda: fo_agree(P, f, f, [size], P.top, P.top, budget=Budget(10**7)),
                    lambda: valid_at(frame, target, 0, P.top, Budget(10**7))):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                refused()
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

"""Seeded job streams of the mvcorr benchmark, with known-answer checks.

A workload turns the benchmark seed into one pass: a fixed list of jobs in a
seeded order, plus the seeded frames the jobs are checked on.  The program
sees only these generated inputs.  Every pass of a workload has the same
composition whatever the seed, so run-to-run spread comes from the machine
and the seeded frames, not from which expensive jobs happened to be drawn.

The jobs call into mvcorr through module attributes (`oracle.
correspondence_oracle`, `stepcheck.verify_step`, ...) so that a traced run
sees them through the wrappers of `tracing.Tracer`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field, replace
from itertools import product
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

from mvcorr import alba, fol, heyting, oracle, semantics, stepcheck, syntax, trees
from mvcorr.budget import Budget
from mvcorr.randomgen import random_inequality

ALGEBRA = "paper-P"
NAMED_AXIOMS = {
    "reflexive": "p -> <>p",
    "transitive": "<><>p -> <>p",
    "symmetric": "p -> []<>p",
    "dense": "<>p -> <><>p",
    "serial": "[]p -> <>p",
}
# the inequalities worked in the paper, plus the classical T and 4 axioms
PAPER_INEQUALITIES = (
    "p <= <>p",
    "<><>p <= <>p",
    "p <= []<>p",
    "<>p <= <><>p",
    "[]p <= <>p",
    "[]p <= [][]p",
    "[]p <= p",
    "(p -> @0) -> []q <= <>[]q \\/ []p",
    "@1 <= [](@alpha /\\ p -> q) /\\ []p -> <>[]q",
)
ORACLE_SIZES = (1, 2)
THREE_STATE_FRAMES = 4  # the seeded handful checked after all frames to size 2
JOB_BUDGET = 10**9
# ALBA correspondents cost 1-15 s each to verify, so verify-named checks
# them at gamma only (the value of the paper's worked example) and the
# named properties at all five values
ALBA_VALUES = ("gamma",)
# each named-property job (0.1-0.5 s) is drawn this many times into a pass,
# at seeded places: the median verdict is one of them, and a single timing
# of a short job moves with the machine's speed of that moment
PROPERTY_DRAWS = 3
# every trace step is replayed on the first frames of the acceptance suite's
# step pool, each with its two states in a seeded order: per-step costs
# vary by tens of percent between random frames, and a random pool would
# make the step quantiles depend more on the seed than on the program
STEP_POOL_FRAMES = 8
STEP_POOL_SEED = 1010
CORPUS_SEED = 2024  # the repository's seeded inductive regression corpus
CORPUS_SIZE = 12

EXPECTED_FILE = Path(__file__).with_name("expected.json")


@dataclass
class Job:
    key: str  # the entry of expected.json that holds the known answer
    inputs: dict  # JSON description for the job's row
    args: tuple = field(repr=False)


@dataclass
class Outcome:
    verdict: str
    counters: dict
    evidence: Any = None  # what the known-answer check inspects


def _swap_states(frame):
    (a, b), (c, d) = frame.rel
    return replace(frame, rel=((d, c), (b, a)))


def load_expected() -> dict:
    """Known answers: a verdict per job key (per rule for trace steps)."""
    return json.loads(EXPECTED_FILE.read_text())


def _frame_rows(frame) -> list[list[str]]:
    return [[frame.algebra.element_name(v) for v in row] for row in frame.rel]


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        start = perf_counter()
        self.alg = heyting.builtin_algebra(ALGEBRA)
        loaded = perf_counter()
        self.expected = load_expected()[self.name]
        rng = random.Random(f"{self.name}:{seed}")
        self.jobs: list[Job] = self.generate(rng)
        self.load_s = loaded - start
        self.generate_s = perf_counter() - loaded

    def generate(self, rng: random.Random) -> list[Job]:
        raise NotImplementedError

    def run(self, job: Job) -> Outcome:
        raise NotImplementedError

    def check(self, job: Job, outcome: Outcome) -> Optional[str]:
        """None when the outcome matches the known answer, else why not."""
        raise NotImplementedError

    def description(self) -> dict:
        """Everything the seed decided, for the job-list hash."""
        raise NotImplementedError

    def job_list_hash(self) -> str:
        text = json.dumps(self.description(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- oracle workloads -----------------------------------------------------------


class _OracleWorkload(Workload):
    def generate(self, rng: random.Random) -> list[Job]:
        self.sample_seed = rng.randrange(2**31)
        jobs = self.oracle_jobs()
        rng.shuffle(jobs)
        return jobs

    def oracle_jobs(self) -> list[Job]:
        raise NotImplementedError

    def description(self) -> dict:
        return {"jobs": [j.inputs for j in self.jobs],
                "three_state_seed": self.sample_seed}

    def frame_count(self) -> tuple[int, int]:
        frames = sum(self.alg.n ** (k * k) for k in ORACLE_SIZES)
        states = sum(k * self.alg.n ** (k * k) for k in ORACLE_SIZES)
        return frames + THREE_STATE_FRAMES, states + 3 * THREE_STATE_FRAMES

    def verify(self, source, a: int, alpha, threshold: Optional[int]):
        budget = Budget(JOB_BUDGET)
        report = oracle.correspondence_oracle(
            self.alg, source, a, alpha,
            sizes=list(ORACLE_SIZES),
            samples=THREE_STATE_FRAMES, sample_size=3, seed=self.sample_seed,
            budget=budget, fo_threshold=threshold,
        )
        counters = {
            "oracle.frames": report.frames_checked,
            "oracle.states": report.states_checked,
            "oracle.units": budget.used,
        }
        evidence = (source, a, alpha, threshold, report)
        return ("PASS" if report.passed else "FAIL"), counters, evidence

    def check(self, job: Job, outcome: Outcome) -> Optional[str]:
        want = self.expected.get(job.key)
        if want is None:
            return f"no known answer for {job.key}"
        if outcome.verdict != want:
            return f"verdict {outcome.verdict}, known answer {want}"
        source, a, alpha, threshold, report = outcome.evidence
        frames, states = self.frame_count()
        if report.passed:
            if (report.frames_checked, report.states_checked) != (frames, states):
                return (f"PASS after {report.frames_checked} frames and "
                        f"{report.states_checked} states, not {frames} and {states}")
            return None
        if not 1 <= report.frames_checked <= frames:
            return f"counterexample at frame {report.frames_checked} of {frames}"
        # the oracle demands degree a of the first-order side by default
        return recheck_counterexample(
            self.alg, source, a, alpha,
            a if threshold is None else threshold,
            report.counterexample,
        )


def recheck_counterexample(alg, source, a: int, alpha, fo_threshold: int, ce) -> Optional[str]:
    """Re-evaluate a reported counterexample on its own frame and state.

    The first-order side is recomputed with the reference evaluator
    `fol.fo_eval`, the modal side with `semantics.valid_at`; both must
    match the report and disagree with each other.  The frame's index in
    the enumeration is deliberately not compared.
    """
    if ce is None:
        return "FAIL without a counterexample"
    frame, w = ce.frame, ce.state
    if frame.algebra is not alg or not 0 <= w < frame.size:
        return "counterexample outside the checked frames"
    modal = semantics.valid_at(frame, source, w, a)
    interp = fol.interp_for_frame(frame)
    x = fol.FoVar("x")
    open_syms = sorted(fol.free_individual_symbols(alpha) - {x}, key=str)
    fo_holds = all(
        alg.le(fo_threshold, fol.fo_eval(interp, alpha, {x: w, **dict(zip(open_syms, combo))}))
        for combo in product(range(frame.size), repeat=len(open_syms))
    )
    if (modal, fo_holds) != (ce.modal_verdict, ce.fo_verdict):
        return (f"counterexample {_frame_rows(frame)} state {w} reported "
                f"modal {ce.modal_verdict} / first-order {ce.fo_verdict}, "
                f"re-check gives {modal} / {fo_holds}")
    if modal == fo_holds:
        return "counterexample where both sides agree"
    return None


class VerifyNamed(_OracleWorkload):
    """`mvcorr alba --verify` on the named axioms: parse, classify,
    rewrite, then oracle-check either the ALBA correspondent (at threshold
    top) or the named frame property (at threshold a)."""

    name = "verify-named"

    def oracle_jobs(self) -> list[Job]:
        jobs = []
        for prop, text in NAMED_AXIOMS.items():
            for value in self.alg.names:
                sides = ["property"] * PROPERTY_DRAWS
                sides += ["alba"] if value in ALBA_VALUES else []
                for side in sides:
                    jobs.append(Job(
                        f"{prop}@{value}/{side}",
                        {"axiom": text, "value": value, "side": side},
                        (prop, text, value, side),
                    ))
        return jobs

    def run(self, job: Job) -> Outcome:
        prop, text, value, side = job.args
        alg = self.alg
        a = alg.element(value)
        formula = syntax.parse_formula(text, alg)
        if trees.is_inductive(alba.input_inequality(formula, alg)) is None:
            return Outcome("not-inductive", {})
        result = alba.run_alba(formula, a, alg)
        steps = {"alba.trace_steps": len(result.all_steps())}
        if not result.succeeded:
            return Outcome(f"alba-{result.status}", steps)
        if side == "alba":
            alpha, threshold = result.correspondent, alg.top
        else:
            alpha, threshold = fol.frame_property(prop), None
        verdict, counters, evidence = self.verify(result.source, a, alpha, threshold)
        return Outcome(verdict, {**counters, **steps}, evidence)


class RefuteMismatch(_OracleWorkload):
    """Pairs whose known verdict is FAIL: each axiom's ALBA correspondent
    at value a checked at value b != a, and the correspondent of axiom A at
    gamma checked against the source of axiom B."""

    name = "refute-mismatch"

    def oracle_jobs(self) -> list[Job]:
        alg = self.alg
        self.runs = {
            (prop, a): alba.run_alba(syntax.parse_formula(text, alg), a, alg)
            for prop, text in NAMED_AXIOMS.items()
            for a in range(alg.n)
        }
        name = alg.element_name
        jobs = []
        for prop in NAMED_AXIOMS:
            for a, b in product(range(alg.n), repeat=2):
                if a != b:
                    jobs.append(Job(
                        f"{prop}@{name(a)}/at-{name(b)}",
                        {"correspondent": f"{prop}@{name(a)}",
                         "source": prop, "value": name(b)},
                        (prop, a, prop, b),
                    ))
        gamma = alg.element("gamma")
        for prop_a, prop_b in product(NAMED_AXIOMS, repeat=2):
            if prop_a != prop_b:
                jobs.append(Job(
                    f"{prop_a}@gamma/against-{prop_b}",
                    {"correspondent": f"{prop_a}@gamma",
                     "source": prop_b, "value": "gamma"},
                    (prop_a, gamma, prop_b, gamma),
                ))
        return jobs

    def run(self, job: Job) -> Outcome:
        prop_a, a, prop_b, b = job.args
        alpha = self.runs[(prop_a, a)].correspondent
        source = self.runs[(prop_b, b)].source
        verdict, counters, evidence = self.verify(source, b, alpha, self.alg.top)
        return Outcome(verdict, counters, evidence)


# -- trace steps -------------------------------------------------------------------


def inductive_corpus(alg) -> list:
    """The paper's inequalities plus seeded random ones of inductive shape."""
    corpus = [syntax.parse_inequality(t, alg) for t in PAPER_INEQUALITIES]
    rng = random.Random(CORPUS_SEED)
    seen: set[str] = set()
    generated: list = []
    while len(generated) < CORPUS_SIZE:
        ineq = random_inequality(rng, alg, ("p", "q", "r"), depth=2)
        if str(ineq) in seen:
            continue
        seen.add(str(ineq))
        if trees.is_inductive(ineq) is not None:
            generated.append(ineq)
    return corpus + generated


class StepcheckTraces(Workload):
    """`stepcheck.verify_step` on every unique trace step of the named
    axioms (all values) and of the inductive corpus (at gamma), replayed on
    a pool of two-state frames whose state order is seeded."""

    name = "stepcheck-traces"

    def generate(self, rng: random.Random) -> list[Job]:
        alg = self.alg
        runs = [
            alba.run_alba(syntax.parse_formula(text, alg), a, alg)
            for text in NAMED_AXIOMS.values()
            for a in range(alg.n)
        ]
        gamma = alg.element("gamma")
        runs += [alba.run_alba(ineq, gamma, alg) for ineq in inductive_corpus(alg)]
        seen: set = set()
        jobs = []
        for res in runs:
            for step in res.all_steps():
                key = (
                    step.rule,
                    tuple(str(i) for i in step.before),
                    tuple(str(i) for i in step.after),
                    step.eliminated,
                    tuple(str(a) for a in step.introduced),
                )
                if key in seen:
                    continue
                seen.add(key)
                jobs.append(Job(
                    step.rule,
                    {"step": len(jobs), "rule": step.rule, "trace": step.describe()},
                    (step,),
                ))
        self.pool = [
            _swap_states(f) if rng.random() < 0.5 else f
            for f in oracle.sample_frames(alg, 2, STEP_POOL_FRAMES, STEP_POOL_SEED)
        ]
        rng.shuffle(jobs)
        return jobs

    def description(self) -> dict:
        return {"jobs": [j.inputs for j in self.jobs],
                "pool": [_frame_rows(f) for f in self.pool]}

    def run(self, job: Job) -> Outcome:
        (step,) = job.args
        budget = Budget(JOB_BUDGET)
        failure = stepcheck.verify_step(step, self.pool, budget)
        verdict = "sound" if failure is None else "unsound"
        return Outcome(verdict, {"stepcheck.valuations": budget.used}, failure)

    def check(self, job: Job, outcome: Outcome) -> Optional[str]:
        want = self.expected.get(job.key)
        if want is None:
            return f"no known answer for rule {job.key}"
        if outcome.verdict != want:
            detail = outcome.evidence.describe() if outcome.evidence else ""
            return f"verdict {outcome.verdict}, known answer {want} {detail}"
        return None


WORKLOADS = {w.name: w for w in (VerifyNamed, RefuteMismatch, StepcheckTraces)}

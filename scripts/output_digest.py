#!/usr/bin/env python3
"""Print one SHA-256 digest over every output the tool prints for a fixed corpus.

Run it on two commits of a change that must not alter any output: equal
`sha256 <hex>` lines mean byte-identical outputs.  The digest covers

- the ALBA status, correspondent, display, `correspondent_ast` JSON and
  trace of the named axioms, `p <= @0` and the classical corpus of
  acceptance criterion 8, at every value of paper-P;
- the same for the regression corpus (the paper's 9 inequalities and 12
  seeded random inductive ones) at gamma;
- the Sahlqvist-van Benthem correspondent and display of the classical
  corpus;
- the oracle's report and budget units at sizes 1-2 plus 4 seeded
  three-state frames: of each named axiom against its ALBA correspondent
  at gamma (threshold top) and its named frame property at every value,
  of the 20 FAIL pairs of one axiom's correspondent at gamma against
  another axiom, and of one check refused inside size 2; of inputs whose
  truth constants, value or threshold are moved by the swap of alpha and
  beta, against their ALBA correspondent and reflexivity;
- `fo_agree`'s report and budget units, same frames: each named axiom's
  ALBA correspondent at gamma (threshold top) against its named frame
  property and against reflexivity, at thresholds gamma, alpha and 1;
- stepcheck's verdict, `sound` or the failure's text, and its budget
  units, on 8 seeded two-state frames, on 8 seeded frames alternating
  one and two states, and on 8 seeded frames in runs of 3 two-state, 1
  one-state and 4 two-state frames (so batches of one size split and
  failures fall inside them), for every distinct trace step of those
  ALBA runs and for each step's drop-one mutants (one produced, else one
  consumed, inequality dropped).

Usage: python scripts/output_digest.py
"""

import hashlib
import json
import random
import sys
from dataclasses import replace
from itertools import permutations

from mvcorr.alba import run_alba
from mvcorr.budget import Budget
from mvcorr.errors import BudgetExceeded
from mvcorr.fol import frame_property, print_fo, simplify_display, to_dict
from mvcorr.heyting import builtin_algebra
from mvcorr.oracle import correspondence_oracle, fo_agree, sample_frames
from mvcorr.randomgen import random_inequality
from mvcorr.stepcheck import verify_step
from mvcorr.svb import svb_correspondent
from mvcorr.syntax import parse_formula, parse_input, parse_inequality
from mvcorr.trees import is_inductive

NAMED_AXIOMS = ("p -> <>p", "<><>p -> <>p", "p -> []<>p", "<>p -> <><>p", "[]p -> <>p")
PROPERTIES = dict(zip(NAMED_AXIOMS, ("reflexive", "transitive", "symmetric", "dense", "serial")))
REFUSED_CAP = 1_000_000  # inside size 2 of transitivity's correspondent at gamma
STEPCHECK_CAP = 10**12  # above every step's charge: no step check is refused
CLASSICAL = (
    "[]p -> p",
    "[]p -> [][]p",
    "p -> []<>p",
    "[]p -> <>p",
    "<>p -> <><>p",
    "[](p -> <>p)",
    "(p -> <>p) \\/ (q -> <><>q)",
)
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


def regression_corpus(alg) -> list:
    """The paper's inequalities plus 12 seeded random inductive ones, as the
    test suite's `inductive_corpus` fixture builds them."""
    rng = random.Random(2024)
    seen, generated = set(), []
    while len(generated) < 12:
        ineq = random_inequality(rng, alg, ("p", "q", "r"), depth=2)
        if str(ineq) not in seen:
            seen.add(str(ineq))
            if is_inductive(ineq) is not None:
                generated.append(ineq)
    return [parse_inequality(t, alg) for t in PAPER_INEQUALITIES] + generated


def alba_lines(target, a: int, alg, steps: list) -> list[str]:
    """The run's outputs; its trace steps are appended to `steps`."""
    result = run_alba(target, a, alg)
    lines = [f"alba {target} @{alg.element_name(a)}: {result.status}"]
    if result.succeeded:
        lines += [print_fo(result.correspondent), result.display,
                  json.dumps(to_dict(result.correspondent))]
    trace = result.all_steps()
    steps += trace
    return lines + [step.describe() for step in trace]


def drop_one(step) -> list:
    """The step with one produced (else consumed) inequality dropped, as
    `tests/test_stepcheck.py` makes its mutants."""
    for side in ("after", "before"):
        system = getattr(step, side)
        if len(system) > 1:
            return [replace(step, **{side: system[:k] + system[k + 1:]})
                    for k in range(len(system))]
    return []


def stepcheck_lines(steps: list, alg) -> list[str]:
    two = sample_frames(alg, 2, 8, seed=1010)
    mixed = [f for pair in zip(sample_frames(alg, 1, 4, seed=1011), two) for f in pair]
    runs = sample_frames(alg, 2, 7, seed=1012)
    runs[3:3] = sample_frames(alg, 1, 1, seed=1013)
    lines = []
    for frames in (two, mixed, runs):
        for step in dict.fromkeys(steps):
            for checked in (step, *drop_one(step)):
                budget = Budget(STEPCHECK_CAP)
                failure = verify_step(checked, frames, budget)
                verdict = failure.describe() if failure else f"{checked.describe()} | sound"
                lines.append(f"{verdict}; {budget.used} units")
    return lines


FRAMES = dict(sizes=[1, 2], samples=4, sample_size=3, seed=1)
# constants, values and thresholds that the swap of alpha and beta moves
SWAP_BREAKING = ("p /\\ @alpha <= <>p", "@beta -> <>p", "p -> []<>p")


def outcome_line(label: str, check, cap=None) -> str:
    """`check(budget)`'s report, or its refusal, and the units it used."""
    budget = Budget(cap)
    try:
        report = check(budget)
        outcome = (f"{report.describe()}; {report.frames_checked} frames, "
                   f"{report.states_checked} states")
    except BudgetExceeded as exc:
        outcome = f"refused: {exc}"
    return f"{label}: {outcome}; {budget.used} units"


def oracle_line(label: str, alg, source, a: int, alpha, threshold=None,
                cap=None) -> str:
    return outcome_line(f"oracle {label}", lambda budget: correspondence_oracle(
        alg, source, a, alpha, budget=budget, fo_threshold=threshold, **FRAMES), cap)


def oracle_lines(alg) -> list[str]:
    gamma = alg.element("gamma")
    runs = {text: run_alba(parse_formula(text, alg), gamma, alg) for text in NAMED_AXIOMS}
    lines = []
    for text, run in runs.items():
        lines.append(oracle_line(f"{text} @gamma", alg, run.source, gamma,
                                 run.correspondent, alg.top))
        for a in range(alg.n):
            lines.append(oracle_line(f"{text} {PROPERTIES[text]} @{alg.element_name(a)}",
                                     alg, run.source, a, frame_property(PROPERTIES[text])))
    for own, other in permutations(NAMED_AXIOMS, 2):
        lines.append(oracle_line(f"{own} @gamma against {other}", alg, runs[other].source,
                                 gamma, runs[own].correspondent, alg.top))
    run = runs["<><>p -> <>p"]
    lines.append(oracle_line(f"<><>p -> <>p @gamma capped at {REFUSED_CAP}", alg, run.source,
                             gamma, run.correspondent, alg.top, REFUSED_CAP))
    alpha = alg.element("alpha")
    for text in SWAP_BREAKING:
        for a in (gamma, alpha, alg.top):
            run = run_alba(parse_input(text, alg), a, alg)
            label = f"{text} @{alg.element_name(a)}"
            if run.succeeded:
                lines.append(oracle_line(label, alg, run.source, a, run.correspondent, alg.top))
            lines.append(oracle_line(f"{label} reflexive", alg, run.source, a,
                                     frame_property("reflexive")))
    for text, run in runs.items():
        for prop in dict.fromkeys((PROPERTIES[text], "reflexive")):
            for threshold in (gamma, alpha, alg.top):
                lines.append(outcome_line(
                    f"fo_agree {text} @gamma {prop} @{alg.element_name(threshold)}",
                    lambda budget: fo_agree(alg, run.correspondent, frame_property(prop),
                                            threshold_alpha=alg.top, threshold_beta=threshold,
                                            budget=budget, **FRAMES)))
    return lines


def main() -> int:
    alg = builtin_algebra("paper-P")
    lines: list[str] = []
    steps: list = []
    for text in NAMED_AXIOMS + ("p <= @0",) + CLASSICAL:
        for a in range(alg.n):
            lines += alba_lines(parse_input(text, alg), a, alg, steps)
    for ineq in regression_corpus(alg):
        lines += alba_lines(ineq, alg.element("gamma"), alg, steps)
    for text in CLASSICAL:
        alpha = svb_correspondent(parse_formula(text, alg))
        lines += [f"svb {text}", print_fo(alpha), print_fo(simplify_display(alpha))]
    lines += oracle_lines(alg)
    lines += stepcheck_lines(steps, alg)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
  corpus.

Usage: python scripts/output_digest.py
"""

import hashlib
import json
import random
import sys

from mvcorr.alba import run_alba
from mvcorr.fol import print_fo, simplify_display, to_dict
from mvcorr.heyting import builtin_algebra
from mvcorr.randomgen import random_inequality
from mvcorr.svb import svb_correspondent
from mvcorr.syntax import parse_formula, parse_input, parse_inequality
from mvcorr.trees import is_inductive

NAMED_AXIOMS = ("p -> <>p", "<><>p -> <>p", "p -> []<>p", "<>p -> <><>p", "[]p -> <>p")
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


def alba_lines(target, a: int, alg) -> list[str]:
    result = run_alba(target, a, alg)
    lines = [f"alba {target} @{alg.element_name(a)}: {result.status}"]
    if result.succeeded:
        lines += [print_fo(result.correspondent), result.display,
                  json.dumps(to_dict(result.correspondent))]
    return lines + [step.describe() for step in result.all_steps()]


def main() -> int:
    alg = builtin_algebra("paper-P")
    lines: list[str] = []
    for text in NAMED_AXIOMS + ("p <= @0",) + CLASSICAL:
        for a in range(alg.n):
            lines += alba_lines(parse_input(text, alg), a, alg)
    for ineq in regression_corpus(alg):
        lines += alba_lines(ineq, alg.element("gamma"), alg)
    for text in CLASSICAL:
        alpha = svb_correspondent(parse_formula(text, alg))
        lines += [f"svb {text}", print_fo(alpha), print_fo(simplify_display(alpha))]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

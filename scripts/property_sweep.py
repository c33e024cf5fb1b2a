#!/usr/bin/env python3
"""Sweep the named modal axioms against every truth value of an algebra.

For each (axiom, value) pair: run the rewriting engine, verify the
computed correspondent and its printed display, parsed back, against the
finite-frame oracle, and check that the axiom matches the expected named
frame property.

Usage: python scripts/property_sweep.py [--algebra paper-P] [--sizes 1,2]
"""

import argparse
import sys
import time

from mvcorr.alba import run_alba
from mvcorr.budget import Budget
from mvcorr.fol import frame_property, parse_fo
from mvcorr.heyting import resolve_algebra
from mvcorr.oracle import correspondence_oracle
from mvcorr.syntax import parse_formula

AXIOMS = {
    "p -> <>p": "reflexive",
    "<><>p -> <>p": "transitive",
    "p -> []<>p": "symmetric",
    "<>p -> <><>p": "dense",
    "[]p -> <>p": "serial",
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--algebra", default="paper-P")
    parser.add_argument("--sizes", default="1,2")
    args = parser.parse_args()

    alg = resolve_algebra(args.algebra)
    sizes = [int(s) for s in args.sizes.split(",")]
    failures = 0
    for text, prop in AXIOMS.items():
        for a in range(alg.n):
            start = time.monotonic()
            res = run_alba(parse_formula(text, alg), a, alg)
            if not res.succeeded:
                print(f"{text} @ {alg.element_name(a)}: reduction FAILED")
                failures += 1
                continue
            own, shown = (
                correspondence_oracle(
                    alg, res.source, a, alpha, sizes=sizes,
                    fo_threshold=alg.top, budget=Budget(10**9),
                )
                for alpha in (res.correspondent, parse_fo(res.display, alg))
            )
            named = correspondence_oracle(
                alg, res.source, a, frame_property(prop), sizes=sizes,
                budget=Budget(10**9),
            )
            verdict = "ok" if own.passed and shown.passed and named.passed else "MISMATCH"
            if verdict != "ok":
                failures += 1
            print(
                f"{text:18s} a={alg.element_name(a):6s} {prop:10s} "
                f"{verdict}  ({time.monotonic() - start:.1f}s)"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

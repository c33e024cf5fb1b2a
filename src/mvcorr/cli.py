"""Command-line front end.

Subcommands: `algebra check`, `eval`, `classify`, `alba`, `svb`, `verify`.
Exit status 0 reports success or PASS, 1 a failure or counterexample, 2 a
usage error.  `--format structured` emits a versioned JSON report; two runs
with the same configuration (including `--seed`) emit identical bytes.
The evaluation budget can be overridden with the MVCORR_BUDGET environment
variable or `--budget`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from typing import Optional

from . import __version__
from .budget import Budget
from .errors import BudgetExceeded, MvcorrError, NotClassicalSahlqvist, StepCapExceeded
from .fol import parse_fo, print_fo, simplify_display, to_dict
from .heyting import HeytingAlgebra, resolve_algebra
from .alba import run_alba
from .oracle import correspondence_oracle
from .semantics import eval_formula, parse_model_text
from .svb import svb_correspondent
from .syntax import Inequality, parse_formula, parse_input, top
from .trees import branch_table, formula_inequality, is_inductive, is_sahlqvist

SCHEMA = "mvcorr.report/1"


@dataclass
class RunConfig:
    """One reproducible run: echoed verbatim into structured reports."""

    mode: str
    algebra_source: str
    value: Optional[str]
    input_text: Optional[str]
    sizes: Optional[str]
    budget: Optional[int]
    output_format: str
    seed: int

    @classmethod
    def from_args(cls, args, mode: str) -> "RunConfig":
        return cls(
            mode=mode,
            algebra_source=args.algebra,
            value=getattr(args, "value", None),
            input_text=getattr(args, "formula", None),
            sizes=getattr(args, "sizes", None) or getattr(args, "verify", None),
            budget=args.budget,
            output_format=args.format,
            seed=args.seed,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvcorr",
        description="frame correspondents for many-valued modal formulas",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, value: bool = True) -> None:
        p.add_argument("--algebra", default="paper-P",
                       help="builtin name (bool2, paper-P) or file path")
        if value:
            p.add_argument("--value", default="1",
                           help="truth-value parameter a (element name)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int, default=None)
        p.add_argument("--format", choices=("text", "structured"),
                       default="text")

    algebra = sub.add_parser("algebra", help="algebra utilities")
    algebra_sub = algebra.add_subparsers(dest="algebra_command", required=True)
    check = algebra_sub.add_parser("check", help="load and validate an algebra")
    common(check, value=False)

    ev = sub.add_parser("eval", help="evaluate a formula in a model")
    common(ev)
    ev.add_argument("--model", required=True, help="model file")
    ev.add_argument("--formula", required=True)
    ev.add_argument("--state", required=True)

    cl = sub.add_parser("classify", help="recognize residual-free/friendly shapes")
    common(cl, value=False)
    cl.add_argument("--formula", required=True,
                    help="formula or inequality text")

    al = sub.add_parser("alba", help="compute a parametrized correspondent")
    common(al)
    al.add_argument("--formula", required=True)
    al.add_argument("--global", dest="want_global", action="store_true",
                    help="emit the universal closure")
    al.add_argument("--trace", action="store_true")
    al.add_argument("--verify", default=None, metavar="sizes=1,2",
                    help="check the output against the finite-frame oracle")
    al.add_argument("--step-cap", type=int, default=10_000)

    sv = sub.add_parser("svb", help="classical-shape correspondent")
    common(sv)
    sv.add_argument("--formula", required=True)
    sv.add_argument("--verify", default=None, metavar="sizes=1,2")
    sv.add_argument("--compare-alba", action="store_true")

    vf = sub.add_parser("verify", help="oracle-check a proposed correspondent")
    common(vf)
    vf.add_argument("--formula", required=True)
    vf.add_argument("--fo", required=True, help="first-order candidate")
    vf.add_argument("--sizes", default="1", help="comma-separated frame sizes")
    vf.add_argument("--samples", type=int, default=0,
                    help="extra random frames of --sample-size states")
    vf.add_argument("--sample-size", type=int, default=3)

    return parser


def _parse_sizes(text: str) -> list[int]:
    text = text.strip()
    if text.startswith("sizes="):
        text = text[len("sizes="):]
    sizes = [int(s) for s in text.split(",") if s.strip()]
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError(f"bad frame sizes {text!r}")
    return sizes


def _report(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "structured":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _base_payload(args, alg: HeytingAlgebra, mode: str) -> dict:
    config = RunConfig.from_args(args, mode)
    return {
        "schema": SCHEMA,
        "mode": mode,
        "config": asdict(config),
        "algebra": {
            "source": args.algebra,
            "fingerprint": alg.fingerprint(),
            "elements": list(alg.names),
        },
        "seed": args.seed,
    }


def cmd_algebra_check(args) -> int:
    alg = resolve_algebra(args.algebra)
    payload = _base_payload(args, alg, "algebra-check")
    payload["join_irreducibles"] = [alg.element_name(j) for j in alg.join_irreducibles]
    payload["meet_irreducibles"] = [alg.element_name(m) for m in alg.meet_irreducibles]
    payload["kappa"] = {
        alg.element_name(j): alg.element_name(k) for j, k in alg.kappa.items()
    }
    lines = [
        f"algebra {args.algebra}: {alg.n} elements, all laws verified",
        f"  bottom={alg.element_name(alg.bot)} top={alg.element_name(alg.top)}",
        f"  join-irreducibles: {', '.join(payload['join_irreducibles'])}",
        f"  meet-irreducibles: {', '.join(payload['meet_irreducibles'])}",
        f"  fingerprint: {alg.fingerprint()}",
    ]
    _report(args, payload, lines)
    return 0


def cmd_eval(args) -> int:
    alg = resolve_algebra(args.algebra)
    with open(args.model, "r", encoding="utf-8") as fh:
        model = parse_model_text(fh.read(), alg)
    formula = parse_formula(args.formula, alg)
    value = eval_formula(model, formula, args.state)
    a = alg.element(args.value)
    holds = alg.le(a, value)
    payload = _base_payload(args, alg, "eval")
    payload.update(
        formula=args.formula,
        state=args.state,
        value=alg.element_name(value),
        threshold=alg.element_name(a),
        holds=holds,
    )
    _report(args, payload, [
        f"value({args.formula}) at {args.state} = {alg.element_name(value)}",
        f"{alg.element_name(a)}-true: {'yes' if holds else 'no'}",
    ])
    return 0 if holds else 1


def cmd_classify(args) -> int:
    alg = resolve_algebra(args.algebra)
    target = parse_input(args.formula, alg)
    if isinstance(target, Inequality):
        ineq = target
    else:
        ineq = formula_inequality(target, top(alg))
    eps = is_sahlqvist(ineq)
    inductive = is_inductive(ineq)
    rows = branch_table(ineq)
    if eps is not None:
        verdict = "sahlqvist"
        witness = f"order type {eps}"
    elif inductive is not None:
        omega, ieps = inductive
        verdict = "inductive"
        witness = f"order type {ieps}; dependency order {omega}"
    else:
        verdict = "not inductive"
        witness = ""
    payload = _base_payload(args, alg, "classify")
    payload.update(
        input=args.formula,
        verdict=verdict,
        witness=witness,
        branches=[
            {"number": n, "leaf": leaf, "quality": quality}
            for n, leaf, quality in rows
        ],
    )
    lines = [f"verdict: {verdict}" + (f" ({witness})" if witness else "")]
    lines += [f"  branch {n}: {leaf}  [{quality}]" for n, leaf, quality in rows]
    _report(args, payload, lines)
    return 0 if inductive is not None else 1


def _verify_output(args, alg, target, a, alpha, sizes, crisp: bool):
    return correspondence_oracle(
        alg,
        target,
        a,
        alpha,
        sizes=sizes,
        samples=getattr(args, "samples", 0),
        sample_size=getattr(args, "sample_size", 3),
        seed=args.seed,
        budget=Budget(args.budget),
        fo_threshold=alg.top if crisp else None,
    )


def _verify_printed(args, alg, target, a, alpha, display, crisp, payload, lines) -> int:
    """Oracle-check a correspondent and its printed display, parsed back
    with `parse_fo` like a user's --fo, at the sizes of --verify; 1 when
    either fails."""
    status = 0
    sizes = _parse_sizes(args.verify)
    for key, checked in (("verification", alpha),
                         ("display_verification", parse_fo(display, alg))):
        report = _verify_output(args, alg, target, a, checked, sizes, crisp)
        payload[key] = report.describe()
        lines.append(f"{key.replace('_', ' ')}: {report.describe()}")
        status |= not report.passed
    return status


def cmd_alba(args) -> int:
    alg = resolve_algebra(args.algebra)
    a = alg.element(args.value)
    target = parse_input(args.formula, alg)
    result = run_alba(target, a, alg, step_cap=args.step_cap)
    payload = _base_payload(args, alg, "alba")
    payload.update(
        input=args.formula,
        value=alg.element_name(a),
        status=result.status,
        branches=[
            {
                "initial": str(b.initial),
                "success": b.success,
                "system": [str(i) for i in b.system],
            }
            for b in result.branches
        ],
    )
    lines = [f"status: {result.status}"]
    for b in result.branches:
        lines.append(f"branch {b.index}: {b.initial}")
        label = "reduced" if b.success else "unreduced"
        lines.append(f"  {label}: " + "; ".join(str(i) for i in b.system))
    if result.succeeded:
        alpha = (
            result.correspondent_global if args.want_global else result.correspondent
        )
        payload["quasi_inequalities"] = [str(q) for q in result.quasi]
        payload["correspondent"] = print_fo(alpha)
        payload["correspondent_ast"] = to_dict(alpha)
        display = payload["display"] = result.display
        lines.append(f"correspondent: {print_fo(alpha)}")
        lines.append(f"display: {display}")
    if args.trace:
        payload["trace"] = [s.describe() for s in result.all_steps()]
        lines.append("trace:")
        lines += ["  " + s.describe() for s in result.all_steps()]
    status = 0 if result.succeeded else 1
    if result.succeeded and args.verify:
        status |= _verify_printed(args, alg, result.source, a, result.correspondent,
                                  display, True, payload, lines)
    _report(args, payload, lines)
    return status


def cmd_svb(args) -> int:
    alg = resolve_algebra(args.algebra)
    a = alg.element(args.value)
    formula = parse_formula(args.formula, alg)
    try:
        alpha = svb_correspondent(formula)
    except NotClassicalSahlqvist:
        payload = _base_payload(args, alg, "svb")
        payload.update(input=args.formula, status="not-classical-sahlqvist")
        _report(args, payload, ["status: not a classical Sahlqvist formula"])
        return 1
    display = print_fo(simplify_display(alpha))
    payload = _base_payload(args, alg, "svb")
    payload.update(
        input=args.formula,
        value=alg.element_name(a),
        status="success",
        correspondent=print_fo(alpha),
        correspondent_ast=to_dict(alpha),
        display=display,
    )
    lines = [
        "status: success",
        f"correspondent: {print_fo(alpha)}",
        f"display: {display}",
    ]
    status = 0
    if args.verify:
        status |= _verify_printed(args, alg, formula, a, alpha, display, False,
                                  payload, lines)
    if args.compare_alba:
        result = run_alba(formula, a, alg)
        agree = False
        if result.succeeded:
            sizes = _parse_sizes(args.verify) if args.verify else [1]
            svb_rep = _verify_output(args, alg, result.source, a, alpha, sizes,
                                     crisp=False)
            alba_rep = _verify_output(args, alg, result.source, a,
                                      result.correspondent, sizes, crisp=True)
            agree = svb_rep.passed and alba_rep.passed
        payload["alba_agreement"] = agree
        lines.append(f"agreement with rewriting engine: {'yes' if agree else 'NO'}")
        if not agree:
            status = 1
    _report(args, payload, lines)
    return status


def cmd_verify(args) -> int:
    alg = resolve_algebra(args.algebra)
    a = alg.element(args.value)
    target = parse_input(args.formula, alg)
    alpha = parse_fo(args.fo, alg)
    report = _verify_output(args, alg, target, a, alpha, _parse_sizes(args.sizes), crisp=False)
    payload = _base_payload(args, alg, "verify")
    payload.update(
        input=args.formula,
        candidate=args.fo,
        value=alg.element_name(a),
        result=report.describe(),
        passed=report.passed,
    )
    _report(args, payload, [report.describe()])
    return 0 if report.passed else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "algebra":
            return cmd_algebra_check(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "classify":
            return cmd_classify(args)
        if args.command == "alba":
            return cmd_alba(args)
        if args.command == "svb":
            return cmd_svb(args)
        if args.command == "verify":
            return cmd_verify(args)
        parser.error(f"unknown command {args.command}")
    except (BudgetExceeded, StepCapExceeded) as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 1
    except (MvcorrError, ValueError, OSError) as exc:  # a bad input
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())

"""CLI surface: exit codes, golden outputs, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mvcorr import cli
from mvcorr.cli import main
from mvcorr.fol import BOT, MAX_FO_NESTING
from mvcorr.syntax import MAX_NESTING


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alba_reflexivity_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "alba", "--algebra", "paper-P", "--value", "gamma",
        "--formula", "p -> <>p", "--verify", "sizes=1,2",
    )
    assert code == 0
    assert "  reduced: #i0 <= @gamma; <>#i0 <= $m0" in out
    assert "display: @gamma =< R(x, x)" in out
    assert "PASS" in out


def test_classify_not_inductive_example(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--formula", "[](p\\/q) <= <>(p/\\q)"
    )
    assert code == 1
    assert "not inductive" in out


def test_classify_sahlqvist_with_witness(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--formula", "(p -> @0) -> []q <= <>[]q \\/ []p"
    )
    assert code == 0
    assert "sahlqvist" in out
    assert "p:d, q:1" in out


def test_classify_inductive_with_dependency_order(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--formula", "[](@alpha /\\ p -> q) /\\ []p -> <>[]q"
    )
    assert code == 0
    assert out.startswith("verdict: inductive (order type p:1, q:1; dependency order p < q)")


def test_verify_bottom_correspondent(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--algebra", "paper-P", "--value", "1",
        "--formula", "~p \\/ <>p", "--fo", "@0", "--sizes", "1,2",
    )
    assert code == 0
    assert out.startswith("PASS")


def test_verify_counterexample_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--algebra", "paper-P", "--value", "1",
        "--formula", "~p \\/ <>p", "--fo", "R(x, x)", "--sizes", "1",
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_checks_a_repeated_size_once(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--formula", "p -> <>p", "--fo", "R(x,x)", "--value", "gamma",
        "--sizes", "1,1",
    )
    assert code == 0
    assert out == "PASS (5 frames, 5 state checks)\n"


def test_algebra_check(capsys):
    code, out, _ = run_cli(capsys, "algebra", "check", "--algebra", "paper-P")
    assert code == 0
    assert "join-irreducibles: 1, alpha, beta" in out
    assert "meet-irreducibles: alpha, beta, gamma" in out


def test_usage_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "alba", "--formula", "p -> ")
    assert code == 2
    assert "error" in err


def test_unknown_constant_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "alba", "--formula", "p -> <>p", "--value", "delta"
    )
    assert code == 2


def test_oversized_algebra_exit_2(tmp_path, capsys):
    names = [f"e{i}" for i in range(257)]
    algebra = tmp_path / "chain257.json"
    algebra.write_text(json.dumps({"elements": names,
                                   "leq": [[a, b] for a, b in zip(names, names[1:])]}))
    code, _, err = run_cli(capsys, "algebra", "check", "--algebra", str(algebra))
    assert code == 2
    assert "at most 256" in err


@pytest.mark.parametrize("command", [
    ["algebra", "check"],
    ["alba", "--value", "z", "--formula", "p -> <>p", "--verify", "sizes=1,2"],
], ids=["algebra-check", "alba-verify"])
def test_one_element_algebra_exit_2(tmp_path, capsys, command):
    algebra = tmp_path / "one.yaml"
    algebra.write_text("elements: [z]\n")
    code, out, err = run_cli(capsys, *command, "--algebra", str(algebra))
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: fewer than two elements; bottom and top must be distinct"]


def test_duplicate_state_names_exit_2(tmp_path, capsys):
    model = tmp_path / "model.yaml"
    model.write_text("states: [a, a]\nrel:\n  - [a, a, '1']\nval:\n  - [p, a, '1']\n")
    code, _, err = run_cli(
        capsys,
        "eval", "--algebra", "paper-P", "--model", str(model),
        "--formula", "<>p", "--state", "a", "--value", "1",
    )
    assert code == 2
    assert "listed more than once" in err


def test_python_m_runs_the_cli_from_a_checkout():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "mvcorr", "alba", "--value", "gamma",
         "--formula", "p -> <>p", "--verify", "sizes=1"],
        capture_output=True, text=True, env=env, cwd=root, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "PASS" in done.stdout


def test_importing_the_cli_does_not_load_yaml():
    # only algebra, frame and model files need the parser
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, mvcorr, mvcorr.cli; print('yaml' in sys.modules)"],
        capture_output=True, text=True, env=env, cwd=root, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_svb_with_comparison(capsys):
    code, out, _ = run_cli(
        capsys,
        "svb", "--algebra", "paper-P", "--value", "beta",
        "--formula", "p -> []<>p", "--verify", "sizes=1", "--compare-alba",
    )
    assert code == 0
    assert "display: A y1. (R(x, y1) -> R(y1, x))" in out
    assert "agreement with rewriting engine: yes" in out


def test_svb_verify_checks_the_printed_display(monkeypatch, capsys):
    # the display is oracle-checked as parsed back, at the correspondent's
    # threshold, and a failing display alone sets exit status 1
    argv = ("svb", "--algebra", "paper-P", "--value", "beta", "--formula", "p -> []<>p",
            "--verify", "sizes=1,2", "--format", "structured")
    code, out, _ = run_cli(capsys, *argv)
    report = json.loads(out)
    assert code == 0
    assert report["display"] == "A y1. (R(x, y1) -> R(y1, x))"
    assert report["verification"].startswith("PASS (630 frames")
    assert report["display_verification"].startswith("PASS (630 frames")
    monkeypatch.setattr(cli, "simplify_display", lambda alpha: BOT)
    code, out, _ = run_cli(capsys, *argv[:-2])
    assert code == 1
    assert "\ndisplay: @0\n" in out
    assert "\nverification: PASS (630 frames" in out
    assert "\ndisplay verification: FAIL at state w0" in out


def test_svb_rejects_non_classical(capsys):
    code, out, _ = run_cli(
        capsys, "svb", "--formula", "[]~p -> [][]~p"
    )
    assert code == 1
    assert "not a classical Sahlqvist formula" in out


def test_eval_with_model_file(tmp_path, capsys):
    model = tmp_path / "model.yaml"
    model.write_text(
        "states: [w]\nrel:\n  - [w, w, gamma]\nval:\n  - [p, w, '1']\n"
    )
    code, out, _ = run_cli(
        capsys,
        "eval", "--algebra", "paper-P", "--model", str(model),
        "--formula", "<>p", "--state", "w", "--value", "gamma",
    )
    assert code == 0
    assert "value(<>p) at w = gamma" in out
    assert "gamma-true: yes" in out


def test_every_command_runs_at_the_nesting_limit(tmp_path, capsys):
    model = tmp_path / "model.yaml"
    model.write_text("states: [w]\nrel:\n  - [w, w, gamma]\nval:\n  - [p, w, '1']\n")
    commands = {"classify": [], "alba": ["--value", "gamma", "--verify", "sizes=1"], "svb": [],
                "verify": ["--fo", "R(x, x)", "--sizes", "1"],
                "eval": ["--model", str(model), "--state", "w"]}
    deepest = "[]" * (MAX_NESTING - 1) + "(p -> p)"
    refused = [f"error: syntax error at position 0: nested deeper than {MAX_NESTING} levels"]
    for command, options in commands.items():
        texts = [deepest] + ([f"{deepest} <= p"] if command in ("classify", "alba") else [])
        for text in texts:
            code, out, err = run_cli(capsys, command, *options, "--formula", text)
            # a verdict, or the budget's refusal of a check too large to finish
            assert code in (0, 1), (command, text)
            assert out and not err or err.startswith("inconclusive: evaluation budget")
            code, out, err = run_cli(capsys, command, *options, "--formula", "[]" + text)
            assert (code, out, err.splitlines()) == (2, "", refused), (command, text)


def run_mvcorr(*argv):
    """`python -m mvcorr` in a subprocess, with its default recursion limit."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "mvcorr", *argv],
                          capture_output=True, text=True, env=env, cwd=root, timeout=120)


def test_deep_nesting_exits_2_without_a_traceback():
    done = run_mvcorr("alba", "--value", "gamma", "--formula", "[]" * 200 + "(p -> p)")
    assert done.returncode == 2 and done.stdout == ""
    assert len(done.stderr.splitlines()) == 1 and "nested deeper" in done.stderr


@pytest.mark.parametrize("shape", [
    lambda k: "(" * k + "R(x, x)" + ")" * k,  # the parser's own recursion
    lambda k: "A y. " * k + "R(x, x)",  # the formula's height
])
def test_deep_first_order_input_exits_2_without_a_traceback(shape):
    verify = ("verify", "--formula", "p -> <>p", "--sizes", "1", "--fo")
    done = run_mvcorr(*verify, shape(MAX_FO_NESTING))
    assert (done.returncode, done.stderr) == (0, ""), done.stderr[-300:]
    assert "PASS" in done.stdout
    # one level deeper, and the depths that used to end in a RecursionError
    for depth in (MAX_FO_NESTING + 1, 250, 400):
        done = run_mvcorr(*verify, shape(depth))
        (line,) = done.stderr.splitlines()
        assert (done.returncode, done.stdout) == (2, "")
        assert line.startswith("error: syntax error at position ")
        assert line.endswith(f": nested deeper than {MAX_FO_NESTING} levels")


def test_structured_output_reproducible(capsys):
    args = [
        "alba", "--algebra", "paper-P", "--value", "gamma",
        "--formula", "p -> <>p", "--format", "structured", "--seed", "11",
    ]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == "mvcorr.report/1"
    assert payload["seed"] == 11
    assert payload["algebra"]["fingerprint"]
    assert payload["display"] == "@gamma =< R(x, x)"


def test_alba_trace_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "alba", "--formula", "p -> <>p", "--value", "alpha", "--trace",
    )
    assert code == 0
    assert "first-approximation" in out
    assert "ackermann-right" in out


def test_alba_failure_exit(capsys):
    code, out, _ = run_cli(
        capsys, "alba", "--formula", "[](p\\/q) <= <>(p/\\q)", "--value", "1"
    )
    assert code == 1
    assert "status: failure" in out
    assert out.splitlines()[2].startswith("  unreduced: ")


def test_negative_step_cap_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "alba", "--formula", "p -> <>p", "--step-cap", "-1"
    )
    assert code == 2
    assert out == ""
    assert err == "error: step cap must not be negative, got -1\n"


def test_budget_env_override(monkeypatch, capsys):
    monkeypatch.setenv("MVCORR_BUDGET", "10")
    code, _, err = run_cli(
        capsys,
        "verify", "--algebra", "paper-P", "--value", "gamma",
        "--formula", "p -> <>p", "--fo", "R(x, x)", "--sizes", "2",
    )
    assert code == 1
    assert "inconclusive" in err


def test_bad_budget_env_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("MVCORR_BUDGET", "abc")
    code, _, err = run_cli(
        capsys,
        "verify", "--algebra", "paper-P", "--value", "gamma",
        "--formula", "p -> <>p", "--fo", "R(x, x)", "--sizes", "2",
    )
    assert code == 2
    assert err == "error: bad MVCORR_BUDGET value: 'abc'\n"


@pytest.mark.parametrize(
    "extra",
    [
        ["--budget", "-5"],
        ["--samples", "-3"],
        ["--samples", "2", "--sample-size", "0"],
    ],
)
def test_bad_request_is_a_usage_error(monkeypatch, capsys, extra):
    monkeypatch.delenv("MVCORR_BUDGET", raising=False)
    code, out, err = run_cli(
        capsys,
        "verify", "--formula", "p -> <>p", "--fo", "R(x,x)", "--sizes", "1", *extra,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_free_predicate_candidate_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys,
        "verify", "--value", "gamma", "--formula", "p -> <>p", "--fo", "P(x)",
        "--sizes", "1",
    )
    assert code == 2
    assert out == ""
    assert err == "error: correspondent must not contain free predicate symbols\n"


def test_fo_cut_short_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--formula", "p -> <>p", "--fo", "A x. ")
    assert code == 2
    assert out == ""
    assert err == "error: syntax error at position 5: found 'end of input'\n"


def test_alba_step_cap_exit_1(capsys):
    code, out, _ = run_cli(
        capsys,
        "alba", "--algebra", "paper-P", "--value", "gamma",
        "--formula", "<><>p -> <>p", "--step-cap", "0",
    )
    assert code == 1
    assert out.splitlines()[0] == "status: step-cap"
    assert out.splitlines()[2] == "  unreduced: #i0 <= <><>p; #i0 <= @gamma; <>p <= $m0"


def test_negative_budget_env_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("MVCORR_BUDGET", "-5")
    code, _, err = run_cli(
        capsys,
        "verify", "--algebra", "paper-P", "--value", "gamma",
        "--formula", "p -> <>p", "--fo", "R(x, x)", "--sizes", "2",
    )
    assert code == 2
    assert err == "error: bad MVCORR_BUDGET value: '-5'\n"


@pytest.mark.parametrize(
    "formula",
    ["p -> <>p", "<><>p -> <>p", "p -> []<>p", "<>p -> <><>p", "[]p -> <>p", "p <= @0"],
)
def test_alba_verify_passes_within_default_budget(monkeypatch, capsys, formula):
    # both the correspondent and the printed display are oracle-checked
    monkeypatch.delenv("MVCORR_BUDGET", raising=False)
    code, out, _ = run_cli(
        capsys,
        "alba", "--algebra", "paper-P", "--value", "gamma",
        "--formula", formula, "--verify", "sizes=1,2",
    )
    assert code == 0
    assert "\nverification: PASS (630 frames" in out
    assert "\ndisplay verification: PASS (630 frames" in out


def test_alba_verify_of_a_large_corpus_correspondent_fits_the_default_budget(
    monkeypatch, capsys,
):
    # the inductive corpus's costliest check at sizes 1,2: about 22.8 M units
    monkeypatch.delenv("MVCORR_BUDGET", raising=False)
    code, out, _ = run_cli(
        capsys,
        "alba", "--value", "gamma", "--formula", "q /\\ r \\/ <>@0 <= [][]p",
        "--verify", "sizes=1,2",
    )
    assert code == 0
    assert "\nverification: PASS (630 frames" in out
    assert "\ndisplay verification: PASS (630 frames" in out


def test_alba_numbers_fresh_nominals_past_the_inputs(monkeypatch, capsys):
    # the input's #j1 is not reused as an approximation's fresh nominal
    monkeypatch.delenv("MVCORR_BUDGET", raising=False)
    code, out, _ = run_cli(
        capsys,
        "alba", "--value", "gamma", "--formula", "#j1 /\\ <><>p <= <>p",
        "--verify", "sizes=1,2", "--trace",
    )
    assert code == 0
    assert "approx-dia: #i0 <= <><>p  ==>  #j2 <= <>p; #i0 <= <>#j2" in out
    assert "\nverification: PASS (630 frames" in out
    assert "\ndisplay verification: PASS (630 frames" in out


def test_alba_rejects_the_reserved_atoms(capsys):
    code, out, err = run_cli(
        capsys, "alba", "--value", "gamma", "--formula", "p <= <>#i0 -> <>(p /\\ #i0)",
    )
    assert code == 2
    assert out == ""
    assert "#i0 and $m0 are reserved" in err


@pytest.mark.parametrize("formula", ["#a /\\ <>p <= <>(p /\\ <>#a) \\/ $a", "#n1 <= p"])
def test_nominal_and_co_nominal_names_are_told_apart(capsys, formula):
    # #a and $a would both print as c_a and C_a; only a co-nominal's name starts with m or n
    code, out, err = run_cli(
        capsys, "alba", "--value", "gamma", "--formula", formula, "--verify", "sizes=1,2",
    )
    assert code == 2
    assert out == ""
    assert "names starting with m or n are co-nominals'" in err


@pytest.mark.parametrize("atom", ["'#n1'", "'$a'"])
def test_model_atoms_follow_the_naming_rule(tmp_path, capsys, atom):
    # no formula can name either atom, so a model file may not list it
    model = tmp_path / "model.yaml"
    model.write_text(f"states: [v]\nrel:\n  - [v, v, '1']\nval:\n  - [{atom}, v, alpha]\n")
    code, out, err = run_cli(
        capsys,
        "eval", "--algebra", "paper-P", "--model", str(model),
        "--formula", "<>p", "--state", "v", "--value", "1",
    )
    assert code == 2 and out == ""
    assert "names starting with m or n are co-nominals'" in err


@pytest.mark.parametrize("atom", ["'<>p'", "'p '", "'#'"])
def test_model_entries_that_name_no_atom_exit_2(tmp_path, capsys, atom):
    model = tmp_path / "model.yaml"
    model.write_text(f"states: [v]\nrel:\n  - [v, v, '1']\nval:\n  - [{atom}, v, alpha]\n")
    code, out, err = run_cli(
        capsys,
        "eval", "--algebra", "paper-P", "--model", str(model),
        "--formula", "<>p", "--state", "v", "--value", "1",
    )
    assert code == 2 and out == ""
    assert "does not name an atom" in err


@pytest.mark.parametrize("field,text", [
    ("states", "states: 5\n"),
    ("rel", "states: [v]\nrel: 5\n"),
    ("val", "states: [v]\nval: 7\n"),
])
def test_model_fields_that_are_not_lists_exit_2(tmp_path, capsys, field, text):
    model = tmp_path / "model.yaml"
    model.write_text(text)
    code, out, err = run_cli(
        capsys,
        "eval", "--algebra", "paper-P", "--model", str(model),
        "--formula", "<>p", "--state", "v", "--value", "1",
    )
    assert code == 2 and out == ""
    assert f"`{field}` must be a list" in err

"""CLI surface: exit codes, golden outputs, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mvcorr.cli import main


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


def test_svb_with_comparison(capsys):
    code, out, _ = run_cli(
        capsys,
        "svb", "--algebra", "paper-P", "--value", "beta",
        "--formula", "p -> []<>p", "--verify", "sizes=1", "--compare-alba",
    )
    assert code == 0
    assert "display: A y1. (R(x, y1) -> R(y1, x))" in out
    assert "agreement with rewriting engine: yes" in out


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

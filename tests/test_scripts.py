"""The example scripts under scripts/ still run against the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

from mvcorr.heyting import builtin_algebra

ROOT = Path(__file__).resolve().parents[1]
AXIOMS = ("p -> <>p", "<><>p -> <>p", "p -> []<>p", "<>p -> <><>p", "[]p -> <>p")


def run_script(name, *args, cwd=ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )


def test_property_sweep_one_ok_row_per_axiom_and_value():
    done = run_script("property_sweep.py", "--sizes", "1")
    assert done.returncode == 0, done.stderr
    # rows read "<axiom> a=<value> <property> ok  (<seconds>s)"
    rows = done.stdout.splitlines()
    ok = []
    for row in rows:
        axiom, _, rest = row.partition(" a=")
        fields = rest.split()
        if fields[2:3] == ["ok"]:
            ok.append((axiom.strip(), fields[0]))
    P = builtin_algebra("paper-P")
    values = [P.element_name(a) for a in range(P.n)]
    assert sorted(ok) == sorted((axiom, v) for axiom in AXIOMS for v in values)
    assert len(rows) == len(ok)


def test_run_acceptance_from_another_directory(tmp_path):
    # criterion_1_, not criterion_1, which also selects the slow criterion 10
    done = run_script("run_acceptance.py", "-k", "criterion_1_", cwd=tmp_path)
    assert done.returncode == 0, done.stdout + done.stderr
    assert " 1 passed, 9 deselected" in done.stdout


def test_output_digest_prints_one_sha256_line():
    done = run_script("output_digest.py")
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"sha256 [0-9a-f]{64}\n", done.stdout), done.stdout

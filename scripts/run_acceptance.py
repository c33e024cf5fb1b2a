#!/usr/bin/env python3
"""Run the acceptance suite with per-criterion pass/fail lines visible.

Works from any directory; extra arguments go to pytest, for example
`python scripts/run_acceptance.py -k criterion_1`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    return subprocess.call(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-v", "-s", *argv],
        cwd=ROOT,
    )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

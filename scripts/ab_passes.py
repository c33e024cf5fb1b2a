#!/usr/bin/env python3
"""Alternate single benchmark passes of two checkouts and compare them.

    python scripts/ab_passes.py PARENT CHANGE --workload verify-named --rounds 30

Each checkout gets one worker process, which imports that checkout's
`src/` and `perfbench/` (`run.py`, `workloads.py`) and changes neither.
A worker generates the workload's jobs from `--seed` as `perfbench/run.py`
does, runs one untimed pass so that the process's caches are filled, then
runs one timed pass per request, checking every verdict against the known
answers.  Round r runs one pass on each side, the first checkout first in
even rounds and the second first in odd ones; only one pass runs at a
time.

Per round, a `#` line gives each side's jobs/s, median verdict time and
tail (the highest rank of the pass with ten verdicts beyond it, as
`perfbench/run.py` takes it).  Then one line per metric gives each side's
median over the rounds, the median of the per-round ratios second/first,
and in how many rounds the second side was better.  A failed job or a
worker that dies makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# name, whether higher is better
METRICS = (("jobs_per_s", True), ("verdict_s.p50", False), ("verdict_s.tail", False))


def worker(checkout: Path, name: str, seed: int) -> int:
    """Answer each line on stdin with one timed pass's metrics as JSON."""
    sys.path[:0] = [str(checkout / "perfbench"), str(checkout / "src")]
    import run  # the checkout's perfbench/run.py, which imports its workloads.py

    workload = run.workloads.WORKLOADS[name](seed)

    def one_pass() -> dict:
        times, failed, start = [], 0, perf_counter()
        for job in workload.jobs:
            outcome, elapsed = run.run_job(workload, job)
            times.append(elapsed)
            failed += outcome.verdict == "error" or workload.check(job, outcome) is not None
        wall = perf_counter() - start
        return {"jobs_per_s": len(times) / wall, "verdict_s.p50": statistics.median(times),
                "verdict_s.tail": run.tail(times)[0], "failed": failed}

    one_pass()
    print("ready", flush=True)
    for _ in sys.stdin:
        print(json.dumps(one_pass()), flush=True)
    return 0


def start(checkout: Path, name: str, seed: int) -> subprocess.Popen:
    # a worker takes its checkout as both positional arguments
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), str(checkout), str(checkout),
         "--workload", name, "--seed", str(seed), "--worker"],
        cwd=checkout, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    if proc.stdout.readline().strip() != "ready":
        raise SystemExit(f"ab_passes: the worker for {checkout} did not start")
    return proc


def timed_pass(proc: subprocess.Popen) -> dict:
    proc.stdin.write("pass\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise SystemExit("ab_passes: a worker exited during a pass")
    return json.loads(line)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("first", type=Path, help="checkout measured as the base, such as the parent")
    ap.add_argument("second", type=Path, help="checkout compared with it, such as the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        return worker(args.first.resolve(), args.workload, args.seed)

    sides = [start(path.resolve(), args.workload, args.seed)
             for path in (args.first, args.second)]
    results: list[tuple[dict, dict]] = []
    failed = 0
    try:
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            got: dict[int, dict] = {}
            for k in order:
                got[k] = timed_pass(sides[k])
            results.append((got[0], got[1]))
            failed += got[0]["failed"] + got[1]["failed"]
            print(f"# round {r + 1}, {'first' if order[0] == 0 else 'second'} side first: " +
                  "; ".join(f"{m} {got[0][m]:.6g} / {got[1][m]:.6g}" for m, _ in METRICS),
                  flush=True)
    finally:
        for proc in sides:
            proc.stdin.close()
            proc.wait(timeout=60)
    for m, higher in METRICS:
        first = [a[m] for a, _ in results]
        second = [b[m] for _, b in results]
        wins = sum((b > a) if higher else (b < a) for a, b in zip(first, second))
        ratio = statistics.median(b / a for a, b in zip(first, second))
        print(f"{m} first {statistics.median(first):.6g} second {statistics.median(second):.6g} "
              f"ratio {ratio:.4f} second better in {wins} of {len(results)}")
    if failed:
        print(f"# {failed} jobs failed their known-answer check")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""The mvcorr benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload verify-named --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  The run generates the workload's jobs from `--seed`, then runs
whole passes over them, one job at a time, starting a new pass while less
than `--seconds` have elapsed.  Every verdict is checked against the known
answers in `expected.json` (and every counterexample re-evaluated with the
reference evaluator); a mismatch, an exception or a refused budget counts
as a failed job and makes the exit status 1.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs each job
once untraced and once traced, and reports the per-layer metrics from
spans recorded around the calls into each layer (see tracing.py).
Per-layer times and counts are totals per pass over the job list.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Per-job rows, the run's
stamp and, when traced, the spans go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "mvcorr").is_dir():
    # never measure an installed copy in place of the checkout's source
    sys.exit(f"perfbench: no program source at {ROOT / 'src' / 'mvcorr'}")
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the program on the path)
from tracing import Tracer  # noqa: E402

# set-up probes run half before and half after the timed passes, so that
# their median spans the run rather than one moment of the machine's speed
SETUP_PROBES = 8
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
RESULTS = HERE / "results"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child process that only sets up, for setup_s
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# -- set-up ---------------------------------------------------------------------------


def probe_setup(workload: str, seed: int, probes: int) -> tuple[list, list]:
    """Wall times from process start until the jobs are ready, and algebra
    load times, of fresh child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", workload, "--seed", str(seed), "--setup-probe"]
    totals, loads = [], []
    for _ in range(probes):
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or not line:
            raise SystemExit(f"set-up probe exited with {code}")
        totals.append(ready)
        loads.append(json.loads(line)["load_s"])
    return totals, loads


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- the timed loop -------------------------------------------------------------------


def run_job(workload, job):
    start = perf_counter()
    try:
        outcome = workload.run(job)
    except Exception:  # a raising job is a failed job; the run goes on
        outcome = workloads.Outcome("error", {}, traceback.format_exc(limit=4))
    return outcome, perf_counter() - start


def run_passes(workload, seconds: float, tracer: Tracer | None):
    records = []
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for job in workload.jobs:
            outcome, elapsed = run_job(workload, job)
            rec = {"pass": passes, "job": job, "outcome": outcome, "seconds": elapsed}
            if tracer is not None:
                tracer.job = len(records)
                tracer.install()
                root = tracer.open("job", "bench")
                try:
                    rec["traced"] = run_job(workload, job)
                finally:
                    tracer.close(root)
                    tracer.uninstall()
            records.append(rec)
        passes += 1
    return records, perf_counter() - start, passes


def check_records(workload, records) -> int:
    failed = 0
    for rec in records:
        job, outcome = rec["job"], rec["outcome"]
        if outcome.verdict == "error":
            why = "raised " + outcome.evidence
        else:
            why = workload.check(job, outcome)
        if why is None and "traced" in rec:
            traced = rec["traced"][0]
            if (traced.verdict, traced.counters) != (outcome.verdict, outcome.counters):
                why = (f"traced run gave {traced.verdict} {traced.counters}, "
                       f"untraced {outcome.verdict} {outcome.counters}")
        rec["why"] = why
        failed += why is not None
    return failed


# -- metrics --------------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest nearest-rank percentile with TAIL_BEYOND samples beyond
    it: its value, the percentile, and the number of samples beyond."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def end_to_end(records, wall: float, setup_s: float) -> tuple[dict, dict]:
    times = [r["seconds"] for r in records]
    # the tail is taken within each pass, so its percentile depends on the
    # pass size only, not on how many passes fitted into the run
    passes = defaultdict(list)
    for r in records:
        passes[r["pass"]].append(r["seconds"])
    tails = [tail(p) for p in passes.values()]
    value = statistics.median(t[0] for t in tails)
    _, pct, beyond = tails[0]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(records) / wall, "1/s"),
        "verdict_s.p50": (statistics.median(times), "s"),
        "verdict_s.tail": (value, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return metrics, {"percentile": round(pct, 2), "beyond": beyond,
                     "samples": len(passes[0]), "passes": len(passes)}


def span_totals(spans, rule_of) -> tuple[dict, dict]:
    """Per-layer times and counts from (span, self time) pairs, and the
    self time of each layer."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    units: dict[str, int] = defaultdict(int)
    built = 0
    layer_self: dict[str, float] = defaultdict(float)
    rule_s: dict[str, float] = defaultdict(float)
    rule_vals: dict[str, int] = defaultdict(int)
    for s, own in spans:
        seconds[s.name] += s.duration
        calls[s.name] += 1
        units[s.name] += s.units
        layer_self[s.layer] += own
        if s.name in ("oracle.iter_frames", "oracle.sample_frames"):
            built += s.count
        if s.name == "stepcheck.verify_step":
            rule_s[rule_of(s.job)] += s.duration
            rule_vals[rule_of(s.job)] += s.units

    oracle_s = seconds["oracle.correspondence_oracle"]
    enum_s = seconds["oracle.iter_frames"] + seconds["oracle.sample_frames"]
    modal_s = seconds["oracle.valid_at"]
    interp_s = seconds["oracle.interp_for_frame"]
    oracle_units = units["oracle.correspondence_oracle"]
    modal_units = units["oracle.valid_at"]
    out = {
        # the first-order side is what the oracle spends outside the modal
        # side, frame enumeration and interpretation set-up
        "fol.fo_s": (oracle_s - modal_s - enum_s - interp_s, "s"),
        "fol.fo_units": (oracle_units - modal_units, "count"),
        "fol.interp_s": (interp_s, "s"),
        "semantics.modal_s": (modal_s, "s"),
        "semantics.modal_calls": (calls["oracle.valid_at"], "count"),
        "semantics.modal_units": (modal_units, "count"),
        "semantics.compile_s": (seconds["stepcheck.compile_eval"], "s"),
        "semantics.compiles": (calls["stepcheck.compile_eval"], "count"),
        "stepcheck.s": (seconds["stepcheck.verify_step"], "s"),
        "stepcheck.steps": (calls["stepcheck.verify_step"], "count"),
        "stepcheck.valuations": (units["stepcheck.verify_step"], "count"),
        "oracle.s": (oracle_s, "s"),
        "oracle.self_s": (layer_self["oracle"], "s"),
        "oracle.calls": (calls["oracle.correspondence_oracle"], "count"),
        "oracle.frames_built": (built, "count"),
        "oracle.units": (oracle_units, "count"),
        "alba.run_s": (seconds["alba.run_alba"], "s"),
        "alba.runs": (calls["alba.run_alba"], "count"),
        "trees.classify_s": (seconds["trees.is_inductive"], "s"),
        "trees.calls": (calls["trees.is_inductive"], "count"),
        "syntax.parse_s": (seconds["syntax.parse_formula"], "s"),
        "syntax.calls": (calls["syntax.parse_formula"], "count"),
    }
    for rule in rule_s:
        out[f"stepcheck.rule.{rule}.s"] = (rule_s[rule], "s")
        out[f"stepcheck.rule.{rule}.valuations"] = (rule_vals[rule], "count")
    return out, layer_self


def per_layer(tracer: Tracer, records, passes: int, load_s: float,
              rules) -> tuple[dict, dict]:
    """Per-pass layer metrics of a traced run; each record also gets the
    layer metrics of its own job."""
    pairs = list(zip(tracer.spans, tracer.self_times()))

    def rule_of(job: int) -> str:
        return records[job]["job"].key

    by_job = defaultdict(list)
    for pair in pairs:
        by_job[pair[0].job].append(pair)
    for job, job_pairs in by_job.items():
        totals, _ = span_totals(job_pairs, rule_of)
        records[job]["layers"] = {k: v for k, (v, _) in totals.items() if v}

    totals, layer_self = span_totals(pairs, rule_of)
    for key in ("oracle.frames", "oracle.states", "alba.trace_steps"):
        totals[key] = (sum(r["traced"][0].counters.get(key, 0) for r in records), "count")
    for rule in rules:
        totals.setdefault(f"stepcheck.rule.{rule}.s", (0.0, "s"))
        totals.setdefault(f"stepcheck.rule.{rule}.valuations", (0, "count"))
    metrics = {k: (v / passes, unit) for k, (v, unit) in totals.items()}
    built = totals["oracle.frames_built"][0]
    metrics["oracle.frames_checked_ratio"] = (
        totals["oracle.frames"][0] / built if built else 0.0, "ratio")
    metrics["heyting.load_s"] = (load_s, "s")
    untraced = sum(r["seconds"] for r in records)
    traced = sum(r["traced"][1] for r in records)
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    return metrics, {layer: own / passes for layer, own in sorted(layer_self.items())}


# -- output ---------------------------------------------------------------------------


def row(rec) -> dict:
    out = {
        "pass": rec["pass"],
        "job": rec["job"].key,
        "inputs": rec["job"].inputs,
        "verdict": rec["outcome"].verdict,
        "seconds": rec["seconds"],
        "counters": rec["outcome"].counters,
        "ok": rec["why"] is None,
    }
    if rec["why"] is not None:
        out["why"] = rec["why"]
    if "traced" in rec:
        out["traced_seconds"] = rec["traced"][1]
        out["layers"] = rec.get("layers", {})
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    cls = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        probe = cls(args.seed)
        print(json.dumps({"load_s": probe.load_s, "generate_s": probe.generate_s}),
              flush=True)
        return 0

    before = SETUP_PROBES // 2
    totals, loads = probe_setup(args.workload, args.seed, before)
    workload = cls(args.seed)
    tracer = Tracer() if args.trace else None
    records, wall, passes = run_passes(workload, args.seconds, tracer)
    after = probe_setup(args.workload, args.seed, SETUP_PROBES - before)
    setup_s = statistics.median(totals + after[0])
    load_s = statistics.median(loads + after[1])
    failed = check_records(workload, records)

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "job_list_hash": workload.job_list_hash(),
        "jobs_per_pass": len(workload.jobs),
        "passes": passes,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "git_sha": git_sha(),
        "trace": args.trace,
    }
    extra: dict = {}
    if tracer is None:
        metrics, extra["verdict_s.tail"] = end_to_end(records, wall, setup_s)
    else:
        rules = sorted(workloads.load_expected()["stepcheck-traces"])
        metrics, extra["layer_self_s"] = per_layer(tracer, records, passes, load_s, rules)

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(f"{stem}.spans.jsonl.gz")
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    rows_path = Path(f"{stem}.json")
    rows_path.write_text(json.dumps({
        "stamp": stamp,
        "metrics": reported,
        **extra,
        "failed_ratio": failed / len(records),
        "rows": [row(r) for r in records],
    }, indent=1) + "\n")

    for k, v in stamp.items():
        print(f"# {k}: {v}")
    for k, (v, u) in metrics.items():
        print(f"{k} {v:.6g} {u}")
    if "verdict_s.tail" in extra:
        t = extra["verdict_s.tail"]
        print(f"# verdict_s.tail is p{t['percentile']} of the {t['samples']} verdicts "
              f"of a pass ({t['beyond']} beyond it), median over {t['passes']} passes")
    if "layer_self_s" in extra:
        total = sum(extra["layer_self_s"].values())
        for layer, own in extra["layer_self_s"].items():
            print(f"# self time per pass {layer}: {own:.4f} s ({100 * own / total:.1f}%)")
    print(f"failed_ratio {failed / len(records):.6g} ratio")
    for rec in records:
        if rec["why"] is not None:
            print(f"# FAILED {rec['job'].key}: {rec['why']}")
    print(f"# rows: {rows_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": reported,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

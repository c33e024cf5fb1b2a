"""Self-tests of the benchmark: `python3 -m pytest -q perfbench`.

They run a handful of cheap jobs, not whole passes.
"""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from mvcorr import oracle, semantics  # noqa: E402
from tracing import Tracer  # noqa: E402

CHEAP = {
    "verify-named": lambda job: job.key == "reflexive@1/property",
    "refute-mismatch": lambda job: job.key.startswith(("reflexive@", "serial@")),
    "stepcheck-traces": lambda job: job.key in ("discard-true", "co-residuate-or",
                                                "approx-dia"),
}


def cheap_jobs(workload, limit=3):
    return [j for j in workload.jobs if CHEAP[workload.name](j)][:limit]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_jobs_and_counters(name):
    cls = workloads.WORKLOADS[name]
    first, second = cls(7), cls(7)
    assert first.job_list_hash() == second.job_list_hash()
    assert first.description() == second.description()
    assert cls(8).job_list_hash() != first.job_list_hash()
    jobs_a, jobs_b = cheap_jobs(first), cheap_jobs(second)
    assert jobs_a and [j.key for j in jobs_a] == [j.key for j in jobs_b]
    for ja, jb in zip(jobs_a, jobs_b):
        a, b = first.run(ja), second.run(jb)
        assert first.check(ja, a) is None
        assert (a.verdict, a.counters) == (b.verdict, b.counters)
        assert a.counters


def test_traced_self_times_add_up():
    tracer = Tracer()
    picked = []
    for name in sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name](3)
        picked += [(workload, job) for job in cheap_jobs(workload, limit=1)]
    tracer.install()
    try:
        for i, (workload, job) in enumerate(picked):
            tracer.job = i
            root = tracer.open("job", "bench")
            try:
                workload.run(job)
            finally:
                tracer.close(root)
    finally:
        tracer.uninstall()
    assert oracle.valid_at is semantics.valid_at

    spans = tracer.spans
    names = {s.name for s in spans}
    assert {"oracle.valid_at", "fol.CompiledFo.value", "oracle.iter_frames",
            "stepcheck.verify_step", "stepcheck.compile_eval"} <= names
    own = tracer.self_times()
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
            children[s.parent] += s.duration
    for s, self_s, kids in zip(spans, own, children):
        assert self_s >= 0
        assert self_s + kids == pytest.approx(s.duration, abs=1e-9)
    roots = [s for s in spans if s.parent < 0]
    assert len(roots) == len(picked)
    assert sum(own) == pytest.approx(sum(s.duration for s in roots), abs=1e-6)


def test_corrupted_counterexample_is_rejected():
    workload = workloads.WORKLOADS["refute-mismatch"](5)
    job = next(j for j in workload.jobs if j.key == "symmetric@alpha/at-1")
    outcome = workload.run(job)
    assert outcome.verdict == "FAIL"
    assert workload.check(job, outcome) is None

    source, a, alpha, threshold, report = outcome.evidence
    ce = report.counterexample

    def with_counterexample(**changes):
        bad = dataclasses.replace(report, counterexample=dataclasses.replace(ce, **changes))
        return workloads.Outcome("FAIL", outcome.counters,
                                 (source, a, alpha, threshold, bad))

    assert workload.check(job, with_counterexample(fo_verdict=not ce.fo_verdict))
    assert workload.check(job, with_counterexample(
        modal_verdict=not ce.modal_verdict, fo_verdict=not ce.fo_verdict))
    one_state = next(oracle.iter_frames(workload.alg, 1))
    agreeing = dataclasses.replace(one_state, rel=((workload.alg.top,),))
    assert workload.check(job, with_counterexample(frame=agreeing, state=0))
    assert workload.check(job, workloads.Outcome("PASS", outcome.counters,
                                                 outcome.evidence))


def test_tail_has_ten_samples_beyond_it():
    times = [float(i) for i in range(120)]
    value, pct, beyond = run.tail(times)
    assert (value, beyond) == (109.0, 10)
    assert pct == pytest.approx(100 * 110 / 120)

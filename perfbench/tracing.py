"""In-memory spans around the mvcorr functions each layer's callers look up.

The tracer replaces module attributes (for example `mvcorr.oracle.valid_at`,
which `correspondence_oracle` resolves through its module globals on every
call) with timing wrappers, and puts the originals back on `uninstall`.
No file of the program changes.  Spans nest strictly because everything
runs in one thread: a span opened while another is open is its child.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter

from mvcorr import alba, oracle, stepcheck, syntax, trees


class Span:
    __slots__ = ("name", "layer", "job", "parent", "start", "end", "units", "count")

    def __init__(self, name: str, layer: str, job: int, parent: int):
        self.name = name
        self.layer = layer
        self.job = job
        self.parent = parent
        self.start = perf_counter()
        self.end = self.start
        self.units = 0  # budget units charged inside the span
        self.count = 0  # items the call produced (frames built)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _budget_arg(position: int):
    def get(args, kwargs):
        if len(args) > position:
            return args[position]
        return kwargs.get("budget")

    return get


class Tracer:
    """Spans of one benchmark process, kept in memory until `write`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, layer, self.job, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()

    def traced(self, fn, name: str, layer: str, budget_of=None, on_result=None):
        def wrapper(*args, **kwargs):
            budget = budget_of(args, kwargs) if budget_of else None
            before = budget.used if budget is not None else 0
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    result = on_result(span, result)
            finally:
                self.close(span)
                if budget is not None:
                    span.units = budget.used - before
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def patch(self, module, attr: str, layer: str, **kw) -> None:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(module, attr, self.traced(original, name, layer, **kw))
        self._undo.append((module, attr, original))

    def install(self) -> None:
        """Wrap every layer boundary the benchmark's jobs cross."""
        if self._undo:
            return
        self.patch(syntax, "parse_formula", "syntax")
        self.patch(trees, "is_inductive", "trees")
        self.patch(alba, "run_alba", "alba")
        self.patch(oracle, "correspondence_oracle", "oracle",
                   budget_of=_budget_arg(8))
        self.patch(oracle, "iter_frames", "oracle", on_result=_materialise)
        self.patch(oracle, "sample_frames", "oracle", on_result=_materialise)
        self.patch(oracle, "interp_for_frame", "fol")
        self.patch(oracle, "valid_at", "semantics", budget_of=_budget_arg(4))
        self.patch(oracle, "CompiledFo", "fol", on_result=self._trace_value)
        self.patch(stepcheck, "verify_step", "stepcheck",
                   budget_of=_budget_arg(2))
        self.patch(stepcheck, "compile_eval", "semantics")

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _trace_value(self, span: Span, evaluator):
        # the oracle calls `evaluator.value(env)` once per state and
        # assignment; an instance attribute shadows the class method
        evaluator.value = self.traced(evaluator.value, "fol.CompiledFo.value", "fol")
        return evaluator

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(
                    [i, s.parent, s.job, s.name, s.layer,
                     round(s.start, 9), round(s.end, 9), s.units, s.count]
                ) + "\n")


def _materialise(span: Span, frames):
    # `correspondence_oracle` extends its frame list from these calls at
    # once, so building the list inside the span times the enumeration
    frames = list(frames)
    span.count = len(frames)
    return frames

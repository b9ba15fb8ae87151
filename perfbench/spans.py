"""In-memory span tracer and the wrapping that records spans per layer.

The library carries no tracing of its own, so the traced run records spans
from here: :func:`wrapped` replaces each layer's public functions, *where
their callers look them up*, with a wrapper that opens a span around the
original call.  ``compute_forward_layers`` is patched in
``repro.core.dp_solver`` (which imports it by name), methods are patched on
their class, and everything is restored on exit.  A wrapper returns the
original's result unchanged, so tracing cannot change a plan.

A span is ``(name, start_ns, end_ns, parent)``; its layer is the part of
the name before the first dot.  A span's self time is its duration minus
the part of its interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 for a root


class Tracer:
    """Records nested spans in memory; does nothing while inactive.

    Spans are kept in flat arrays rather than one object each, so that
    hundreds of thousands of them do not slow the garbage collector down
    for the code being traced.
    """

    def __init__(self) -> None:
        self.active = False
        self._reset()
        self._stack: list[int] = []

    def _reset(self) -> None:
        self._names: list[str] = []
        self._starts = array("q")
        self._ends = array("q")
        self._parents = array("q")
        #: Counts taken from wrapped calls' results, by name.
        self.counts: dict[str, int] = {}

    def open(self, name: str) -> int:
        index = len(self._names)
        self._names.append(name)
        self._parents.append(self._stack[-1] if self._stack else -1)
        self._ends.append(0)
        self._stack.append(index)
        self._starts.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self._ends[index] = time.perf_counter_ns()
        popped = self._stack.pop()
        assert popped == index, "spans must close innermost first"

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run a block (e.g. an output check) without recording it."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def take(self) -> tuple[list[Span], dict[str, int]]:
        """Return and forget the spans and counts recorded so far."""
        assert not self._stack, "cannot take spans while one is open"
        spans = [Span(*row) for row in zip(self._names, self._starts,
                                           self._ends, self._parents)]
        counts = self.counts
        self._reset()
        return spans, counts


def self_times(spans: list[Span]) -> list[int]:
    """Per span: its duration minus the union of its children's intervals,
    each clipped to the parent's interval."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(
                (span.start_ns, span.end_ns))
    result = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start_ns
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.end_ns - span.start_ns - covered)
    return result


@dataclass
class SpanSummary:
    """Self time and call count per span name."""

    self_ns: dict[str, int]
    calls: dict[str, int]

    def layer_self_ns(self, layer: str) -> int:
        return sum(ns for name, ns in self.self_ns.items()
                   if name.split(".", 1)[0] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items()
                   if name.split(".", 1)[0] == layer)


def summarize(*runs: list[Span]) -> SpanSummary:
    """Totals over one or more runs of spans (each run indexes its own
    parents)."""
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    for spans in runs:
        for span, own in zip(spans, self_times(spans)):
            self_ns[span.name] = self_ns.get(span.name, 0) + own
            calls[span.name] = calls.get(span.name, 0) + 1
    return SpanSummary(self_ns=self_ns, calls=calls)


def write_spans(path, phases: dict[str, list[Span]]) -> None:
    """Tab-separated spans, one per line, grouped by phase."""
    with open(path, "w") as out:
        out.write("phase\tindex\tparent\tname\tstart_ns\tend_ns\n")
        for phase, spans in phases.items():
            for index, span in enumerate(spans):
                out.write(f"{phase}\t{index}\t{span.parent}\t{span.name}\t"
                          f"{span.start_ns}\t{span.end_ns}\n")


# -- wrapping -----------------------------------------------------------------


def _forward_counts(tracer: Tracer, layers) -> None:
    tracer.add("resource_state.states", layers.states_computed)
    tracer.add("resource_state.dedup_hits", layers.dedup_hits)


def _plan_counts(tracer: Tracer, result) -> None:
    tracer.add("planner.candidates", result.candidates_evaluated)
    tracer.add("planner.ooms", result.oom_plans_generated)


#: (module, attribute path as the caller looks it up, span name, optional
#: hook called with the tracer and the result).
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.core.simulator", "build_environment", "environment.build", None),
    ("repro.profiler.compute", "ComputeProfiler.profile",
     "environment.profile_compute", None),
    ("repro.profiler.network", "NetworkProfiler.profile_all_pairs",
     "environment.profile_network", None),
    ("repro.core.planner", "consolidate_zones",
     "heuristics.consolidate_zones", None),
    ("repro.core.planner", "pipeline_parallel_candidates",
     "heuristics.pipeline_parallel_candidates", None),
    ("repro.core.planner", "microbatch_candidates",
     "heuristics.microbatch_candidates", None),
    ("repro.core.planner", "min_tp_per_stage",
     "heuristics.min_tp_per_stage", None),
    ("repro.core.planner", "tp_options_for_stage",
     "heuristics.tp_options_for_stage", None),
    ("repro.core.planner", "data_parallel_candidates",
     "heuristics.data_parallel_candidates", None),
    ("repro.core.search_cache", "PlannerSearchContext.partitions",
     "search_cache.partitions", None),
    ("repro.core.search_cache", "PlannerSearchContext.stage_assignment",
     "search_cache.stage_assignment", None),
    ("repro.core.search_cache", "PlannerSearchContext.forward_layers",
     "search_cache.forward_layers", None),
    ("repro.core.search_cache", "PlannerSearchContext.budget_bounds",
     "search_cache.budget_bounds", None),
    ("repro.core.search_cache", "PlannerSearchContext.family_stage_floors",
     "search_cache.family_stage_floors", None),
    ("repro.core.search_cache", "PlannerSearchContext.availability_floors",
     "search_cache.availability_floors", None),
    ("repro.core.search_cache", "PlannerSearchContext.stage_options",
     "search_cache.stage_options", None),
    ("repro.core.search_cache", "PlannerSearchContext.stage_master_combos",
     "search_cache.stage_master_combos", None),
    ("repro.core.dp_solver", "compute_forward_layers",
     "resource_state.forward", _forward_counts),
    ("repro.core.dp_solver", "compute_budget_bounds",
     "resource_state.bounds", None),
    ("repro.core.resource_state", "ResourceStateEngine.run_backward",
     "resource_state.backward", None),
    ("repro.core.dp_solver", "DPSolver.solve", "dp_solver.solve", None),
    ("repro.core.simulator.evaluator", "SailorSimulator.evaluate",
     "simulator.evaluate", None),
    ("repro.core.simulator.evaluator", "SailorSimulator.iteration_time_floor",
     "simulator.floor", None),
    ("repro.core.simulator.evaluator", "SailorSimulator.cost_floor",
     "simulator.floor", None),
    ("repro.core.simulator.evaluator", "SailorSimulator.oom_stages",
     "simulator.oom_stages", None),
    ("repro.core.planner", "SailorPlanner.plan", "planner.plan",
     _plan_counts),
    ("repro.runtime.controller",
     "TrainingController.handle_availability_change",
     "controller.availability_change", None),
    ("repro.runtime.controller", "TrainingController.handle_price_change",
     "controller.price_change", None),
    ("repro.runtime.controller", "TrainingController.maybe_retry",
     "controller.retry", None),
    ("repro.runtime.replay", "ChurnReplayer.run", "replay.run", None),
    ("repro.runtime.reconfiguration", "ReconfigurationModel.breakdown",
     "replay.reconfiguration_model", None),
)


def wrap(tracer: Tracer, name: str, fn: Callable,
         hook: Callable | None = None) -> Callable:
    """``fn`` with a span named ``name`` around every call made while the
    tracer is active; the result is passed through untouched."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if hook is not None:
            hook(tracer, result)
        return result

    wrapper.__wrapped_by_perfbench__ = True
    return wrapper


def _resolve(module_name: str, path: str) -> tuple[object, str]:
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def wrapped(tracer: Tracer, targets=TARGETS) -> Iterator[None]:
    """Install a span wrapper on every target and record spans until the
    block ends; then restore every target."""
    saved = []
    try:
        for module_name, path, name, hook in targets:
            owner, attr = _resolve(module_name, path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(tracer, name, original, hook))
        tracer.active = True
        yield
    finally:
        tracer.active = False
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

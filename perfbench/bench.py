"""The benchmark proper: set-up, passes, output checks and metrics.

Imported by ``run.py`` once ``src/`` is on the path; see its docstring for
how a run is laid out and ``LAYERS.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import spans, speed, workloads
from repro.core import simulator as simulator_pkg
from repro.core.objectives import Objective
from repro.core.plan import SearchStats
from repro.core.planner import PlannerConfig, SailorPlanner
from repro.core.serialization import plan_from_json, plan_to_json
from repro.core.simulator import SailorSimulator
from repro.hardware.topology import ClusterTopology
from repro.runtime.controller import DegradationTier, ReplanPolicy
from repro.runtime.reconfiguration import ReconfigurationModel
from repro.runtime.replay import ChurnReplayer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Set-up is repeated this many times per run; the median counts.
SETUP_REPEATS = 3
#: Fresh interpreters timed importing the library; the median counts.
IMPORT_REPEATS = 3
IMPORTS = ("import repro.core.planner, repro.core.simulator, "
           "repro.runtime.replay")
#: A cold plan's deployment is modeled for this long (``goodput_iters``).
DEPLOYMENT_S = 3600.0


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def build_env(job, topology):
    # Looked up on the package at each call, so the traced run's wrapper
    # sees it.
    return simulator_pkg.build_environment(job, topology)


@dataclass
class OpResult:
    """One operation: a plan call, or one controller reaction."""

    seconds: float
    ok: bool


@dataclass
class PassResult:
    """What one pass over a workload's inputs measured and checked."""

    wall_s: float
    replay: bool = False
    ops: list[OpResult] = field(default_factory=list)
    #: ``plan_to_json`` of every chosen plan ("" where none was), or the
    #: replay's timed plan history: what the determinism digest hashes.
    plans: list[str] = field(default_factory=list)
    #: Wall time of every plan call, in problem order (the planner calls
    #: of the controller, for ``churn``).
    plan_times: list[float] = field(default_factory=list)
    #: Quality of the chosen plans: (kind, iters/s, USD/iter).
    quality: list[tuple[str, float, float]] = field(default_factory=list)
    gaps: list[float] = field(default_factory=list)
    deadline_ratios: list[float] = field(default_factory=list)
    goodput_iters: float = 0.0
    reconfig_overhead_frac: float = 0.0
    modeled_reconfig_s: float = 0.0
    stats: dict[str, int] = field(default_factory=dict)

    def op_time(self) -> float:
        """Time of the timed operations (the whole replay, for churn)."""
        if self.replay:
            return self.wall_s
        return sum(op.seconds for op in self.ops)


class Bench:
    """One run: set-up, passes and the metrics they yield."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.tracer = spans.Tracer()
        self.setup_spans: list[spans.Span] = []
        # The traced run reports no end-to-end durations to scale.
        self.speed = speed.SpeedProbe()
        self.speed.enabled = not args.trace

    # -- set-up ---------------------------------------------------------------

    @staticmethod
    def import_s() -> float:
        """Median wall time of a fresh interpreter importing the library."""
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        times = []
        for _ in range(IMPORT_REPEATS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", IMPORTS], env=env,
                           check=True)
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def setup_once(self):
        workload = workloads.generate(self.args.workload, self.args.seed)
        if workload.churn is not None:
            envs = [build_env(workload.churn.job,
                              workload.churn.base_topology)]
        else:
            envs = [build_env(p.job, p.topology) for p in workload.problems]
        job = workloads.make_job("OPT-350M")
        topology = ClusterTopology.single_zone("us-central1-a", {
            "a2-highgpu-4g": 4, "n1-standard-v100-4": 4})
        SailorPlanner(build_env(job, topology)).plan(
            job, topology, Objective.max_throughput())
        return workload, envs

    def setup(self):
        """Set up ``SETUP_REPEATS`` times and keep the last inputs."""
        import_s = self.import_s()
        times = []
        env_ns = []
        for _ in range(SETUP_REPEATS):
            self.speed.maybe_sample()
            start = time.perf_counter()
            workload, envs = self.setup_once()
            times.append(time.perf_counter() - start)
            if self.tracer.active:
                self.setup_spans, _ = self.tracer.take()
                env_ns.append(sum(s.end_ns - s.start_ns
                                  for s in self.setup_spans
                                  if s.name == "environment.build"))
        self.setup_s = import_s + statistics.median(times)
        self.environment_s = (statistics.median(env_ns) / 1e9
                              if env_ns else 0.0)
        return workload, envs

    # -- passes ---------------------------------------------------------------

    def run_pass(self, workload, envs) -> PassResult:
        sampling_s = self.speed.spent_s
        if workload.churn is not None:
            out = self.churn_pass(workload.churn)
        else:
            out = self.plan_pass(workload.problems, envs)
        out.wall_s -= self.speed.spent_s - sampling_s
        return out

    def plan_pass(self, problems, envs) -> PassResult:
        results = []
        pass_start = time.perf_counter()
        for problem, env in zip(problems, envs):
            planner = SailorPlanner(env, PlannerConfig(
                time_limit_s=problem.time_limit_s))
            self.speed.maybe_sample()
            with self.op_span():
                start = time.perf_counter()
                try:
                    result = planner.plan(problem.job, problem.topology,
                                          problem.objective)
                except Exception as exc:  # reported, and counted as failed
                    traceback.print_exc(file=sys.stderr)
                    result = exc
                seconds = time.perf_counter() - start
            results.append((problem, env, result, seconds))
        out = PassResult(wall_s=time.perf_counter() - pass_start)
        stats = SearchStats()
        with self.tracer.paused():
            for problem, env, result, seconds in results:
                out.ops.append(check_plan(problem, env, result, seconds,
                                          out))
                if not isinstance(result, Exception):
                    stats.merge(result.search_stats)
        out.stats = stats.as_dict()
        return out

    def churn_pass(self, case) -> PassResult:
        replayer = ChurnReplayer(
            build_env(case.job, case.base_topology), case.job,
            Objective.max_throughput(),
            policy=ReplanPolicy(deterministic_timing=True))
        controller = replayer.controller
        event_times: list[float] = []

        def timed(method):
            def call(*args, **kwargs):
                self.speed.maybe_sample()
                start = time.perf_counter()
                try:
                    return method(*args, **kwargs)
                finally:
                    event_times.append(time.perf_counter() - start)
            return call

        # The replayer calls these on the controller instance, so the
        # instance attributes shadow the (possibly traced) class methods.
        for name in ("handle_availability_change", "handle_price_change",
                     "maybe_retry"):
            setattr(controller, name, timed(getattr(controller, name)))
        with self.op_span():
            start = time.perf_counter()
            report = replayer.run(case.trace,
                                  base_topology=case.base_topology)
            wall = time.perf_counter() - start

        out = PassResult(wall_s=wall, replay=True)
        with self.tracer.paused():
            check_churn(case, report, controller, event_times, out)
        return out

    # -- run loop -------------------------------------------------------------

    def run(self) -> int:
        args = self.args
        with self.traced(args.trace):
            workload, envs = self.setup()
        passes: list[PassResult] = []
        traced: list[PassResult] = []
        traced_spans: list[list[spans.Span]] = []
        traced_counts: list[dict[str, int]] = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            passes.append(self.run_pass(workload, envs))
            if args.trace:
                with self.traced(True):
                    traced.append(self.run_pass(workload, envs))
                recorded, counts = self.tracer.take()
                traced_spans.append(recorded)
                traced_counts.append(counts)
            last = time.perf_counter() - pass_start
            if time.perf_counter() - start + last > args.seconds:
                break
        digest, deterministic = plans_digest(workload, passes + traced)
        failed = sum(not op.ok for p in passes + traced for op in p.ops)
        failed += 0 if deterministic else 1
        attempted = sum(len(p.ops) for p in passes + traced)
        print(f"workload {args.workload} seed {args.seed}: "
              f"{len(passes)} pass(es), {attempted} operations, "
              f"{failed} failed")
        print(f"digest {digest}")
        if args.trace:
            metrics = self.layer_metrics(passes, traced, traced_spans,
                                         traced_counts)
            self.write_spans(traced_spans)
        else:
            metrics = self.end_to_end(workload, passes, attempted, failed)
        for name, (value, unit) in metrics.items():
            print(f"  {name:32s} {value:.6g} {unit}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0

    def traced(self, on: bool):
        """Record spans inside the block when ``on``."""
        return spans.wrapped(self.tracer) if on else nullcontext()

    def op_span(self):
        """The root span of one timed operation, while tracing."""
        if self.tracer.active:
            return self.tracer.span("bench.op")
        return nullcontext()

    # -- metrics --------------------------------------------------------------

    def end_to_end(self, workload, passes, attempted, failed) -> dict:
        first = passes[0]
        plan_times = [t for p in passes for t in p.plan_times]
        if workload.churn is not None:
            typical = plan_times
            event_times = [op.seconds for p in passes for op in p.ops]
            events = sum(p.stats["events"] for p in passes)
        else:
            # Cold workloads: one event per plan call, and a problem's
            # median over the passes stands for it, so one slow call in a
            # run of a few dozen does not decide a percentile.
            typical = event_times = [statistics.median(times) for times in
                                     zip(*(p.plan_times for p in passes))]
            events = len(plan_times)
        iters = [q[1] for q in first.quality if q[0] != "cost"]
        usd = [q[2] for q in first.quality if q[0] == "cost"] or [
            q[2] for q in first.quality]
        gaps = [g for p in passes for g in p.gaps]
        ratios = [r for p in passes for r in p.deadline_ratios]
        overhead = first.reconfig_overhead_frac
        if workload.churn is None:
            overhead /= max(1, len(first.quality))
        # Durations at the reference speed (speed.py), except those of
        # calls a wall-clock deadline cuts.
        scale = self.speed.factor()
        op_scale = 1.0 if ratios else scale
        print(f"reference kernel {1e3 * speed.NOMINAL_S / scale:.2f} ms "
              f"(median of {len(self.speed.samples)}): durations x "
              f"{scale:.4f}" + (", set-up only" if ratios else ""))
        return {
            "setup_s": (self.setup_s * scale, "s"),
            "plan_gmean_s": (gmean(typical) * op_scale, "s"),
            "plans_per_s": (len(plan_times) / sum(plan_times) / op_scale,
                            "1/s"),
            "plan_iters_per_s_gmean": (gmean(iters), "iter/s"),
            "plan_usd_per_iter_gmean": (gmean(usd), "USD/iter"),
            "event_p50_ms": (
                1e3 * statistics.median(event_times) * op_scale, "ms"),
            "event_p95_ms": (
                1e3 * percentile(event_times, 0.95) * op_scale, "ms"),
            "events_per_s": (
                events / sum(p.wall_s for p in passes) / op_scale, "1/s"),
            "goodput_iters": (first.goodput_iters, "iter"),
            "reconfig_overhead_frac": (overhead, "ratio"),
            "deadline_bound_ratio": (
                statistics.fmean(1.0 / (1.0 - g) for g in gaps)
                if gaps else 1.0, "ratio"),
            "deadline_wall_ratio": (
                statistics.median(ratios) if ratios else 1.0, "ratio"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "success_rate": (1.0 - failed / max(1, attempted), "ratio"),
        }

    def layer_metrics(self, untraced, traced, traced_spans,
                      traced_counts) -> dict:
        """Per-layer metrics: times per traced pass, counts from the first
        traced pass."""
        n = len(traced)
        summary = spans.summarize(*traced_spans)
        stats = traced[0].stats
        counts = traced_counts[0]

        def per_pass_s(name=None, layer=None) -> float:
            if layer is not None:
                return summary.layer_self_ns(layer) / 1e9 / n
            return summary.self_ns.get(name, 0) / 1e9 / n

        def calls(name) -> float:
            return summary.calls.get(name, 0) / n

        op_ns = sum(s.end_ns - s.start_ns for run in traced_spans
                    for s in run if s.name == "bench.op")
        untraced_s = statistics.median(p.op_time() for p in untraced)
        traced_s = statistics.median(p.op_time() for p in traced)
        nodes = stats.get("nodes_explored", 0)
        memo = stats.get("memo_hits", 0)
        suffix = stats.get("suffix_iterations", 0)
        certified = stats.get("suffix_certified", 0)
        hits = stats.get("cache_hits", 0)
        states = counts.get("resource_state.states", 0)
        dedup = counts.get("resource_state.dedup_hits", 0)
        # Every fresh forward build starts from one root state; the other
        # states are children kept after dedup.
        children = states - summary.calls.get("resource_state.forward", 0)
        candidates = counts.get("planner.candidates", 0)
        killed = stats.get("candidates_killed_unevaluated", 0)
        replans = stats.get("replans", 0)
        return {
            "environment.s": (self.environment_s, "s"),
            "heuristics.calls": (summary.layer_calls("heuristics") / n,
                                 "count"),
            "heuristics.s": (per_pass_s(layer="heuristics"), "s"),
            "dp_solver.calls": (calls("dp_solver.solve"), "count"),
            "dp_solver.self_s": (per_pass_s(layer="dp_solver"), "s"),
            "dp_solver.nodes": (nodes, "count"),
            "dp_solver.memo_hit_ratio": (ratio(memo, memo + nodes), "ratio"),
            "dp_solver.suffix_iterations": (suffix, "count"),
            "dp_solver.suffix_certified_ratio": (
                ratio(certified, certified + suffix), "ratio"),
            "resource_state.forward_s": (
                per_pass_s("resource_state.forward"), "s"),
            "resource_state.backward_s": (
                per_pass_s("resource_state.backward"), "s"),
            "resource_state.bounds_s": (
                per_pass_s("resource_state.bounds"), "s"),
            "resource_state.states": (states, "count"),
            "resource_state.dedup_ratio": (
                ratio(dedup, children / n + dedup), "ratio"),
            "search_cache.self_s": (per_pass_s(layer="search_cache"), "s"),
            "search_cache.hit_ratio": (
                ratio(hits, hits + stats.get("cache_misses", 0)), "ratio"),
            "search_cache.layer_hits": (stats.get("layer_cache_hits", 0),
                                        "count"),
            "simulator.evaluate_calls": (calls("simulator.evaluate"),
                                         "count"),
            "simulator.evaluate_s": (per_pass_s("simulator.evaluate"), "s"),
            "simulator.floor_s": (per_pass_s("simulator.floor"), "s"),
            "simulator.gate_skip_ratio": (
                ratio(stats.get("gate_skips", 0), candidates), "ratio"),
            "planner.self_s": (per_pass_s(layer="planner"), "s"),
            "planner.candidates": (candidates, "count"),
            "planner.killed_ratio": (ratio(killed, killed + candidates),
                                     "ratio"),
            "planner.families_skipped": (stats.get("families_skipped", 0),
                                         "count"),
            "planner.oom_ratio": (ratio(counts.get("planner.ooms", 0),
                                        candidates), "ratio"),
            "budget.interrupts": (stats.get("budget_interrupts", 0),
                                  "count"),
            "budget.branches_incomplete": (
                stats.get("branches_incomplete", 0), "count"),
            "controller.self_s": (per_pass_s(layer="controller"), "s"),
            "controller.replans": (replans, "count"),
            "controller.warm_ratio": (
                ratio(stats.get("replans_warm", 0), replans), "ratio"),
            "controller.switches": (stats.get("switches", 0), "count"),
            "replay.self_s": (per_pass_s(layer="replay"), "s"),
            "replay.modeled_reconfig_s": (traced[0].modeled_reconfig_s, "s"),
            "unattributed_frac": (
                ratio(summary.self_ns.get("bench.op", 0), op_ns), "ratio"),
            "trace_overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
        }

    def write_spans(self, traced_spans) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        phases = {"setup": self.setup_spans}
        for index, run in enumerate(traced_spans):
            phases[f"pass{index}"] = run
        path = OUT_DIR / (f"spans-{self.args.workload}-"
                          f"seed{self.args.seed}.tsv")
        spans.write_spans(path, phases)
        print(f"spans written to {path.relative_to(ROOT)}")


# -- output checks ------------------------------------------------------------


def check_plan(problem, env, result, seconds, out: PassResult) -> OpResult:
    """Re-evaluate the chosen plan with a fresh simulator and record it."""
    out.plan_times.append(seconds)
    if problem.time_limit_s is not None:
        out.deadline_ratios.append(seconds / problem.time_limit_s)
    out.plans.append("")
    if isinstance(result, Exception) or not result.found:
        print(f"perfbench: {problem.label}: no plan", file=sys.stderr)
        return OpResult(seconds, False)
    plan = result.plan
    evaluation = SailorSimulator(env).evaluate(plan)
    ok = (evaluation.is_valid
          and plan.resource_allocation().fits_within(problem.topology)
          and problem.objective.constraint.satisfied_by(
              evaluation, total_gpus=plan.total_gpus)
          and math.isclose(evaluation.iteration_time_s,
                           result.evaluation.iteration_time_s, rel_tol=1e-12)
          and math.isclose(evaluation.cost_per_iteration_usd,
                           result.evaluation.cost_per_iteration_usd,
                           rel_tol=1e-12)
          and 0.0 <= result.optimality_gap_bound < 1.0)
    if not ok:
        print(f"perfbench: {problem.label}: plan failed its output check",
              file=sys.stderr)
        return OpResult(seconds, False)
    out.quality.append((problem.kind, evaluation.throughput_iters_per_s,
                        evaluation.cost_per_iteration_usd))
    out.gaps.append(result.optimality_gap_bound)
    pause = ReconfigurationModel().total_s(plan.total_gpus)
    out.goodput_iters += math.floor(
        (DEPLOYMENT_S - pause) / evaluation.iteration_time_s)
    out.reconfig_overhead_frac += pause / DEPLOYMENT_S
    out.plans[-1] = plan_to_json(plan, indent=None)
    return OpResult(seconds, True)


def check_churn(case, report, controller, event_times,
                out: PassResult) -> None:
    """No dropped events, and every applied plan valid and within its pool
    at the time it was applied; then record the replay's figures."""
    availability = case.trace.to_availability_trace()
    fresh = SailorSimulator(build_env(case.job, case.base_topology))
    plans_ok = True
    for time_s, text in report.plan_history:
        plan = plan_from_json(text)
        pool = availability.topology_at(time_s, base=case.base_topology)
        evaluation = fresh.evaluate(plan)
        if not (evaluation.is_valid
                and plan.resource_allocation().fits_within(pool)):
            print(f"perfbench: plan applied at {time_s:.0f} s failed its "
                  f"output check", file=sys.stderr)
            plans_ok = False
            continue
        out.quality.append(("throughput", evaluation.throughput_iters_per_s,
                            evaluation.cost_per_iteration_usd))
    out.gaps = [event.planner_result.optimality_gap_bound
                for event in controller.events]
    # One operation per controller reaction; a dropped event fails.
    out.ops = [OpResult(seconds, plans_ok) for seconds in event_times]
    out.ops.extend(OpResult(0.0, False) for _ in range(report.events_dropped))
    out.plans = [f"{t!r} {text}" for t, text in report.plan_history]
    # Planner calls only: a shrink-in-place decision reports its own
    # latency but runs no search.
    out.plan_times = [
        d.replan_latency_s for d in controller.decisions
        if d.replan_latency_s > 0 and d.tier is not DegradationTier.SHRINK_DP]
    out.goodput_iters = float(report.iterations_completed)
    out.reconfig_overhead_frac = report.reconfiguration_overhead_fraction
    out.modeled_reconfig_s = report.reconfiguration_time_s
    out.stats = controller.search_stats.as_dict()
    out.stats.update(replans=report.replans, replans_warm=report.replans_warm,
                     switches=report.switches, events=report.events_total)


def plans_digest(workload, passes) -> tuple[str, bool]:
    """Hash of every chosen plan in the first pass, and whether every later
    pass chose the same plans (``deadline`` is exempt: where a wall-clock
    deadline cuts the search depends on timing)."""
    first = passes[0].plans
    deterministic = workload.name == "deadline" or all(
        p.plans == first for p in passes[1:])
    text = "\n".join(first).encode()
    return hashlib.sha256(text).hexdigest()[:16], deterministic


# -- helpers ------------------------------------------------------------------


def ratio(a, b) -> float:
    return a / b if b else 0.0


def gmean(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    return math.exp(statistics.fmean(math.log(v) for v in values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv) -> int:
    return Bench(parse_args(argv)).run()

"""Tests of the benchmark's own machinery: the seeded generator, the span
arithmetic and the wrapping.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import pytest

from perfbench import spans, speed, workloads
from perfbench.spans import Span, Tracer, self_times, summarize, wrapped


# -- generator ----------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    first = workloads.fingerprint(workloads.generate(name, 3))
    again = workloads.fingerprint(workloads.generate(name, 3))
    assert first == again


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_different_seeds_different_pools(name):
    def pools(seed):
        workload = workloads.generate(name, seed)
        if workload.churn is not None:
            # Zone pairs are few, so churn seeds differ in the trace too.
            return workloads.fingerprint(workload)
        return [sorted((z, sorted(t.items()))
                       for z, t in p.topology.nodes.items())
                for p in workload.problems]

    seeds = (workloads.DEFAULT_SEED, 1, 2, workloads.HELD_OUT_SEED)
    seen = [pools(seed) for seed in seeds]
    for i in range(len(seen)):
        for j in range(i + 1, len(seen)):
            assert seen[i] != seen[j], (seeds[i], seeds[j])


def test_slots_keep_their_shape_across_seeds():
    for seed in range(5):
        problems = workloads.generate("small-pools", seed).problems
        assert len(problems) == len(workloads.SMALL_SLOTS)
        for problem, slot in zip(problems, workloads.SMALL_SLOTS):
            assert problem.job.model.name == slot.model
            assert problem.kind == slot.objective
            assert sorted(problem.topology.node_types()) == sorted(
                slot.node_types)
            assert "a2-highgpu-4g" in problem.topology.node_types()
            assert abs(problem.topology.total_gpus() - slot.gpus) <= 0.15 * (
                slot.gpus)


def test_deadline_problems_carry_the_fixed_limit():
    problems = workloads.generate("deadline", 0).problems
    assert {p.time_limit_s for p in problems} == {workloads.DEADLINE_S}
    assert all(p.time_limit_s is None
               for p in workloads.generate("large-pools", 0).problems)


def test_churn_trace_has_price_moves():
    case = workloads.generate("churn", 0).churn
    kinds = {event.kind for event in case.trace.events}
    assert "price_move" in kinds
    assert len(case.trace.events) == workloads.CHURN_EVENTS


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError):
        workloads.generate("nope", 0)


# -- speed reference ----------------------------------------------------------


def test_speed_probe_samples_at_most_every_interval():
    probe = speed.SpeedProbe()
    probe.maybe_sample()
    probe.maybe_sample()  # within INTERVAL_S of the first: skipped
    assert len(probe.samples) == 1
    assert probe.spent_s == probe.samples[0]
    assert probe.factor() == speed.NOMINAL_S / probe.samples[0]
    probe.enabled = False
    probe._last = -speed.INTERVAL_S
    probe.maybe_sample()
    assert len(probe.samples) == 1


# -- self-time arithmetic -----------------------------------------------------


def test_self_time_subtracts_direct_children():
    # root [0, 100] > a [10, 40] > a1 [15, 25];  root > b [50, 70]
    hand = [Span("planner.plan", 0, 100, -1),
            Span("dp_solver.solve", 10, 40, 0),
            Span("resource_state.forward", 15, 25, 1),
            Span("simulator.evaluate", 50, 70, 0)]
    assert self_times(hand) == [50, 20, 10, 20]
    summary = summarize(hand)
    assert summary.layer_self_ns("planner") == 50
    assert summary.layer_self_ns("dp_solver") == 20
    assert summary.calls == {"planner.plan": 1, "dp_solver.solve": 1,
                             "resource_state.forward": 1,
                             "simulator.evaluate": 1}
    # Self times partition the root's interval.
    assert sum(self_times(hand)) == 100


def test_self_time_counts_overlapping_children_once_and_clips():
    hand = [Span("planner.plan", 0, 100, -1),
            Span("heuristics.a", 10, 50, 0),
            Span("heuristics.b", 30, 60, 0),      # overlaps a
            Span("heuristics.c", 90, 120, 0)]     # runs past the parent
    assert self_times(hand)[0] == 100 - 50 - 10


def test_same_layer_spans_add_up():
    hand = [Span("simulator.floor", 0, 5, -1),
            Span("simulator.floor", 10, 12, -1),
            Span("simulator.evaluate", 20, 30, -1)]
    summary = summarize(hand)
    assert summary.self_ns["simulator.floor"] == 7
    assert summary.layer_self_ns("simulator") == 17
    assert summary.layer_calls("simulator") == 3


def test_tracer_records_nesting_and_pauses():
    tracer = Tracer()
    with tracer.span("bench.op"):
        with tracer.span("planner.plan"):
            pass
    recorded, _ = tracer.take()
    assert [(s.name, s.parent) for s in recorded] == [
        ("bench.op", -1), ("planner.plan", 0)]
    assert all(s.end_ns >= s.start_ns for s in recorded)

    tracer.active = True
    calls = []
    fn = spans.wrap(tracer, "simulator.evaluate", lambda x: calls.append(x))
    with tracer.paused():
        fn(1)
    fn(2)
    recorded, _ = tracer.take()
    assert calls == [1, 2]
    assert [s.name for s in recorded] == ["simulator.evaluate"]


# -- wrapping -----------------------------------------------------------------


def _small_plan():
    from repro.core.dp_solver import DPSolverConfig
    from repro.core.objectives import Objective
    from repro.core.planner import PlannerConfig, SailorPlanner
    from repro.core.serialization import plan_to_json
    from repro.core.simulator import build_environment
    from repro.hardware.topology import ClusterTopology

    job = workloads.make_job("OPT-350M")
    topology = ClusterTopology.single_zone("us-central1-a", {
        "a2-highgpu-4g": 2, "n1-standard-v100-4": 2})
    env = build_environment(job, topology)
    # engine_min_states=0 sends the solve through the resource-state
    # engine, so compute_forward_layers runs on this tiny pool.
    config = PlannerConfig(dp_config=DPSolverConfig(engine_min_states=0))
    result = SailorPlanner(env, config).plan(job, topology,
                                            Objective.max_throughput())
    return plan_to_json(result.plan, indent=None), result.search_stats


def test_wrapping_patches_the_callers_name_and_restores_it():
    from repro.core import dp_solver, resource_state

    original = dp_solver.compute_forward_layers
    assert original is resource_state.compute_forward_layers
    tracer = Tracer()
    with wrapped(tracer):
        patched = dp_solver.compute_forward_layers
        assert patched is not original
        assert getattr(patched, "__wrapped_by_perfbench__", False)
        assert patched.__wrapped__ is original
        # Only the caller's binding is patched, not the defining module.
        assert resource_state.compute_forward_layers is original
    assert dp_solver.compute_forward_layers is original
    for module_name, path, _, _ in spans.TARGETS:
        owner, attr = spans._resolve(module_name, path)
        assert not getattr(getattr(owner, attr),
                           "__wrapped_by_perfbench__", False)


def test_wrapped_calls_return_unchanged_results():
    untraced_plan, untraced_stats = _small_plan()
    tracer = Tracer()
    with wrapped(tracer):
        traced_plan, traced_stats = _small_plan()
    assert not tracer.active
    recorded, counts = tracer.take()
    assert traced_plan == untraced_plan
    assert traced_stats.nodes_explored == untraced_stats.nodes_explored
    names = {s.name for s in recorded}
    assert {"environment.build", "planner.plan", "dp_solver.solve",
            "resource_state.forward", "resource_state.backward",
            "simulator.evaluate"} <= names
    assert counts["resource_state.states"] > 0
    # Every dp_solver span sits inside a planner span.
    by_index = dict(enumerate(recorded))
    for span in recorded:
        if span.name == "dp_solver.solve":
            parent = span
            while parent.parent >= 0:
                parent = by_index[parent.parent]
            assert parent.name == "planner.plan"

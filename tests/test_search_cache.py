"""Tests for the shared planner search context and its caches."""

import itertools

import pytest

from repro.core.dp_solver import DPSolver, StageOption
from repro.core.heuristics import (
    HeuristicConfig,
    min_tp_per_stage,
    tp_options_for_stage,
)
from repro.core.objectives import Objective, OptimizationGoal
from repro.core.plan import PlannerResult, SearchStats
from repro.core.planner import PlannerConfig, SailorPlanner
from repro.core.search_cache import (
    PlannerSearchContext,
    StageAssignment,
    plan_memo_pool,
    tp_options_key,
)
from repro.core.serialization import plan_to_json
from repro.hardware.topology import ClusterTopology
from repro.models.partition import uniform_partition


def build_solver(env, job, context=None, pp=2, dp=2, mbs=2,
                 node_types=("a2-highgpu-4g", "n1-standard-v100-4"),
                 goal=OptimizationGoal.MAX_THROUGHPUT):
    partitions = uniform_partition(job.model, pp)
    config = HeuristicConfig()
    tp_req = min_tp_per_stage(job, partitions, list(node_types), mbs,
                              num_microbatches_in_flight_cap=pp, env=env,
                              config=config)
    tp_options = [tp_options_for_stage(stage, config) for stage in tp_req]
    return DPSolver(env=env, job=job, partitions=partitions,
                    tp_options_per_stage=tp_options, microbatch_size=mbs,
                    data_parallel=dp,
                    num_microbatches=job.num_microbatches(dp, mbs), goal=goal,
                    context=context)


RESOURCES = {("us-central1-a", "a2-highgpu-4g"): 4,
             ("us-central1-a", "n1-standard-v100-4"): 4}


def test_stage_assignment_precomputes_nodes_used():
    option = StageOption(zone="z", node_type="a2-highgpu-4g", tensor_parallel=2)
    assignment = StageAssignment(stage_index=0, placements=((option, 3),),
                                 compute_time_s=1.0, sync_time_s=0.0,
                                 cost_rate_usd_per_s=0.1)
    # 3 replicas at TP=2 on 4-GPU nodes -> 2 whole nodes.
    assert assignment.nodes_used == {("z", "a2-highgpu-4g"): 2}
    assert assignment.total_replicas == 3
    assert assignment.zones == ["z"]


def test_stage_assignment_and_option_are_frozen():
    option = StageOption(zone="z", node_type="a2-highgpu-4g", tensor_parallel=2)
    with pytest.raises(AttributeError):
        option.zone = "other"
    assignment = StageAssignment(stage_index=0, placements=((option, 1),),
                                 compute_time_s=1.0, sync_time_s=0.0,
                                 cost_rate_usd_per_s=0.1)
    with pytest.raises(AttributeError):
        assignment.compute_time_s = 2.0


def test_tp_options_key_is_order_insensitive():
    a = tp_options_key({"x": [1, 2], "y": [4]})
    b = tp_options_key({"y": [4], "x": [1, 2]})
    assert a == b
    assert isinstance(hash(a), int)


def test_context_shares_metric_caches_across_candidates(opt_env, opt_job):
    """Two DP candidates (different dp) reuse the same compute-time cache."""
    context = PlannerSearchContext(opt_env, opt_job)
    solver_a = build_solver(opt_env, opt_job, context=context, dp=2)
    solver_b = build_solver(opt_env, opt_job, context=context, dp=4)
    assert solver_a.solve(dict(RESOURCES)) is not None
    compute_entries = len(context._compute_time)
    misses_after_first = context.stats.cache_misses
    assert solver_b.solve(dict(RESOURCES)) is not None
    # Compute times are keyed independently of dp: the second candidate adds
    # no new entries, it only hits.
    assert len(context._compute_time) == compute_entries
    assert context.stats.cache_hits > 0
    # Sync times and assignments do depend on dp, so some misses are expected
    # -- but far fewer than a cold context would incur.
    cold = PlannerSearchContext(opt_env, opt_job)
    solver_cold = build_solver(opt_env, opt_job, context=cold, dp=4)
    assert solver_cold.solve(dict(RESOURCES)) is not None
    assert (context.stats.cache_misses - misses_after_first
            < cold.stats.cache_misses)


def test_generate_combos_matches_reference_enumeration(opt_env, opt_job):
    """The master-list filter reproduces the seed per-state enumeration."""
    solver = build_solver(opt_env, opt_job, dp=2)
    for resources in (dict(RESOURCES),
                      {("us-central1-a", "a2-highgpu-4g"): 2},
                      {("us-central1-a", "a2-highgpu-4g"): 1,
                       ("us-central1-a", "n1-standard-v100-4"): 4}):
        combos = solver.generate_combos(0, resources)
        reference = _reference_combos(solver, 0, resources)
        assert [tuple(c) for c in combos] == reference


def _reference_combos(solver, stage_index, resources):
    """Seed-style per-state combo enumeration (sorted, truncated)."""
    needed = solver.data_parallel
    config = solver.config
    tp_options = solver.tp_options_per_stage[stage_index]
    options = []
    for (zone, node_type), count in resources.items():
        if count <= 0 or node_type not in tp_options:
            continue
        for tp in tp_options[node_type]:
            option = StageOption(zone=zone, node_type=node_type,
                                 tensor_parallel=tp)
            max_replicas = count * option.replicas_per_node
            if max_replicas >= 1:
                options.append((option, max_replicas))
    by_region = {}
    for option, max_replicas in options:
        by_region.setdefault(solver.env.region_of(option.zone), []).append(
            (option, max_replicas))
    combos = []
    for region_options in by_region.values():
        for option, max_replicas in region_options:
            if max_replicas >= needed:
                combos.append(((option, needed),))
        if config.max_mixed_types_per_stage >= 2 and needed >= 2:
            for (opt_a, max_a), (opt_b, max_b) in itertools.combinations(
                    region_options, 2):
                if opt_a.zone == opt_b.zone and opt_a.node_type == opt_b.node_type:
                    continue
                points = {1, needed - 1}
                for fraction in config.split_fractions:
                    k = int(round(needed * fraction))
                    if 1 <= k <= needed - 1:
                        points.add(k)
                for k in sorted(points):
                    if k <= max_a and (needed - k) <= max_b:
                        combos.append(((opt_a, k), (opt_b, needed - k)))

    def combo_key(placements):
        metric = max(solver.stage_compute_time(stage_index, opt.node_type,
                                               opt.tensor_parallel)
                     for opt, _ in placements)
        # Same state-independent tiebreak as the master list, so truncation
        # keeps the same equal-metric combos regardless of resource state.
        return (metric, tuple((opt.zone, opt.node_type, opt.tensor_parallel,
                               count) for opt, count in placements))

    combos.sort(key=combo_key)
    return combos[:config.max_combos_per_stage]


def test_forward_layers_shared_across_candidates(opt_env, opt_job):
    """Two solvers sharing a context share forward reachability passes.

    The second candidate's engine solves have the same footprint signature
    (same P, D, mbs and root), so every one of its forward passes must be a
    layer-cache hit -- and the solutions must stay identical."""
    from repro.core.dp_solver import DPSolverConfig

    context = PlannerSearchContext(opt_env, opt_job)
    solver_a = build_solver(opt_env, opt_job, context=context)
    solver_a.config = DPSolverConfig(engine_min_states=0)
    solver_a.engine_min_states = 0
    solver_b = build_solver(opt_env, opt_job, context=context)
    solver_b.config = DPSolverConfig(engine_min_states=0)
    solver_b.engine_min_states = 0

    first = solver_a.solve(dict(RESOURCES))
    assert first is not None
    assert context.stats.layer_cache_hits == 0  # cold cache: all misses
    second = solver_b.solve(dict(RESOURCES))
    assert second is not None
    assert context.stats.layer_cache_hits > 0
    assert [x.placements for x in first.assignments] == \
        [x.placements for x in second.assignments]

    # Opting out per solver keeps the cache untouched and the plan identical.
    opted_out = build_solver(opt_env, opt_job, context=context)
    opted_out.config = DPSolverConfig(engine_min_states=0,
                                      enable_layer_cache=False)
    opted_out.engine_min_states = 0
    hits_before = context.stats.layer_cache_hits
    third = opted_out.solve(dict(RESOURCES))
    assert context.stats.layer_cache_hits == hits_before
    assert [x.placements for x in first.assignments] == \
        [x.placements for x in third.assignments]


def test_forward_layers_cache_is_bounded():
    """The FIFO bound evicts the oldest signature, never the newest."""
    context = PlannerSearchContext.__new__(PlannerSearchContext)
    context.stats = SearchStats()
    context._forward_layers = {}
    context._forward_layers_max = 2
    built = []

    def make(tag):
        def build():
            built.append(tag)
            return tag
        return build

    assert context.forward_layers(("a",), make("A")) == "A"
    assert context.forward_layers(("b",), make("B")) == "B"
    assert context.forward_layers(("c",), make("C")) == "C"  # evicts ("a",)
    assert len(context._forward_layers) == 2
    assert context.forward_layers(("c",), make("C2")) == "C"  # still cached
    assert context.stats.layer_cache_hits == 1
    assert context.forward_layers(("a",), make("A2")) == "A2"  # was evicted
    assert built == ["A", "B", "C", "A2"]


def test_search_stats_merge_and_dict_round_trip():
    a = SearchStats(nodes_explored=3, memo_hits=2, pruned_branches=1,
                    cache_hits=10, cache_misses=4)
    b = SearchStats(nodes_explored=1, memo_hits=5, pruned_branches=2,
                    cache_hits=1, cache_misses=1)
    a.merge(b)
    assert a.nodes_explored == 4
    assert a.memo_hits == 7
    assert a.pruned_branches == 3
    assert a.cache_hits == 11
    assert a.cache_misses == 5
    assert SearchStats.from_dict(a.as_dict()) == a
    assert SearchStats.from_dict({}) == SearchStats()
    assert "nodes=4" in a.describe()


def test_context_stats_shared_with_solver(opt_env, opt_job):
    context = PlannerSearchContext(opt_env, opt_job)
    solver = build_solver(opt_env, opt_job, context=context)
    assert solver.stats is context.stats
    solver.solve(dict(RESOURCES))
    assert solver.nodes_explored == context.stats.nodes_explored
    assert context.stats.nodes_explored > 0


# -- plan-result memo ----------------------------------------------------------

A100 = "a2-highgpu-4g"
V100 = "n1-standard-v100-4"


def _plan_warm(planner, job, topology, context, objective=None):
    return planner.plan(job, topology, objective or Objective.max_throughput(),
                        context=context)


def _same_plan(result, other):
    assert result.found == other.found
    if result.found:
        assert plan_to_json(result.plan) == plan_to_json(other.plan)


def test_plan_memo_serves_the_same_pool(opt_env, opt_job, mixed_topology):
    planner = SailorPlanner(opt_env)
    context = PlannerSearchContext(opt_env, opt_job)
    first = _plan_warm(planner, opt_job, mixed_topology, context)
    assert first.complete and first.search_stats.plan_memo_hits == 0
    nodes_before = context.stats.nodes_explored

    hit = _plan_warm(planner, opt_job, mixed_topology, context)
    # The stored plan and evaluation are shared, not re-searched.
    assert hit.plan is first.plan and hit.evaluation is first.evaluation
    assert hit.complete and hit.optimality_gap_bound == 0.0
    assert hit.incomplete_branches == []
    assert hit.candidates_evaluated == first.candidates_evaluated
    assert hit.oom_plans_generated == first.oom_plans_generated
    assert hit.search_time_s > 0.0
    # The call's stats delta is the hit counter alone.
    assert hit.search_stats == SearchStats(plan_memo_hits=1)
    assert context.stats.nodes_explored == nodes_before
    _same_plan(hit, planner.plan(opt_job, mixed_topology))


def test_plan_memo_ignores_zero_counts_and_dict_order(opt_env, opt_job):
    planner = SailorPlanner(opt_env)
    context = PlannerSearchContext(opt_env, opt_job)
    base = ClusterTopology(nodes={"us-central1-a": {A100: 2, V100: 2},
                                  "us-central1-b": {A100: 1}})
    first = _plan_warm(planner, opt_job, base, context)
    variants = [
        ClusterTopology(nodes={"us-central1-b": {A100: 1, V100: 0},
                               "us-central1-a": {V100: 2, A100: 2}}),
        ClusterTopology(nodes={"us-central1-a": {A100: 2, V100: 2},
                               "us-central1-b": {A100: 1},
                               "us-central1-c": {V100: 0}}),
    ]
    for topology in variants:
        assert plan_memo_pool(topology) == plan_memo_pool(base)
        hit = _plan_warm(planner, opt_job, topology, context)
        assert hit.search_stats.plan_memo_hits == 1
        assert hit.plan is first.plan
        # The memo's answer is what a cold solve of the variant returns.
        _same_plan(hit, planner.plan(opt_job, topology))


def test_plan_memo_misses_on_anything_the_search_reads(opt_env, opt_job):
    planner = SailorPlanner(opt_env)
    context = PlannerSearchContext(opt_env, opt_job)
    base = ClusterTopology(nodes={"us-central1-a": {A100: 2, V100: 2},
                                  "us-central1-b": {A100: 2}})
    first = _plan_warm(planner, opt_job, base, context)
    assert first.found
    budget = first.evaluation.cost_per_iteration_usd

    moved = ClusterTopology(
        nodes={"us-central1-a": {A100: 2, V100: 2},
               "us-central1-b": {A100: 2}},
        zone_to_region={"us-central1-a": "us-central1",
                        "us-central1-b": "us-west1"})
    misses = [
        (planner, base.with_nodes("us-central1-a", V100, 1), None),
        (planner, moved, None),
        (planner, base, Objective.max_throughput(
            max_cost_per_iteration_usd=budget * 0.9)),
        (planner, base, Objective.max_throughput(
            max_cost_per_iteration_usd=budget * 0.8)),
        (SailorPlanner(opt_env, PlannerConfig(dp_patience=3)), base, None),
    ]
    for miss_planner, topology, objective in misses:
        result = _plan_warm(miss_planner, opt_job, topology, context,
                            objective)
        assert result.search_stats.plan_memo_hits == 0
        _same_plan(result, miss_planner.plan(
            opt_job, topology, objective or Objective.max_throughput()))
    assert context.stats.plan_memo_hits == 0
    # Every one of them is stored under its own key and now hits.
    for miss_planner, topology, objective in misses:
        result = _plan_warm(miss_planner, opt_job, topology, context,
                            objective)
        assert result.search_stats.plan_memo_hits == 1


def test_plan_memo_never_stores_or_serves_truncated_results(
        opt_env, opt_job, mixed_topology):
    context = PlannerSearchContext(opt_env, opt_job)
    cut = SailorPlanner(opt_env, PlannerConfig(time_limit_s=1e-9))
    for _ in range(2):
        result = _plan_warm(cut, opt_job, mixed_topology, context)
        assert not result.complete
        assert result.search_stats.plan_memo_hits == 0
    assert context._plan_memo == {}

    # A node budget bypasses the memo even when the search completes.
    budgeted = SailorPlanner(opt_env, PlannerConfig(max_search_nodes=10**9))
    for _ in range(2):
        result = _plan_warm(budgeted, opt_job, mixed_topology, context)
        assert result.complete
        assert result.search_stats.plan_memo_hits == 0
    assert context._plan_memo == {}

    context.memoise_plan(("pool",), PlannerResult(
        plan=None, evaluation=None, search_time_s=0.0, complete=False))
    assert context._plan_memo == {}


def test_plan_memo_is_bounded(opt_env, opt_job):
    """The FIFO cap evicts the oldest pool, never the newest."""
    planner = SailorPlanner(opt_env)
    context = PlannerSearchContext(opt_env, opt_job)
    context._plan_memo_max = 2
    pools = [ClusterTopology.homogeneous(A100, n) for n in (1, 2, 3)]
    for topology in pools:
        _plan_warm(planner, opt_job, topology, context)
    assert len(context._plan_memo) == 2
    hits = [_plan_warm(planner, opt_job, topology, context)
            .search_stats.plan_memo_hits for topology in pools[1:]]
    assert hits == [1, 1]
    evicted = _plan_warm(planner, opt_job, pools[0], context)
    assert evicted.search_stats.plan_memo_hits == 0
    assert len(context._plan_memo) == 2

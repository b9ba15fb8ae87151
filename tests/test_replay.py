"""End-to-end tests for churn replay: determinism, incremental reuse,
graceful degradation, and checkpoint rollback under churn."""

import pytest

from repro.core.objectives import Objective
from repro.core.planner import SailorPlanner
from repro.core.serialization import plan_to_json
from repro.core.simulator import build_environment
from repro.hardware.nodes import get_node_type
from repro.hardware.topology import ClusterTopology
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.controller import (
    DegradationTier,
    ReplanDecision,
    ReplanPolicy,
    TrainingController,
)
from repro.runtime.faults import FaultEvent, FaultScenarioGenerator, FaultTrace
from repro.runtime.replay import ChurnReplayer, ChurnReport

POOLS = {("us-central1-a", "a2-highgpu-4g"): 4,
         ("us-central1-a", "n1-standard-v100-4"): 4}


@pytest.fixture(scope="module")
def mixed_base():
    return ClusterTopology.single_zone(
        "us-central1-a", {"a2-highgpu-4g": 4, "n1-standard-v100-4": 4})


def make_replayer(env, job, **kwargs):
    kwargs.setdefault("policy", ReplanPolicy(deterministic_timing=True))
    kwargs.setdefault("checkpoint_config",
                      CheckpointConfig(interval_iterations=10))
    return ChurnReplayer(env, job, Objective.max_throughput(), **kwargs)


# -- zero-drop + determinism --------------------------------------------------

def test_churn_replay_applies_every_event(opt_env, opt_job, mixed_base):
    trace = FaultScenarioGenerator(seed=0).churn_trace(
        POOLS, duration_s=4 * 3600.0, num_events=150)
    report = make_replayer(opt_env, opt_job).run(trace,
                                                 base_topology=mixed_base)
    assert report.events_total == 150
    assert report.events_dropped == 0
    assert report.events_applied == 150
    assert report.iterations_completed > 0
    assert report.replans > 0
    # The whole session is accounted for: training + idle + reconfiguring.
    accounted = (report.training_time_s + report.idle_time_s
                 + report.reconfiguration_time_s)
    assert accounted == pytest.approx(report.duration_s, abs=1.0)


def test_churn_replay_is_deterministic(opt_env, opt_job, mixed_base):
    trace = FaultScenarioGenerator(seed=7).churn_trace(
        POOLS, duration_s=3 * 3600.0, num_events=120)

    def replay():
        report = make_replayer(opt_env, opt_job).run(
            trace, base_topology=mixed_base)
        return ([(r.time_s, r.trigger, r.tier, r.action, r.plan_gpus,
                  r.iterations_lost) for r in report.records],
                report.plan_history,
                report.iterations_completed,
                report.iterations_lost_to_rollback)

    first = replay()
    second = replay()
    assert first[0] == second[0]      # decision sequence
    assert first[1] == second[1]      # plan signatures, byte for byte
    assert first[2] == second[2]      # iteration accounting
    assert first[3] == second[3]


# -- incremental reuse --------------------------------------------------------

def test_incremental_replans_are_warm(opt_env, opt_job, mixed_base):
    trace = FaultScenarioGenerator(seed=1).churn_trace(
        POOLS, duration_s=2 * 3600.0, num_events=60)
    report = make_replayer(opt_env, opt_job).run(trace,
                                                 base_topology=mixed_base)
    assert report.replans_warm > 0
    assert report.cache_hits > 0
    assert 0.0 < report.percent_replans_warm <= 1.0


def test_incremental_replans_match_from_scratch_solves(opt_env, opt_job,
                                                       mixed_base):
    """Plans out of the long-lived context -- plan memo hits included -- are
    byte-identical to cold solves.  The pool sequence is walked forward and
    then back, so every pool is revisited at least once."""
    trace = FaultScenarioGenerator(seed=2).churn_trace(
        POOLS, duration_s=3600.0, num_events=14)
    availability = trace.to_availability_trace()
    objective = Objective.max_throughput()
    controller = TrainingController(env=opt_env, job=opt_job,
                                    objective=objective)
    fresh = SailorPlanner(opt_env)
    times = [time_s for time_s, _ in trace.grouped_events()]

    compared = 0
    memo_hits = 0
    for time_s in times + times[::-1]:
        topology = availability.topology_at(time_s, base=mixed_base)
        warm_result = controller.replan(topology)
        cold_result = fresh.plan(opt_job, topology, objective)
        memo_hits += warm_result.search_stats.plan_memo_hits
        assert warm_result.found == cold_result.found
        if warm_result.found:
            assert (plan_to_json(warm_result.plan)
                    == plan_to_json(cold_result.plan))
            assert warm_result.evaluation == cold_result.evaluation
            compared += 1
    assert compared > 0
    assert memo_hits >= len(times)
    assert controller.search_stats.plan_memo_hits == memo_hits
    assert controller.search_stats.cache_hits > 0


def test_price_change_starts_from_an_empty_plan_memo(opt_env, opt_job,
                                                      mixed_base):
    controller = TrainingController(env=opt_env, job=opt_job,
                                    policy=ReplanPolicy(
                                        deterministic_timing=True))
    controller.start(mixed_base)
    assert controller.replan(mixed_base).search_stats.plan_memo_hits == 1
    controller.handle_price_change(mixed_base, time_s=60.0)
    decision = controller.decisions[-1]
    assert decision.trigger == "price_move"
    assert decision.plan_memo_hits == 0
    assert decision.replan_latency_s > 0
    # The rebuilt context memoised the post-move solve afresh.
    assert controller.replan(mixed_base).search_stats.plan_memo_hits == 1


def test_report_counts_planner_calls_and_memo_hits_as_warm():
    """Shrink-in-place decisions run no search, so they are not replans;
    a memo hit touches no other cache but is still a warm replan."""
    decisions = [
        ReplanDecision(time_s=0.0, trigger="start",
                       tier=DegradationTier.FULL_REPLAN, action="deployed",
                       replan_latency_s=0.2),
        ReplanDecision(time_s=1.0, trigger="preemption",
                       tier=DegradationTier.SHRINK_DP, action="shrunk",
                       replan_latency_s=0.01),
        ReplanDecision(time_s=2.0, trigger="recovery",
                       tier=DegradationTier.CONTINUE, action="kept",
                       replan_latency_s=0.001, plan_memo_hits=1),
        ReplanDecision(time_s=3.0, trigger="spot_loss",
                       tier=DegradationTier.FULL_REPLAN, action="replanned",
                       replan_latency_s=0.1, cache_hits=5),
    ]
    report = ChurnReport()
    ChurnReplayer._tally_decisions(report, decisions)
    assert report.replans == 3
    assert report.replan_latencies_s == [0.2, 0.001, 0.1]
    assert report.shrinks == 1
    assert report.replans_warm == 2
    assert report.plan_memo_hits == 1
    assert report.cache_hits == 5
    assert "1 plan memo hits" in report.describe()


# -- graceful degradation -----------------------------------------------------

def test_deadline_miss_keeps_incumbent_instead_of_raising(opt_env, opt_job,
                                                          mixed_base):
    # An explicit planner without an internal time limit, so every solve
    # "overruns" the absurd deadline and the fallback path is what acts.
    policy = ReplanPolicy(replan_deadline_s=1e-9, deterministic_timing=True)
    controller = TrainingController(
        env=opt_env, job=opt_job, objective=Objective.max_throughput(),
        planner=SailorPlanner(opt_env), policy=policy)
    replayer = make_replayer(opt_env, opt_job, policy=policy,
                             controller=controller)
    trace = FaultTrace(events=[
        FaultEvent(0.0, "initial", "us-central1-a", "a2-highgpu-4g", 2),
        FaultEvent(600.0, "quota_cut", "us-central1-a", "a2-highgpu-4g", 4),
        FaultEvent(1200.0, "quota_cut", "us-central1-a", "a2-highgpu-4g", 3),
    ], duration_s=1800.0)
    report = replayer.run(trace, base_topology=mixed_base)
    assert report.events_dropped == 0
    assert report.deadline_fallbacks >= 2
    # The incumbent survived both voluntary replan opportunities.
    plan_gpus = {r.plan_gpus for r in report.records}
    assert plan_gpus == {8}
    fallbacks = [d for d in controller.decisions
                 if d.action == "deadline_fallback"]
    assert fallbacks and all(d.deadline_missed for d in fallbacks)


def test_all_infeasible_parks_and_retries_with_backoff(opt_env, opt_job,
                                                       mixed_base):
    # A budget no plan can satisfy: every solve is "transiently" infeasible.
    objective = Objective.max_throughput(max_cost_per_iteration_usd=1e-9)
    policy = ReplanPolicy(retry_backoff_s=200.0, retry_backoff_factor=2.0,
                          max_retry_backoff_s=800.0,
                          deterministic_timing=True)
    controller = TrainingController(env=opt_env, job=opt_job,
                                    objective=objective, policy=policy)
    replayer = ChurnReplayer(opt_env, opt_job, objective, policy=policy,
                             controller=controller)
    trace = FaultTrace(events=[
        FaultEvent(0.0, "initial", "us-central1-a", "a2-highgpu-4g", 4),
    ], duration_s=3600.0)
    report = replayer.run(trace, base_topology=mixed_base)
    assert report.events_dropped == 0
    assert report.parks >= 2          # initial park + at least one retry park
    assert report.retries >= 2        # backoff wakeups fired
    assert report.iterations_completed == 0
    assert controller.parked
    assert controller.current_plan is None
    # Backoff grew and was capped.
    assert controller._retry_backoff_s == policy.max_retry_backoff_s


def test_zone_outage_parks_then_resumes_on_capacity(opt_env, opt_job,
                                                    mixed_base):
    generator = FaultScenarioGenerator(seed=0)
    events = [FaultEvent(0.0, "initial", "us-central1-a",
                         "a2-highgpu-4g", 4),
              FaultEvent(0.0, "initial", "us-central1-a",
                         "n1-standard-v100-4", 4)]
    events += generator.zone_outage(POOLS, "us-central1-a", at_s=900.0,
                                    outage_s=900.0)
    trace = FaultTrace(events=events, duration_s=3600.0)
    replayer = make_replayer(opt_env, opt_job)
    report = replayer.run(trace, base_topology=mixed_base)
    assert report.events_dropped == 0
    assert report.parks == 1
    assert report.idle_time_s >= 900.0 * 0.9
    # Training resumed once the zone came back.
    assert replayer.controller.current_plan is not None
    assert not replayer.controller.parked
    assert report.iterations_completed > 0


# -- checkpoint rollback under churn ------------------------------------------

def test_mid_drain_preemption_rolls_back_to_previous_durable(opt_env, opt_job,
                                                             mixed_base):
    """A preemption landing before any drain finishes loses *all* progress;
    with fast drains only the last interval is lost."""
    preempt = [FaultEvent(0.0, "initial", "us-central1-a",
                          "a2-highgpu-4g", 4),
               FaultEvent(1200.0, "mid_drain_preemption", "us-central1-a",
                          "a2-highgpu-4g", 1)]
    trace = FaultTrace(events=preempt, duration_s=1800.0)
    policy = ReplanPolicy(deterministic_timing=True, enable_shrink=False)

    fast = make_replayer(opt_env, opt_job, policy=policy,
                         checkpoint_config=CheckpointConfig(
                             interval_iterations=10))
    fast_report = fast.run(trace, base_topology=mixed_base)

    # Storage so slow that no drain completes before the preemption: the
    # latest checkpoint is still in flight, so rollback reaches all the way
    # back past it (here: to iteration 0 -- nothing durable yet).
    slow = make_replayer(opt_env, opt_job, policy=policy,
                         checkpoint_config=CheckpointConfig(
                             interval_iterations=10,
                             storage_write_gbps=1e-6))
    slow_report = slow.run(trace, base_topology=mixed_base)

    assert fast_report.events_dropped == 0
    assert slow_report.events_dropped == 0
    assert slow.checkpoints.latest_durable(1200.0) is None
    assert fast.checkpoints.latest_durable(1200.0) is not None
    # Fast drains: at most one checkpoint interval (+ the in-flight tail)
    # is lost.  Slow drains: everything since iteration 0.
    assert 0 < fast_report.iterations_lost_to_rollback <= 20
    assert (slow_report.iterations_lost_to_rollback
            > fast_report.iterations_lost_to_rollback)
    preempt_record = [r for r in slow_report.records
                      if "mid_drain_preemption" in r.trigger][0]
    assert preempt_record.iterations_lost \
        == slow_report.iterations_lost_to_rollback


def test_shrink_in_place_does_not_roll_back(opt_env, opt_job, mixed_base):
    """Dropping data-parallel columns keeps complete state: no rollback."""
    events = [FaultEvent(0.0, "initial", "us-central1-a",
                         "a2-highgpu-4g", 4),
              FaultEvent(1200.0, "preemption_burst", "us-central1-a",
                         "a2-highgpu-4g", 2)]
    trace = FaultTrace(events=events, duration_s=2400.0)
    replayer = make_replayer(opt_env, opt_job,
                             policy=ReplanPolicy(deterministic_timing=True,
                                                 enable_shrink=True))
    report = replayer.run(trace, base_topology=mixed_base)
    assert report.events_dropped == 0
    if report.shrinks:                 # shrink applied: state survived
        assert report.iterations_lost_to_rollback == 0
    else:                              # pool shape forced a full replan
        assert report.iterations_lost_to_rollback >= 0


# -- price moves --------------------------------------------------------------
#
# These tests build a private environment: the replayer mutates
# env.prices.gpu_hourly_usd in place while interpreting price_move events,
# and the session-scoped fixtures must not see those edits.

def _price_env(job, base):
    return build_environment(job, base, seed=7)


def test_price_move_replans_under_cost_objective_and_revert_restores(
        opt_job, mixed_base):
    env = _price_env(opt_job, mixed_base)
    base_prices = dict(env.prices.gpu_hourly_usd)
    events = [FaultEvent(0.0, "initial", "us-central1-a",
                         "a2-highgpu-4g", 4),
              FaultEvent(0.0, "initial", "us-central1-a",
                         "n1-standard-v100-4", 4)]
    events += FaultScenarioGenerator(seed=0).price_move(
        "us-central1-a", "a2-highgpu-4g", base_nodes=4, at_s=900.0,
        multiplier=4.0, revert_after_s=900.0)
    trace = FaultTrace(events=events, duration_s=2700.0)
    replayer = ChurnReplayer(env, opt_job, Objective.min_cost(),
                             policy=ReplanPolicy(deterministic_timing=True),
                             checkpoint_config=CheckpointConfig(
                                 interval_iterations=10))
    report = replayer.run(trace, base_topology=mixed_base)
    assert report.events_dropped == 0
    assert report.price_moves == 2
    # Each move drove a decision through the controller's price path.
    price_records = [r for r in report.records
                     if "price_move" in r.trigger]
    assert len(price_records) == 2
    # The revert restored the exact run-start catalog: multipliers are
    # absolute with respect to base prices, not compounding.
    assert env.prices.gpu_hourly_usd == base_prices


def test_price_move_without_revert_leaves_scaled_price(opt_job, mixed_base):
    env = _price_env(opt_job, mixed_base)
    base_prices = dict(env.prices.gpu_hourly_usd)
    moved = get_node_type("a2-highgpu-4g").gpu.name
    untouched = get_node_type("n1-standard-v100-4").gpu.name
    events = [FaultEvent(0.0, "initial", "us-central1-a",
                         "a2-highgpu-4g", 4),
              FaultEvent(0.0, "initial", "us-central1-a",
                         "n1-standard-v100-4", 4)]
    events += FaultScenarioGenerator(seed=0).price_move(
        "us-central1-a", "a2-highgpu-4g", base_nodes=4, at_s=600.0,
        multiplier=2.0)
    trace = FaultTrace(events=events, duration_s=1200.0)
    report = make_replayer(env, opt_job).run(trace, base_topology=mixed_base)
    assert report.events_dropped == 0
    assert report.price_moves == 1
    assert env.prices.gpu_hourly_usd[moved] \
        == pytest.approx(base_prices[moved] * 2.0)
    assert env.prices.gpu_hourly_usd[untouched] == base_prices[untouched]

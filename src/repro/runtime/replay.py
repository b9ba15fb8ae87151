"""Deterministic replay of fault traces against the controller loop.

:class:`ChurnReplayer` plays a :class:`~repro.runtime.faults.FaultTrace`
against a :class:`~repro.runtime.controller.TrainingController` end to end:
it applies every fault event group (simultaneous multi-pool events land as
one topology change), wakes parked jobs at their retry-backoff deadlines,
trains at the simulator-predicted rate between boundaries, takes
asynchronous checkpoints, and rolls back to the latest *durable* checkpoint
when capacity is lost out from under the incumbent plan (a shrink-in-place
keeps going without rollback: the surviving data-parallel replicas hold a
complete copy of the model state).

The resulting :class:`ChurnReport` carries zero-drop accounting
(``events_total == events_applied``), the per-decision degradation-tier
tally, planner-call latencies (p50/p99), how many replans were answered
*warm* from the controller's long-lived search context (plan memo hits
included), and the plan signature
history (serialized plans) that the determinism tests compare byte for
byte.  Replays with a deadline-free policy are fully deterministic: same
trace, same decisions, same plans, same iteration counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.objectives import Objective
from repro.core.serialization import plan_to_json
from repro.core.simulator import SailorSimulator, SimulationEnvironment
from repro.hardware.nodes import get_node_type
from repro.hardware.topology import ClusterTopology
from repro.models.spec import TrainingJobSpec
from repro.runtime.checkpoint import CheckpointConfig, CheckpointManager
from repro.runtime.controller import (
    DegradationTier,
    ReplanPolicy,
    TrainingController,
)
from repro.runtime.faults import FaultTrace


@dataclass(frozen=True)
class ReplayRecord:
    """One applied boundary of a replay (fault group or retry wakeup)."""

    time_s: float
    trigger: str
    tier: DegradationTier | None
    action: str
    pool_gpus: int
    plan_gpus: int
    iterations_lost: int


@dataclass
class ChurnReport:
    """Outcome and accounting of one fault-trace replay."""

    duration_s: float = 0.0
    #: Events carried by the trace vs. events actually presented to the
    #: controller; the acceptance criterion is ``events_dropped == 0``.
    events_total: int = 0
    events_applied: int = 0
    #: ``price_move`` events applied to the price catalog during the run.
    price_moves: int = 0
    #: Planner calls (shrink-in-place decisions run no search and are not
    #: counted), and the subset answered warm: the call's stats delta
    #: shows reuse out of the controller's long-lived context, a plan
    #: memo hit included.
    replans: int = 0
    replans_warm: int = 0
    #: Degradation-tier tally over all decisions.
    shrinks: int = 0
    parks: int = 0
    keeps: int = 0
    debounces: int = 0
    retries: int = 0
    deadline_fallbacks: int = 0
    switches: int = 0
    #: Latency of every planner call, in decision order.
    replan_latencies_s: list[float] = field(default_factory=list)
    #: Incremental-reuse counters summed over all planner calls.
    layer_cache_hits: int = 0
    cache_hits: int = 0
    plan_memo_hits: int = 0
    #: Training outcome.
    iterations_completed: int = 0
    iterations_lost_to_rollback: int = 0
    #: Training wall-clock re-done after rollbacks: iterations lost times
    #: the iteration time of the plan that had produced them.
    rollback_lost_time_s: float = 0.0
    reconfiguration_time_s: float = 0.0
    idle_time_s: float = 0.0
    training_time_s: float = 0.0
    checkpoint_stall_s: float = 0.0
    #: (time_s, serialized plan) for every applied reconfiguration, the
    #: byte-comparable history the determinism tests diff.
    plan_history: list[tuple[float, str]] = field(default_factory=list)
    records: list[ReplayRecord] = field(default_factory=list)

    @property
    def events_dropped(self) -> int:
        """Events the replay failed to present to the controller."""
        return self.events_total - self.events_applied

    @property
    def p50_replan_latency_s(self) -> float:
        """Median planner-solve latency."""
        return self._percentile(0.50)

    @property
    def p99_replan_latency_s(self) -> float:
        """Tail planner-solve latency."""
        return self._percentile(0.99)

    @property
    def plans_per_s(self) -> float:
        """Planner solves per second of planner wall-clock."""
        total = sum(self.replan_latencies_s)
        if total <= 0:
            return 0.0
        return len(self.replan_latencies_s) / total

    @property
    def reconfiguration_overhead_fraction(self) -> float:
        """Steady-state fraction of productive time lost to reconfiguration.

        Counts both the explicit reconfiguration pauses and the training
        wall-clock re-done after checkpoint rollbacks, over the total time
        the job was *trying* to make progress (training + reconfiguring).
        This is the headline robustness metric the churn bench gates: a
        replanning stack that thrashes shows up here even when every event
        was technically "handled".
        """
        denominator = self.training_time_s + self.reconfiguration_time_s
        if denominator <= 0:
            return 0.0
        return ((self.reconfiguration_time_s + self.rollback_lost_time_s)
                / denominator)

    @property
    def percent_replans_warm(self) -> float:
        """Fraction of solves answered with cross-replan cache reuse."""
        if self.replans == 0:
            return 0.0
        return self.replans_warm / self.replans

    def _percentile(self, q: float) -> float:
        if not self.replan_latencies_s:
            return 0.0
        ordered = sorted(self.replan_latencies_s)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def describe(self) -> str:
        """Multi-line human-readable summary (used by the CLI)."""
        lines = [
            f"events: {self.events_applied}/{self.events_total} applied "
            f"({self.events_dropped} dropped, {self.price_moves} price moves)",
            f"decisions: {self.replans} replans ({self.replans_warm} warm, "
            f"{100 * self.percent_replans_warm:.0f}%), {self.shrinks} shrinks, "
            f"{self.switches} switches, {self.keeps} keeps, "
            f"{self.debounces} debounced, {self.parks} parks, "
            f"{self.retries} retries, "
            f"{self.deadline_fallbacks} deadline fallbacks",
            f"replan latency: p50={self.p50_replan_latency_s * 1e3:.1f} ms "
            f"p99={self.p99_replan_latency_s * 1e3:.1f} ms "
            f"({self.plans_per_s:.1f} plans/s)",
            f"incremental reuse: {self.layer_cache_hits} layer hits, "
            f"{self.cache_hits} cache hits, "
            f"{self.plan_memo_hits} plan memo hits",
            f"training: {self.iterations_completed} iterations "
            f"({self.iterations_lost_to_rollback} lost to rollback), "
            f"{self.training_time_s:.0f}s training / "
            f"{self.idle_time_s:.0f}s idle / "
            f"{self.reconfiguration_time_s:.1f}s reconfiguring",
            f"reconfiguration overhead: "
            f"{100 * self.reconfiguration_overhead_fraction:.2f}% of "
            f"productive time (incl. {self.rollback_lost_time_s:.1f}s "
            f"redone after rollback)",
        ]
        return "\n".join(lines)


class ChurnReplayer:
    """Plays a fault trace against the replanning controller loop."""

    def __init__(self, env: SimulationEnvironment, job: TrainingJobSpec,
                 objective: Objective | None = None,
                 policy: ReplanPolicy | None = None,
                 controller: TrainingController | None = None,
                 checkpoint_config: CheckpointConfig | None = None) -> None:
        self.env = env
        self.job = job
        self.objective = objective or Objective.max_throughput()
        self.policy = policy or ReplanPolicy()
        self.controller = controller or TrainingController(
            env=env, job=job, objective=self.objective, policy=self.policy)
        self.checkpoints = CheckpointManager(
            job=job, config=checkpoint_config or CheckpointConfig())
        self.simulator = SailorSimulator(env)
        #: Iteration time of the incumbent the last training window ran
        #: under; prices the wall-clock lost when a rollback discards work.
        self._last_iter_time_s = 0.0

    # -- main entry point ---------------------------------------------------------

    def run(self, trace: FaultTrace,
            base_topology: ClusterTopology | None = None,
            duration_s: float | None = None,
            max_iterations: int | None = None) -> ChurnReport:
        """Replay the trace end to end and account for every event."""
        duration = duration_s if duration_s is not None else trace.duration_s
        availability = trace.to_availability_trace()
        groups = [(t, events) for t, events in trace.grouped_events()
                  if t < duration]

        report = ChurnReport(
            duration_s=duration,
            events_total=sum(len(events) for _, events in groups))
        controller = self.controller
        decisions_before = len(controller.decisions)
        # price_move multipliers are relative to the prices the run started
        # with, so a revert event (multiplier 1.0) restores these exactly.
        base_prices = dict(self.env.prices.gpu_hourly_usd)

        completed = 0
        now = 0.0
        index = 0
        pending_reconfig_s = 0.0
        while now < duration:
            boundary, is_retry = self._next_boundary(groups, index, duration)
            completed, pending_reconfig_s = self._train(
                report, now, boundary, pending_reconfig_s, completed,
                max_iterations)
            now = boundary
            if now >= duration:
                break
            if max_iterations is not None and completed >= max_iterations:
                break

            topology = availability.topology_at(now, base=base_topology)
            plan_broken = (controller.current_plan is not None
                           and not controller._plan_still_fits(topology))
            decisions_at_boundary = len(controller.decisions)
            if is_retry:
                event = controller.maybe_retry(topology, now)
                trigger = "retry after backoff"
            else:
                fault_events = groups[index][1]
                index += 1
                trigger = ",".join(sorted({e.kind for e in fault_events}))
                price_events = [e for e in fault_events
                                if e.kind == "price_move"]
                if price_events:
                    self._apply_price_moves(price_events, base_prices, report)
                if price_events and len(price_events) == len(fault_events):
                    # A pure pricing boundary: the pool is unchanged, so the
                    # availability path's debounce/hysteresis would wrongly
                    # swallow the cost-basis change.
                    event = controller.handle_price_change(
                        topology, now, cause=trigger)
                else:
                    if price_events:
                        # Capacity moved at the same instant: take the
                        # availability path, but drop the price-stale caches
                        # first so the replan costs with the new tables.
                        controller.invalidate_price_caches()
                    event = controller.handle_availability_change(
                        topology, now, cause=trigger)
                report.events_applied += len(fault_events)

            lost = 0
            if plan_broken and (event is None
                                or event.tier is not DegradationTier.SHRINK_DP):
                # Capacity was lost out from under the incumbent: restart
                # from the latest durable checkpoint.  A shrink-in-place is
                # exempt -- the surviving replicas hold complete state.
                lost = self.checkpoints.rollback_iterations(completed, now)
                report.iterations_lost_to_rollback += lost
                report.rollback_lost_time_s += lost * self._last_iter_time_s
                completed = max(0, completed - lost)

            if event is not None:
                # A reconfiguration still in flight is superseded by the new
                # one (the broadcast restarts), so the debt is replaced, not
                # accumulated; it is drawn down inside the next windows and
                # only *consumed* time is accounted.
                pending_reconfig_s = event.total_s
                report.plan_history.append(
                    (now, plan_to_json(event.planner_result.plan,
                                       indent=None)))
            elif controller.current_plan is None:
                pending_reconfig_s = 0.0
            report.records.append(ReplayRecord(
                time_s=now, trigger=trigger,
                tier=event.tier if event is not None else None,
                action=controller.decisions[-1].action
                if len(controller.decisions) > decisions_at_boundary else "",
                pool_gpus=topology.total_gpus(),
                plan_gpus=(controller.current_plan.total_gpus
                           if controller.current_plan else 0),
                iterations_lost=lost))

        report.iterations_completed = completed
        self._tally_decisions(report, controller.decisions[decisions_before:])
        return report

    # -- internals ----------------------------------------------------------------

    def _apply_price_moves(self, events: list, base_prices: dict[str, float],
                           report: ChurnReport) -> None:
        """Apply ``price_move`` multipliers to the live price catalog.

        Multipliers are absolute w.r.t. the run-start base, not compounding:
        two successive 1.5x moves on the same pool leave the price at 1.5x
        the base, and the generator's revert event (multiplier 1.0) restores
        it exactly.  The replayer's own simulator is rebuilt so the
        training-rate accounting can never read a price-stale evaluator.
        """
        for event in events:
            gpu = get_node_type(event.node_type).gpu.name
            multiplier = (event.price_multiplier
                          if event.price_multiplier is not None else 1.0)
            self.env.prices.gpu_hourly_usd[gpu] = base_prices[gpu] * multiplier
            report.price_moves += 1
        self.simulator = SailorSimulator(self.env)

    def _next_boundary(self, groups: list, index: int,
                       duration: float) -> tuple[float, bool]:
        """Earliest upcoming wakeup: next fault group or a retry deadline."""
        event_t = groups[index][0] if index < len(groups) else duration
        retry_t = self.controller.next_retry_at_s
        if (self.controller.current_plan is None and retry_t is not None
                and retry_t < event_t and retry_t < duration):
            return retry_t, True
        return min(event_t, duration), False

    def _train(self, report: ChurnReport, start: float, end: float,
               reconfig_s: float, completed: int,
               max_iterations: int | None) -> tuple[int, float]:
        """Train over one quiet window, mirroring the session accounting.

        Returns the new completed-iteration count and the reconfiguration
        debt left to consume in later windows (the pause can outlast a
        short window between two fault boundaries).
        """
        plan = self.controller.current_plan
        span = max(0.0, end - start)
        if plan is None:
            report.idle_time_s += span
            return completed, 0.0
        consumed = min(reconfig_s, span)
        report.reconfiguration_time_s += consumed
        remaining_debt = reconfig_s - consumed
        window = span - consumed
        if window <= 0:
            return completed, remaining_debt
        evaluation = self.simulator.evaluate(plan)
        iter_time = evaluation.iteration_time_s
        self._last_iter_time_s = iter_time
        stall = self.checkpoints.stall_time_s(plan)
        drain = self.checkpoints.drain_time_s(plan)
        interval = self.checkpoints.config.interval_iterations

        effective_iter = iter_time + stall / interval
        iterations = int(window // effective_iter) if effective_iter > 0 else 0
        if max_iterations is not None:
            iterations = min(iterations, max(0, max_iterations - completed))

        for i in range(1, iterations + 1):
            iteration = completed + i
            if self.checkpoints.should_checkpoint(iteration):
                t_taken = start + consumed + i * effective_iter
                self.checkpoints.record(iteration, t_taken, t_taken + drain)
                report.checkpoint_stall_s += stall
        report.training_time_s += window
        return completed + iterations, remaining_debt

    @staticmethod
    def _tally_decisions(report: ChurnReport, decisions: list) -> None:
        """Fold the controller's decision log into the report counters."""
        for decision in decisions:
            # Planner calls only: a shrink-in-place decision reports its
            # own latency but runs no search.
            if (decision.replan_latency_s > 0
                    and decision.tier is not DegradationTier.SHRINK_DP):
                report.replans += 1
                report.replan_latencies_s.append(decision.replan_latency_s)
                if (decision.layer_cache_hits > 0 or decision.cache_hits > 0
                        or decision.plan_memo_hits > 0):
                    report.replans_warm += 1
                report.layer_cache_hits += decision.layer_cache_hits
                report.cache_hits += decision.cache_hits
                report.plan_memo_hits += decision.plan_memo_hits
            if decision.tier is DegradationTier.SHRINK_DP:
                report.shrinks += 1
            elif decision.tier is DegradationTier.PARK:
                report.parks += 1
            elif decision.action in ("kept", "not_worth_switching"):
                report.keeps += 1
            elif decision.action in ("debounced", "hysteresis"):
                report.debounces += 1
            elif decision.action == "switched":
                report.switches += 1
            if decision.trigger == "retry after backoff":
                report.retries += 1
            if decision.deadline_missed:
                report.deadline_fallbacks += 1

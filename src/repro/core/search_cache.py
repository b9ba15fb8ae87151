"""Cross-candidate caches shared by one planner invocation.

Motivation
----------
``SailorPlanner.plan`` explores one DP-solver candidate per
``(pipeline depth, microbatch size, data-parallel degree)`` triple.  The
quantities the solver needs -- per-stage compute times, gradient-sync
times, cost rates and the per-stage resource-combo enumeration -- depend
only on a *subset* of those knobs, so recomputing them inside every
:class:`~repro.core.dp_solver.DPSolver` wastes the bulk of the planner's
time.  :class:`PlannerSearchContext` hoists those caches out of the solver
so they are filled once per planner call and shared by every candidate
(and, in the serial driver, by every ``(P, mbs)`` branch).

Cache keys and invalidation rules
---------------------------------
All caches live on one :class:`PlannerSearchContext`, which is bound to a
single ``(environment, job, optimisation goal)`` triple.  A context must be
discarded whenever any of those change -- there is deliberately *no*
invalidation logic inside the context, because profiles, prices and the
job spec are immutable for the duration of one planning call.  Topology
changes (nodes appearing or disappearing) do **not** require a new
context: resource availability enters every key explicitly, so stale
entries can never be observed, only unused ones.

The keys (conceptually ``(pp, mbs, stage, node_type, tp)`` and
refinements; a :class:`~repro.models.partition.LayerPartition` value-hashes
``(pp, stage)`` plus the embedding/LM-head flags, so it is used in place of
the raw ``(pp, stage)`` pair):

=====================  ====================================================
cache                  key
=====================  ====================================================
partitions             ``pp`` (uniform layer split of the job's model)
stage compute time     ``(partition, mbs, node_type, tp)``
stage parameter count  ``partition``
stage sync time        ``(partition, dp, placements)``
stage cost rate        ``placements``
stage assignment       ``(partition, mbs, dp, placements)``
stage options          ``(tp_key, resources)``
stage master combos    ``(partition, mbs, dp, tp_key, resources, goal,
                       combo-config knobs)``
link class             ``(zone_a, zone_b)``
node specs / prices    ``node_type``
plan result (memo)     ``(canonical pool, Objective, PlannerConfig
                       snapshot)``
=====================  ====================================================

``placements`` is the canonical tuple ``((StageOption, count), ...)`` and
``resources`` the canonical sorted tuple ``(((zone, node_type), count),
...)``; both are hashable by construction.  ``tp_key`` canonicalises the
per-stage tensor-parallel option dict.

The plan-result memo sits one level above every other cache: it maps a
whole ``SailorPlanner.plan`` call to its result, so a churn replan
against a pool this context has already solved returns the stored plan
without searching.  Its key is the canonical pool of
:func:`plan_memo_pool` (sorted ``(zone, region, ((node_type, count),
...))`` entries with positive counts -- the only topology fields the
search reads), the frozen :class:`~repro.core.objectives.Objective`, and
a value snapshot (``dataclasses.astuple``) of the planner's whole
``PlannerConfig``, nested ``HeuristicConfig`` and ``DPSolverConfig``
included.  Only *complete* results are stored: a deadline-cut answer is
never stored or served, and calls with ``max_search_nodes`` set bypass
the memo entirely.  Like every cache here it has no invalidation of its
own -- prices live in the context, so a price move drops the whole
context -- and it is a bounded FIFO (the forward layers' 256-entry cap),
so a long-running controller cannot grow it without limit.  Only callers
passing a long-lived context reach it; cold calls build a fresh context
per call and never hit.

The context also owns the :class:`~repro.core.plan.SearchStats` counters
(nodes explored, memo hits, pruned branches, cache hits/misses, and the
candidate-level incumbent gate's ``gate_skips``) that
:class:`~repro.core.plan.PlannerResult` exposes, which is what makes the
speedup observable from benchmarks and ``examples/compare_planners.py``.

The *evaluation* side of the planner has a sibling context:
:class:`~repro.core.simulator.eval_context.EvaluationContext` plays the
same role for ``SailorSimulator.evaluate`` (per-environment caches plus
vectorized kernels over canonical plan arrays) that this class plays for
the DP search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.collectives import ring_allreduce_time
from repro.core.objectives import OptimizationGoal
from repro.core.plan import SearchStats
from repro.hardware.network import LinkClass
from repro.hardware.nodes import get_node_type
from repro.models.partition import LayerPartition, uniform_partition

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (environment -> plan)
    from repro.core.plan import PlannerResult
    from repro.core.simulator.environment import SimulationEnvironment
    from repro.hardware.topology import ClusterTopology
    from repro.models.spec import TrainingJobSpec


#: Canonical resource state: sorted ``(((zone, node_type), count), ...)``.
ResourceKey = tuple[tuple[tuple[str, str], int], ...]


@dataclass(frozen=True, slots=True)
class StageOption:
    """One way to host replicas of a stage: a (zone, node type, TP) choice."""

    zone: str
    node_type: str
    tensor_parallel: int

    @property
    def gpus_per_node(self) -> int:
        return get_node_type(self.node_type).gpus_per_node

    @property
    def replicas_per_node(self) -> int:
        """How many replicas of this option fit on one node."""
        return max(1, self.gpus_per_node // self.tensor_parallel)

    def nodes_needed(self, replicas: int) -> int:
        """Whole nodes needed to host ``replicas`` replicas."""
        return math.ceil(replicas / self.replicas_per_node)


@dataclass(frozen=True, slots=True)
class StageAssignment:
    """Resources given to one stage: replica counts per option.

    Instances are frozen and shared across DP candidates via the
    :class:`PlannerSearchContext` assignment cache, so the whole-node
    footprint is precomputed once at construction instead of on every
    ``nodes_used`` access in the recursion.  Note the footprint is a plain
    dict, so instances are *not* hashable despite ``frozen=True``.
    """

    stage_index: int
    placements: tuple[tuple[StageOption, int], ...]
    compute_time_s: float
    sync_time_s: float
    cost_rate_usd_per_s: float
    #: Whole nodes consumed, keyed by (zone, node type); derived from
    #: ``placements`` when omitted.  A caller-provided dict is copied so the
    #: assignment never aliases mutable state (e.g. a cached combo footprint).
    nodes_used: dict[tuple[str, str], int] | None = None

    def __post_init__(self) -> None:
        if self.nodes_used is None:
            used: dict[tuple[str, str], int] = {}
            for option, count in self.placements:
                key = (option.zone, option.node_type)
                used[key] = used.get(key, 0) + option.nodes_needed(count)
            object.__setattr__(self, "nodes_used", used)
        else:
            object.__setattr__(self, "nodes_used", dict(self.nodes_used))

    @property
    def total_replicas(self) -> int:
        return sum(count for _, count in self.placements)

    @property
    def zones(self) -> list[str]:
        return sorted({opt.zone for opt, _ in self.placements})


def tp_options_key(tp_options: dict[str, list[int]]) -> tuple:
    """Hashable canonical form of a per-stage TP-option dict."""
    return tuple(sorted((node_type, tuple(degrees))
                        for node_type, degrees in tp_options.items()))


def plan_memo_pool(topology: "ClusterTopology") -> tuple:
    """Canonical pool of a topology, as the plan-result memo keys it.

    Sorted ``(zone, region, ((node_type, count), ...))`` entries over the
    positive counts only: ``nodes`` and ``zone_to_region`` are the only
    topology fields the search reads (through ``consolidate_zones`` and
    the planner's resource map), and both ignore zero counts and dict
    order.
    """
    pool = []
    for zone, per_type in topology.nodes.items():
        counts = tuple(sorted((node_type, count)
                              for node_type, count in per_type.items()
                              if count > 0))
        if counts:
            pool.append((zone, topology.region_of(zone), counts))
    return tuple(sorted(pool))


class PlannerSearchContext:
    """Shared caches + search counters for one planner invocation.

    See the module docstring for the exact cache keys and the (absence of)
    invalidation rules.  One context serves every DP candidate of one
    ``SailorPlanner.plan`` call; the parallel driver builds one per worker
    process and merges the stats afterwards.
    """

    def __init__(self, env: "SimulationEnvironment", job: "TrainingJobSpec",
                 goal: OptimizationGoal = OptimizationGoal.MAX_THROUGHPUT) -> None:
        self.env = env
        self.job = job
        self.goal = goal
        self.stats = SearchStats()
        self._partitions: dict[int, list[LayerPartition]] = {}
        self._compute_time: dict[tuple, float] = {}
        self._stage_params: dict[LayerPartition, int] = {}
        self._sync_time: dict[tuple, float] = {}
        self._cost_rate: dict[tuple, float] = {}
        self._assignment: dict[tuple, StageAssignment] = {}
        self._options: dict[tuple, list[tuple[StageOption, int]]] = {}
        self._combos: dict[tuple, list[list]] = {}
        #: Cross-candidate forward-reachability cache (resource-state
        #: engine): ForwardLayers keyed by the solver's forward signature
        #: (clamped root + per-stage footprint matrices + clamps + limit).
        #: Layer reachability is microbatch-size independent, so every
        #: (P, mbs, D) candidate with the same signature -- typically all
        #: mbs variants of one (P, D) -- shares one forward pass.  The
        #: cached ForwardLayers also lazily grow the backward CSR argmin
        #: skeletons (``ForwardLayers.backward_csr``): the sparsity pattern
        #: of each layer's feasible (row, combo) pairs, which is likewise
        #: mbs-independent, so every candidate sharing a forward pass
        #: shares the backward reduction's structure too
        #: (``SearchStats.backward_shared_hits``).  Bounded FIFO: one
        #: planner call produces one signature per (P, D)-shaped
        #: candidate, far below the cap; the bound only guards pathological
        #: topologies from accumulating layer arrays without limit.
        self._forward_layers: dict[tuple, object] = {}
        self._forward_layers_max = 256
        #: Budget-certificate bound tables (resource-state engine):
        #: BudgetBoundTables (straggler, cost *and* sync floors -- the cost
        #: floor folds the minimal attainable sync overhead, see
        #: ``resource_state.compute_budget_bounds``) keyed by (forward
        #: signature, num microbatches, per-stage compute/sync/rate blobs)
        #: -- everything the bound recursion reads -- so only bit-identical
        #: bound passes are ever shared.  Same bounded-FIFO policy as the
        #: forward layers.
        self._budget_bounds: dict[tuple, object] = {}
        self._budget_bounds_max = 256
        #: Interval memo over partition counts (family floors): per
        #: ``(pp, mbs, tp_key)`` family, the availability-free per-stage
        #: minima triple of ``SailorPlanner._stage_floors``, plus the
        #: per-member ``{dp: floor}`` table it induces.  The memo reuses
        #: PR 3's interval-keyed validity-range idea one level up: each
        #: entry is valid for *every* availability snapshot (the minima
        #: range over every option the family admits, a superset of any
        #: pool's), and each per-``dp`` member floor is valid for every
        #: availability whose candidate interval contains ``dp`` -- so
        #: churn replans reuse the whole table warm with zero
        #: invalidation.  Unbounded by design: the key space is the
        #: (pp, mbs) enumeration itself, a few hundred entries at most.
        self._family_stage_floors: dict[tuple, tuple | None] = {}
        self._family_member_floors: dict[tuple, dict[int, float]] = {}
        #: Availability-aware tail-kill floor tables
        #: (``SailorPlanner._availability_stage_tables``), keyed by the
        #: full availability signature ``(pp, mbs, tp_key, resources)``.
        #: Bounded FIFO like the forward layers: one entry per (branch,
        #: pool) pair, so an online controller replanning across many
        #: availability snapshots cannot accumulate tables without limit.
        #: Hits are counted on ``stats.availability_floor_hits`` -- the
        #: observable behind the churn-replans-reuse-them-warm claim.
        self._availability_floors: dict[tuple, object] = {}
        self._availability_floors_max = 256
        #: Plan-result memo (see the module docstring): complete
        #: ``PlannerResult``s keyed by (canonical pool, objective, config
        #: snapshot), read and written only by ``SailorPlanner.plan``.
        #: Hits are counted on ``stats.plan_memo_hits``.  Bounded FIFO
        #: like the forward layers.
        self._plan_memo: dict[tuple, "PlannerResult"] = {}
        self._plan_memo_max = 256
        self._link_class: dict[tuple[str, str], LinkClass] = {}
        self._region: dict[str, str] = {}
        self._gpus_per_node: dict[str, int] = {}
        self._gpu_price: dict[str, float] = {}
        self._replicas_per_node: dict[tuple[str, int], int] = {}

    # -- hardware lookups -------------------------------------------------------

    def region_of(self, zone: str) -> str:
        region = self._region.get(zone)
        if region is None:
            region = self.env.region_of(zone)
            self._region[zone] = region
        return region

    def gpus_per_node(self, node_type: str) -> int:
        count = self._gpus_per_node.get(node_type)
        if count is None:
            count = get_node_type(node_type).gpus_per_node
            self._gpus_per_node[node_type] = count
        return count

    def replicas_per_node(self, node_type: str, tensor_parallel: int) -> int:
        """Replicas of one (node type, TP) choice that fit on one node.

        Context-scoped (like every hardware lookup here) so a re-registered
        node type can never leak a stale value across planning calls.
        """
        key = (node_type, tensor_parallel)
        cached = self._replicas_per_node.get(key)
        if cached is None:
            cached = max(1, self.gpus_per_node(node_type) // tensor_parallel)
            self._replicas_per_node[key] = cached
        return cached

    def gpu_price_per_second(self, node_type: str) -> float:
        price = self._gpu_price.get(node_type)
        if price is None:
            spec = get_node_type(node_type)
            price = self.env.prices.gpu_price_per_second(spec.gpu.name)
            self._gpu_price[node_type] = price
        return price

    # -- model-side caches ------------------------------------------------------

    def partitions(self, pipeline_parallel: int) -> list[LayerPartition]:
        """Uniform layer partition of the job's model, cached per depth."""
        cached = self._partitions.get(pipeline_parallel)
        if cached is None:
            cached = uniform_partition(self.job.model, pipeline_parallel)
            self._partitions[pipeline_parallel] = cached
        return cached

    def stage_params(self, partition: LayerPartition) -> int:
        params = self._stage_params.get(partition)
        if params is None:
            params = partition.stage_params(self.job.model)
            self._stage_params[partition] = params
        return params

    # -- stage metrics ----------------------------------------------------------

    def stage_compute_time(self, partition: LayerPartition, microbatch_size: int,
                           node_type: str, tensor_parallel: int) -> float:
        """Per-microbatch forward+backward time of a stage on one option."""
        key = (partition, microbatch_size, node_type, tensor_parallel)
        cached = self._compute_time.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.cache_misses += 1
        gpu_type = get_node_type(node_type).gpu.name
        profile = self.env.profiles.job_profile(gpu_type)
        layer = profile.layer(microbatch_size, tensor_parallel)
        total = partition.num_layers * layer.fwd_bwd_s
        if partition.has_embedding:
            total += profile.embedding(microbatch_size, tensor_parallel).fwd_bwd_s
        if partition.has_lm_head:
            total += profile.head(microbatch_size, tensor_parallel).fwd_bwd_s
        self._compute_time[key] = total
        return total

    def stage_sync_time(self, partition: LayerPartition, data_parallel: int,
                        placements: tuple[tuple[StageOption, int], ...]) -> float:
        """Approximate gradient all-reduce time of a stage's replicas."""
        if data_parallel == 1:
            return 0.0
        key = (partition, data_parallel, placements)
        cached = self._sync_time.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.cache_misses += 1
        stage_params = self.stage_params(partition)
        message = max(stage_params / opt.tensor_parallel * 2.0
                      for opt, _ in placements)
        zones = sorted({opt.zone for opt, _ in placements})
        node_types = sorted({opt.node_type for opt, _ in placements})
        if len(zones) == 1:
            link_class = LinkClass.INTRA_ZONE
        else:
            link_class = self.link_class(zones[0], zones[-1])
        profile = self.env.profiles.network_profile(
            node_types[0], node_types[-1], link_class)
        total = ring_allreduce_time(message, data_parallel, profile.transfer_time)
        self._sync_time[key] = total
        return total

    def link_class(self, zone_a: str, zone_b: str) -> LinkClass:
        key = (zone_a, zone_b)
        cached = self._link_class.get(key)
        if cached is None:
            cached = self.env.link_class(zone_a, zone_b)
            self._link_class[key] = cached
        return cached

    def stage_cost_rate(self,
                        placements: tuple[tuple[StageOption, int], ...]) -> float:
        """USD per second of the whole nodes a stage occupies."""
        cached = self._cost_rate.get(placements)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.cache_misses += 1
        total = 0.0
        for option, count in placements:
            nodes = option.nodes_needed(count)
            total += (nodes * self.gpus_per_node(option.node_type)
                      * self.gpu_price_per_second(option.node_type))
        self._cost_rate[placements] = total
        return total

    def stage_assignment(self, partition: LayerPartition, microbatch_size: int,
                         data_parallel: int,
                         placements: tuple[tuple[StageOption, int], ...],
                         nodes_used: dict[tuple[str, str], int] | None = None,
                         ) -> StageAssignment:
        """Fully-costed assignment of one combo, shared across candidates."""
        key = (partition, microbatch_size, data_parallel, placements)
        cached = self._assignment.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.cache_misses += 1
        assignment = self.build_stage_assignment(
            partition, microbatch_size, data_parallel, placements,
            nodes_used=nodes_used)
        self._assignment[key] = assignment
        return assignment

    def build_stage_assignment(self, partition: LayerPartition,
                               microbatch_size: int, data_parallel: int,
                               placements: tuple[tuple[StageOption, int], ...],
                               nodes_used: dict[tuple[str, str], int] | None = None,
                               compute_time_s: float | None = None,
                               ) -> StageAssignment:
        """Construct a fully-costed assignment without the keyed memo.

        The DP solver stores the assignment on its master-combo entry, which
        already deduplicates within a planner call, so the keyed memo above
        would only add (partition, placements)-hashing overhead on that
        path; the component caches (compute/sync/cost) still apply.
        ``compute_time_s`` lets the caller pass the stage compute time the
        master-combo ranking already established for these placements.
        """
        if compute_time_s is None:
            compute_time_s = max(
                self.stage_compute_time(partition, microbatch_size,
                                        opt.node_type, opt.tensor_parallel)
                for opt, _ in placements)
        sync = self.stage_sync_time(partition, data_parallel, placements)
        cost_rate = self.stage_cost_rate(placements)
        return StageAssignment(
            stage_index=partition.stage_index, placements=placements,
            compute_time_s=compute_time_s, sync_time_s=sync,
            cost_rate_usd_per_s=cost_rate, nodes_used=nodes_used)

    # -- resource-state forward layers ------------------------------------------

    def forward_layers(self, signature: tuple, build):
        """Forward-reachability layers for one footprint signature.

        ``build`` is invoked on a miss (it runs the chunked forward pass);
        hits are counted on ``stats.layer_cache_hits`` -- the observable
        behind the cross-candidate sharing claim.  Entries are evicted FIFO
        beyond the (generous) cap; see the attribute comment in
        ``__init__``.
        """
        cached = self._forward_layers.get(signature)
        if cached is not None:
            self.stats.layer_cache_hits += 1
            return cached
        layers = build()
        if len(self._forward_layers) >= self._forward_layers_max:
            self._forward_layers.pop(next(iter(self._forward_layers)))
        self._forward_layers[signature] = layers
        return layers

    def budget_bounds(self, signature: tuple, build):
        """Budget-certificate bound tables for one bound signature.

        The straggler/cost lower bounds the budget search certifies
        against (``resource_state.compute_budget_bounds``); ``build`` runs
        the batched bound pass on a miss.  Keyed alongside the forward
        layers so candidates sharing a forward pass *and* its per-stage
        compute/rate scalars (plus the microbatch count) share one bound
        table.
        """
        cached = self._budget_bounds.get(signature)
        if cached is not None:
            return cached
        bounds = build()
        if len(self._budget_bounds) >= self._budget_bounds_max:
            self._budget_bounds.pop(next(iter(self._budget_bounds)))
        self._budget_bounds[signature] = bounds
        return bounds

    # -- enumeration-level floors -----------------------------------------------

    def family_stage_floors(self, pp: int, mbs: int, tp_key: tuple, build):
        """Availability-free stage-minima triple of one (P, mbs) family.

        ``build`` runs ``SailorPlanner._stage_floors`` on a miss.  The
        entry is availability-independent (see the attribute comment), so
        it needs no pool in its key and survives churn untouched.
        """
        key = (pp, mbs, tp_key)
        if key in self._family_stage_floors:
            return self._family_stage_floors[key]
        floors = build()
        self._family_stage_floors[key] = floors
        return floors

    def family_member_floors(self, pp: int, mbs: int,
                             tp_key: tuple) -> dict[int, float]:
        """Mutable ``{dp: floor}`` member table of one (P, mbs) family.

        Extended lazily by the planner as availability snapshots expose
        new data-parallel members; an entry, once computed, answers every
        later snapshot whose candidate interval contains that ``dp``
        (the goal is context-bound, so it needs no place in the key).
        """
        key = (pp, mbs, tp_key)
        table = self._family_member_floors.get(key)
        if table is None:
            table = {}
            self._family_member_floors[key] = table
        return table

    def availability_floors(self, signature: tuple, build):
        """Availability-aware floor tables for one (branch, pool) signature.

        ``build`` assembles the per-stage threshold tables
        (``SailorPlanner._availability_stage_tables``) on a miss; hits are
        counted on ``stats.availability_floor_hits``.  Bounded FIFO, same
        policy as the forward layers.
        """
        cached = self._availability_floors.get(signature)
        if cached is not None:
            self.stats.availability_floor_hits += 1
            return cached
        tables = build()
        if len(self._availability_floors) >= self._availability_floors_max:
            self._availability_floors.pop(
                next(iter(self._availability_floors)))
        self._availability_floors[signature] = tables
        return tables

    # -- whole-call plan memo ---------------------------------------------------

    def memoised_plan(self, key: tuple) -> "PlannerResult | None":
        """The stored complete result of an earlier call under ``key``.

        Hits are counted on ``stats.plan_memo_hits``.  The stored result
        is shared, not copied: callers build a new ``PlannerResult``
        around its plan and evaluation, which nothing mutates in place.
        """
        stored = self._plan_memo.get(key)
        if stored is not None:
            self.stats.plan_memo_hits += 1
        return stored

    def memoise_plan(self, key: tuple, result: "PlannerResult") -> None:
        """Store a planner result if it is complete (bounded FIFO).

        A deadline-cut result is never stored: a later call on the same
        pool searches again rather than inherit a truncated answer.
        """
        if not result.complete:
            return
        if len(self._plan_memo) >= self._plan_memo_max:
            self._plan_memo.pop(next(iter(self._plan_memo)))
        self._plan_memo[key] = result

    # -- combo enumeration ------------------------------------------------------

    def stage_options(self, tp_options: dict[str, list[int]], tp_key: tuple,
                      resources: ResourceKey) -> list[tuple[StageOption, int]]:
        """All (option, max replicas) pairs available for a stage."""
        key = (tp_key, resources)
        cached = self._options.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.cache_misses += 1
        options: list[tuple[StageOption, int]] = []
        for (zone, node_type), count in resources:
            if count <= 0 or node_type not in tp_options:
                continue
            for tp in tp_options[node_type]:
                option = StageOption(zone=zone, node_type=node_type,
                                     tensor_parallel=tp)
                max_replicas = count * self.replicas_per_node(node_type, tp)
                if max_replicas >= 1:
                    options.append((option, max_replicas))
        self._options[key] = options
        return options

    def stage_master_combos(self, partition: LayerPartition,
                            microbatch_size: int, data_parallel: int,
                            tp_options: dict[str, list[int]], tp_key: tuple,
                            resources: ResourceKey, max_mixed: int,
                            split_fractions: tuple[float, ...]) -> list[list]:
        """Every resource combo able to host the stage's ``D`` replicas.

        Honours H5: every combo stays within a single region.  Combos are
        ranked by the stage compute time they imply (cost rate for the cost
        objective) and returned *untruncated* as mutable ``[placements,
        whole-node footprint, lazily-built StageAssignment, frozen
        footprint items, stage compute time]`` entries.  The DP solver
        filters this master list per resource state
        (a combo generated from a resource subset is exactly a master combo
        whose node footprint fits the subset), which replaces a quadratic
        enumeration plus sort per DP node with one linear scan.
        """
        key = (partition, microbatch_size, data_parallel, tp_key, resources,
               self.goal, max_mixed, split_fractions)
        cached = self._combos.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        self.stats.cache_misses += 1

        needed = data_parallel
        options = self.stage_options(tp_options, tp_key, resources)
        by_region: dict[str, list[tuple[StageOption, int]]] = {}
        for option, max_replicas in options:
            by_region.setdefault(self.region_of(option.zone), []).append(
                (option, max_replicas))

        combos: list[tuple[tuple[StageOption, int], ...]] = []
        for region_options in by_region.values():
            # Single-option combos.
            for option, max_replicas in region_options:
                if max_replicas >= needed:
                    combos.append(((option, needed),))
            # Two-option combos (heterogeneous stage or two zones).
            if max_mixed >= 2 and needed >= 2:
                for (opt_a, max_a), (opt_b, max_b) in itertools.combinations(
                        region_options, 2):
                    if opt_a.zone == opt_b.zone and opt_a.node_type == opt_b.node_type:
                        continue
                    for k in _split_counts(needed, split_fractions):
                        if k <= max_a and (needed - k) <= max_b:
                            combos.append(((opt_a, k), (opt_b, needed - k)))

        # Entries are [placements, footprint, assignment-or-None,
        # footprint-items, stage-compute-time]: the footprint and ranking
        # need only cached per-option scalars, while the full assignment
        # (whose sync time is the expensive part) is built lazily by the
        # solver for combos that actually fit a state.  The items tuple is
        # the footprint frozen for the solver's per-state fit scan (no dict
        # iteration per DP node), and the compute time -- needed for the
        # throughput ranking anyway -- is reused by the lazy assignment
        # build instead of being recomputed per combo.
        entries = []
        for placements in combos:
            footprint: dict[tuple[str, str], int] = {}
            for option, count in placements:
                node_key = (option.zone, option.node_type)
                per_node = self.replicas_per_node(option.node_type,
                                                  option.tensor_parallel)
                footprint[node_key] = (footprint.get(node_key, 0)
                                       + math.ceil(count / per_node))
            compute = max(
                self.stage_compute_time(partition, microbatch_size,
                                        opt.node_type, opt.tensor_parallel)
                for opt, _ in placements)
            entries.append([placements, footprint, None,
                            tuple(footprint.items()), compute])

        # Rank by the stage metric, breaking ties on the canonical placement
        # tuple.  The tiebreak matters for correctness of the per-state
        # filter: a stable sort alone would preserve *generation* order,
        # which depends on which (zone, region) pairs a resource state still
        # holds -- so a filtered master list could disagree with a fresh
        # per-state enumeration about which equal-metric combos survive
        # truncation.  A state-independent total order removes that.
        def tiebreak(placements: tuple[tuple[StageOption, int], ...]) -> tuple:
            return tuple((opt.zone, opt.node_type, opt.tensor_parallel, count)
                         for opt, count in placements)

        if self.goal is OptimizationGoal.MIN_COST:
            entries.sort(key=lambda entry: (self.stage_cost_rate(entry[0]),
                                            tiebreak(entry[0])))
        else:
            entries.sort(key=lambda entry: (entry[4], tiebreak(entry[0])))
        self._combos[key] = entries
        return entries


def _split_counts(total: int, fractions: tuple[float, ...]) -> list[int]:
    """Coarse split points for mixing two options within one stage."""
    if total < 2:
        return []
    points = {1, total - 1}
    for fraction in fractions:
        k = int(round(total * fraction))
        if 1 <= k <= total - 1:
            points.add(k)
    return sorted(points)

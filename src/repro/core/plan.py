"""Plan datatypes.

A Sailor *plan* couples a resource allocation with a job parallelization
plan (paper section 4.2): the number of pipeline stages ``P``, the data
parallel degree ``D`` shared by all stages, and for every stage the ``D``
replicas, each a ``(GPU type, tensor-parallel degree, zone)`` tuple, plus a
microbatch size.  These datatypes are shared by the Sailor planner, the
baseline planners, the simulator and the runtime.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

from repro.hardware.nodes import NodeSpec, get_node_type
from repro.models.partition import LayerPartition, uniform_partition
from repro.models.spec import TrainingJobSpec


@dataclass(frozen=True)
class StageReplica:
    """One data-parallel replica of one pipeline stage.

    A replica occupies ``tensor_parallel`` GPUs of a single node of
    ``node_type`` in ``zone`` (heuristic H1 keeps tensor parallelism within
    one node, so a replica never spans nodes).
    """

    node_type: str
    tensor_parallel: int
    zone: str

    def __post_init__(self) -> None:
        spec = get_node_type(self.node_type)
        if self.tensor_parallel < 1:
            raise ValueError("tensor_parallel must be >= 1")
        if self.tensor_parallel > spec.gpus_per_node:
            raise ValueError(
                f"tensor parallelism {self.tensor_parallel} exceeds the "
                f"{spec.gpus_per_node} GPUs of a {self.node_type} node (H1)")

    @property
    def node_spec(self) -> NodeSpec:
        """The node type spec of this replica."""
        return get_node_type(self.node_type)

    @property
    def gpu_type(self) -> str:
        """GPU type name of this replica."""
        return self.node_spec.gpu.name

    @property
    def num_gpus(self) -> int:
        """GPUs used by this replica (== tensor-parallel degree)."""
        return self.tensor_parallel


@dataclass
class StageConfig:
    """One pipeline stage: its layers and its data-parallel replicas."""

    partition: LayerPartition
    replicas: list[StageReplica]

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("a stage needs at least one replica")

    @property
    def stage_index(self) -> int:
        """0-based pipeline position of the stage."""
        return self.partition.stage_index

    @property
    def data_parallel(self) -> int:
        """Number of data-parallel replicas of this stage."""
        return len(self.replicas)

    @property
    def num_gpus(self) -> int:
        """GPUs used by all replicas of this stage."""
        return sum(r.num_gpus for r in self.replicas)

    @property
    def zones(self) -> list[str]:
        """Zones the stage's replicas live in, sorted and de-duplicated."""
        return sorted({r.zone for r in self.replicas})

    @property
    def gpu_types(self) -> list[str]:
        """GPU types used by the stage, sorted and de-duplicated."""
        return sorted({r.gpu_type for r in self.replicas})

    def tensor_parallel_degrees(self) -> list[int]:
        """Tensor-parallel degree of every replica (heterogeneity allowed)."""
        return [r.tensor_parallel for r in self.replicas]


@dataclass
class ResourceAllocation:
    """Whole nodes used by a plan, grouped by zone and node type."""

    nodes: dict[tuple[str, str], int] = field(default_factory=dict)

    def add(self, zone: str, node_type: str, count: int = 1) -> None:
        """Add ``count`` nodes of a type in a zone."""
        if count < 0:
            raise ValueError("count must be non-negative")
        key = (zone, node_type)
        self.nodes[key] = self.nodes.get(key, 0) + count

    def node_count(self, zone: str, node_type: str) -> int:
        """Allocated node count for one (zone, node type) pair."""
        return self.nodes.get((zone, node_type), 0)

    def total_nodes(self) -> int:
        """Total allocated nodes."""
        return sum(self.nodes.values())

    def total_gpus(self) -> int:
        """Total allocated GPUs."""
        return sum(count * get_node_type(node_type).gpus_per_node
                   for (_, node_type), count in self.nodes.items())

    def gpus_by_type(self) -> dict[str, int]:
        """Allocated GPUs keyed by GPU type."""
        out: dict[str, int] = {}
        for (_, node_type), count in self.nodes.items():
            spec = get_node_type(node_type)
            out[spec.gpu.name] = out.get(spec.gpu.name, 0) + count * spec.gpus_per_node
        return out

    def gpus_by_zone_and_type(self) -> dict[tuple[str, str], int]:
        """Allocated GPUs keyed by (zone, GPU type)."""
        out: dict[tuple[str, str], int] = {}
        for (zone, node_type), count in self.nodes.items():
            spec = get_node_type(node_type)
            key = (zone, spec.gpu.name)
            out[key] = out.get(key, 0) + count * spec.gpus_per_node
        return out

    def zones(self) -> list[str]:
        """Zones with at least one allocated node."""
        return sorted({zone for (zone, _), count in self.nodes.items() if count > 0})

    def fits_within(self, available: "ClusterTopologyLike") -> bool:
        """True when every (zone, node type) count fits the given topology."""
        for (zone, node_type), count in self.nodes.items():
            if count > available.node_count(zone, node_type):
                return False
        return True


class ClusterTopologyLike:
    """Structural protocol for anything exposing ``node_count(zone, type)``."""

    def node_count(self, zone: str, node_type: str) -> int:  # pragma: no cover
        raise NotImplementedError


@dataclass
class ParallelizationPlan:
    """A complete training configuration for one job.

    Attributes
    ----------
    job:
        The training job (model + fixed hyperparameters).
    stages:
        One :class:`StageConfig` per pipeline stage, in pipeline order.
    microbatch_size:
        Microbatch size every pipeline uses.
    """

    job: TrainingJobSpec
    stages: list[StageConfig]
    microbatch_size: int

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a plan needs at least one stage")
        if self.microbatch_size < 1:
            raise ValueError("microbatch_size must be >= 1")
        dp = self.stages[0].data_parallel
        for stage in self.stages:
            if stage.data_parallel != dp:
                raise ValueError(
                    "all stages must share the same data-parallel degree")
        total_layers = sum(s.partition.num_layers for s in self.stages)
        if total_layers != self.job.model.num_layers:
            raise ValueError(
                f"stages cover {total_layers} layers but the model has "
                f"{self.job.model.num_layers}")
        # The global batch must split evenly (raises ValueError otherwise).
        self.job.num_microbatches(dp, self.microbatch_size)

    # -- degrees ---------------------------------------------------------------

    @property
    def pipeline_parallel(self) -> int:
        """Pipeline-parallel degree ``P``."""
        return len(self.stages)

    @property
    def data_parallel(self) -> int:
        """Data-parallel degree ``D`` (same for every stage)."""
        return self.stages[0].data_parallel

    @property
    def num_microbatches(self) -> int:
        """Microbatches each pipeline processes per iteration."""
        return self.job.num_microbatches(self.data_parallel, self.microbatch_size)

    # -- resources -------------------------------------------------------------

    @property
    def total_gpus(self) -> int:
        """GPUs used by the plan."""
        return sum(stage.num_gpus for stage in self.stages)

    def gpus_by_type(self) -> dict[str, int]:
        """GPUs used, keyed by GPU type."""
        out: dict[str, int] = {}
        for stage in self.stages:
            for replica in stage.replicas:
                out[replica.gpu_type] = out.get(replica.gpu_type, 0) + replica.num_gpus
        return out

    def zones(self) -> list[str]:
        """Zones used by the plan."""
        zones: set[str] = set()
        for stage in self.stages:
            zones.update(stage.zones)
        return sorted(zones)

    def is_heterogeneous(self) -> bool:
        """True when more than one GPU type or TP degree is used."""
        gpu_types: set[str] = set()
        tp_degrees: set[int] = set()
        for stage in self.stages:
            gpu_types.update(stage.gpu_types)
            tp_degrees.update(stage.tensor_parallel_degrees())
        return len(gpu_types) > 1 or len(tp_degrees) > 1

    def resource_allocation(self) -> ResourceAllocation:
        """Whole-node allocation implied by the plan.

        Replicas of the same stage that share a (zone, node type) are packed
        onto as few nodes as possible.
        """
        allocation = ResourceAllocation()
        for stage in self.stages:
            packing: dict[tuple[str, str], int] = {}
            for replica in stage.replicas:
                key = (replica.zone, replica.node_type)
                packing[key] = packing.get(key, 0) + replica.tensor_parallel
            for (zone, node_type), gpus in packing.items():
                per_node = get_node_type(node_type).gpus_per_node
                allocation.add(zone, node_type, math.ceil(gpus / per_node))
        return allocation

    def pipeline(self, data_parallel_index: int) -> list[StageReplica]:
        """The chain of stage replicas forming one pipeline."""
        if not 0 <= data_parallel_index < self.data_parallel:
            raise IndexError("data_parallel_index out of range")
        return [stage.replicas[data_parallel_index] for stage in self.stages]

    def describe(self) -> str:
        """Short human-readable summary (used by examples and logs)."""
        parts = [
            f"P={self.pipeline_parallel} D={self.data_parallel} "
            f"mbs={self.microbatch_size} gpus={self.total_gpus}",
        ]
        for stage in self.stages:
            counts: dict[tuple[str, int, str], int] = {}
            for replica in stage.replicas:
                key = (replica.gpu_type, replica.tensor_parallel, replica.zone)
                counts[key] = counts.get(key, 0) + 1
            summary = ", ".join(
                f"{n}x(tp={tp} {gpu} @{zone})"
                for (gpu, tp, zone), n in sorted(counts.items()))
            parts.append(
                f"  stage {stage.stage_index}: {stage.partition.num_layers} layers, {summary}")
        return "\n".join(parts)

    # -- constructors ------------------------------------------------------------

    @classmethod
    def homogeneous(cls, job: TrainingJobSpec, node_type: str,
                    pipeline_parallel: int, data_parallel: int,
                    tensor_parallel: int, microbatch_size: int,
                    zone: str = "us-central1-a") -> "ParallelizationPlan":
        """Build the classic uniform (Megatron-style) plan."""
        partitions = uniform_partition(job.model, pipeline_parallel)
        stages = []
        for partition in partitions:
            replicas = [StageReplica(node_type, tensor_parallel, zone)
                        for _ in range(data_parallel)]
            stages.append(StageConfig(partition=partition, replicas=replicas))
        return cls(job=job, stages=stages, microbatch_size=microbatch_size)


@dataclass
class PlanEvaluation:
    """Simulator verdict on one plan."""

    iteration_time_s: float
    throughput_iters_per_s: float
    cost_per_iteration_usd: float
    peak_memory_bytes_per_stage: list[float]
    is_valid: bool
    oom_stages: list[int] = field(default_factory=list)
    compute_cost_usd: float = 0.0
    communication_cost_usd: float = 0.0
    pipeline_time_s: float = 0.0
    sync_time_s: float = 0.0
    update_time_s: float = 0.0
    straggler_stage: int = 0

    @property
    def samples_per_s(self) -> float:
        """Sequences per second implied by the iteration time (informational)."""
        return self.throughput_iters_per_s


@dataclass
class SearchStats:
    """Counters describing how much work one planner search performed.

    Filled by the DP solver / search context; all-zero for planners that do
    not report them (the baselines).  The counters make planner-latency
    optimisations observable: a faster search should show fewer nodes
    explored and more memo/cache hits, not just a smaller wall-clock time.
    """

    nodes_explored: int = 0
    memo_hits: int = 0
    pruned_branches: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Candidates whose full simulator evaluation was skipped because their
    #: conservative iteration-time floor already lost to the incumbent.
    gate_skips: int = 0
    #: Forward reachability passes served from the search context's
    #: cross-candidate layer cache instead of being recomputed (resource-
    #: state engine; one hit saves one whole chunked fit-test + dedup pass).
    layer_cache_hits: int = 0
    #: Straggler-loop suffix resolutions actually performed under a budget
    #: constraint: scalar straggler-loop iterations that probe or solve a
    #: suffix, plus each budget combo the batched scan resolves inline via
    #: engine dominance.  This is the count the straggler convergence
    #: certificates attack (the observable behind the "fewer iterations,
    #: not cheaper iterations" claim).
    suffix_iterations: int = 0
    #: Suffix resolutions avoided by a convergence/infeasibility
    #: certificate (straggler or cost lower bound, or the engine-seeded
    #: dominance pre-check): the loop's answer was proven without probing
    #: or re-solving the suffix.
    suffix_certified: int = 0
    #: Per-branch completeness of an anytime search: (P, mbs) branches whose
    #: candidate enumeration ran to its natural end versus branches cut by
    #: the deadline / node budget (their unexplored candidates contribute
    #: admissible lower bounds to ``PlannerResult.optimality_gap_bound``).
    branches_complete: int = 0
    branches_incomplete: int = 0
    #: Cooperative cancellations observed: ``SearchBudgetExhausted`` raised
    #: inside a DP hot loop and salvaged by the branch search.
    budget_interrupts: int = 0
    #: Backward layers scored through a CSR skeleton reused from the shared
    #: forward pass (``ForwardLayers.backward_csr``): each hit saves the
    #: per-candidate dense (rows, combos) mask/gather rebuild.
    backward_shared_hits: int = 0
    #: Candidates dropped by the bound-ordered tail cut before their DP
    #: solve ran: an admissible evaluation floor proved every remaining
    #: candidate of the branch cannot beat the incumbent, so none of them
    #: was solved, built or evaluated (see ``SailorPlanner._plan_branch``).
    candidates_killed_unevaluated: int = 0
    #: Whole (P, mbs) families skipped before any forward build: the
    #: family's interval-memoised floor (min over its data-parallel
    #: members) already loses to the cross-branch incumbent, so every
    #: member was dropped wholesale (``PlannerConfig.family_interval_memo``).
    families_skipped: int = 0
    #: Backward layer combines served by the fused workspace kernel
    #: (preallocated per-footprint buffers + cached-signature einsum)
    #: instead of fresh full-size temporaries
    #: (``DPSolverConfig.fused_combine``).
    combine_fused_hits: int = 0
    #: Availability-aware tail-kill floor tables served warm from the
    #: per-availability-signature cache instead of being rebuilt
    #: (``PlannerConfig.availability_aware_floors``); churn replans against
    #: an unchanged pool hit this on every branch.
    availability_floor_hits: int = 0
    #: Planner calls answered from the search context's plan-result memo
    #: (``PlannerSearchContext.memoised_plan``): a replan against a pool
    #: the long-lived context already solved, returned without searching.
    plan_memo_hits: int = 0

    def merge(self, other: "SearchStats") -> None:
        """Accumulate another stats block into this one (parallel driver)."""
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)

    def diff(self, earlier: "SearchStats") -> "SearchStats":
        """Counters accumulated since ``earlier`` (a snapshot of self)."""
        return SearchStats(**{name: value - getattr(earlier, name)
                              for name, value in self.as_dict().items()})

    def copy(self) -> "SearchStats":
        """Snapshot of the current counters."""
        return SearchStats(**self.as_dict())

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form for JSON serialisation and logging.

        Derived from the dataclass fields so merge/diff/copy/from_dict all
        follow automatically when a counter is added.
        """
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SearchStats":
        """Inverse of :meth:`as_dict`; tolerates missing and unknown keys."""
        known = {f.name for f in fields(cls)}
        return cls(**{name: int(value) for name, value in data.items()
                      if name in known})

    def describe(self) -> str:
        """One-line summary (used by the CLI and examples)."""
        return (f"nodes={self.nodes_explored} memo_hits={self.memo_hits} "
                f"pruned={self.pruned_branches} cache_hits={self.cache_hits} "
                f"gate_skips={self.gate_skips} "
                f"layer_cache_hits={self.layer_cache_hits} "
                f"suffix_iters={self.suffix_iterations} "
                f"suffix_certified={self.suffix_certified} "
                f"shared_backward={self.backward_shared_hits} "
                f"killed_unevaluated={self.candidates_killed_unevaluated} "
                f"families_skipped={self.families_skipped} "
                f"fused_combines={self.combine_fused_hits} "
                f"avail_floor_hits={self.availability_floor_hits} "
                f"plan_memo_hits={self.plan_memo_hits} "
                f"branches={self.branches_complete}+"
                f"{self.branches_incomplete}cut "
                f"interrupts={self.budget_interrupts}")


@dataclass
class PlannerResult:
    """Outcome of one planner invocation.

    **Anytime semantics.**  A deadline- or node-budget-bounded search may be
    interrupted before it exhausts the candidate space.  The result then
    still carries the best *incumbent* found before the interrupt, plus a
    certificate of how much could have been missed:

    * ``complete`` is True only when the search ran to its natural end.  It
      is False when any (P, mbs) branch was cut by the deadline/node budget
      *or* (parallel driver) a branch had to be salvaged from a crashed or
      wedged worker -- even when the retry recovered it, so callers can tell
      a degraded call from a clean one.  ``incomplete_branches`` lists the
      affected branches as ``"P<pp>/mbs<mbs>"`` labels.
    * ``optimality_gap_bound`` is an admissible relative bound on the
      remaining gap: the true optimum of the unbounded search is no better
      than ``incumbent_value * (1 - gap)`` for the minimised scalar
      (iteration time under the throughput goal, cost per iteration under
      the cost goal).  It is exactly ``0.0`` when ``complete`` (unbounded
      calls are byte-identical to pre-anytime results), ``inf`` when the
      search was cut before any feasible incumbent existed, and may be
      ``0.0`` with ``complete=False`` when the incompleteness is
      fault-induced only (every branch value was still recovered).
    * Degraded merges: the parallel driver salvages surviving branches when
      a worker dies, retries dead branches once on a fresh pool, then
      re-runs them inline; whatever could not be recovered contributes its
      admissible lower bound to the gap instead of silently vanishing.

    Callers deciding whether to *adopt* such a result (e.g. the online
    replanning controller) should gate on ``found`` and
    ``optimality_gap_bound``, not on ``complete`` alone.
    """

    plan: ParallelizationPlan | None
    evaluation: PlanEvaluation | None
    search_time_s: float
    planner_name: str = "sailor"
    candidates_evaluated: int = 0
    oom_plans_generated: int = 0
    notes: str = ""
    search_stats: SearchStats = field(default_factory=SearchStats)
    #: Whether the search ran to completion (see anytime semantics above).
    complete: bool = True
    #: Admissible relative optimality-gap bound; 0.0 exactly when complete.
    optimality_gap_bound: float = 0.0
    #: Branch labels cut short or fault-salvaged, in branch order.
    incomplete_branches: list[str] = field(default_factory=list)

    @property
    def found(self) -> bool:
        """True when a valid plan was produced."""
        return self.plan is not None and self.evaluation is not None

"""Seeded input generator for the four benchmark workloads.

Every cold workload is a fixed list of *slots* (model, objective, pool
size, node types, zone spread).  The seed fills each slot in: the zones,
which zone each node type sits in, and the budget cap.  For ``churn`` it
picks the zones and the price moves' pools and multipliers over a fixed
fault trace.  Slots keep the work of one seed close to that of any other,
so timings of different seeds are comparable while the inputs differ.
The node counts are fixed by the slot: a seeded surplus of one or two
nodes moved a single plan call's time by up to a third.

The generator reads only the library's catalogs (models, node types, the
default cloud layout) and its fault-trace generator; it never plans.  Every
pool it builds is feasible for its objective: every slot contains
``a2-highgpu-4g`` nodes, which host the cheapest plan of both models, and
every budget cap sits above that plan's cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.core.objectives import Objective
from repro.hardware.nodes import get_node_type
from repro.hardware.topology import ClusterTopology, default_cloud_layout
from repro.models.catalog import get_model
from repro.models.spec import TrainingJobSpec
from repro.runtime.faults import FaultScenarioGenerator, FaultTrace

#: Seed the benchmark uses when none is given.
DEFAULT_SEED = 0
#: Seed kept out of tuning: a claimed gain must also hold on it.
HELD_OUT_SEED = 7919

WORKLOADS = ("small-pools", "large-pools", "churn", "deadline")

GLOBAL_BATCH = {"OPT-350M": 256, "GPT-Neo-2.7B": 256}
#: Cost per iteration of the cheapest plan of each model on
#: ``a2-highgpu-4g`` nodes; budget caps are drawn above it.
CHEAPEST_USD_PER_ITER = {"OPT-350M": 0.012637, "GPT-Neo-2.7B": 0.068568}
#: Budget caps sit this far above the cheapest plan (give or take 2%),
#: between the cost steps of the plans the caps admit, so a seed moves
#: the cap without flipping which plan sizes fit under it.
BUDGET_FACTOR = {"OPT-350M": 1.25, "GPT-Neo-2.7B": 1.20}
#: Time limit of every ``deadline`` call.
DEADLINE_S = 0.050
#: Events in one ``churn`` trace, in this many equal episodes; each episode
#: has one price move and its revert, the rest is the fault generator's
#: default mix.
CHURN_EVENTS = 200
CHURN_EPISODES = 5
CHURN_DURATION_S = 3 * 3600.0
#: Placeholder zones the churn episodes are drawn on (see ``_churn``).
_ZONE_A, _ZONE_B = "zone-a", "zone-b"


@dataclass(frozen=True)
class Slot:
    """The fixed shape of one planning problem; the seed fills it in."""

    model: str
    objective: str  # "throughput", "cost" or "budget"
    gpus: int
    node_types: tuple[str, ...]
    #: "zone" (one zone), "region" (two zones of one region) or "geo"
    #: (two zones in two regions).
    spread: str


@dataclass
class Problem:
    """One cold planning call: a pool, a job and an objective."""

    label: str
    job: TrainingJobSpec
    topology: ClusterTopology
    objective: Objective
    kind: str  # "throughput", "cost" or "budget"
    time_limit_s: float | None = None


@dataclass
class ChurnCase:
    """One fault trace to replay against the controller."""

    job: TrainingJobSpec
    base_topology: ClusterTopology
    pools: dict[tuple[str, str], int]
    trace: FaultTrace


@dataclass
class Workload:
    """Everything one run of a workload needs, made from its seed."""

    name: str
    seed: int
    problems: list[Problem] = field(default_factory=list)
    churn: ChurnCase | None = None


_A100 = ("a2-highgpu-4g",)
_A100_V100 = ("a2-highgpu-4g", "n1-standard-v100-4")
_A100_V100_8 = ("a2-highgpu-4g", "n1-standard-v100-8")
_A100_A100_8 = ("a2-highgpu-4g", "a2-highgpu-8g")
_THREE = ("a2-highgpu-4g", "n1-standard-v100-4", "gh200-4g")

SMALL_SLOTS = (
    Slot("OPT-350M", "throughput", 16, _A100, "zone"),
    Slot("OPT-350M", "cost", 32, _A100_A100_8, "zone"),
    Slot("OPT-350M", "budget", 32, _A100_V100, "zone"),
    Slot("GPT-Neo-2.7B", "throughput", 32, _A100_V100_8, "region"),
    Slot("GPT-Neo-2.7B", "cost", 64, _A100_V100, "zone"),
    Slot("GPT-Neo-2.7B", "budget", 64, _A100_V100_8, "zone"),
    Slot("OPT-350M", "throughput", 64, _THREE, "zone"),
    Slot("OPT-350M", "cost", 64, _A100_V100_8, "geo"),
    Slot("OPT-350M", "budget", 64, _A100_A100_8, "zone"),
    Slot("GPT-Neo-2.7B", "throughput", 128, _A100_V100, "region"),
    Slot("OPT-350M", "throughput", 128, _A100_V100_8, "zone"),
    Slot("OPT-350M", "budget", 128, _A100_A100_8, "zone"),
    Slot("GPT-Neo-2.7B", "cost", 128, _A100_V100, "geo"),
)

#: No 512-GPU max-throughput slot: at about 2.5 s it cut the passes that fit
#: in a run from three or four to two, and with two samples a problem's
#: time moved by a fifth from run to run.  ``deadline`` plans it.
LARGE_SLOTS = (
    Slot("OPT-350M", "cost", 512, _A100_V100, "zone"),
    Slot("OPT-350M", "cost", 768, _A100_V100, "region"),
    Slot("OPT-350M", "cost", 1024, _A100_V100, "geo"),
    Slot("OPT-350M", "throughput", 1024, _A100_V100, "zone"),
)

DEADLINE_SLOTS = (
    Slot("OPT-350M", "throughput", 512, _A100_V100, "zone"),
    Slot("OPT-350M", "cost", 512, _A100_V100, "region"),
    Slot("OPT-350M", "throughput", 768, _A100_V100, "geo"),
    Slot("OPT-350M", "cost", 768, _A100_V100, "zone"),
    Slot("OPT-350M", "throughput", 1024, _A100_V100, "zone"),
    Slot("OPT-350M", "cost", 1024, _A100_V100, "region"),
)


def make_job(model: str) -> TrainingJobSpec:
    return TrainingJobSpec(model=get_model(model),
                           global_batch_size=GLOBAL_BATCH[model])


def _zones(rng: random.Random, spread: str) -> list[str]:
    """Seeded zones of the default layout for a slot's ``spread``."""
    layout = default_cloud_layout()
    by_region: dict[str, list[str]] = {}
    for zone in sorted(layout):
        by_region.setdefault(layout[zone], []).append(zone)
    regions = sorted(by_region)
    if spread == "zone":
        return [rng.choice(sorted(layout))]
    if spread == "region":
        return rng.sample(by_region[rng.choice(regions)], 2)
    first, second = rng.sample(regions, 2)
    return [rng.choice(by_region[first]), rng.choice(by_region[second])]


def _split_nodes(gpus: int, types: list[str]) -> dict[str, int]:
    """Whole nodes per type adding up to about ``gpus`` GPUs: the GPUs split
    evenly between the types, every type keeping at least one node."""
    counts = {}
    for node_type in types:
        per_node = get_node_type(node_type).gpus_per_node
        counts[node_type] = max(1, round(gpus / len(types) / per_node))
    return counts


def _place(rng: random.Random, counts: dict[str, int],
           zones: list[str]) -> ClusterTopology:
    """Put the node types, in a seeded order, round-robin into the zones."""
    order = list(counts)
    rng.shuffle(order)
    nodes: dict[str, dict[str, int]] = {}
    for index, node_type in enumerate(order):
        nodes.setdefault(zones[index % len(zones)], {})[node_type] = (
            counts[node_type])
    return ClusterTopology(nodes=nodes)


def _objective(rng: random.Random, slot: Slot) -> Objective:
    if slot.objective == "throughput":
        return Objective.max_throughput()
    if slot.objective == "cost":
        return Objective.min_cost()
    cap = (CHEAPEST_USD_PER_ITER[slot.model] * BUDGET_FACTOR[slot.model]
           * rng.uniform(0.98, 1.02))
    return Objective.max_throughput(max_cost_per_iteration_usd=cap)


def _problems(rng: random.Random, slots,
              time_limit_s: float | None = None) -> list[Problem]:
    problems = []
    jobs: dict[str, TrainingJobSpec] = {}
    for index, slot in enumerate(slots):
        counts = _split_nodes(slot.gpus, list(slot.node_types))
        topology = _place(rng, counts, _zones(rng, slot.spread))
        job = jobs.setdefault(slot.model, make_job(slot.model))
        problems.append(Problem(
            label=(f"{index:02d}-{slot.model}-{slot.objective}-"
                   f"{topology.total_gpus()}gpu"),
            job=job, topology=topology, objective=_objective(rng, slot),
            kind=slot.objective, time_limit_s=time_limit_s))
    return problems


def _churn(rng: random.Random) -> ChurnCase:
    """Five fixed fault episodes on a seeded pair of zones.

    Each episode opens with the full pool and holds one price move with its
    revert.  The faults and the times of the price moves are the same for
    every seed: a seeded episode order alone moved the median reaction
    time by a sixth from seed to seed.  The seed picks the two zones and
    each price move's pool and multiplier; under the max-throughput
    objective a price move invalidates the search context the same way
    whatever its size.  Episodes are drawn on placeholder zones and
    renamed, so the names' sort order cannot change which pool an event
    hits.
    """
    zone_a, zone_b = _zones(rng, "region")
    placeholder = {(_ZONE_A, "a2-highgpu-4g"): 4,
                   (_ZONE_A, "n1-standard-v100-4"): 4,
                   (_ZONE_B, "a2-highgpu-4g"): 2}
    names = {_ZONE_A: zone_a, _ZONE_B: zone_b}
    keys = sorted(placeholder)
    length = CHURN_DURATION_S / CHURN_EPISODES
    per_episode = CHURN_EVENTS // CHURN_EPISODES
    events = []
    for episode in range(CHURN_EPISODES):
        faults = FaultScenarioGenerator(seed=episode)
        part = faults.churn_trace(placeholder, duration_s=length,
                                  num_events=per_episode - 2)
        draw = random.Random(episode)
        at_s = draw.uniform(0.05, 0.5) * length
        revert_after_s = draw.uniform(0.1, 0.4) * length
        zone, node_type = keys[rng.randrange(len(keys))]
        part.events.extend(faults.price_move(
            zone, node_type, placeholder[(zone, node_type)], at_s=at_s,
            multiplier=rng.uniform(0.5, 2.0), revert_after_s=revert_after_s))
        events.extend(replace(event, zone=names[event.zone],
                              time_s=event.time_s + episode * length)
                      for event in part.events)
    pools = {(names[zone], node_type): count
             for (zone, node_type), count in placeholder.items()}
    nodes: dict[str, dict[str, int]] = {}
    for (zone, node_type), count in pools.items():
        nodes.setdefault(zone, {})[node_type] = count
    trace = FaultTrace(events=events, duration_s=CHURN_DURATION_S)
    return ChurnCase(job=make_job("OPT-350M"),
                     base_topology=ClusterTopology(nodes=nodes),
                     pools=pools, trace=trace)


def generate(name: str, seed: int) -> Workload:
    """The inputs of workload ``name`` for ``seed``; same seed, same inputs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}/{seed}")
    workload = Workload(name=name, seed=seed)
    if name == "small-pools":
        workload.problems = _problems(rng, SMALL_SLOTS)
    elif name == "large-pools":
        workload.problems = _problems(rng, LARGE_SLOTS)
    elif name == "deadline":
        workload.problems = _problems(rng, DEADLINE_SLOTS,
                                      time_limit_s=DEADLINE_S)
    else:
        workload.churn = _churn(rng)
    return workload


def fingerprint(workload: Workload) -> str:
    """Canonical text of a workload's inputs, to compare two of them."""
    lines = []
    for problem in workload.problems:
        constraint = problem.objective.constraint
        lines.append(repr((problem.label, problem.job.model.name,
                           problem.job.global_batch_size,
                           sorted((z, sorted(t.items()))
                                  for z, t in problem.topology.nodes.items()),
                           problem.objective.goal.value,
                           constraint.max_cost_per_iteration_usd,
                           problem.time_limit_s)))
    if workload.churn is not None:
        lines.append(repr(sorted(workload.churn.pools.items())))
        lines.append(workload.churn.trace.to_json(indent=None))
    return "\n".join(lines)

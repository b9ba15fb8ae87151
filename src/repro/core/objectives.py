"""Objectives and constraints for the planner.

Users submit an objective -- maximise throughput or minimise monetary cost
per iteration -- and optional constraints: a budget ceiling (USD per
iteration) and/or a throughput floor (iterations per second).  Both the
Sailor planner and the constraint-adapted baselines (section 5.2.4) consume
these datatypes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.plan import PlanEvaluation


class OptimizationGoal(enum.Enum):
    """What the planner optimises."""

    MAX_THROUGHPUT = "max_throughput"
    MIN_COST = "min_cost"


@dataclass(frozen=True)
class Constraint:
    """Optional limits a valid plan must satisfy.

    Attributes
    ----------
    max_cost_per_iteration_usd:
        Budget ceiling per iteration (``None`` = unconstrained).
    min_throughput_iters_per_s:
        Throughput floor (``None`` = unconstrained).
    max_gpus:
        Hard cap on the number of GPUs a plan may use.
    """

    max_cost_per_iteration_usd: float | None = None
    min_throughput_iters_per_s: float | None = None
    max_gpus: int | None = None

    def __post_init__(self) -> None:
        # ``not > 0`` rather than ``<= 0`` so NaN is rejected too: every
        # comparison with NaN is False, so a NaN cap would never bind.
        if (self.max_cost_per_iteration_usd is not None
                and not self.max_cost_per_iteration_usd > 0):
            raise ValueError("max_cost_per_iteration_usd must be positive")
        if (self.min_throughput_iters_per_s is not None
                and not self.min_throughput_iters_per_s > 0):
            raise ValueError("min_throughput_iters_per_s must be positive")
        if self.max_gpus is not None and self.max_gpus < 1:
            raise ValueError("max_gpus must be >= 1")

    @property
    def is_unconstrained(self) -> bool:
        """True when no limit is set."""
        return (self.max_cost_per_iteration_usd is None
                and self.min_throughput_iters_per_s is None
                and self.max_gpus is None)

    def satisfied_by(self, evaluation: PlanEvaluation,
                     total_gpus: int | None = None) -> bool:
        """Check whether an evaluated plan satisfies every limit."""
        if not evaluation.is_valid:
            return False
        if (self.max_cost_per_iteration_usd is not None
                and evaluation.cost_per_iteration_usd > self.max_cost_per_iteration_usd):
            return False
        if (self.min_throughput_iters_per_s is not None
                and evaluation.throughput_iters_per_s < self.min_throughput_iters_per_s):
            return False
        if (self.max_gpus is not None and total_gpus is not None
                and total_gpus > self.max_gpus):
            return False
        return True


@dataclass(frozen=True)
class Objective:
    """Objective + constraints bundle passed to a planner."""

    goal: OptimizationGoal = OptimizationGoal.MAX_THROUGHPUT
    constraint: Constraint = Constraint()

    def score(self, evaluation: PlanEvaluation) -> float:
        """Scalar score where *larger is better* under this objective."""
        if self.goal is OptimizationGoal.MAX_THROUGHPUT:
            return evaluation.throughput_iters_per_s
        return -evaluation.cost_per_iteration_usd

    def better(self, candidate: PlanEvaluation,
               incumbent: PlanEvaluation | None) -> bool:
        """True when ``candidate`` beats the current ``incumbent``."""
        if incumbent is None:
            return True
        return self.score(candidate) > self.score(incumbent)

    @classmethod
    def max_throughput(cls, max_cost_per_iteration_usd: float | None = None,
                       max_gpus: int | None = None) -> "Objective":
        """Maximise throughput, optionally under a budget ceiling."""
        return cls(goal=OptimizationGoal.MAX_THROUGHPUT,
                   constraint=Constraint(
                       max_cost_per_iteration_usd=max_cost_per_iteration_usd,
                       max_gpus=max_gpus))

    @classmethod
    def min_cost(cls, min_throughput_iters_per_s: float | None = None,
                 max_gpus: int | None = None) -> "Objective":
        """Minimise USD per iteration, optionally above a throughput floor."""
        return cls(goal=OptimizationGoal.MIN_COST,
                   constraint=Constraint(
                       min_throughput_iters_per_s=min_throughput_iters_per_s,
                       max_gpus=max_gpus))

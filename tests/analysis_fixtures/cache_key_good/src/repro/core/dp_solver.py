"""Clean twin of ``cache_key_bad``: every field keyed, marked or removed.

``mystery_knob`` now reaches the signature; ``engine_threshold`` is
exempt through its value-preservation marker; the dead field is gone.
``memo_knob`` is keyed only through a plan-memo lookup, a registered key
site.
"""

from dataclasses import dataclass


@dataclass
class DPSolverConfig:
    #: Folded into the signature below (via the ``limit`` alias).
    max_states: int = 8
    #: Folded into the signature directly.
    mystery_knob: int = 3
    #: Dispatch threshold; results are bit-identical on either route
    #: (equivalence test), so no cached artifact can depend on it.
    engine_threshold: int = 64
    #: Folded into the plan-memo key below.
    memo_knob: int = 2


class DPSolver:
    def __init__(self, config: DPSolverConfig, context) -> None:
        self.config = config
        self.context = context

    def solve(self, root):
        limit = self.config.max_states
        stored = self.context.memoised_plan((root, self.config.memo_knob))
        if stored is not None:
            return stored
        signature = (root, limit, self.config.mystery_knob)
        if root and len(root) > self.config.engine_threshold:
            return self._expand(signature, batched=True)
        return self._expand(signature, batched=False)

    @staticmethod
    def _expand(signature, batched):
        return signature, batched

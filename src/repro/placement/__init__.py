"""Data and reduce-task placement (§5).

- :class:`~repro.placement.model.PlacementProblem` — the Table 1 inputs.
- :mod:`~repro.placement.lp` — the LP of equations (2)–(7); since the
  objective couples ``r_i`` with ``x_{i,j}`` bilinearly, the joint solver
  alternates two exact LPs (x given r, r given x) to a fixed point.
- :mod:`~repro.placement.solver` — HiGHS through scipy's binding plus a
  pure-Python two-phase simplex fallback.
- :mod:`~repro.placement.iridium` — the Iridium baseline: separate
  task-placement LP and greedy high-value data movement heuristic [27].
- :mod:`~repro.placement.plan` — executing a plan against real shards,
  with similarity-aware or random record selection.
"""

from repro.placement.iridium import IridiumPlanner
from repro.placement.joint import JointPlanner
from repro.placement.lp import solve_data_lp, solve_task_lp
from repro.placement.model import PlacementProblem
from repro.placement.plan import MovementPolicy, PlacementPlan, execute_plan
from repro.placement.solver import LinearProgram, LpSolution, solve_lp

__all__ = [
    "IridiumPlanner",
    "JointPlanner",
    "LinearProgram",
    "LpSolution",
    "MovementPolicy",
    "PlacementPlan",
    "PlacementProblem",
    "execute_plan",
    "solve_data_lp",
    "solve_lp",
    "solve_task_lp",
]
